/**
 * @file
 * Tests for the multi-process worker runtime (rt/worker_runtime), run
 * as threads sharing one address space but communicating only through
 * real 127.0.0.1 UDP sockets — the same code path capmaestro_worker
 * daemons execute, minus fork/exec. Covers the healthy steady state
 * (every edge budgeted, no degraded decisions) and the §4.5 failure
 * story: a killed rack worker is detected by heartbeat silence, the
 * room logs a WorkerFailover event, and the surviving rack keeps
 * receiving real budgets throughout.
 *
 * Set CAPMAESTRO_NO_NET=1 to skip (every test binds UDP sockets).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "config/loader.hh"
#include "core/distributed.hh"
#include "core/events.hh"
#include "membership/table.hh"
#include "policy/policy.hh"
#include "net/transport.hh"
#include "rt/chaos.hh"
#include "rt/aggregator.hh"
#include "rt/host.hh"
#include "rt/leaf.hh"
#include "rt/plant.hh"
#include "rt/stats.hh"
#include "rt/supervisor.hh"
#include "rt/worker_runtime.hh"
#include "test_support.hh"
#include "util/json.hh"

using namespace capmaestro;
using test_support::depth4Scenario;

namespace {

#define SKIP_WITHOUT_NET()                                            \
    do {                                                              \
        if (std::getenv("CAPMAESTRO_NO_NET") != nullptr)              \
            GTEST_SKIP() << "CAPMAESTRO_NO_NET is set";               \
    } while (0)

/** Dual-feed testbed whose partitioning rule yields two rack workers:
 *  leftCB (servers 0, 2) is rack 0 and rightCB (servers 1, 3) is rack
 *  1 on both trees; the room is endpoint 2. */
const char *kScenario = R"({
  "feeds": 2,
  "trees": [
    {
      "feed": 0, "phase": 0, "name": "X",
      "root": {
        "kind": "breaker", "name": "topCB", "rating": 1400,
        "children": [
          { "kind": "breaker", "name": "leftCB", "rating": 750,
            "children": [
              { "kind": "supply", "server": 0, "supply": 0 },
              { "kind": "supply", "server": 2, "supply": 0 } ] },
          { "kind": "breaker", "name": "rightCB", "rating": 750,
            "children": [
              { "kind": "supply", "server": 1, "supply": 0 },
              { "kind": "supply", "server": 3, "supply": 0 } ] }
        ]
      }
    },
    {
      "feed": 1, "phase": 0, "name": "Y",
      "root": {
        "kind": "breaker", "name": "topCB", "rating": 1400,
        "children": [
          { "kind": "breaker", "name": "leftCB", "rating": 750,
            "children": [
              { "kind": "supply", "server": 0, "supply": 1 },
              { "kind": "supply", "server": 2, "supply": 1 } ] },
          { "kind": "breaker", "name": "rightCB", "rating": 750,
            "children": [
              { "kind": "supply", "server": 1, "supply": 1 },
              { "kind": "supply", "server": 3, "supply": 1 } ] }
        ]
      }
    }
  ],
  "servers": [
    { "name": "SA", "priority": 1,
      "supplies": [ { "share": 0.5 }, { "share": 0.5 } ],
      "workload": { "type": "constant", "utilization": 0.684 } },
    { "name": "SB",
      "supplies": [ { "share": 0.5 }, { "share": 0.5 } ],
      "workload": { "type": "constant", "utilization": 0.686 } },
    { "name": "SC",
      "supplies": [ { "share": 0.53 }, { "share": 0.47 } ],
      "workload": { "type": "constant", "utilization": 0.722 } },
    { "name": "SD",
      "supplies": [ { "share": 0.46 }, { "share": 0.54 } ],
      "workload": { "type": "constant", "utilization": 0.734 } }
  ],
  "service": { "policy": "global", "spo": false },
  "budgets": { "totalPerPhase": 1400 }
})";

constexpr double kPeriodMs = 300.0;
constexpr std::size_t kWorkers = 3; // rack 0, rack 1, room

std::uint64_t
unixNowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

config::LoadedScenario
loadScenarioForWorker()
{
    auto scenario = config::loadScenario(util::parseJson(kScenario));
    // Deadlines well under the period, generous for loopback: the
    // protocol phases consume 160 ms of each 300 ms window.
    config::applyTransportJson(
        scenario.service,
        util::parseJson(R"({"backend":"udp","gatherDeadlineMs":80,
            "budgetDeadlineMs":80,"retryTimeoutMs":20})"));
    return scenario;
}

/** Build all three runtimes on ephemeral ports and cross-wire them. */
std::vector<std::unique_ptr<rt::WorkerRuntime>>
makeDeployment()
{
    config::WorkerPeers peers;
    peers.periodMs = kPeriodMs;
    peers.originMs = unixNowMs() + 200; // epoch 1 starts shortly
    for (std::uint32_t e = 0; e < kWorkers; ++e)
        peers.peers[e] = net::UdpPeer{"127.0.0.1", 0};

    std::vector<std::unique_ptr<rt::WorkerRuntime>> workers;
    for (std::uint32_t role = 0; role < kWorkers; ++role) {
        workers.push_back(std::make_unique<rt::WorkerRuntime>(
            loadScenarioForWorker(), peers, role, /*seed=*/1));
    }
    for (std::uint32_t a = 0; a < kWorkers; ++a) {
        for (std::uint32_t b = 0; b < kWorkers; ++b) {
            if (a == b)
                continue;
            workers[a]->udp()->setPeer(
                b, net::UdpPeer{"127.0.0.1",
                                workers[b]->udp()->boundPort(b)});
        }
    }
    return workers;
}

/** Run every worker for its period count on its own thread. */
void
runAll(std::vector<std::unique_ptr<rt::WorkerRuntime>> &workers,
       const std::vector<std::size_t> &periods)
{
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < workers.size(); ++i) {
        threads.emplace_back([&workers, &periods, i] {
            workers[i]->runPeriods(periods[i]);
        });
    }
    for (auto &thread : threads)
        thread.join();
}

} // namespace

TEST(WorkerRuntime, RolesPartitionTheDeployment)
{
    SKIP_WITHOUT_NET();
    auto workers = makeDeployment();
    EXPECT_EQ(workers[0]->rackCount(), 2u);
    EXPECT_FALSE(workers[0]->isRoom());
    EXPECT_FALSE(workers[1]->isRoom());
    EXPECT_TRUE(workers[2]->isRoom());
}

TEST(WorkerRuntime, HealthyDeploymentBudgetsEveryEdgeEveryPeriod)
{
    SKIP_WITHOUT_NET();
    auto workers = makeDeployment();
    runAll(workers, {3, 3, 3});

    for (std::size_t rack = 0; rack < 2; ++rack) {
        const auto &stats = workers[rack]->stats();
        EXPECT_EQ(stats.periodsRun, 3u) << "rack " << rack;
        // Two trees -> two edges per rack, budgeted every period.
        EXPECT_EQ(stats.budgetsApplied, 6u) << "rack " << rack;
        EXPECT_EQ(stats.defaultBudgets, 0u) << "rack " << rack;
        EXPECT_EQ(stats.corruptFrames, 0u) << "rack " << rack;
        EXPECT_TRUE(workers[rack]->eventLog().events().empty())
            << "rack " << rack;
    }
    const auto &room = workers[2]->stats();
    EXPECT_EQ(room.periodsRun, 3u);
    EXPECT_EQ(room.staleReuses, 0u);
    EXPECT_EQ(room.metricsLost, 0u);
    EXPECT_EQ(room.failovers, 0u);
    EXPECT_TRUE(workers[2]->eventLog().events().empty());

    // Rack 0 homes servers 0 and 2 and actually capped them with the
    // budgets the room computed.
    const auto sa = workers[0]->lastServerBudgets(0);
    ASSERT_EQ(sa.size(), 2u);
    EXPECT_GT(sa[0] + sa[1], 0.0);
    EXPECT_TRUE(workers[0]->lastServerBudgets(1).empty());
    const auto sb = workers[1]->lastServerBudgets(1);
    ASSERT_EQ(sb.size(), 2u);
    EXPECT_GT(sb[0] + sb[1], 0.0);
}

TEST(WorkerRuntime, KilledRackIsDetectedAndSurvivorsKeepRunning)
{
    SKIP_WITHOUT_NET();
    auto workers = makeDeployment();
    // Rack 1 dies after 2 periods (its thread simply exits, as if the
    // process were killed); rack 0 and the room run 8. With
    // heartbeatFailAfter=3 the room must declare rack 1 dead around
    // epoch 5 and keep budgeting rack 0 throughout.
    runAll(workers, {8, 2, 8});

    const auto &room = workers[2]->stats();
    EXPECT_EQ(room.failovers, 1u);
    const auto failovers = workers[2]->eventLog().ofKind(
        core::EventKind::WorkerFailover);
    ASSERT_EQ(failovers.size(), 1u);
    EXPECT_EQ(failovers[0].subject, "worker1");
    EXPECT_EQ(failovers[0].value, -1.0);
    // Rack 1's edges rode the §4.5 degradation: stale reuse while the
    // cache was fresh enough, metrics-lost afterwards.
    EXPECT_GT(room.staleReuses, 0u);
    EXPECT_GT(room.metricsLost, 0u);

    // The survivor never degraded to default budgets.
    const auto &rack0 = workers[0]->stats();
    EXPECT_EQ(rack0.periodsRun, 8u);
    EXPECT_EQ(rack0.budgetsApplied, 16u);
    EXPECT_EQ(rack0.defaultBudgets, 0u);
    EXPECT_TRUE(workers[0]->eventLog().events().empty());
}

TEST(WorkerRuntime, RequestStopExitsPromptly)
{
    SKIP_WITHOUT_NET();
    auto workers = makeDeployment();
    auto &room = *workers[2];
    std::thread runner([&room] { room.runPeriods(1000); });
    std::this_thread::sleep_for(std::chrono::milliseconds(450));
    room.requestStop();
    const auto asked = std::chrono::steady_clock::now();
    runner.join();
    const auto took =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - asked)
            .count();
    // One period (300 ms) plus slack: the stop flag is honored at the
    // next boundary check, never after another full period.
    EXPECT_LT(took, 2000);
    EXPECT_LT(room.stats().periodsRun, 1000u);
}

// Regression: a rack worker that dies and is restarted *within the
// same epoch window* never misses a heartbeat, so the room's liveness
// counter alone cannot see the restart. The sequence-regression check
// must still catch it, and the new instance must be degraded to the
// stale-cache path — not double-counted as both the dead instance
// (stale) and a live one (fresh) in the same window. The fresh-plant
// numbers of a reincarnated process would otherwise poison the room's
// allocation. Runs in deterministic lockstep over SimTransport, so the
// exact counter values are asserted, not bounded.
TEST(WorkerRuntime, SameEpochRestartIsNotDoubleCounted)
{
    rt::LockstepDeployment dep(kScenario, rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/42);
    ASSERT_EQ(dep.rackCount(), 2u);
    // Kill and restart rack 1 at the same epoch: the replacement steps
    // in epoch 5 as if the crash-and-respawn fit inside one window.
    dep.chaos().at(5, rt::ChaosEvent::Kind::Kill, 1);
    dep.chaos().at(5, rt::ChaosEvent::Kind::Restart, 1);
    const auto report = dep.run(10);

    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(report.recoveries, 1u);
    EXPECT_EQ(report.unrecovered, 0u);
    // Restart at 5, re-homed by 6: two periods end to end.
    EXPECT_EQ(report.maxRecoveryPeriods, 2u);

    const auto &room = dep.room().stats();
    // Never a heartbeat failover — the whole point of this scenario —
    // but exactly one restart detection (sequence regression).
    EXPECT_EQ(room.failovers, 0u);
    EXPECT_EQ(room.restartsDetected, 1u);
    EXPECT_EQ(room.rehomed, 1u);
    EXPECT_EQ(room.rehomesSent, 1u);
    // Epoch 5 is the only degraded period, and the new instance's two
    // edges ride the stale cache exactly once each. Double counting
    // would either budget them fresh (0 stale) or degrade them twice
    // (4 events).
    EXPECT_EQ(room.staleReuses, 2u);
    EXPECT_EQ(room.metricsLost, 0u);

    // The replacement replayed the checkpoint and spent exactly its
    // restart period clamped to defaults.
    ASSERT_NE(dep.rack(1), nullptr);
    const auto &rack1 = dep.rack(1)->stats();
    EXPECT_EQ(rack1.rehomesApplied, 1u);
    EXPECT_EQ(rack1.clampedPeriods, 1u);
    EXPECT_EQ(dep.rack(1)
                  ->eventLog()
                  .ofKind(core::EventKind::CheckpointReplayed)
                  .size(),
              1u);
    // The survivor never noticed.
    const auto &rack0 = dep.rack(0)->stats();
    EXPECT_EQ(rack0.defaultBudgets, 0u);
    EXPECT_EQ(rack0.clampedPeriods, 0u);
}

// §4.4/§4.5 soak: 50 seeded kill/restart cycles across both racks
// under 10 % frame loss, in deterministic lockstep over SimTransport.
// The safety audit runs after every epoch (no applied budget may ever
// exceed a device limit or a tree's root budget), every restart must
// re-home within a bounded number of periods, and the shared telemetry
// registry must agree with the harness's own accounting.
TEST(WorkerRuntime, SoakFiftyKillsUnderLossStaysSafe)
{
    net::TransportConfig faults;
    faults.dropRate = 0.1;
    faults.seed = 1234;
    rt::LockstepDeployment dep(kScenario, rt::ChaosBackend::Sim, faults,
                               /*seed=*/7);
    dep.chaos().randomKillRestarts(dep.rackCount(),
                                   /*first_epoch=*/5,
                                   /*last_epoch=*/600,
                                   /*kills=*/50,
                                   /*down_periods=*/4);
    // Busy-spacing can push events past last_epoch; run far enough
    // beyond the final restart for its re-homing to complete.
    std::uint32_t last_event = 0;
    for (const auto &event : dep.chaos().events())
        last_event = std::max(last_event, event.epoch);
    const auto report = dep.run(last_event + 20);

    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(report.recoveries, 50u);
    EXPECT_EQ(report.unrecovered, 0u);
    // Down for 4 periods, then the re-homing handshake; 10 % loss can
    // cost a few retries but recovery must stay bounded.
    EXPECT_GT(report.maxRecoveryPeriods, 0u);
    EXPECT_LE(report.maxRecoveryPeriods, 12u);

    // The room observed every kill (as failover or same-window restart
    // detection) and re-homed every replacement.
    const auto &room = dep.room().stats();
    EXPECT_EQ(room.rehomed, 50u);
    EXPECT_GE(room.rehomesSent, 50u);
    EXPECT_GE(room.failovers + room.restartsDetected, 50u);
    EXPECT_GT(room.checkpointsStored, 0u);

    // The telemetry counters are the external interface the ops story
    // rides on; they must match the in-process stats exactly.
    auto &reg = dep.registry();
    const telemetry::Labels room_labels{{"role", "room"},
                                        {"tier", "1"}};
    EXPECT_EQ(reg.counter("capmaestro_rt_rehomed_total", room_labels)
                  .value(),
              static_cast<double>(room.rehomed));
    EXPECT_EQ(reg.counter("capmaestro_rt_failovers_total", room_labels)
                  .value(),
              static_cast<double>(room.failovers));
    EXPECT_EQ(reg.counter("capmaestro_rt_restarts_detected_total",
                          room_labels)
                  .value(),
              static_cast<double>(room.restartsDetected));
    EXPECT_EQ(reg.counter("capmaestro_rt_rehomes_sent_total",
                          room_labels)
                  .value(),
              static_cast<double>(room.rehomesSent));
    // Replays are counted by whichever rack instance applied them; the
    // registry accumulates across instances, so it must cover every
    // re-homing the room completed.
    double replayed = 0.0;
    for (std::size_t r = 0; r < dep.rackCount(); ++r) {
        replayed += reg.counter("capmaestro_rt_rehomes_applied_total",
                                {{"role",
                                  "rack" + std::to_string(r)},
                                 {"tier", "0"}})
                        .value();
    }
    EXPECT_GE(replayed, static_cast<double>(room.rehomed));
}

TEST(WorkerRuntime, RejectsMalformedDeployments)
{
    SKIP_WITHOUT_NET();
    // Roles beyond the room and undersized peer tables are fatal; the
    // checks below only exercise the validating paths that return.
    config::WorkerPeers peers;
    peers.periodMs = kPeriodMs;
    peers.originMs = unixNowMs();
    for (std::uint32_t e = 0; e < kWorkers; ++e)
        peers.peers[e] = net::UdpPeer{"127.0.0.1", 0};
    EXPECT_DEATH(
        {
            rt::WorkerRuntime bad(
                config::loadScenario(util::parseJson(kScenario)), peers,
                /*role=*/7);
        },
        "out of range");

    config::WorkerPeers short_peers = peers;
    short_peers.peers.erase(2);
    EXPECT_DEATH(
        {
            rt::WorkerRuntime bad(
                config::loadScenario(util::parseJson(kScenario)),
                short_peers, /*role=*/0);
        },
        "peer table");
}

// ------------------------------------------- deep-tree lockstep soak

TEST(WorkerRuntime, Depth4LossySoakNeverOvershootsAndBoundsStaleReuse)
{
    // 200 control periods of a depth-4 deployment (15 workers,
    // agg_levels = {1, 2}) under 50% seeded frame loss on every hop
    // (this seed drops 24,743 of 49,092 frames), which the four blind
    // sends of every frame thin to about 6%: 361 stale reuses and 4
    // lost stations over the 5,600 (link, period) gathers, 6.5%. The
    // §4.5 claim under sustained degradation:
    //   - no applied edge budget ever exceeds a device limit, and no
    //     tree's applied total ever exceeds its root budget (the
    //     harness audits every epoch);
    //   - stale-metric reuse stays bounded: each (hop, station, tree)
    //     may ride its cache at most staleAgeCapPeriods consecutive
    //     periods before the station is excluded and floors reserved,
    //     so total reuse cannot drift toward one-per-station-period.
    constexpr std::uint64_t kSoakSeed = 4242;
    constexpr std::uint64_t kFaultSeed = 999;
    const std::string repro =
        "reproduce: LockstepDeployment(depth4Scenario(), Sim, "
        "{dropRate=0.5, seed=" + std::to_string(kFaultSeed)
        + "}, seed=" + std::to_string(kSoakSeed)
        + ", agg_levels={1,2}); run(200)";

    net::TransportConfig faults;
    faults.dropRate = 0.5;
    faults.seed = kFaultSeed;
    rt::LockstepDeployment dep(depth4Scenario(), rt::ChaosBackend::Sim,
                               faults, kSoakSeed,
                               /*agg_levels=*/{1, 2});
    ASSERT_EQ(dep.plan().tiers(), 4u);
    ASSERT_EQ(dep.rackCount(), 8u);
    ASSERT_EQ(dep.plan().workers.size(), 15u);

    const auto report = dep.run(200);
    EXPECT_EQ(report.epochsRun, 200u);
    EXPECT_EQ(report.violations, 0u)
        << report.firstViolation << "\n" << repro;
    EXPECT_EQ(report.onlineViolations, report.violations);

    // Loss was actually exercised on the upstream path...
    std::size_t stale = dep.room().stats().staleReuses;
    for (std::uint32_t ep = 8; ep <= 13; ++ep) {
        ASSERT_NE(dep.unit(ep), nullptr);
        stale += dep.unit(ep)->stats().staleReuses;
    }
    EXPECT_GT(stale, 0u) << repro;
    // ...and stayed bounded: the receiving hops track 28 (tree,
    // station) links; at most 10% effective loss per link makes
    // one-in-ten periods stale per link the drift-free expectation.
    // 3x that expectation over 200 periods (1,680; this seed reuses
    // 361) flags any cache that stops expiring.
    EXPECT_LT(stale, 3u * 200u * 28u / 10u) << repro;

    // Downstream silence produced defaults, but budgets still flowed
    // most of the time on every leaf.
    for (std::size_t r = 0; r < dep.rackCount(); ++r) {
        const auto &stats = dep.rack(r)->stats();
        EXPECT_GT(stats.budgetsApplied, 200u) << "rack " << r << "\n"
                                              << repro;
    }
}

// ------------------------------------------------ host epoch resync

// Free-running WorkerHost epochs need a resync story: a process that
// starts after the fleet has already burned through its first deadline
// windows would otherwise stay behind forever — its frames orphaned by
// everyone, everyone's frames held or orphaned by it, zero budgets
// applied for the life of the deployment. The regression below drives
// exactly that: the fleet (every worker but one leaf) runs 8 epochs
// alone, then the late process starts. It must fast-forward through
// the missed epochs via the catch-up path (parent beacons + future
// frames), rejoin the live fleet, and receive real budgets again.
TEST(WorkerHost, LateStarterFastForwardsAndRejoinsTheFleet)
{
    SKIP_WITHOUT_NET();
    // Depth-3 cut of the depth-4 scenario (agg_levels = {1}): 8 leaf
    // workers (0-7), 4 row aggregators (8-11), root (12). Process 1
    // hosts only leaf 7; process 0 hosts everything else.
    const std::string scenario_json = depth4Scenario();
    auto load = [&scenario_json] {
        auto s = config::loadScenario(util::parseJson(scenario_json));
        config::applyTransportJson(
            s.service,
            util::parseJson(R"({"backend":"udp","gatherDeadlineMs":30,
                "budgetDeadlineMs":30,"retryTimeoutMs":10})"));
        return s;
    };
    config::WorkerPeers peers;
    peers.periodMs = kPeriodMs;
    peers.originMs = unixNowMs();
    peers.aggLevels = {1};
    for (std::uint32_t e = 0; e < 13; ++e)
        peers.peers[e] = net::UdpPeer{"127.0.0.1", 0};
    peers.processOf[7] = 1;

    rt::WorkerHost fleet(load(), peers, /*process=*/0, /*seed=*/1);
    rt::WorkerHost late(load(), peers, /*process=*/1, /*seed=*/1);
    // Both hosts bound ephemeral ports at construction (so frames
    // queue for the late starter from epoch 1); cross-wire them.
    auto wire = [](rt::WorkerHost &dst, rt::WorkerHost &src) {
        for (const auto ep : src.endpoints()) {
            dst.udp()->setPeer(
                ep,
                net::UdpPeer{"127.0.0.1", src.udp()->boundPort(ep)});
        }
    };
    wire(fleet, late);
    wire(late, fleet);

    // Phase 1: the fleet runs 8 epochs without leaf 7. Its row
    // aggregator deadline-closes every gather and beacons the silent
    // child each epoch.
    std::thread ahead([&fleet] { fleet.runPeriods(8); });
    ahead.join();
    EXPECT_EQ(fleet.lastEpoch(), 8u);
    EXPECT_GT(fleet.stats().staleReuses + fleet.stats().metricsLost,
              0u);

    // Phase 2: the late process starts 8 epochs behind and must burn
    // through the gap at CPU speed — every missed epoch closes as a
    // catch-up period (degraded, Pcap_min defaults), none waits out
    // the deadline cascade.
    const std::size_t caught = late.runPeriods(6);
    EXPECT_EQ(caught, 6u);
    EXPECT_EQ(late.lastEpoch(), 6u);
    EXPECT_EQ(late.stats().catchUpPeriods, 6u);
    EXPECT_EQ(late.stats().budgetsApplied, 0u);
    EXPECT_GT(late.stats().defaultBudgets, 0u);

    // Phase 3: both run live. The late host closes its last two
    // missed epochs, converges to within one epoch of the fleet, and
    // from then on the deployment is complete again — real budgets
    // must flow to leaf 7, and both hosts must finish every period.
    std::thread rest([&fleet] { fleet.runPeriods(12); });
    const std::size_t rejoined = late.runPeriods(14);
    rest.join();
    EXPECT_EQ(rejoined, 14u);
    EXPECT_EQ(fleet.lastEpoch(), 20u);
    EXPECT_EQ(late.lastEpoch(), 20u);
    EXPECT_GT(late.stats().budgetsApplied, 0u);
}

// A WorkerHost delivers frames between roles it hosts itself through
// an in-memory inbox, and only frames bound for another process reach
// the transport. Where a role runs must not change what it decides:
// the lossless depth-3 plan run as one host and split over three
// cross-wired UDP hosts must apply bit-identical budgets, and the
// frame accounting must add up — co-hosted plus transport frames are
// every frame the roles exchanged, and the transports carry exactly
// the links the split cuts.
TEST(WorkerHost, CoHostingIsInvisibleToAllocation)
{
    SKIP_WITHOUT_NET();
    constexpr std::size_t kPeriods = 10;
    constexpr std::uint64_t kSeed = 5;
    const std::string scenario_json = depth4Scenario();
    // Generous deadlines: completeness paces a lossless run, so they
    // only matter if a loaded box deschedules a host thread.
    auto load = [&scenario_json] {
        auto s = config::loadScenario(util::parseJson(scenario_json));
        config::applyTransportJson(
            s.service,
            util::parseJson(R"({"backend":"udp","gatherDeadlineMs":500,
                "budgetDeadlineMs":500,"retryTimeoutMs":10})"));
        return s;
    };
    config::WorkerPeers peers;
    peers.periodMs = kPeriodMs;
    peers.originMs = unixNowMs();
    peers.aggLevels = {1};
    for (std::uint32_t e = 0; e < 13; ++e)
        peers.peers[e] = net::UdpPeer{"127.0.0.1", 0};

    // (a) every role in one host.
    rt::WorkerHost whole(load(), peers, /*process=*/0, kSeed);
    ASSERT_EQ(whole.endpoints().size(), 13u);
    ASSERT_EQ(whole.runPeriods(kPeriods), kPeriods);

    // (b) the --processes layout over 3 hosts: leaves in contiguous
    // chunks, every interior worker with its first child.
    const core::TreePlan &plan = whole.plan();
    ASSERT_EQ(plan.tiers(), 3u);
    constexpr std::uint32_t kHosts = 3;
    for (std::uint32_t e = 0; e < plan.workers.size(); ++e) {
        peers.processOf[e] =
            e < plan.leafWorkers
                ? static_cast<std::uint32_t>(e * kHosts
                                             / plan.leafWorkers)
                : peers.processOf.at(plan.workers[e].children.front());
    }
    std::size_t cut_per_period = 0;
    for (const core::TreePlan::Worker &w : plan.workers) {
        if (!w.isRoot()
            && peers.processOf.at(w.endpoint)
                   != peers.processOf.at(w.parent))
            cut_per_period += 2 * w.stations.size(); // up + down
    }
    ASSERT_GT(cut_per_period, 0u);

    std::vector<std::unique_ptr<rt::WorkerHost>> split;
    for (std::uint32_t p = 0; p < kHosts; ++p)
        split.push_back(
            std::make_unique<rt::WorkerHost>(load(), peers, p, kSeed));
    for (auto &dst : split) {
        for (auto &src : split) {
            if (dst == src)
                continue;
            for (const auto ep : src->endpoints()) {
                dst->udp()->setPeer(
                    ep, net::UdpPeer{"127.0.0.1",
                                     src->udp()->boundPort(ep)});
            }
        }
    }
    std::vector<std::thread> threads;
    for (auto &host : split)
        threads.emplace_back([&host] { host->runPeriods(kPeriods); });
    for (std::thread &t : threads)
        t.join();

    // Lossless in both shapes.
    EXPECT_EQ(whole.stats().defaultBudgets, 0u);
    EXPECT_EQ(whole.stats().staleReuses, 0u);
    std::map<std::pair<std::size_t, topo::NodeId>, Watts> merged;
    std::size_t split_transport = 0;
    std::size_t split_co_hosted = 0;
    for (const auto &host : split) {
        EXPECT_EQ(host->lastEpoch(), kPeriods);
        EXPECT_EQ(host->stats().defaultBudgets, 0u);
        EXPECT_EQ(host->stats().staleReuses, 0u);
        EXPECT_GT(host->stats().coHostedFrames, 0u);
        split_transport += host->transport().stats().framesSent;
        split_co_hosted += host->stats().coHostedFrames;
        for (const auto &[edge, watts] : host->lastEdgeBudgets())
            merged.emplace(edge, watts);
    }

    // Bit-identical budgets on every edge.
    const auto &expect = whole.lastEdgeBudgets();
    ASSERT_FALSE(expect.empty());
    ASSERT_EQ(merged.size(), expect.size());
    for (const auto &[edge, watts] : expect) {
        const auto found = merged.find(edge);
        ASSERT_NE(found, merged.end());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(watts),
                  std::bit_cast<std::uint64_t>(found->second))
            << "tree " << edge.first << " node " << edge.second;
    }

    // The single host sent no datagram; its in-memory traffic is the
    // split deployment's transport plus in-memory traffic.
    EXPECT_EQ(whole.transport().stats().framesSent, 0u);
    EXPECT_EQ(whole.stats().coHostedFrames,
              split_transport + split_co_hosted);
    // The split's transports carry exactly the cut links.
    EXPECT_EQ(split_transport, cut_per_period * kPeriods);
}

// ------------------------------------------- elasticity lockstep soak

TEST(WorkerRuntime, ElasticSoakJoinsDrainsAndAggKillStaySafe)
{
    // 200 control periods of the depth-4 deployment under 10% seeded
    // loss, with the membership plane fully exercised: racks 6 and 7
    // start scripted-absent and join online (two-phase adopt through
    // shadow periods), rack 2 drains and is reaped once its committed
    // Left state is acked, and the row aggregator over the joiners
    // (endpoint 11) is killed two epochs into the first join — the
    // adopt must ride out the dead hop via the root's re-broadcast.
    // The §4.5 safety audit must never fire through any of it.
    net::TransportConfig faults;
    faults.dropRate = 0.10;
    faults.seed = 1357;
    rt::LockstepDeployment dep(depth4Scenario(), rt::ChaosBackend::Sim,
                               faults, /*seed=*/2026,
                               /*agg_levels=*/{1, 2});
    ASSERT_EQ(dep.rackCount(), 8u);
    dep.scriptJoiner(6);
    dep.scriptJoiner(7);
    dep.chaos().at(20, rt::ChaosEvent::Kind::Join, 6);
    dep.chaos().at(22, rt::ChaosEvent::Kind::Kill, 11);
    dep.chaos().at(26, rt::ChaosEvent::Kind::Restart, 11);
    dep.chaos().at(50, rt::ChaosEvent::Kind::Join, 7);
    dep.chaos().at(90, rt::ChaosEvent::Kind::Drain, 2);

    const auto report = dep.run(200);
    EXPECT_EQ(report.epochsRun, 200u);
    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(report.drained, 1u);

    // End state at the root: the joiners committed Live, the drained
    // rack committed Left, and every announced transition resolved.
    const auto &table = dep.room().membership().table();
    EXPECT_EQ(table.state(6), membership::UnitState::Live);
    EXPECT_EQ(table.state(7), membership::UnitState::Live);
    EXPECT_EQ(table.state(2), membership::UnitState::Left);
    EXPECT_EQ(table.transitionsPending(), 0u);
    // Two marks-absent (no bump), then join announce + commit twice
    // and drain announce + commit once: generation 1 + 6.
    EXPECT_EQ(dep.room().membershipGeneration(), 7u);

    // The joiners are running and converged to the root's view...
    ASSERT_NE(dep.rack(6), nullptr);
    ASSERT_NE(dep.rack(7), nullptr);
    EXPECT_EQ(dep.rack(6)->membershipGeneration(),
              dep.room().membershipGeneration());
    EXPECT_TRUE(dep.rack(6)->membership().table().isLive(6));
    EXPECT_TRUE(dep.rack(7)->membership().table().isLive(7));
    // ...the drained rack was reaped, and the survivors kept getting
    // real budgets throughout.
    EXPECT_EQ(dep.rack(2), nullptr);
    for (const std::size_t r : {0u, 1u, 3u, 4u, 5u}) {
        EXPECT_GT(dep.rack(r)->stats().budgetsApplied, 190u)
            << "rack " << r;
    }

    // Protocol accounting: the root announced and committed three
    // transitions, broadcast deltas, and collected acks; the joiners
    // ran clamped shadow periods before their commits.
    const auto &room = dep.room().stats();
    EXPECT_EQ(room.membershipCommits, 3u);
    EXPECT_GT(room.membershipDeltasSent, 0u);
    EXPECT_GT(dep.rack(6)->stats().membershipAcksSent, 0u);
    EXPECT_GT(dep.rack(6)->stats().membershipDeltasApplied, 0u);
    EXPECT_GT(dep.rack(6)->stats().shadowPeriods, 0u);

    // Telemetry mirrors the in-process stats (the ops interface).
    const telemetry::Labels room_labels{{"role", "room"},
                                        {"tier", "3"}};
    EXPECT_EQ(dep.registry()
                  .counter("capmaestro_membership_commits_total",
                           room_labels)
                  .value(),
              static_cast<double>(room.membershipCommits));
    EXPECT_EQ(dep.registry()
                  .gauge("capmaestro_membership_generation",
                         room_labels)
                  .value(),
              7.0);
}

// ------------------------------------------------ hosted leaf ladder

namespace {

/** Peer table of the depth-3 cut of depth4Scenario() (agg_levels =
 *  {1}): leaves 0-7, row aggregators 8-11, root 12. */
config::WorkerPeers
depth3HostPeers()
{
    config::WorkerPeers peers;
    peers.periodMs = kPeriodMs;
    peers.originMs = 1;
    peers.aggLevels = {1};
    for (std::uint32_t e = 0; e < 13; ++e)
        peers.peers[e] = net::UdpPeer{"127.0.0.1", 0};
    return peers;
}

config::LoadedScenario
loadDepth4()
{
    return config::loadScenario(util::parseJson(depth4Scenario()));
}

/** Deliver a root MembershipDelta of @p table to hosted endpoint
 *  @p to, stamped with @p epoch. */
void
sendDelta(net::Transport &tp, std::uint32_t to, std::uint32_t epoch,
          const membership::MembershipTable &table)
{
    tp.send(12, to,
            net::encodeMembershipDelta(
                net::FrameMeta(net::kRoomSender, epoch, 0),
                table.toDelta()));
}

/** FNV-1a over a host's applied edge budgets (bits), its stats and
 *  its sorted event log. */
std::uint64_t
hostDigest(const rt::WorkerHost &host)
{
    test_support::Fnv1a h;
    for (const auto &[edge, watts] : host.lastEdgeBudgets()) {
        h.u64(edge.first);
        h.u64(edge.second);
        h.u64(std::bit_cast<std::uint64_t>(watts));
    }
    for (const rt::StatField &field : rt::kStatFields)
        h.u64(host.stats().*field.member);
    std::vector<core::Event> events = host.eventLog().events();
    std::sort(events.begin(), events.end(),
              [](const core::Event &a, const core::Event &b) {
                  return std::tie(a.time, a.kind, a.subject, a.value)
                         < std::tie(b.time, b.kind, b.subject, b.value);
              });
    h.u64(events.size());
    for (const core::Event &e : events) {
        h.u64(std::bit_cast<std::uint64_t>(e.time));
        h.u64(static_cast<std::uint64_t>(e.kind));
        h.str(e.subject);
        h.u64(std::bit_cast<std::uint64_t>(e.value));
    }
    return h.value();
}

} // namespace

// Every hosted leaf is cut off from its parent: process 1, which holds
// every aggregator and the root, never runs. Each edge therefore rides
// its Pcap_min default, and from epoch 3 leaf 2 is Draining, so its
// defaults also pass the shadow clamp. Pinned: docs/testing.md says
// when this digest may change.
TEST(WorkerHost, LeavesCutOffFromTheirParentsGolden)
{
    config::WorkerPeers peers = depth3HostPeers();
    for (std::uint32_t e = 8; e < 13; ++e)
        peers.processOf[e] = 1;
    net::SimTransport net;
    rt::WorkerHost host(loadDepth4(), peers, /*process=*/0, /*seed=*/9,
                        net);
    ASSERT_EQ(host.endpoints().size(), 8u);

    ASSERT_EQ(host.runPeriods(2), 2u);
    auto table = membership::MembershipTable::allLive(13);
    ASSERT_TRUE(table.beginDrain(2));
    sendDelta(net, 2, 3, table);
    ASSERT_EQ(host.runPeriods(6), 6u);

    EXPECT_EQ(host.membership().state(2),
              membership::UnitState::Draining);
    EXPECT_EQ(host.stats().budgetsApplied, 0u);
    EXPECT_EQ(host.stats().defaultBudgets, 8u * 2u * 8u);
    EXPECT_EQ(host.stats().shadowPeriods, 6u);
    const std::uint64_t digest = hostDigest(host);
    EXPECT_EQ(digest, 0x1060ad34e76bac48ull)
        << "golden digest moved: 0x" << std::hex << digest;
}

// A hosted leaf honours the table: from the period a delta is
// adopted, a Draining leaf draws at most its nominal floor and a Left
// leaf draws nothing. The snapshot comes from outside the host, so
// its root announced neither transition and commits neither.
TEST(WorkerHost, ReplicaClampsShadowAndLeftLeaves)
{
    net::SimTransport net;
    rt::WorkerHost host(loadDepth4(), depth3HostPeers(), /*process=*/0,
                        /*seed=*/9, net);
    ASSERT_EQ(host.endpoints().size(), 13u);
    const auto scenario = loadDepth4();
    const auto floors = rt::nominalEdgeFloors(*scenario.system, scenario);
    const auto partition =
        core::DistributedControlPlane::partitionEdges(*scenario.system);

    ASSERT_EQ(host.runPeriods(3), 3u);
    EXPECT_EQ(host.stats().defaultBudgets, 0u);
    for (const auto &[tree, node] : partition[5])
        EXPECT_GT(host.lastEdgeBudgets().at({tree, node}), 0.0);

    auto table = membership::MembershipTable::allLive(13);
    ASSERT_TRUE(table.beginDrain(2));
    ASSERT_TRUE(table.beginDrain(5));
    ASSERT_TRUE(table.commit(5));
    sendDelta(net, 2, 4, table);
    for (int period = 0; period < 5; ++period) {
        ASSERT_EQ(host.runPeriods(1), 1u);
        ASSERT_EQ(host.membership().generation(), table.generation());
        for (const auto &[tree, node] : partition[2]) {
            EXPECT_LE(host.lastEdgeBudgets().at({tree, node}),
                      floors.at({tree, node}))
                << "period " << period << " tree " << tree;
        }
        for (const auto &[tree, node] : partition[5]) {
            EXPECT_EQ(host.lastEdgeBudgets().at({tree, node}), 0.0)
                << "period " << period << " tree " << tree;
        }
    }
    EXPECT_GT(host.stats().shadowPeriods, 0u);
}

// A WorkerHost holding the root originates membership changes. The
// 2-level cut of depth4Scenario() (racks 0-7, root 8) runs as two
// hosts over one SimTransport, period by period in turn; process 1
// holds rack 2 alone. The root drains rack 2: it counts the rack's
// floor until the rack acks the Left commit, the rack applies 0 W
// from its adoption of that commit on, and no split overdraws.
TEST(WorkerHost, HostedRootDrainsARackOfAnotherProcess)
{
    config::WorkerPeers peers;
    peers.periodMs = kPeriodMs;
    peers.originMs = 1;
    for (std::uint32_t e = 0; e < 9; ++e)
        peers.peers[e] = net::UdpPeer{"127.0.0.1", 0};
    peers.processOf[2] = 1;
    net::SimTransport net;
    rt::WorkerHost root(loadDepth4(), peers, /*process=*/0, /*seed=*/9,
                        net);
    rt::WorkerHost rack(loadDepth4(), peers, /*process=*/1, /*seed=*/9,
                        net);
    ASSERT_TRUE(root.membership().holdsRoot());
    ASSERT_EQ(rack.endpoints(), std::vector<net::Transport::Endpoint>{2});
    telemetry::Registry registry;
    root.setTelemetry(&registry, nullptr);
    const auto period = [&root, &rack] {
        ASSERT_EQ(root.runPeriods(1), 1u);
        ASSERT_EQ(rack.runPeriods(1), 1u);
    };
    for (int i = 0; i < 3; ++i)
        period();

    // Announce (generation 2): the broadcast reaches the rack, which
    // adopts Draining and acks.
    ASSERT_TRUE(root.membership().beginDrain(2));
    period();
    EXPECT_EQ(rack.membership().state(2), membership::UnitState::Draining);

    // The root books the ack and commits Left (generation 3), but the
    // floor stays counted: the rack has not acked Left yet.
    ASSERT_EQ(root.runPeriods(1), 1u);
    EXPECT_EQ(root.membership().state(2), membership::UnitState::Left);
    EXPECT_EQ(root.stats().membershipCommits, 1u);
    EXPECT_FALSE(root.membership().released(2));

    // The rack adopts Left, applies nothing and acks; with that ack
    // the root stops counting its floor.
    ASSERT_EQ(rack.runPeriods(1), 1u);
    EXPECT_TRUE(rack.membership().left(2));
    const auto edges = rack.lastEdgeBudgets();
    ASSERT_FALSE(edges.empty());
    for (const auto &[edge, watts] : edges)
        EXPECT_EQ(watts, 0.0) << "tree " << edge.first;
    ASSERT_EQ(root.runPeriods(1), 1u);
    EXPECT_TRUE(root.membership().released(2));
    EXPECT_EQ(root.membership().generation(), 3u);

    ASSERT_EQ(rack.runPeriods(1), 1u);
    for (int i = 0; i < 3; ++i)
        period();
    for (const auto &[edge, watts] : rack.lastEdgeBudgets())
        EXPECT_EQ(watts, 0.0) << "tree " << edge.first;
    EXPECT_EQ(rack.membership().generation(), 3u);
    EXPECT_GT(root.stats().budgetsApplied, 0u);
    EXPECT_GT(root.safetyAuditor().audits(), 0u);
    EXPECT_EQ(root.safetyAuditor().violations(), 0u);
}

// Only a role's parent can end its period early. Every WorkerRuntime
// rack and aggregator sends its parent a Heartbeat each period, and a
// stray one can arrive too; a current-epoch Heartbeat from anyone but
// the hosted leaf's parent must not close the leaf on its default.
TEST(WorkerHost, OnlyTheParentsHeartbeatIsABeacon)
{
    config::WorkerPeers peers;
    peers.periodMs = 1000.0;
    peers.originMs = 1;
    for (std::uint32_t e = 0; e < kWorkers; ++e)
        peers.peers[e] = net::UdpPeer{"127.0.0.1", 0};
    const auto run = [&peers](bool stray) {
        net::SimTransport net;
        auto host = std::make_unique<rt::WorkerHost>(
            config::loadScenario(util::parseJson(kScenario)), peers,
            /*process=*/0, /*seed=*/5, net);
        // Rack 1 is not rack 0's parent (the root, endpoint 2, is).
        if (stray)
            net.send(1, 0, net::encodeHeartbeat(net::FrameMeta(1, 1, 0)));
        EXPECT_EQ(host->runPeriods(4), 4u);
        return std::make_pair(host->stats().defaultBudgets,
                              host->lastEdgeBudgets());
    };
    const auto [clean_defaults, clean] = run(false);
    const auto [stray_defaults, budgets] = run(true);
    EXPECT_EQ(clean_defaults, 0u);
    EXPECT_EQ(stray_defaults, 0u);
    ASSERT_EQ(budgets.size(), clean.size());
    for (const auto &[edge, watts] : clean) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(watts),
                  std::bit_cast<std::uint64_t>(budgets.at(edge)))
            << "tree " << edge.first << " node " << edge.second;
    }
}

// ------------------------------------------- non-finite watts on the wire

namespace {

/** Node id of breaker @p name on tree @p tree of kScenario. */
topo::NodeId
testbedNode(std::size_t tree, const char *name)
{
    const auto scenario = config::loadScenario(util::parseJson(kScenario));
    topo::NodeId id = topo::kNoNode;
    scenario.system->tree(tree).forEach([&](const topo::TopoNode &n) {
        if (n.name == name)
            id = n.id;
    });
    return id;
}

} // namespace

TEST(WorkerRuntime, NonFiniteBudgetIsDroppedForTheDefault)
{
    // The 2-level testbed with its root stalled through epoch 1: the
    // only Budget rack 0 sees there carries NaN.
    rt::LockstepDeployment dep(kScenario, rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/5);
    const topo::NodeId left = testbedNode(0, "leftCB");
    ASSERT_NE(left, topo::kNoNode);
    const double start = dep.epochStartMs(1);
    dep.chaos().at(1, rt::ChaosEvent::Kind::Stall, 2,
                   static_cast<std::uint32_t>(dep.epochStartMs(2) - start));
    dep.runUntil(start + 1.0);
    net::BudgetMsg msg;
    msg.tree = 0;
    msg.edgeNode = static_cast<std::uint32_t>(left);
    msg.budget = std::nan("");
    dep.net().send(2, 0,
                   net::encodeBudget(net::FrameMeta(net::kRoomSender, 1, 0),
                                     msg));
    dep.run(1);

    const rt::WorkerRuntime &rack = *dep.rack(0);
    const auto &stats = rack.stats();
    EXPECT_EQ(stats.corruptFrames, 1u);
    EXPECT_EQ(stats.budgetsApplied, 0u);
    EXPECT_EQ(stats.defaultBudgets, 2u);
    const Watts applied = rack.lastEdgeBudgets().at({0, left});
    EXPECT_TRUE(std::isfinite(applied));
    EXPECT_GT(applied, 0.0);
    const auto defaults =
        rack.eventLog().ofKind(core::EventKind::DefaultBudgetApplied);
    ASSERT_EQ(defaults.size(), 2u);
    EXPECT_EQ(defaults[0].subject, "X.leftCB");
    EXPECT_EQ(defaults[0].value, applied);
    for (const std::size_t sid : {0u, 2u}) {
        for (const Watts w : rack.lastServerBudgets(sid))
            EXPECT_TRUE(std::isfinite(w)) << "server " << sid;
    }
}

TEST(WorkerRuntime, RehomeWithNonFiniteStateRestoresNothing)
{
    rt::LockstepDeployment dep(kScenario, rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/5);
    dep.run(1);
    // Epoch 2: rack 0, one period old, is handed a Rehome whose
    // checkpoint has a NaN capping integrator for both its servers,
    // behind the root's budgets and before rack 0 polls for them.
    dep.runUntil(dep.epochStartMs(2) + 1.0);
    net::CheckpointMsg ckpt;
    ckpt.simNow = 8.0;
    for (const std::uint32_t sid : {0u, 2u}) {
        net::CheckpointServer rec;
        rec.serverId = sid;
        rec.integratorPrimed = true;
        rec.integratorDc = std::nan("");
        rec.demandEstimate = 300.0;
        rec.supplies.assign(2, net::CheckpointSupply{200.0, 0.5, 150.0});
        ckpt.servers.push_back(rec);
    }
    dep.net().send(2, 0,
                   net::encodeRehome(net::FrameMeta(net::kRoomSender, 2, 0),
                                     ckpt));
    dep.run(1);
    EXPECT_EQ(dep.rack(0)->stats().corruptFrames, 1u);
    EXPECT_EQ(dep.rack(0)->stats().rehomesApplied, 0u);
    EXPECT_EQ(dep.rack(0)->stats().clampedPeriods, 0u);

    dep.run(3);
    for (std::uint32_t r = 0; r < 2; ++r) {
        for (const auto &[edge, watts] : dep.rack(r)->lastEdgeBudgets())
            EXPECT_TRUE(std::isfinite(watts))
                << "rack " << r << " node " << edge.second;
    }
    for (const std::size_t sid : {0u, 2u}) {
        for (const Watts w : dep.rack(0)->lastServerBudgets(sid))
            EXPECT_TRUE(std::isfinite(w)) << "server " << sid;
    }
    // Rack 0's next checkpoint carries finite capping integrators: the
    // root is stalled through epoch 6, so its first copy waits there
    // (behind the copies of epoch 5 that arrived after its gather).
    dep.chaos().at(6, rt::ChaosEvent::Kind::Stall, 2, 1000);
    dep.runUntil(dep.epochStartMs(6) + 1.0);
    std::size_t checkpoints = 0;
    for (const auto &bytes : dep.net().poll(2)) {
        const auto frame = net::decodeFrame(bytes);
        ASSERT_TRUE(frame);
        if (frame->type != net::MsgType::Checkpoint || frame->sender != 0
            || frame->epoch != 6)
            continue;
        ++checkpoints;
        for (const auto &rec : frame->checkpoint.servers)
            EXPECT_TRUE(std::isfinite(rec.integratorDc))
                << "server " << rec.serverId;
    }
    EXPECT_EQ(checkpoints, 1u);
}

TEST(AggregatorRole, NonFiniteSubBudgetIsDropped)
{
    const auto scenario = loadDepth4();
    const auto &system = *scenario.system;
    const auto plan = core::TreePlan::build(system, {1});
    rt::AggregatorRole row(system, plan, /*endpoint=*/8,
                           policy::treePolicy(scenario.service.policy),
                           rt::nominalEdgeFloors(system, scenario),
                           scenario.service.protocol, {});
    row.beginEpoch(1);
    rt::RuntimeStats stats;
    for (const Watts bad : {std::nan(""), HUGE_VAL, -5.0}) {
        net::Frame frame;
        frame.type = net::MsgType::SubBudget;
        frame.sender = net::kRoomSender;
        frame.epoch = 1;
        frame.budget.tree = 0;
        frame.budget.edgeNode =
            static_cast<std::uint32_t>(row.stations().at(0));
        frame.budget.budget = bad;
        EXPECT_FALSE(row.noteDownFrame(frame, net::kRoomSender, stats));
    }
    EXPECT_FALSE(row.grant(0).has_value());
    EXPECT_EQ(stats.corruptFrames, 3u);
    EXPECT_EQ(stats.subBudgetsApplied, 0u);
}

namespace {

/** An upstream frame carrying one class whose demand is @p demand. */
net::Frame
metricsFrame(net::MsgType type, std::uint32_t sender, std::size_t tree,
             topo::NodeId station, Watts demand)
{
    net::Frame frame;
    frame.type = type;
    frame.sender = static_cast<std::uint16_t>(sender);
    frame.epoch = 1;
    frame.metrics.tree = static_cast<std::uint16_t>(tree);
    frame.metrics.edgeNode = static_cast<std::uint32_t>(station);
    frame.metrics.metrics.accumulate(1, 100.0, demand, 150.0);
    frame.metrics.metrics.setConstraint(400.0);
    return frame;
}

} // namespace

TEST(AggregatorRole, NonFiniteMetricsOrSummaryIsNotFresh)
{
    // A non-finite summary never reaches the §4.3 merge: the role
    // drops the frame as corrupt and the station rides its ladder
    // (Lost here, with no cache yet), next to a finite sibling that is
    // Fresh. Once from a leaf child (Metrics, NaN demand) at an
    // interior aggregator, once from an aggregator child (Summary,
    // +inf demand) at the root.
    const auto scenario = loadDepth4();
    const auto &system = *scenario.system;
    const auto plan = core::TreePlan::build(system, {1});
    const auto policy = policy::treePolicy(scenario.service.policy);
    const auto floors = rt::nominalEdgeFloors(system, scenario);
    struct Case
    {
        std::uint32_t endpoint;
        net::MsgType type;
        Watts bad;
    };
    std::uint32_t interior = 0;
    while (plan.workers[interior].isLeaf())
        ++interior;
    for (const Case &c :
         {Case{interior, net::MsgType::Metrics, std::nan("")},
          Case{plan.rootEndpoint(), net::MsgType::Summary, HUGE_VAL}}) {
        SCOPED_TRACE("endpoint " + std::to_string(c.endpoint));
        rt::AggregatorRole role(system, plan, c.endpoint, policy, floors,
                                scenario.service.protocol,
                                scenario.rootBudgets);
        role.beginEpoch(1);
        rt::RuntimeStats stats;
        const auto &children = plan.workers[c.endpoint].children;
        ASSERT_GE(children.size(), 2u);
        const std::uint32_t bad = children[0], good = children[1];
        const auto [tree, bad_station] =
            *plan.workers[bad].stations.begin();
        const topo::NodeId good_station =
            plan.workers[good].stations.at(tree);
        EXPECT_FALSE(role.noteUpFrame(
            metricsFrame(c.type, bad, tree, bad_station, c.bad), stats));
        EXPECT_TRUE(role.noteUpFrame(
            metricsFrame(c.type, good, tree, good_station, 200.0),
            stats));
        EXPECT_EQ(stats.corruptFrames, 1u);

        core::EventLog events;
        role.closeGather(stats, events);
        EXPECT_EQ(role.stationHealth(tree, bad_station),
                  telemetry::UnitHealth::Lost);
        EXPECT_EQ(role.stationHealth(tree, good_station),
                  telemetry::UnitHealth::Live);
    }
}

TEST(AggregatorRole, ChildStationFloorsSumTheEdgesBeneath)
{
    // A child station enters the merge at the summed nominal Pcap_min
    // floor of the edges beneath it. Checked at every aggregator and
    // the root of the depth-3 and depth-4 plans, against the floor map
    // walked in (tree, edge) order.
    const auto scenario = loadDepth4();
    const auto &system = *scenario.system;
    const auto policy = policy::treePolicy(scenario.service.policy);
    const auto floors = rt::nominalEdgeFloors(system, scenario);
    for (const std::vector<std::uint32_t> &levels :
         {std::vector<std::uint32_t>{1}, std::vector<std::uint32_t>{1, 2}}) {
        const auto plan = core::TreePlan::build(system, levels);
        SCOPED_TRACE("depth " + std::to_string(plan.tiers()));
        for (auto ep = static_cast<std::uint32_t>(plan.leafWorkers);
             ep < plan.workers.size(); ++ep) {
            const rt::AggregatorRole role(
                system, plan, ep, policy, floors, scenario.service.protocol,
                plan.workers[ep].isRoot() ? scenario.rootBudgets
                                          : std::vector<Watts>{});
            ASSERT_FALSE(role.childStations().empty());
            for (const auto &st : role.childStations()) {
                Watts expect = 0.0;
                std::size_t edges = 0;
                for (const auto &[key, floor] : floors) {
                    const auto &tree = system.tree(key.first);
                    for (topo::NodeId n = key.second;
                         key.first == st.tree && n != topo::kNoNode;
                         n = tree.node(n).parent) {
                        if (n == st.node) {
                            expect += floor;
                            ++edges;
                            break;
                        }
                    }
                }
                EXPECT_GT(edges, 0u);
                EXPECT_EQ(st.floor, expect)
                    << "worker " << ep << " tree " << st.tree << " station "
                    << system.tree(st.tree).node(st.node).name;
            }
        }
    }
}

TEST(WorkerRuntime, RootGrantsNothingToAChildWhoseMetricsWereLost)
{
    // Epoch 1: rack 1's tree-Y Metrics frame never reaches the root.
    // With no cache to ride, the station is lost, its floor reserved,
    // and the root sends it no Budget; rack 1 applies its Pcap_min
    // default there (above 0 W) and its tree-X budget as usual. The
    // root is stalled until rack 1's last retransmission has queued, so
    // every copy can be taken out.
    rt::LockstepDeployment dep(kScenario, rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/5);
    const double start = dep.epochStartMs(1);
    dep.chaos().at(1, rt::ChaosEvent::Kind::Stall, 2, 90);
    dep.runUntil(start + 89.0);
    std::size_t dropped = 0;
    topo::NodeId edge = topo::kNoNode;
    for (auto &bytes : dep.net().poll(2)) {
        const auto frame = net::decodeFrame(bytes);
        ASSERT_TRUE(frame);
        if (frame->type == net::MsgType::Metrics && frame->sender == 1
            && frame->metrics.tree == 1) {
            ++dropped;
            edge = static_cast<topo::NodeId>(frame->metrics.edgeNode);
            continue;
        }
        dep.net().send(frame->sender, 2, std::move(bytes));
    }
    const auto scenario = config::loadScenario(util::parseJson(kScenario));
    ASSERT_EQ(dropped, static_cast<std::size_t>(
                           scenario.service.protocol.maxAttempts));
    dep.run(1);

    const auto &stats = dep.rack(1)->stats();
    EXPECT_EQ(stats.budgetsApplied, 1u);
    EXPECT_EQ(stats.defaultBudgets, 1u);
    const auto defaults = dep.rack(1)->eventLog().ofKind(
        core::EventKind::DefaultBudgetApplied);
    ASSERT_EQ(defaults.size(), 1u);
    EXPECT_EQ(defaults[0].subject, "Y.rightCB");
    EXPECT_GT(defaults[0].value, 0.0);
    EXPECT_EQ(dep.rack(1)->lastEdgeBudgets().at({1, edge}),
              defaults[0].value);
    EXPECT_EQ(dep.rack(0)->stats().defaultBudgets, 0u);
}

// ------------------------------------------- supervision, directly

TEST(Supervisor, RestartedParentRehomesFromThePersistedCheckpoint)
{
    // A parent that restarts keeps no checkpoint in memory. With a
    // state directory it reloads what the previous instance stored, so
    // a leaf that dies while the new parent runs is still re-homed
    // from its last checkpoint. A torn file is ignored.
    const auto scenario = config::loadScenario(util::parseJson(kScenario));
    const auto plan = core::TreePlan::build(*scenario.system, {});
    const std::uint32_t root = plan.rootEndpoint();
    const auto members =
        membership::MembershipTable::allLive(plan.workers.size());
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path()
        / ("capmaestro_supervisor_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    rt::RuntimeStats stats;
    core::EventLog events;

    net::Frame frame;
    frame.type = net::MsgType::Checkpoint;
    frame.sender = 0;
    frame.epoch = 1;
    frame.checkpoint.simNow = 42.0;
    {
        rt::Supervisor first(plan, root, /*fail_after=*/3);
        first.setStateDir(dir.string());
        first.beginEpoch();
        first.noteFrame(frame, 1, members, stats, events);
        first.closeGather(1, members, stats, events);
    }
    EXPECT_EQ(stats.checkpointsStored, 1u);
    std::ofstream(dir / "rack1.ckpt") << "torn";

    rt::Supervisor second(plan, root, /*fail_after=*/3);
    second.setStateDir(dir.string());
    for (std::uint32_t epoch = 2; epoch <= 4; ++epoch) {
        second.beginEpoch();
        second.closeGather(epoch, members, stats, events);
    }
    EXPECT_EQ(second.state(0), rt::RackState::Dead);
    EXPECT_EQ(second.state(1), rt::RackState::Dead);

    // Fresh instances of both racks speak. Rack 1's torn file was
    // not loaded, so its Rehome carries an empty checkpoint.
    frame.type = net::MsgType::Metrics;
    frame.epoch = 5;
    second.beginEpoch();
    second.noteFrame(frame, 5, members, stats, events);
    frame.sender = 1;
    second.noteFrame(frame, 5, members, stats, events);
    second.closeGather(5, members, stats, events);
    EXPECT_EQ(second.state(0), rt::RackState::Rehoming);
    const auto rehomes = second.rehomes(5, members, stats);
    ASSERT_EQ(rehomes.size(), 2u);
    EXPECT_EQ(rehomes[0].child, 0u);
    EXPECT_EQ(rehomes[0].checkpoint.simNow, 42.0);
    EXPECT_EQ(rehomes[1].child, 1u);
    EXPECT_EQ(rehomes[1].checkpoint.simNow, 0.0);
    std::filesystem::remove_all(dir);
}

// ------------------------------------------- the leaf ladder, directly

namespace {

/** Rack 0 of the 2-level testbed as a bare LeafRole: no transport. */
struct LeafRig
{
    explicit LeafRig(const std::string &json = kScenario)
        : scenario(config::loadScenario(util::parseJson(json))),
          leaves(rt::buildLeaves(
              scenario, {0},
              rt::nominalEdgeFloors(*scenario.system, scenario),
              /*seed=*/3))
    {
    }

    rt::LeafRole &leaf() { return leaves.front(); }
    void close(membership::UnitState self = membership::UnitState::Live)
    {
        leaf().close(self, stats, events);
    }
    /** Feed @p frame to a leaf whose plan parent sends as @p parent
     *  (by default the root: rack 0's parent in the testbed). */
    bool note(const net::Frame &frame,
              std::uint16_t parent = net::kRoomSender)
    {
        return leaf().noteDownFrame(frame, stats, events, parent);
    }

    config::LoadedScenario scenario;
    std::vector<rt::LeafRole> leaves;
    rt::RuntimeStats stats;
    core::EventLog events;
};

net::Frame
budgetFrame(std::uint32_t epoch, std::size_t tree, topo::NodeId node,
            Watts watts)
{
    net::Frame frame;
    frame.type = net::MsgType::Budget;
    frame.sender = net::kRoomSender;
    frame.epoch = epoch;
    frame.budget.tree = static_cast<std::uint16_t>(tree);
    frame.budget.edgeNode = static_cast<std::uint32_t>(node);
    frame.budget.budget = watts;
    return frame;
}

net::Frame
rehomeFrame(std::uint32_t epoch, const net::CheckpointMsg &ckpt,
            std::uint16_t sender = net::kRoomSender)
{
    net::Frame frame;
    frame.type = net::MsgType::Rehome;
    frame.sender = sender;
    frame.epoch = epoch;
    frame.checkpoint = ckpt;
    return frame;
}

} // namespace

TEST(LeafRole, SecondBudgetForAnEdgeKeepsTheFirst)
{
    LeafRig rig;
    rig.leaf().advance(1);
    const auto &edge = rig.leaf().edges().front();
    EXPECT_FALSE(rig.note(budgetFrame(1, edge.tree, edge.node, 300.0)));
    EXPECT_FALSE(rig.note(budgetFrame(1, edge.tree, edge.node, 100.0)));
    rig.close();
    EXPECT_EQ(rig.leaf().edges().front().budget, 300.0);
    EXPECT_EQ(rig.stats.budgetsApplied, 1u);
    EXPECT_EQ(rig.stats.orphanFrames, 0u);
}

TEST(LeafRole, BudgetForAnotherEdgeOrEpochIsAnOrphan)
{
    LeafRig rig;
    LeafRig twin;
    rig.leaf().advance(1);
    twin.leaf().advance(1);
    const auto &edge = rig.leaf().edges().front();
    rig.note(budgetFrame(1, edge.tree, testbedNode(0, "rightCB"), 300.0));
    rig.note(budgetFrame(2, edge.tree, edge.node, 300.0));
    EXPECT_EQ(rig.stats.orphanFrames, 2u);
    EXPECT_FALSE(rig.leaf().complete());
    rig.close();
    twin.close();
    // Both edges ride their defaults, exactly as a leaf that heard
    // nothing.
    EXPECT_EQ(rig.stats.budgetsApplied, 0u);
    EXPECT_EQ(rig.stats.defaultBudgets, 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(rig.leaf().edges()[i].budget),
                  std::bit_cast<std::uint64_t>(
                      twin.leaf().edges()[i].budget));
    }
}

TEST(LeafRole, RehomeFromASenderOtherThanTheParentIsAnOrphan)
{
    // Under the root, a sibling's Rehome is an orphan; under an
    // aggregator (wire id 4), so is the root's.
    LeafRig rig;
    rig.leaf().advance(1);
    const auto ckpt = rig.leaf().checkpoint();
    EXPECT_FALSE(rig.note(rehomeFrame(1, ckpt, /*sender=*/1)));
    EXPECT_FALSE(rig.note(rehomeFrame(1, ckpt), /*parent=*/4));
    EXPECT_EQ(rig.stats.orphanFrames, 2u);
    EXPECT_EQ(rig.stats.rehomesApplied, 0u);
    rig.close();
    EXPECT_EQ(rig.stats.clampedPeriods, 0u);

    LeafRig child;
    child.leaf().advance(1);
    const auto own = child.leaf().checkpoint();
    EXPECT_TRUE(child.note(rehomeFrame(1, own, /*sender=*/4), /*parent=*/4));
    EXPECT_EQ(child.stats.rehomesApplied, 1u);
    EXPECT_EQ(child.stats.orphanFrames, 0u);
}

TEST(LeafRole, RetransmittedRehomeIsReplayedOnce)
{
    LeafRig rig;
    rig.leaf().advance(1);
    const auto ckpt = rig.leaf().checkpoint();
    EXPECT_TRUE(rig.note(rehomeFrame(1, ckpt)));
    EXPECT_TRUE(rig.note(rehomeFrame(1, ckpt)));
    EXPECT_EQ(rig.stats.rehomesApplied, 1u);
    EXPECT_EQ(rig.events.ofKind(core::EventKind::CheckpointReplayed).size(),
              1u);
    // The next checkpoint acks the replay's epoch.
    rig.close();
    rig.leaf().advance(2);
    EXPECT_EQ(rig.leaf().checkpoint().rehomeAckEpoch, 1u);
}

TEST(LeafRole, ReplayNeverRewindsThePlantClock)
{
    LeafRig rig;
    rig.leaf().advance(1);
    auto ckpt = rig.leaf().checkpoint();
    rig.close();
    rig.leaf().advance(2);
    const Seconds now = rig.leaf().simNow();
    ASSERT_GT(now, 0);
    ckpt.simNow = 1.0;
    EXPECT_TRUE(rig.note(rehomeFrame(2, ckpt)));
    EXPECT_EQ(rig.stats.rehomesApplied, 1u);
    EXPECT_EQ(rig.leaf().simNow(), now);
}

TEST(LeafRole, ReplayPeriodClampsAReceivedBudgetToTheFloor)
{
    LeafRig rig;
    LeafRig twin;
    rig.leaf().advance(1);
    const auto ckpt = rig.leaf().checkpoint();
    twin.leaf().advance(1);
    const auto &edge = rig.leaf().edges().front();
    EXPECT_TRUE(rig.note(rehomeFrame(1, ckpt)));
    EXPECT_FALSE(rig.note(budgetFrame(1, edge.tree, edge.node, 5000.0)));
    EXPECT_TRUE(twin.note(rehomeFrame(1, ckpt)));
    rig.close();
    twin.close();
    // min(budget, min(default, nominal floor)): the twin, which heard
    // no budget, rides exactly that floor as its default.
    const Watts clamped = rig.leaf().edges().front().budget;
    EXPECT_LE(clamped, rig.leaf().edges().front().floor);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(clamped),
              std::bit_cast<std::uint64_t>(
                  twin.leaf().edges().front().budget));
    EXPECT_EQ(rig.stats.budgetsApplied, 1u);
    EXPECT_EQ(rig.stats.clampedPeriods, 1u);
    EXPECT_EQ(rig.stats.shadowPeriods, 0u);
}

TEST(LeafRole, DrainingLeafIsClampedAndLeftLeafAppliesZero)
{
    // Server SA is a hot spare that parks its tree-X supply, so that
    // leaf is not live: rack 0's tree-X default sits below its nominal
    // floor, and the clamp must take the lower of the two.
    std::string spare = kScenario;
    const std::string sa = R"("name": "SA", "priority": 1,)";
    ASSERT_NE(spare.find(sa), std::string::npos);
    spare.replace(spare.find(sa), sa.size(),
                  sa + R"( "hotSpare": true, "standbyThreshold": 5000,)");
    LeafRig draining(spare);
    LeafRig left(spare);
    LeafRig quiet(spare);
    for (LeafRig *rig : {&draining, &left, &quiet})
        rig->leaf().advance(1);
    for (LeafRig *rig : {&draining, &left}) {
        for (const auto &edge : rig->leaf().edges())
            rig->note(budgetFrame(1, edge.tree, edge.node, 5000.0));
        EXPECT_TRUE(rig->leaf().complete());
    }
    draining.close(membership::UnitState::Draining);
    left.close(membership::UnitState::Left);
    quiet.close();
    EXPECT_LT(quiet.leaf().edges()[0].budget,
              quiet.leaf().edges()[0].floor);
    for (std::size_t i = 0; i < 2; ++i) {
        const Watts floor = quiet.leaf().edges()[i].budget;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      draining.leaf().edges()[i].budget),
                  std::bit_cast<std::uint64_t>(floor));
        EXPECT_LE(floor, draining.leaf().edges()[i].floor);
        EXPECT_EQ(left.leaf().edges()[i].budget, 0.0);
    }
    for (const rt::Plant &plant : left.leaf().plants()) {
        for (const Watts w : plant.lastBudgets)
            EXPECT_EQ(w, 0.0) << "server " << plant.serverId;
    }
    EXPECT_EQ(draining.stats.shadowPeriods, 1u);
    EXPECT_EQ(left.stats.shadowPeriods, 1u);
    EXPECT_EQ(draining.stats.clampedPeriods, 0u);
}
