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

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "config/loader.hh"
#include "core/events.hh"
#include "rt/chaos.hh"
#include "rt/host.hh"
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
    // 200 control periods of a depth-4 lockstep deployment (15
    // workers, agg_levels = {1, 2}) under 10% seeded frame loss on
    // every hop. The §4.5 claim under sustained degradation:
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
        "{dropRate=0.1, seed=" + std::to_string(kFaultSeed)
        + "}, seed=" + std::to_string(kSoakSeed)
        + ", agg_levels={1,2}); run(200)";

    net::TransportConfig faults;
    faults.dropRate = 0.10;
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

    // Loss was actually exercised on the upstream path...
    std::size_t stale = dep.room().stats().staleReuses;
    for (std::uint32_t ep = 8; ep <= 13; ++ep) {
        ASSERT_NE(dep.aggregator(ep), nullptr);
        stale += dep.aggregator(ep)->stats().staleReuses;
    }
    EXPECT_GT(stale, 0u) << repro;
    // ...and stayed bounded: the receiving hops track 28 (tree,
    // station) links; 10% loss per frame makes one-in-ten periods
    // stale per link the drift-free expectation. 3x that expectation
    // over 200 periods flags any cache that stops expiring.
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
    EXPECT_EQ(report.drained, 1u);

    // End state at the root: the joiners committed Live, the drained
    // rack committed Left, and every announced transition resolved.
    const auto &table = dep.room().membership();
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
    EXPECT_TRUE(dep.rack(6)->membership().isLive(6));
    EXPECT_TRUE(dep.rack(7)->membership().isLive(7));
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
