/**
 * @file
 * Deterministic chaos tests for the rt failover story (checkpoint,
 * restart detection, re-homing), driven through the rt/chaos lockstep
 * harness. A seeded ChaosScheduler kills, restarts, and partitions
 * workers at scripted control periods while the harness audits the
 * §4.5 safety claim after every epoch: no applied edge budget may
 * exceed a device limit, and no tree's applied total may exceed its
 * root budget — ever, including while racks are dead, re-homing, or
 * partitioned.
 *
 * The same scripts run over both Transport backends:
 *   - SimTransport: virtual clock, fully deterministic — the per-epoch
 *     log (applied budgets as raw IEEE-754 bit patterns) must be
 *     bit-identical across same-seed runs;
 *   - UdpTransport: one shared loopback socket set — behavior-level
 *     assertions only (the kernel schedules delivery), skipped under
 *     CAPMAESTRO_NO_NET=1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "config/loader.hh"
#include "core/events.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "rt/chaos.hh"
#include "rt/plant.hh"
#include "test_support.hh"
#include "telemetry/health.hh"
#include "util/json.hh"

using namespace capmaestro;

namespace {

#define SKIP_WITHOUT_NET()                                            \
    do {                                                              \
        if (std::getenv("CAPMAESTRO_NO_NET") != nullptr)              \
            GTEST_SKIP() << "CAPMAESTRO_NO_NET is set";               \
    } while (0)

/** Same dual-feed two-rack testbed the worker-runtime tests use. */
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

/** The fixed chaos script both backends run: a kill long enough to be
 *  declared dead, a room-side partition, and a second kill — every
 *  §4.5 state transition fires at a known epoch. */
void
scriptStandardChaos(rt::ChaosScheduler &chaos, std::size_t racks)
{
    ASSERT_EQ(racks, 2u);
    chaos.at(5, rt::ChaosEvent::Kind::Kill, 0);
    chaos.at(9, rt::ChaosEvent::Kind::Restart, 0);
    chaos.at(14, rt::ChaosEvent::Kind::Partition, 1, 2); // rack1 | room
    chaos.at(18, rt::ChaosEvent::Kind::Heal);
    chaos.at(23, rt::ChaosEvent::Kind::Kill, 1);
    chaos.at(27, rt::ChaosEvent::Kind::Restart, 1);
}

/** Scenario @p json with §4.5 deadlines short enough that a Udp run,
 *  paced on the real clock, takes seconds rather than tens of them. */
std::string
withUdpDeadlines(std::string json)
{
    json.insert(json.rfind('}'),
                R"(, "transport": {"backend": "udp", "gatherDeadlineMs": 25,
                   "budgetDeadlineMs": 25, "retryTimeoutMs": 6})");
    return json;
}

} // namespace

TEST(Failover, ChaosScheduleIsDeterministic)
{
    rt::ChaosScheduler a(99);
    rt::ChaosScheduler b(99);
    a.randomKillRestarts(2, 5, 100, 10, 3);
    b.randomKillRestarts(2, 5, 100, 10, 3);
    ASSERT_EQ(a.events().size(), b.events().size());
    ASSERT_EQ(a.events().size(), 20u); // kill + restart per cycle
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].epoch, b.events()[i].epoch);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].a, b.events()[i].a);
    }

    rt::ChaosScheduler c(100); // different seed, different script
    c.randomKillRestarts(2, 5, 100, 10, 3);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        any_diff |= a.events()[i].epoch != c.events()[i].epoch
                    || a.events()[i].a != c.events()[i].a;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Failover, SimChaosNeverViolatesBudgetsAndRehomesEveryRestart)
{
    rt::LockstepDeployment dep(kScenario, rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/11);
    scriptStandardChaos(dep.chaos(), dep.rackCount());
    const auto report = dep.run(35);

    EXPECT_EQ(report.epochsRun, 35u);
    // The headline §4.5 claim: zero budget violations under chaos.
    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    // Both kill/restart cycles completed a re-homing handshake.
    EXPECT_EQ(report.recoveries, 2u);
    EXPECT_EQ(report.unrecovered, 0u);
    EXPECT_GE(report.maxRecoveryPeriods, 1u);
    EXPECT_LE(report.maxRecoveryPeriods, 5u);

    const auto &room = dep.room().stats();
    // Kill at 5 (down 4 > heartbeatFailAfter) and kill at 23 were both
    // declared dead; the partition (4 epochs of silence) adds a third.
    EXPECT_EQ(room.failovers, 3u);
    // Every reappearance — two restarts plus the partition heal — went
    // through re-homing, and each handshake completed.
    EXPECT_EQ(room.restartsDetected, 3u);
    EXPECT_EQ(room.rehomed, 3u);
    EXPECT_GE(room.rehomesSent, 3u);
    EXPECT_GT(room.checkpointsStored, 0u);
    EXPECT_EQ(
        dep.room().eventLog().ofKind(core::EventKind::WorkerRehomed)
            .size(),
        3u);

    // The genuinely restarted instances replayed their checkpoints;
    // the partitioned rack survived with newer local state and must
    // have *declined* its replay (its plant never died).
    ASSERT_NE(dep.rack(0), nullptr);
    ASSERT_NE(dep.rack(1), nullptr);
    EXPECT_EQ(dep.rack(0)->stats().rehomesApplied, 1u);
    EXPECT_EQ(dep.rack(1)->stats().rehomesApplied, 1u);
    EXPECT_EQ(dep.rack(1)->stats().rehomesDeclined, 0u); // fresh instance
    // The decline happened before rack 1's kill, in the pre-restart
    // instance — visible in the room's ledger, not the final instance's.
    EXPECT_EQ(
        dep.room().eventLog().ofKind(core::EventKind::WorkerFailover)
            .size(),
        3u);
}

TEST(Failover, PartitionHealDeclinesReplayAndKeepsLocalState)
{
    // A partition (not a crash) means the rack's local state is newer
    // than the room's checkpoint: after the heal the room offers a
    // replay, and the rack must decline it instead of rolling back —
    // while the handshake still completes and budgets resume.
    rt::LockstepDeployment dep(kScenario, rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/23);
    dep.chaos().at(6, rt::ChaosEvent::Kind::Partition, 0, 2);
    dep.chaos().at(11, rt::ChaosEvent::Kind::Heal);
    const auto report = dep.run(16);

    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    const auto &room = dep.room().stats();
    EXPECT_EQ(room.failovers, 1u);
    EXPECT_EQ(room.rehomed, 1u);

    ASSERT_NE(dep.rack(0), nullptr);
    const auto &rack0 = dep.rack(0)->stats();
    EXPECT_EQ(rack0.rehomesDeclined, 1u);
    EXPECT_EQ(rack0.rehomesApplied, 0u);
    EXPECT_TRUE(dep.rack(0)
                    ->eventLog()
                    .ofKind(core::EventKind::CheckpointReplayed)
                    .empty());
    EXPECT_EQ(dep.rack(0)
                  ->eventLog()
                  .ofKind(core::EventKind::RehomeDeclined)
                  .size(),
              1u);
    // Once Live again, budgets flow: the last epochs ran undegraded.
    EXPECT_GT(rack0.budgetsApplied, 0u);
}

TEST(Failover, SimSameSeedRunsAreBitReproducible)
{
    // The acceptance bar: two same-seed Sim runs produce bit-identical
    // epoch-by-epoch traces, applied budgets compared as raw IEEE-754
    // patterns (the log lines embed them as hex).
    auto run_once = [] {
        rt::LockstepDeployment dep(kScenario, rt::ChaosBackend::Sim,
                                   net::TransportConfig{}, /*seed=*/77);
        dep.chaos().randomKillRestarts(dep.rackCount(), 4, 40, 4, 4);
        return dep.run(60);
    };
    const auto first = run_once();
    const auto second = run_once();

    EXPECT_EQ(first.violations, 0u) << first.firstViolation;
    EXPECT_EQ(first.onlineViolations, first.violations);
    EXPECT_EQ(first.recoveries, 4u);
    EXPECT_EQ(first.unrecovered, 0u);
    ASSERT_EQ(first.log.size(), second.log.size());
    for (std::size_t i = 0; i < first.log.size(); ++i)
        ASSERT_EQ(first.log[i], second.log[i]) << "epoch line " << i;
    EXPECT_EQ(first.recoveries, second.recoveries);
    EXPECT_EQ(first.maxRecoveryPeriods, second.maxRecoveryPeriods);
}

TEST(Failover, UdpChaosNeverViolatesBudgetsAndRehomesEveryRestart)
{
    SKIP_WITHOUT_NET();
    // The same script over real loopback sockets: one shared socket
    // set for the whole deployment, a restarted runtime reusing its
    // role's port. The kernel owns delivery timing, so assertions are
    // behavior-level (states and counters), not bit-level.
    rt::LockstepDeployment dep(withUdpDeadlines(kScenario), rt::ChaosBackend::Udp,
                               net::TransportConfig{}, /*seed=*/11);
    scriptStandardChaos(dep.chaos(), dep.rackCount());
    const auto report = dep.run(35);

    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(report.recoveries, 2u);
    EXPECT_EQ(report.unrecovered, 0u);
    EXPECT_LE(report.maxRecoveryPeriods, 8u);

    const auto &room = dep.room().stats();
    EXPECT_GE(room.failovers, 3u);
    EXPECT_GE(room.rehomed, 3u);
    ASSERT_NE(dep.rack(0), nullptr);
    ASSERT_NE(dep.rack(1), nullptr);
    EXPECT_EQ(dep.rack(0)->stats().rehomesApplied, 1u);
    EXPECT_EQ(dep.rack(1)->stats().rehomesApplied, 1u);
}

TEST(Failover, SimLossyTransportStillRehomes)
{
    // Chaos on top of an already-lossy message plane: drops, dups, and
    // reorders while racks die and return. Slightly looser recovery
    // bound (lost Rehome frames cost a period each), same hard safety
    // bar.
    net::TransportConfig faults;
    faults.dropRate = 0.15;
    faults.dupRate = 0.05;
    faults.reorderRate = 0.1;
    faults.seed = 555;
    rt::LockstepDeployment dep(kScenario, rt::ChaosBackend::Sim, faults,
                               /*seed=*/31);
    scriptStandardChaos(dep.chaos(), dep.rackCount());
    const auto report = dep.run(45);

    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(report.recoveries, 2u);
    EXPECT_EQ(report.unrecovered, 0u);
    EXPECT_LE(report.maxRecoveryPeriods, 10u);
    EXPECT_GE(dep.room().stats().rehomed, 3u);
}

// --------------------------------------------- deep trees (TreePlan)

namespace {

/**
 * Depth-3 dual-feed scenario for agg_levels = {1}: per tree,
 * root -> 2 row breakers -> 2 rack breakers each -> 2 supplies each
 * (8 servers, structurally parallel across both feeds). The worker
 * plan is 4 leaf workers (endpoints 0-3), 2 row aggregators (4-5),
 * and the root (6).
 */
std::string
deepScenario()
{
    std::string trees;
    for (int feed = 0; feed < 2; ++feed) {
        std::string rows;
        for (int row = 0; row < 2; ++row) {
            std::string racks;
            for (int rack = 0; rack < 2; ++rack) {
                const int base = row * 4 + rack * 2;
                racks += std::string(rack ? "," : "")
                         + R"({ "kind": "breaker", "name": "rack)"
                         + std::to_string(row) + std::to_string(rack)
                         + R"(", "rating": 900, "children": [)"
                         + R"({ "kind": "supply", "server": )"
                         + std::to_string(base) + R"(, "supply": )"
                         + std::to_string(feed) + "},"
                         + R"({ "kind": "supply", "server": )"
                         + std::to_string(base + 1) + R"(, "supply": )"
                         + std::to_string(feed) + "}]}";
            }
            rows += std::string(row ? "," : "")
                    + R"({ "kind": "breaker", "name": "row)"
                    + std::to_string(row) + R"(", "rating": 1700, )"
                    + R"("children": [)" + racks + "]}";
        }
        trees += std::string(feed ? "," : "") + R"({ "feed": )"
                 + std::to_string(feed) + R"(, "phase": 0, "name": ")"
                 + (feed == 0 ? "X" : "Y") + R"(", "root": { "kind": )"
                 + R"("breaker", "name": "top", "rating": 3200, )"
                 + R"("children": [)" + rows + "]}}";
    }
    std::string servers;
    for (int s = 0; s < 8; ++s) {
        servers += std::string(s ? "," : "") + R"({ "name": "S)"
                   + std::to_string(s) + R"(", "priority": )"
                   + std::to_string(s % 2) + R"(, "supplies": [)"
                   + R"({ "share": 0.5 }, { "share": 0.5 }], )"
                   + R"("workload": { "type": "constant", )"
                   + R"("utilization": 0.7)" + std::to_string(s)
                   + "1 }}";
    }
    return R"({ "feeds": 2, "trees": [)" + trees + R"(], "servers": [)"
           + servers + R"(], "service": { "policy": "global", )"
           + R"("spo": false }, "budgets": { "totalPerPhase": 3200 }})";
}

/** @p field summed over every live unit: supervision runs in each
 *  parent of leaves, not only at the root. */
std::size_t
fleetTotal(rt::LockstepDeployment &dep,
           std::size_t rt::RuntimeStats::*field)
{
    std::size_t total = 0;
    for (std::uint32_t e = 0; e < dep.plan().workers.size(); ++e) {
        if (const rt::WorkerRuntime *unit = dep.unit(e))
            total += unit->stats().*field;
    }
    return total;
}

} // namespace

TEST(DeepChaos, MidTierAggregatorKillStaysSafeOnSim)
{
    // Kill a row aggregator (endpoint 4) mid-run: its parent rides the
    // stale summary then reserves the subtree's floors; the orphaned
    // leaves fall back to Pcap_min defaults. Every degraded period
    // must stay inside all device limits and root budgets, and no
    // failover may fire: no leaf died.
    rt::LockstepDeployment dep(deepScenario(), rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/311,
                               /*agg_levels=*/{1});
    ASSERT_EQ(dep.rackCount(), 4u);
    ASSERT_EQ(dep.plan().tiers(), 3u);
    ASSERT_EQ(dep.plan().workers.size(), 7u);

    dep.chaos().at(6, rt::ChaosEvent::Kind::Kill, 4);
    dep.chaos().at(12, rt::ChaosEvent::Kind::Restart, 4);
    const auto report = dep.run(20);

    EXPECT_EQ(report.epochsRun, 20u);
    // The headline claim: zero budget violations across the outage.
    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);

    // The root rode the stale cache before excluding the station.
    EXPECT_GE(dep.room().stats().staleReuses, 1u);
    // Orphaned leaves applied conservative defaults while their
    // aggregator was down.
    std::size_t defaults = 0;
    for (std::size_t r = 0; r < dep.rackCount(); ++r)
        defaults += dep.rack(r)->stats().defaultBudgets;
    EXPECT_GT(defaults, 0u);
    // Budgets resumed for everyone after the restart.
    for (std::size_t r = 0; r < dep.rackCount(); ++r)
        EXPECT_GT(dep.rack(r)->stats().budgetsApplied, 0u) << r;
    ASSERT_NE(dep.unit(4), nullptr);
    EXPECT_GT(dep.unit(4)->stats().summariesSent, 0u);

    // No leaf died, so no supervisor (the row aggregators') fails one
    // over or re-homes it: the restarted aggregator's supervisor
    // starts with every leaf child Live.
    EXPECT_EQ(fleetTotal(dep, &rt::RuntimeStats::failovers), 0u);
    EXPECT_EQ(fleetTotal(dep, &rt::RuntimeStats::restartsDetected), 0u);
    EXPECT_EQ(fleetTotal(dep, &rt::RuntimeStats::rehomed), 0u);
    EXPECT_EQ(report.recoveries, 0u);
}

TEST(DeepChaos, AggregatorOutsideTheMembershipKeepsItsFloorReserved)
{
    // Membership is a rack-level idea: a rack committed Left applies
    // zero watts, which is what lets the root release its floor. An
    // aggregator listed absent (endpoint 4) or drained (endpoint 5)
    // keeps running, and so do the racks beneath it, so the root must
    // keep budgeting it like any member. Were its floor released, its
    // racks would ride their Pcap_min defaults on top of a split of
    // the whole tree budget. The budget is tight enough that this
    // overcommits.
    std::string json = deepScenario();
    const std::string full = R"("totalPerPhase": 3200)";
    json.replace(json.find(full), full.size(), R"("totalPerPhase": 1200)");
    rt::LockstepDeployment dep(json, rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/313,
                               /*agg_levels=*/{1});
    dep.room().membership().markAbsent(4);
    dep.chaos().at(3, rt::ChaosEvent::Kind::Drain, 5);
    const auto report = dep.run(16);

    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(dep.room().membership().state(5),
              membership::UnitState::Left);
    // Every rack kept getting real budgets through both aggregators.
    for (std::size_t r = 0; r < dep.rackCount(); ++r) {
        ASSERT_NE(dep.rack(r), nullptr);
        EXPECT_EQ(dep.rack(r)->stats().defaultBudgets, 0u) << r;
    }
}

TEST(DeepChaos, SimSameSeedDeepRunsAreBitReproducible)
{
    // Depth-3 chaos must replay bit-for-bit on the Sim backend, same
    // as the 2-level harness: per-epoch applied-budget bit patterns
    // identical across same-seed runs.
    auto run_once = [] {
        rt::LockstepDeployment dep(deepScenario(),
                                   rt::ChaosBackend::Sim,
                                   net::TransportConfig{},
                                   /*seed=*/271, /*agg_levels=*/{1});
        dep.chaos().at(4, rt::ChaosEvent::Kind::Kill, 5);
        dep.chaos().at(8, rt::ChaosEvent::Kind::Restart, 5);
        dep.chaos().at(11, rt::ChaosEvent::Kind::Kill, 1);
        dep.chaos().at(14, rt::ChaosEvent::Kind::Restart, 1);
        return dep.run(24);
    };
    const auto first = run_once();
    const auto second = run_once();

    EXPECT_EQ(first.violations, 0u) << first.firstViolation;
    EXPECT_EQ(first.onlineViolations, first.violations);
    ASSERT_EQ(first.log.size(), second.log.size());
    for (std::size_t i = 0; i < first.log.size(); ++i)
        ASSERT_EQ(first.log[i], second.log[i]) << "epoch line " << i;
}

TEST(DeepChaos, MidTierAggregatorKillStaysSafeOnUdp)
{
    SKIP_WITHOUT_NET();
    // The same aggregator outage over real loopback sockets:
    // behavior-level assertions only.
    rt::LockstepDeployment dep(withUdpDeadlines(deepScenario()), rt::ChaosBackend::Udp,
                               net::TransportConfig{}, /*seed=*/311,
                               /*agg_levels=*/{1});
    dep.chaos().at(5, rt::ChaosEvent::Kind::Kill, 4);
    dep.chaos().at(11, rt::ChaosEvent::Kind::Restart, 4);
    const auto report = dep.run(18);

    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    std::size_t defaults = 0;
    for (std::size_t r = 0; r < dep.rackCount(); ++r)
        defaults += dep.rack(r)->stats().defaultBudgets;
    EXPECT_GT(defaults, 0u);
    for (std::size_t r = 0; r < dep.rackCount(); ++r)
        EXPECT_GT(dep.rack(r)->stats().budgetsApplied, 0u) << r;
    EXPECT_EQ(fleetTotal(dep, &rt::RuntimeStats::failovers), 0u);
    EXPECT_EQ(fleetTotal(dep, &rt::RuntimeStats::restartsDetected), 0u);
}

TEST(DeepChaos, LossyDeepTransportStaysSafe)
{
    // Frame loss on every hop of a depth-3 tree plus an aggregator
    // outage: per-hop stale fallback upstream, conservative defaults
    // downstream, and the safety audit must still never fire.
    net::TransportConfig faults;
    faults.dropRate = 0.12;
    faults.dupRate = 0.04;
    faults.reorderRate = 0.08;
    faults.seed = 777;
    rt::LockstepDeployment dep(deepScenario(), rt::ChaosBackend::Sim,
                               faults, /*seed=*/47,
                               /*agg_levels=*/{1});
    dep.chaos().at(7, rt::ChaosEvent::Kind::Kill, 5);
    dep.chaos().at(13, rt::ChaosEvent::Kind::Restart, 5);
    const auto report = dep.run(30);

    EXPECT_EQ(report.epochsRun, 30u);
    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
}

// ------------------------------------------ elasticity (membership)

namespace {

/**
 * The acceptance script for the membership plane, over the depth-3
 * deployment (racks 0-3, row aggregators 4-5, root 6): every worker
 * starts on the compat wire version (a fleet one release behind), the
 * fleet is rolling-upgraded root-first one worker per epoch, then
 * racks 2 and 3 — scripted absent at boot — join online, and rack 1
 * drains. Joins are scheduled after the upgrade wave because a compat
 * root cannot originate membership frames (upgrade-then-join is the
 * supported order).
 */
void
scriptElasticUpgrade(rt::LockstepDeployment &dep)
{
    for (std::uint32_t role = 0; role < 7; ++role)
        dep.setWorkerWireVersion(role, net::kWireCompatVersion);
    dep.scriptJoiner(2);
    dep.scriptJoiner(3);
    auto &chaos = dep.chaos();
    // Root first, then aggregators, then racks (and the still-absent
    // joiner slots, whose scripted version flips before they start).
    const std::uint32_t order[] = {6, 4, 5, 0, 1, 2, 3};
    std::uint32_t epoch = 3;
    for (const std::uint32_t role : order)
        chaos.at(epoch++, rt::ChaosEvent::Kind::Upgrade, role);
    chaos.at(14, rt::ChaosEvent::Kind::Join, 2);
    chaos.at(20, rt::ChaosEvent::Kind::Join, 3);
    chaos.at(30, rt::ChaosEvent::Kind::Drain, 1);
}

} // namespace

TEST(Elasticity, SimJoinDrainRollingUpgradeStaysSafeAndBitReproducible)
{
    // The full elasticity acceptance run on the Sim backend: version
    // skew, two online joins, and a drain in one 50-epoch script, with
    // the §4.5 audit on every period — and the whole thing must be
    // bit-reproducible across same-seed runs (membership traffic is
    // part of the deterministic trace, not outside it).
    auto run_once = [](rt::ChaosRunReport &report,
                       std::uint32_t &generation) {
        rt::LockstepDeployment dep(deepScenario(),
                                   rt::ChaosBackend::Sim,
                                   net::TransportConfig{}, /*seed=*/88,
                                   /*agg_levels=*/{1});
        scriptElasticUpgrade(dep);
        report = dep.run(50);
        generation = dep.room().membershipGeneration();

        EXPECT_EQ(report.violations, 0u) << report.firstViolation;
        EXPECT_EQ(report.onlineViolations, report.violations);
        EXPECT_EQ(report.drained, 1u);
        const auto &table = dep.room().membership().table();
        EXPECT_EQ(table.state(2), membership::UnitState::Live);
        EXPECT_EQ(table.state(3), membership::UnitState::Live);
        EXPECT_EQ(table.state(1), membership::UnitState::Left);
        EXPECT_EQ(table.transitionsPending(), 0u);
        ASSERT_NE(dep.rack(2), nullptr);
        ASSERT_NE(dep.rack(3), nullptr);
        EXPECT_EQ(dep.rack(1), nullptr);
        // The joiners shadowed before committing, and the survivors
        // were budgeted while the fleet was half-upgraded.
        EXPECT_GT(dep.rack(2)->stats().shadowPeriods, 0u);
        EXPECT_GT(dep.rack(0)->stats().budgetsApplied, 40u);
    };

    rt::ChaosRunReport first, second;
    std::uint32_t gen_first = 0, gen_second = 0;
    run_once(first, gen_first);
    run_once(second, gen_second);

    // 2 marks-absent (no bump) + (announce + commit) x 3.
    EXPECT_EQ(gen_first, 7u);
    EXPECT_EQ(gen_second, gen_first);
    ASSERT_EQ(first.log.size(), second.log.size());
    for (std::size_t i = 0; i < first.log.size(); ++i)
        ASSERT_EQ(first.log[i], second.log[i]) << "epoch line " << i;
}

TEST(Elasticity, UdpJoinDrainRollingUpgradeStaysSafe)
{
    SKIP_WITHOUT_NET();
    // The same acceptance script over real loopback sockets: the
    // kernel owns delivery, so assertions are behavior-level — but
    // the safety audit and the end-state membership table are the
    // same hard bar.
    rt::LockstepDeployment dep(withUdpDeadlines(deepScenario()), rt::ChaosBackend::Udp,
                               net::TransportConfig{}, /*seed=*/88,
                               /*agg_levels=*/{1});
    scriptElasticUpgrade(dep);
    const auto report = dep.run(50);

    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(report.drained, 1u);
    const auto &table = dep.room().membership().table();
    EXPECT_EQ(table.state(2), membership::UnitState::Live);
    EXPECT_EQ(table.state(3), membership::UnitState::Live);
    EXPECT_EQ(table.state(1), membership::UnitState::Left);
    EXPECT_EQ(table.transitionsPending(), 0u);
    EXPECT_EQ(dep.rack(1), nullptr);
    ASSERT_NE(dep.rack(2), nullptr);
    EXPECT_TRUE(dep.rack(2)->membership().table().isLive(2));
}

TEST(Elasticity, TwoLevelRootJoinsAndDrainsItsOwnRacks)
{
    // At depth 2 the joining and draining units are the root's own
    // children, so the root's child view carries their membership:
    // rack 1 boots absent (nothing reserved, nothing logged), joins
    // through its shadow periods (floor reserved, no ladder events),
    // then rack 0 drains out. Lossless, so any stale or lost event at
    // the root would come from treating a non-member as a degraded
    // member.
    rt::LockstepDeployment dep(kScenario, rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/41);
    dep.scriptJoiner(1);
    dep.chaos().at(4, rt::ChaosEvent::Kind::Join, 1);
    dep.chaos().at(14, rt::ChaosEvent::Kind::Drain, 0);
    const auto report = dep.run(24);

    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(report.drained, 1u);
    const auto &table = dep.room().membership().table();
    EXPECT_EQ(table.state(1), membership::UnitState::Live);
    EXPECT_EQ(table.state(0), membership::UnitState::Left);
    EXPECT_EQ(table.transitionsPending(), 0u);
    EXPECT_EQ(dep.room().stats().membershipCommits, 2u);

    ASSERT_NE(dep.rack(1), nullptr);
    EXPECT_GT(dep.rack(1)->stats().shadowPeriods, 0u);
    EXPECT_GT(dep.rack(1)->stats().budgetsApplied, 0u);
    EXPECT_EQ(dep.rack(0), nullptr);

    const auto &root = dep.room();
    EXPECT_EQ(root.stats().staleReuses, 0u);
    EXPECT_EQ(root.stats().metricsLost, 0u);
    EXPECT_EQ(root.stats().failovers, 0u);
}

TEST(Elasticity, AbsentRackUnderARowAggregatorIsNeverDeclaredDead)
{
    // Rack 3 is scripted absent at boot and joins at epoch 10, long
    // after heartbeatFailAfter periods. Its parent is row aggregator 5,
    // whose replica marks the slot absent like the root's, so the
    // never-deployed rack is outside its liveness contract: no
    // failover, no restart, no re-home anywhere in the fleet.
    rt::LockstepDeployment dep(deepScenario(), rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/53,
                               /*agg_levels=*/{1});
    ASSERT_EQ(dep.plan().workers[3].parent, 5u);
    dep.scriptJoiner(3);
    dep.chaos().at(10, rt::ChaosEvent::Kind::Join, 3);
    const auto report = dep.run(24);

    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(dep.room().membership().state(3),
              membership::UnitState::Live);
    ASSERT_NE(dep.rack(3), nullptr);
    EXPECT_GT(dep.rack(3)->stats().budgetsApplied, 0u);
    EXPECT_EQ(dep.rackState(3), rt::RackState::Live);
    EXPECT_EQ(fleetTotal(dep, &rt::RuntimeStats::failovers), 0u);
    EXPECT_EQ(fleetTotal(dep, &rt::RuntimeStats::restartsDetected), 0u);
    EXPECT_EQ(fleetTotal(dep, &rt::RuntimeStats::rehomed), 0u);
    ASSERT_NE(dep.unit(5), nullptr);
    EXPECT_TRUE(dep.unit(5)
                    ->eventLog()
                    .ofKind(core::EventKind::WorkerFailover)
                    .empty());
}

TEST(Elasticity, RestartedRowAggregatorCatchesUpWithADrainedRack)
{
    // Rack 1 drains out at epoch 4 and is reaped once it acked Left.
    // Its row aggregator 4 is killed at 10 and restarted at 12 with a
    // generation-1 replica, in which rack 1 reads Live; every unit
    // had acked the root's latest generation before the restart, so
    // no ack falls behind. The root's periodic re-send must bring the
    // restarted aggregator to the root's generation before its
    // supervisor declares the departed rack dead.
    rt::LockstepDeployment dep(deepScenario(), rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/67,
                               /*agg_levels=*/{1});
    ASSERT_EQ(dep.plan().workers[1].parent, 4u);
    dep.chaos().at(4, rt::ChaosEvent::Kind::Drain, 1);
    dep.chaos().at(10, rt::ChaosEvent::Kind::Kill, 4);
    dep.chaos().at(12, rt::ChaosEvent::Kind::Restart, 4);
    const auto report = dep.run(24);

    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(report.drained, 1u);
    ASSERT_NE(dep.unit(4), nullptr);
    EXPECT_EQ(dep.room().membership().generation(), 3u);
    EXPECT_EQ(dep.unit(4)->membership().generation(),
              dep.room().membership().generation());
    EXPECT_EQ(fleetTotal(dep, &rt::RuntimeStats::failovers), 0u);
}

TEST(Elasticity, RackKilledDuringItsDrainKeepsItsFloorCounted)
{
    // Rack 0 acks Draining, the root commits it Left, and the rack is
    // killed before it acks that generation. Its servers keep drawing
    // their Pcap_min floors, which the harness audit counts whatever
    // the root's table says, so the root must never release the
    // floor. The budget is tight: had the floor been handed to rack 1,
    // the root budget would overflow.
    std::string json = kScenario;
    const std::string full = R"("totalPerPhase": 1400)";
    json.replace(json.find(full), full.size(), R"("totalPerPhase": 1100)");
    rt::LockstepDeployment dep(json, rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/59);
    // Announced Draining at 4 and acked; the root commits Left at 5.
    dep.chaos().at(4, rt::ChaosEvent::Kind::Drain, 0);
    dep.chaos().at(5, rt::ChaosEvent::Kind::Kill, 0);
    const auto report = dep.run(16);

    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(report.drained, 0u);
    EXPECT_EQ(dep.rack(0), nullptr);
    // Committed Left (generation 3), never acked.
    EXPECT_EQ(dep.room().membershipGeneration(), 3u);
    EXPECT_EQ(dep.room().membership().state(0),
              membership::UnitState::Left);
}

TEST(Elasticity, StaticMembershipLeavesTheTraceFormatUntouched)
{
    // The compatibility bar for the whole membership plane: a
    // deployment that never scripts elasticity must behave — and log —
    // exactly as it did before the plane existed. No membership frame
    // may be sent, the generation must stay at its boot value, and no
    // log line may carry the elasticity markers (the 'J'/'G'/'X'
    // states or the " g=" suffix) that would perturb bit-comparison
    // against pre-elasticity traces.
    rt::LockstepDeployment dep(kScenario, rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/77);
    dep.chaos().randomKillRestarts(dep.rackCount(), 4, 40, 4, 4);
    const auto report = dep.run(60);

    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(dep.room().membershipGeneration(), 1u);
    EXPECT_EQ(dep.room().stats().membershipDeltasSent, 0u);
    EXPECT_EQ(dep.room().stats().membershipCommits, 0u);
    for (const auto &line : report.log) {
        EXPECT_EQ(line.find(" g="), std::string::npos) << line;
        // The state column must only ever show the pre-elasticity
        // liveness alphabet (L/D/R/K), never J/G/X.
        const std::size_t st = line.find("st=") + 3;
        for (std::size_t i = st; i < line.size() && line[i] != ' '; ++i)
            EXPECT_EQ(std::string("JGX").find(line[i]),
                      std::string::npos)
                << line;
    }
}

TEST(DeepChaos, RowAggregatorRehomesARestartedRackFromItsCheckpoint)
{
    // Depth 4: rack 5's parent is row aggregator 10, not the root.
    // Killed long enough to be declared dead, then restarted with a
    // fresh plant, the rack must be re-homed by its row aggregator
    // from the checkpoint that aggregator stored, within the same
    // bound as a depth-2 root's re-home.
    rt::LockstepDeployment dep(test_support::depth4Scenario(),
                               rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/11,
                               /*agg_levels=*/{1, 2});
    ASSERT_EQ(dep.plan().tiers(), 4u);
    ASSERT_EQ(dep.plan().workers[5].parent, 10u);
    dep.chaos().at(5, rt::ChaosEvent::Kind::Kill, 5);
    dep.chaos().at(9, rt::ChaosEvent::Kind::Restart, 5);
    const auto report = dep.run(20);

    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(report.recoveries, 1u);
    EXPECT_EQ(report.unrecovered, 0u);
    EXPECT_GE(report.maxRecoveryPeriods, 1u);
    EXPECT_LE(report.maxRecoveryPeriods, 5u); // the depth-2 bound

    ASSERT_NE(dep.rack(5), nullptr);
    EXPECT_EQ(dep.rack(5)->stats().rehomesApplied, 1u);
    EXPECT_EQ(dep.rack(5)->stats().rehomesDeclined, 0u);
    ASSERT_NE(dep.unit(10), nullptr);
    const rt::RuntimeStats &row = dep.unit(10)->stats();
    EXPECT_EQ(row.failovers, 1u);
    EXPECT_EQ(row.restartsDetected, 1u);
    EXPECT_EQ(row.rehomed, 1u);
    EXPECT_GE(row.rehomesSent, 1u);
    EXPECT_GT(row.checkpointsStored, 0u);
    EXPECT_EQ(dep.rackState(5), rt::RackState::Live);
    // The replay carried a stored plant, not an empty checkpoint.
    const auto replays = dep.rack(5)->eventLog().ofKind(
        core::EventKind::CheckpointReplayed);
    ASSERT_EQ(replays.size(), 1u);
    EXPECT_GT(replays[0].value, 0.0);
    // Supervision is the parent's: the root saw no leaf die.
    EXPECT_EQ(dep.room().stats().failovers, 0u);
    EXPECT_EQ(dep.room().stats().rehomed, 0u);
}

// ------------------------------------ golden digests (refactor guard)

namespace {

using test_support::Fnv1a;

/** One unit's final stats, applied edge budgets and event log. */
void
digestUnit(Fnv1a &h, const rt::WorkerRuntime &unit)
{
    for (const rt::StatField &field : rt::kStatFields)
        h.u64(unit.stats().*field.member);
    for (const auto &[edge, watts] : unit.lastEdgeBudgets()) {
        h.u64(edge.first);
        h.u64(edge.second);
        h.u64(std::bit_cast<std::uint64_t>(watts));
    }
    // Sorted, so a refactor may reorder decisions inside one epoch
    // but not change them.
    std::vector<core::Event> events = unit.eventLog().events();
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
}

/** Digest of a finished run: its log plus every surviving unit. */
std::uint64_t
digestOf(rt::LockstepDeployment &dep, const rt::ChaosRunReport &report)
{
    Fnv1a h;
    for (const std::string &line : report.log)
        h.str(line);
    for (std::uint32_t e = 0; e < dep.plan().workers.size(); ++e) {
        const rt::WorkerRuntime *unit = dep.unit(e);
        h.u64(unit != nullptr);
        if (unit)
            digestUnit(h, *unit);
    }
    return h.value();
}

#define EXPECT_DIGEST(dep, report, pinned)                            \
    do {                                                              \
        const std::uint64_t digest = digestOf(dep, report);           \
        EXPECT_EQ(digest, pinned##ull)                                \
            << "golden digest moved: 0x" << std::hex << digest;       \
    } while (0)

} // namespace

// Pinned digests of four lockstep chaos runs on the Sim backend. Each
// hashes the per-epoch log, every surviving unit's final RuntimeStats
// and applied edge budgets (bit patterns), and each unit's event log.
// They change only with an intended protocol change (docs/testing.md).
// Last re-pinned when the harness began running the daemons' schedule
// (Engine::advance: retransmission and the rt::Cascade deadlines)
// instead of single-shot lockstep phases.

TEST(LockstepGolden, TwoLevelKillRestartUnderLoss)
{
    net::TransportConfig faults;
    faults.dropRate = 0.10;
    faults.seed = 555;
    rt::LockstepDeployment dep(kScenario, rt::ChaosBackend::Sim, faults,
                               /*seed=*/31);
    scriptStandardChaos(dep.chaos(), dep.rackCount());
    const auto report = dep.run(45);
    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(report.recoveries, 2u);
    EXPECT_DIGEST(dep, report, 0xdb4025eb9763662c);
}

TEST(LockstepGolden, PartitionHealDeclinedReplay)
{
    rt::LockstepDeployment dep(kScenario, rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/23);
    dep.chaos().at(6, rt::ChaosEvent::Kind::Partition, 0, 2);
    dep.chaos().at(11, rt::ChaosEvent::Kind::Heal);
    const auto report = dep.run(16);
    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    ASSERT_NE(dep.rack(0), nullptr);
    EXPECT_EQ(dep.rack(0)->stats().rehomesDeclined, 1u);
    EXPECT_DIGEST(dep, report, 0xa75575cdcf101683);
}

TEST(LockstepGolden, Depth4MidTierAggregatorKill)
{
    // Kill a pod aggregator (a direct child of the root) and a row
    // aggregator beneath the other pod, then restart both.
    rt::LockstepDeployment dep(test_support::depth4Scenario(),
                               rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/311,
                               /*agg_levels=*/{1, 2});
    ASSERT_EQ(dep.plan().tiers(), 4u);
    dep.chaos().at(6, rt::ChaosEvent::Kind::Kill, 12);
    dep.chaos().at(8, rt::ChaosEvent::Kind::Kill, 10);
    dep.chaos().at(12, rt::ChaosEvent::Kind::Restart, 12);
    dep.chaos().at(14, rt::ChaosEvent::Kind::Restart, 10);
    const auto report = dep.run(24);
    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_GE(dep.room().stats().staleReuses, 1u);
    EXPECT_DIGEST(dep, report, 0x370134ec4107c11b);
}

TEST(LockstepGolden, Depth4ElasticJoinDrainAggKill)
{
    // The script of WorkerRuntime.ElasticSoakJoinsDrainsAndAggKillStaySafe.
    net::TransportConfig faults;
    faults.dropRate = 0.10;
    faults.seed = 1357;
    rt::LockstepDeployment dep(test_support::depth4Scenario(),
                               rt::ChaosBackend::Sim, faults,
                               /*seed=*/2026, /*agg_levels=*/{1, 2});
    dep.scriptJoiner(6);
    dep.scriptJoiner(7);
    dep.chaos().at(20, rt::ChaosEvent::Kind::Join, 6);
    dep.chaos().at(22, rt::ChaosEvent::Kind::Kill, 11);
    dep.chaos().at(26, rt::ChaosEvent::Kind::Restart, 11);
    dep.chaos().at(50, rt::ChaosEvent::Kind::Join, 7);
    dep.chaos().at(90, rt::ChaosEvent::Kind::Drain, 2);
    const auto report = dep.run(200);
    // The online auditors (every aggregating role over its fragment)
    // and the harness (fleet-wide) run one predicate and must agree.
    EXPECT_EQ(report.violations, 0u) << report.firstViolation;
    EXPECT_EQ(report.onlineViolations, report.violations);
    EXPECT_EQ(report.drained, 1u);
    // No rack dies: the absent joiners (rack 7 also across the
    // restart of its row aggregator 11) are never failed over.
    EXPECT_EQ(fleetTotal(dep, &rt::RuntimeStats::failovers), 0u);
    EXPECT_DIGEST(dep, report, 0x22a9c32b72d663ac);
}

// ------------------------------------ the daemons' schedule, replayed

namespace {

/** configs/tree_depth3.json: 4 racks, row aggregators 4 (racks 0-1)
 *  and 5 (racks 2-3), the root 6 at --agg-levels=1. */
std::string
treeDepth3Json()
{
    std::ifstream in(std::string(CAPMAESTRO_SOURCE_DIR)
                     + "/configs/tree_depth3.json");
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

} // namespace

// The load failure of the depth-3 failover smoke, replayed on virtual
// time: rack 1 is killed long enough to be declared dead and restarted,
// and its row aggregator 4 is stalled from that epoch's start until
// rack 1 has closed heartbeatFailAfter periods on its own, as a loaded
// box delays the aggregator's process. The Rehome it sends on waking
// then lands too late: the leaf takes itself for an instance that rode
// out a partition and declines it. Safety holds throughout, with both
// of row 4's racks on their Pcap_min floors while it stalls. Pinned as
// today's outcome: deciding replay by instance identity flips it to an
// applied Rehome.
TEST(DeepChaos, StalledRowAggregatorsRehomeLandsLateAndIsDeclined)
{
    const auto run_once = [](std::uint64_t &digest) {
        rt::LockstepDeployment dep(treeDepth3Json(), rt::ChaosBackend::Sim,
                                   net::TransportConfig{}, /*seed=*/41,
                                   /*agg_levels=*/{1});
        ASSERT_EQ(dep.plan().workers.size(), 7u);
        ASSERT_EQ(dep.plan().workers[1].parent, 4u);
        const auto scenario =
            config::loadScenario(util::parseJson(treeDepth3Json()));
        const auto fail_after = static_cast<std::uint32_t>(
            scenario.service.protocol.heartbeatFailAfter);
        const double period = dep.epochStartMs(2) - dep.epochStartMs(1);
        constexpr std::uint32_t kRestart = 10;
        dep.chaos().at(4, rt::ChaosEvent::Kind::Kill, 1);
        dep.chaos().at(kRestart, rt::ChaosEvent::Kind::Restart, 1);
        dep.chaos().at(kRestart, rt::ChaosEvent::Kind::Stall, 4,
                       static_cast<std::uint32_t>(fail_after * period)
                           + 10);
        rt::ChaosRunReport report = dep.run(kRestart - 1);
        ASSERT_EQ(dep.rackState(1), rt::RackState::Dead);

        const auto floors =
            rt::nominalEdgeFloors(*scenario.system, scenario);
        for (std::uint32_t e = 0; e < fail_after; ++e) {
            const rt::ChaosRunReport stalled = dep.run(1);
            report.violations += stalled.violations;
            report.onlineViolations += stalled.onlineViolations;
            report.log.push_back(stalled.log.front());
            for (const std::uint32_t r : {0u, 1u}) {
                for (const auto &[edge, watts] :
                     dep.rack(r)->lastEdgeBudgets()) {
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(watts),
                              std::bit_cast<std::uint64_t>(
                                  floors.at(edge)))
                        << "rack " << r << " epoch " << kRestart + e;
                }
            }
        }
        const rt::ChaosRunReport rest = dep.run(10);
        report.violations += rest.violations;
        report.onlineViolations += rest.onlineViolations;
        report.log.insert(report.log.end(), rest.log.begin(),
                          rest.log.end());

        EXPECT_EQ(report.violations, 0u) << report.firstViolation;
        EXPECT_EQ(report.onlineViolations, 0u);
        ASSERT_NE(dep.rack(1), nullptr);
        EXPECT_EQ(dep.rack(1)->stats().rehomesDeclined, 1u);
        EXPECT_EQ(dep.rack(1)->stats().rehomesApplied, 0u);
        EXPECT_EQ(dep.unit(4)->stats().restartsDetected, 1u);
        EXPECT_EQ(dep.rackState(1), rt::RackState::Live);
        digest = digestOf(dep, report);
    };
    std::uint64_t first = 0, second = 0;
    run_once(first);
    run_once(second);
    EXPECT_EQ(first, second);
}

// Chaos on the other engine: three WorkerHost processes on the harness
// (the root and row 5; racks 0-1 alone; row 4 with racks 2-3, so
// frames cross processes both up and down) under 5 % loss. The
// leaf-only process and the one holding row 4 are each killed and
// restarted; a restarted host starts from epoch 1 and catches up on
// its parents' beacons. Hosts send every frame once and run no
// supervision, so under loss a lost budget is a default: real budgets
// flowing again means most edge-periods after the catch-up apply one.
TEST(DeepChaos, HostDeploymentSurvivesLossAndProcessRestarts)
{
    net::TransportConfig faults;
    faults.dropRate = 0.05;
    faults.seed = 2718;
    rt::LockstepDeployment dep(treeDepth3Json(), rt::ChaosBackend::Sim,
                               faults, /*seed=*/17, /*agg_levels=*/{1},
                               {{0, 1}, {1, 1}, {4, 2}, {2, 2}, {3, 2}});
    ASSERT_EQ(dep.unit(0), nullptr);
    constexpr std::uint32_t kLeafOnly = 1;
    constexpr std::uint32_t kRowHost = 2;
    const std::pair<std::uint32_t, std::uint32_t> outages[] = {
        {kLeafOnly, 10}, {kRowHost, 40}};
    for (const auto &[process, kill] : outages) {
        dep.chaos().at(kill, rt::ChaosEvent::Kind::Kill, process);
        dep.chaos().at(kill + 5, rt::ChaosEvent::Kind::Restart, process);
    }

    rt::ChaosRunReport report = dep.run(9);
    std::size_t violations = report.violations;
    std::size_t online = report.onlineViolations;
    for (const auto &[process, kill] : outages) {
        // Down for five epochs, then three to catch up and settle.
        report = dep.run(kill + 8 - dep.engine(0)->lastEpoch());
        violations += report.violations;
        online += report.onlineViolations;
        const rt::Engine *host = dep.engine(process);
        ASSERT_NE(host, nullptr);
        const std::size_t edges = host->lastEdgeBudgets().size();
        ASSERT_GT(edges, 0u);
        const rt::RuntimeStats before = host->stats();
        constexpr std::uint32_t kWindow = 20;
        report = dep.run(kWindow);
        violations += report.violations;
        online += report.onlineViolations;
        const rt::RuntimeStats after = host->stats();
        EXPECT_GE(after.budgetsApplied - before.budgetsApplied,
                  kWindow * edges * 3 / 4)
            << "process " << process;
        EXPECT_LE(after.defaultBudgets - before.defaultBudgets,
                  kWindow * edges / 4)
            << "process " << process;
        EXPECT_GT(after.catchUpPeriods, 0u) << "process " << process;
    }
    EXPECT_EQ(violations, 0u) << report.firstViolation;
    EXPECT_EQ(online, 0u);
}

// ------------------------------------ floors in the merge (§4.5)

namespace {

/** One feed: a 1,200 W RPP (1,500 W derated 0.8) over two CDUs of two
 *  single-supply servers each. Rack 0's floors are 2 x 270 W; rack 1
 *  alone would take 980 W. */
const char *kRppScenario = R"({
  "feeds": 1,
  "trees": [
    {
      "feed": 0, "phase": 0, "name": "X",
      "root": {
        "kind": "breaker", "name": "top", "rating": 3000,
        "children": [
          { "kind": "rpp", "name": "rpp", "rating": 1500, "derate": 0.8,
            "children": [
              { "kind": "cdu", "name": "cdu0", "rating": 1000,
                "children": [
                  { "kind": "supply", "server": 0, "supply": 0 },
                  { "kind": "supply", "server": 1, "supply": 0 } ] },
              { "kind": "cdu", "name": "cdu1", "rating": 1000,
                "children": [
                  { "kind": "supply", "server": 2, "supply": 0 },
                  { "kind": "supply", "server": 3, "supply": 0 } ] }
            ] }
        ]
      }
    }
  ],
  "servers": [
    { "name": "S0", "supplies": [ { "share": 1.0 } ],
      "workload": { "type": "constant", "utilization": 0.9 } },
    { "name": "S1", "supplies": [ { "share": 1.0 } ],
      "workload": { "type": "constant", "utilization": 0.9 } },
    { "name": "S2", "supplies": [ { "share": 1.0 } ],
      "workload": { "type": "constant", "utilization": 1.0 } },
    { "name": "S3", "supplies": [ { "share": 1.0 } ],
      "workload": { "type": "constant", "utilization": 1.0 } }
  ],
  "service": { "policy": "global", "spo": false },
  "budgets": { "totalPerPhase": 3000 }
})";

} // namespace

TEST(FloorsInTheMerge, PartitionedRackUntilDeadKeepsTheRppInsideItsLimit)
{
    // Rack 0 is cut off from the root until the root declares it dead.
    // Its CDU rides its 540 W of floors all the while; those floors
    // enter the root's merge, so the RPP grants rack 1 only the rest
    // of its 1,200 W limit. Every station is checked each epoch from
    // the applied edge watts, and the harness and the root's online
    // auditor must find nothing either.
    rt::LockstepDeployment dep(kRppScenario, rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/3);
    ASSERT_EQ(dep.rackCount(), 2u);
    dep.chaos().at(2, rt::ChaosEvent::Kind::Partition, 0,
                   dep.plan().rootEndpoint());
    const config::LoadedScenario scenario =
        config::loadScenario(util::parseJson(kRppScenario));
    const topo::PowerTree &tree = scenario.system->tree(0);
    bool dead = false;
    for (std::uint32_t epoch = 1; epoch <= 10; ++epoch) {
        SCOPED_TRACE("epoch " + std::to_string(epoch));
        const auto report = dep.run(1);
        EXPECT_EQ(report.violations, 0u) << report.firstViolation;
        EXPECT_EQ(report.onlineViolations, report.violations);
        std::map<topo::NodeId, Watts> applied;
        for (std::size_t r = 0; r < dep.rackCount(); ++r) {
            for (const auto &[key, watts] : dep.rack(r)->lastEdgeBudgets())
                applied[key.second] = watts;
        }
        EXPECT_EQ(test_support::overloadReport(tree, tree.root(), 3000.0,
                                               applied),
                  "");
        dead = dead || dep.rackState(0) == rt::RackState::Dead;
    }
    EXPECT_TRUE(dead);
    EXPECT_EQ(dep.room().safetyAuditor().violations(), 0u);
}

// ------------------------------------------- hostile upstream frames

TEST(Failover, ForgedMetricsForAnotherRacksEdgeAreOrphaned)
{
    // Rack 0 claims rack 1's edge on tree X with empty metrics, slipped
    // in at each epoch's window start. The root must drop it as an
    // orphan: the allocation stays bit-identical to a clean run.
    rt::LockstepDeployment clean(kScenario, rt::ChaosBackend::Sim,
                                 net::TransportConfig{}, /*seed=*/5);
    rt::LockstepDeployment forged(kScenario, rt::ChaosBackend::Sim,
                                  net::TransportConfig{}, /*seed=*/5);
    const auto scenario = config::loadScenario(util::parseJson(kScenario));
    topo::NodeId right = topo::kNoNode;
    scenario.system->tree(0).forEach([&](const topo::TopoNode &n) {
        if (n.name == "rightCB")
            right = n.id;
    });
    ASSERT_NE(right, topo::kNoNode);

    for (std::uint32_t epoch = 1; epoch <= 6; ++epoch) {
        clean.run(1);
        forged.runUntil(forged.epochStartMs(epoch));
        net::MetricsMsg msg;
        msg.tree = 0;
        msg.edgeNode = static_cast<std::uint32_t>(right);
        // A sequence number inside rack 0's current batch (two Metrics
        // and a Checkpoint), so the root's restart detection sees
        // nothing unusual.
        forged.net().send(0, 2,
                          net::encodeMetrics(
                              net::FrameMeta(0, epoch, 3 * (epoch - 1)),
                              msg));
        forged.run(1);
    }
    for (std::uint32_t r = 0; r < 2; ++r) {
        const auto &a = clean.unit(r)->lastEdgeBudgets();
        const auto &b = forged.unit(r)->lastEdgeBudgets();
        ASSERT_EQ(a.size(), b.size());
        for (const auto &[edge, watts] : a) {
            ASSERT_TRUE(b.count(edge));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(watts),
                      std::bit_cast<std::uint64_t>(b.at(edge)))
                << "rack " << r << " node " << edge.second;
        }
        EXPECT_EQ(clean.unit(r)->stats().budgetsApplied,
                  forged.unit(r)->stats().budgetsApplied);
    }
    EXPECT_EQ(forged.room().stats().orphanFrames,
              clean.room().stats().orphanFrames + 6u);
}

TEST(Failover, RootFleetRollupFollowsRackLiveness)
{
    // The 2-level root reports one fleet unit per child worker, "w<ep>",
    // at its worst station's state — except that a Dead rack reads as
    // lost and a Rehoming one as rehoming, whatever its stations did.
    rt::LockstepDeployment dep(kScenario, rt::ChaosBackend::Sim,
                               net::TransportConfig{}, /*seed=*/11);
    dep.chaos().at(3, rt::ChaosEvent::Kind::Kill, 0);
    dep.chaos().at(8, rt::ChaosEvent::Kind::Restart, 0);
    const auto &fleet = dep.room().fleetHealth();
    auto state = [&fleet](const char *unit) {
        return fleet.units().at(unit).health;
    };

    dep.run(2);
    EXPECT_EQ(fleet.units().size(), 2u);
    EXPECT_EQ(state("w0"), telemetry::UnitHealth::Live);
    EXPECT_EQ(dep.room().healthJson().numberOr("tier", -1.0), 1.0);

    dep.run(1); // epoch 3: rack 0 silent, its stations ride the cache
    EXPECT_EQ(state("w0"), telemetry::UnitHealth::Stale);
    dep.run(2); // epoch 5: declared dead
    ASSERT_EQ(dep.rackState(0), rt::RackState::Dead);
    EXPECT_EQ(state("w0"), telemetry::UnitHealth::Lost);
    EXPECT_EQ(state("w1"), telemetry::UnitHealth::Live);

    dep.run(3); // epoch 8: the restarted instance is heard
    ASSERT_EQ(dep.rackState(0), rt::RackState::Rehoming);
    EXPECT_EQ(state("w0"), telemetry::UnitHealth::Rehoming);
    dep.run(3);
    ASSERT_EQ(dep.rackState(0), rt::RackState::Live);
    EXPECT_EQ(state("w0"), telemetry::UnitHealth::Live);
}
