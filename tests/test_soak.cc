/**
 * @file
 * Soak test: a mixed fleet under diurnal + bursty workloads runs for a
 * long simulated stretch with a feed failure, supply failures, and a
 * restoration. Safety invariants are asserted continuously:
 *
 *   - no breaker ever trips,
 *   - every interior breaker's time-averaged load respects its limit
 *     outside the UL 489 settling windows after each event,
 *   - the high-priority servers' throughput floor holds whenever the
 *     infrastructure can possibly honor it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "net/chaos_transport.hh"
#include "sim/closed_loop.hh"
#include "sim/scenario.hh"
#include "util/random.hh"

using namespace capmaestro;
using sim::ClosedLoopSim;

namespace {

/** 2 feeds x 1 phase; 2 CDUs x 4 dual-corded servers. */
std::unique_ptr<topo::PowerSystem>
makeSoakSystem()
{
    auto sys = std::make_unique<topo::PowerSystem>(2);
    for (int feed = 0; feed < 2; ++feed) {
        auto tree = std::make_unique<topo::PowerTree>(
            feed, 0, feed == 0 ? "X" : "Y");
        const auto root = tree->makeRoot(topo::NodeKind::Contractual,
                                         "contract", topo::kUnlimited);
        for (int cdu = 0; cdu < 2; ++cdu) {
            const auto node = tree->addChild(
                root, topo::NodeKind::Cdu, "cdu" + std::to_string(cdu),
                2200.0, 0.8);
            for (int s = 0; s < 4; ++s) {
                const int id = 4 * cdu + s;
                tree->addSupplyPort(node, "s" + std::to_string(id),
                                    {id, feed});
            }
        }
        sys->addTree(std::move(tree));
    }
    return sys;
}

std::vector<sim::ServerSetup>
makeSoakFleet(util::Rng &rng)
{
    std::vector<sim::ServerSetup> servers;
    for (int i = 0; i < 8; ++i) {
        sim::ServerSetup s;
        // Servers 0 and 4 are high priority (one per CDU).
        s.spec = sim::testbedServerSpec(
            "S" + std::to_string(i), (i % 4 == 0) ? 1 : 0,
            rng.uniform(0.4, 0.6));
        switch (i % 3) {
          case 0:
            s.workload = std::make_unique<dev::SineWorkload>(
                0.6, 0.3, 600 + 40 * i);
            break;
          case 1:
            s.workload = std::make_unique<dev::RandomWalkWorkload>(
                0.5, 0.03, rng.fork());
            break;
          default:
            s.workload = std::make_unique<dev::StepWorkload>(
                std::vector<std::pair<Seconds, Fraction>>{
                    {0, 0.3}, {900, 0.95}, {1800, 0.45}});
        }
        servers.push_back(std::move(s));
    }
    return servers;
}

} // namespace

TEST(Soak, HourOfChaosStaysSafe)
{
    util::Rng rng(2030);
    core::ServiceConfig config;
    config.enableSpo = true;

    ClosedLoopSim rig(makeSoakSystem(), makeSoakFleet(rng), config);
    rig.service().refreshRootBudgets(3600.0);

    // Event schedule: PSU failure, feed failure, restoration.
    rig.failSupplyAt(400, 2, 0);
    rig.failFeedAt(1200, 0, 3600.0);
    rig.at(2400, [&rig] {
        rig.system().restoreFeed(0);
        for (std::size_t i = 0; i < 8; ++i) {
            if (i != 2) // server 2's PSU stays broken
                rig.server(i).setSupplyState(0, dev::SupplyState::Ok);
        }
        rig.service().refreshRootBudgets(3600.0);
    });

    rig.run(3600);

    // Invariant 1: no trips, ever.
    EXPECT_FALSE(rig.anyBreakerTripped());

    const auto &rec = rig.recorder();
    // Invariant 2: outside 60 s settling windows after each event, every
    // CDU stays within its derated limit (1760 W).
    const std::vector<std::pair<Seconds, Seconds>> steady{
        {60, 399}, {460, 1199}, {1260, 2399}, {2460, 3599}};
    for (const auto &tree_name : {std::string("X"), std::string("Y")}) {
        for (int cdu = 0; cdu < 2; ++cdu) {
            const std::string series =
                tree_name + ".cdu" + std::to_string(cdu) + ".power";
            for (const auto &[from, to] : steady) {
                EXPECT_LE(rec.max(series, from, to), 1760.0 * 1.02)
                    << series << " in [" << from << "," << to << "]";
            }
        }
    }

    // Invariant 3: the high-priority servers ran essentially uncapped
    // whenever both feeds were up (their CDU groups have low-priority
    // donors to squeeze first).
    for (const std::size_t hp : {0u, 4u}) {
        EXPECT_GT(rec.mean(ClosedLoopSim::serverSeries(hp, "throughput"),
                           100, 1199),
                  0.97)
            << "server " << hp << " (normal operation)";
        EXPECT_GT(rec.mean(ClosedLoopSim::serverSeries(hp, "throughput"),
                           2500, 3599),
                  0.97)
            << "server " << hp << " (after restoration)";
    }

    // Sanity: the run actually exercised capping at some point.
    bool any_throttle = false;
    for (std::size_t i = 0; i < 8; ++i) {
        if (rec.max(ClosedLoopSim::serverSeries(i, "throttle"), 0, 3599)
            > 0.05) {
            any_throttle = true;
        }
    }
    EXPECT_TRUE(any_throttle);
}

TEST(Soak, MessagePlaneHourWithSpoStaysConsistent)
{
    // An hour of message-plane control over a nasty link (drop + dup +
    // reorder + jitter) with SPO enabled and a PSU failure mid-run.
    // The SPO counter identity must hold every single period, both SPO
    // outcomes (commit and fallback) must actually occur, the
    // transport queue must stay bounded at every period boundary (no
    // monotonic growth), and no breaker ever trips.
    //
    // A scripted outage makes the fallback certain: every fourth
    // period rack 1 is cut off from the room. Rack 1 owns an edge of
    // both trees and is only one period stale, so any SPO round in
    // that period sends it a second-pass budget it never receives, and
    // the tree rolls back.
    util::Rng rng(4097);
    core::ServiceConfig config;
    config.enableSpo = true;
    config.useMessagePlane = true;
    config.transport.dropRate = 0.25;
    config.transport.dupRate = 0.05;
    config.transport.reorderRate = 0.10;
    config.transport.latencyMeanMs = 2.0;
    config.transport.latencyJitterMs = 2.0;
    config.transport.seed = 13;

    auto system = makeSoakSystem();
    const auto room = static_cast<net::Transport::Endpoint>(
        core::DistributedControlPlane::rackWorkerCountFor(*system));
    net::SimTransport link(config.transport);
    net::ChaosTransport transport(link, room);
    ClosedLoopSim rig(std::move(system), makeSoakFleet(rng), config,
                      transport);
    rig.service().refreshRootBudgets(3600.0);
    rig.failSupplyAt(400, 2, 0);

    std::size_t rounds = 0, attempted = 0, committed = 0, fallbacks = 0;
    std::size_t max_in_flight = 0;
    for (int period = 0; period < 450; ++period) { // 450 x 8 s = 1 h
        transport.setPartition(1, room, period % 4 == 3);
        rig.run(8);
        const auto &msgs = rig.service().lastStats().messages;
        ASSERT_EQ(msgs.spoTreesAttempted,
                  msgs.spoCommittedTrees + msgs.spoFallbackTrees)
            << "period " << period;
        rounds += msgs.spoRounds;
        attempted += msgs.spoTreesAttempted;
        committed += msgs.spoCommittedTrees;
        fallbacks += msgs.spoFallbackTrees;

        const std::size_t in_flight =
            rig.service().transport()->inFlight();
        max_in_flight = std::max(max_in_flight, in_flight);
        ASSERT_LT(in_flight, 64u) << "period " << period;
    }

    EXPECT_FALSE(rig.anyBreakerTripped());
    EXPECT_GT(rounds, 0u);
    EXPECT_EQ(attempted, committed + fallbacks);
    // Clean rounds commit; a round during the scripted outage cannot.
    EXPECT_GT(committed, 0u);
    EXPECT_GT(fallbacks, 0u);
    EXPECT_LT(max_in_flight, 64u);
}

TEST(Soak, DeterministicAcrossRuns)
{
    auto run_once = [] {
        util::Rng rng(77);
        core::ServiceConfig config;
        ClosedLoopSim rig(makeSoakSystem(), makeSoakFleet(rng), config,
                          /*seed=*/5);
        rig.service().refreshRootBudgets(3600.0);
        rig.failFeedAt(300, 0, 3600.0);
        rig.run(900);
        double checksum = 0.0;
        for (std::size_t i = 0; i < 8; ++i) {
            checksum += rig.recorder().mean(
                ClosedLoopSim::serverSeries(i, "power"), 0, 899);
        }
        return checksum;
    };
    EXPECT_DOUBLE_EQ(run_once(), run_once());
}
