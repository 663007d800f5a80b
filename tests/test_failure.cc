/**
 * @file
 * Failure-injection tests: power-supply failures mid-run, hot-spare
 * standby under the control loop, and the negative control — without
 * CapMaestro an overloaded breaker trips, with it the load is shed
 * inside the UL 489 window.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/closed_loop.hh"
#include "sim/scenario.hh"

using namespace capmaestro;
using sim::ClosedLoopSim;

namespace {

/** Dual-feed rig with 4 dual-corded servers; left CBs carry s0+s1. */
ClosedLoopSim
makeDualFeedRig(core::ServiceConfig config, double demand = 430.0,
                double branch_cb_rating = 750.0)
{
    std::vector<sim::ServerSetup> servers;
    for (int i = 0; i < 4; ++i) {
        sim::ServerSetup s;
        s.spec = sim::testbedServerSpec("S" + std::to_string(i),
                                        i == 0 ? 1 : 0);
        s.workload = std::make_unique<dev::ConstantWorkload>(
            sim::utilizationForDemand(160.0, 490.0, demand));
        servers.push_back(std::move(s));
    }
    auto sys = std::make_unique<topo::PowerSystem>(2);
    for (int feed = 0; feed < 2; ++feed) {
        auto tree = std::make_unique<topo::PowerTree>(
            feed, 0, feed == 0 ? "X" : "Y");
        const auto top =
            tree->makeRoot(topo::NodeKind::Breaker, "topCB", 1400.0);
        const auto left =
            tree->addChild(top, topo::NodeKind::Breaker, "leftCB",
                           branch_cb_rating);
        const auto right =
            tree->addChild(top, topo::NodeKind::Breaker, "rightCB",
                           branch_cb_rating);
        tree->addSupplyPort(left, "s0", {0, feed});
        tree->addSupplyPort(left, "s1", {1, feed});
        tree->addSupplyPort(right, "s2", {2, feed});
        tree->addSupplyPort(right, "s3", {3, feed});
        sys->addTree(std::move(tree));
    }
    return ClosedLoopSim(std::move(sys), std::move(servers), config);
}

} // namespace

TEST(FailureInjection, WithoutCappingFeedFailureTripsBreaker)
{
    // Negative control: manual mode with no budgets ever applied means
    // no capping. After feed X fails, the Y left CB carries ~980 W
    // (158 % of its 620 W rating) and trips within about a minute.
    core::ServiceConfig config;
    auto rig = makeDualFeedRig(config, /*demand=*/490.0,
                               /*branch_cb_rating=*/620.0);
    rig.setManualMode(true); // no budgets -> servers run uncapped
    rig.failSupplyAt(60, 0, 0);
    rig.failSupplyAt(60, 1, 0);
    rig.failSupplyAt(60, 2, 0);
    rig.failSupplyAt(60, 3, 0);
    rig.at(60, [&rig] { rig.system().failFeed(0); });
    rig.run(600);
    EXPECT_TRUE(rig.anyBreakerTripped());
}

TEST(FailureInjection, WithCappingFeedFailureIsSafe)
{
    // Same failure with CapMaestro active: the overload is shed within
    // the 30 s window and no breaker trips.
    core::ServiceConfig config;
    auto rig = makeDualFeedRig(config, /*demand=*/490.0,
                               /*branch_cb_rating=*/620.0);
    rig.service().refreshRootBudgets(1400.0);
    rig.failFeedAt(60, 0, 1400.0);
    rig.run(600);
    EXPECT_FALSE(rig.anyBreakerTripped());
    // Post-failure steady state respects the left CB limit (within the
    // 1 Hz sensor-noise band the PI loop regulates against).
    EXPECT_LE(rig.recorder().max("Y.leftCB.power", 120, 599),
              620.0 * 1.01);
}

TEST(FailureInjection, SingleSupplyFailureShiftsLoadSafely)
{
    // Only server 0's X-side supply dies; its whole load moves to its
    // Y-side supply. The controller re-learns r-hat and the Y budget
    // follows; nothing trips.
    core::ServiceConfig config;
    auto rig = makeDualFeedRig(config);
    rig.service().refreshRootBudgets(1400.0);
    rig.failSupplyAt(80, 0, 0);
    rig.run(240);

    EXPECT_FALSE(rig.anyBreakerTripped());
    const auto &rec = rig.recorder();
    // X-side supply reads zero after the failure...
    EXPECT_NEAR(rec.mean(ClosedLoopSim::supplySeries(0, 0, "power"),
                         200, 239),
                0.0, 1.0);
    // ...the Y-side supply carries the server's whole draw...
    const double y_power = rec.mean(
        ClosedLoopSim::supplySeries(0, 1, "power"), 200, 239);
    const double total = rec.mean(
        ClosedLoopSim::serverSeries(0, "power"), 200, 239);
    EXPECT_NEAR(y_power, total, 2.0);
    // ...and the Y-side budget follows the full load (r-hat ~ 1).
    EXPECT_GT(rec.mean(ClosedLoopSim::supplySeries(0, 1, "budget"),
                       200, 239),
              0.8 * total);
}

TEST(FailureInjection, StaticSplitStrandsContractualHeadroom)
{
    // With the paper's even per-feed budget split, a PSU failure piles
    // the high-priority server's whole load onto one feed whose 700 W
    // share is mostly consumed by low-priority floors: S0 gets capped
    // even though the *other* feed has ~55 W of unusable headroom.
    core::ServiceConfig config;
    auto rig = makeDualFeedRig(config);
    rig.service().refreshRootBudgets(1400.0);
    rig.failSupplyAt(80, 0, 0); // the high-priority server loses a PSU
    rig.run(240);
    EXPECT_LT(rig.recorder().mean(
                  ClosedLoopSim::serverSeries(0, "throughput"), 180,
                  239),
              0.85);
}

TEST(FailureInjection, AdaptiveFeedBalanceKeepsHighPriorityWhole)
{
    // Extension: re-splitting each phase's contractual budget across
    // feeds by demand moves the stranded headroom to the loaded feed,
    // and the high-priority server rides through the PSU failure.
    core::ServiceConfig config;
    config.adaptiveFeedBalance = true;
    config.totalPerPhaseBudget = 1400.0;
    auto rig = makeDualFeedRig(config);
    rig.service().refreshRootBudgets(1400.0);
    rig.failSupplyAt(80, 0, 0);
    rig.run(240);
    EXPECT_GT(rig.recorder().mean(
                  ClosedLoopSim::serverSeries(0, "throughput"), 180,
                  239),
              0.98);
    EXPECT_FALSE(rig.anyBreakerTripped());
}

TEST(FailureInjection, HotSpareStandbyUnderControlLoop)
{
    // A hot-spare server at light load parks one supply; when the
    // workload surges, the spare wakes and shares load again. The
    // control loop must stay stable across both transitions.
    core::ServiceConfig config;
    std::vector<sim::ServerSetup> servers;
    sim::ServerSetup s;
    s.spec = sim::testbedServerSpec("S0");
    s.spec.hotSpareEnabled = true;
    s.spec.standbyThreshold = 250.0;
    s.workload = std::make_unique<dev::StepWorkload>(
        std::vector<std::pair<Seconds, Fraction>>{
            {0, 0.05}, {100, 0.95}});
    servers.push_back(std::move(s));

    auto sys = std::make_unique<topo::PowerSystem>(2);
    for (int feed = 0; feed < 2; ++feed) {
        auto tree = std::make_unique<topo::PowerTree>(
            feed, 0, feed == 0 ? "X" : "Y");
        const auto root =
            tree->makeRoot(topo::NodeKind::Breaker, "cb", 1000.0);
        tree->addSupplyPort(root, "s0", {0, feed});
        sys->addTree(std::move(tree));
    }
    ClosedLoopSim rig(std::move(sys), std::move(servers), config);
    rig.service().refreshRootBudgets(1000.0);
    rig.run(200);

    // Light phase: one supply in standby carried everything.
    EXPECT_NEAR(rig.recorder().mean(
                    ClosedLoopSim::supplySeries(0, 0, "power"), 60, 99),
                0.0, 1.0);
    // Heavy phase: both supplies share again and throughput is full
    // (budgets are ample).
    EXPECT_GT(rig.recorder().mean(
                    ClosedLoopSim::supplySeries(0, 0, "power"), 160,
                    199),
              100.0);
    EXPECT_GT(rig.recorder().mean(
                    ClosedLoopSim::serverSeries(0, "throughput"), 160,
                    199),
              0.99);
    EXPECT_FALSE(rig.anyBreakerTripped());
}

TEST(FailureInjection, HotSpareFollowsFeedFailures)
{
    // Two hot-spare servers at light load, each parking its smaller-
    // share supply: S0 parks its feed-1 supply, S1 its feed-0 one.
    // Feed 0 is down from t=70 to t=120. S0's active supply dies with
    // it, so its spare wakes at once and S0 never goes dark. S1's
    // parked supply fails with the feed, so when S1's load surges at
    // t=90 only its feed-1 supply carries it. After the restore S0's
    // light load parks its spare again.
    core::ServiceConfig config;
    std::vector<sim::ServerSetup> servers;
    for (int i = 0; i < 2; ++i) {
        sim::ServerSetup s;
        s.spec = sim::testbedServerSpec("S" + std::to_string(i), 0,
                                        i == 0 ? 0.6 : 0.4);
        s.spec.hotSpareEnabled = true;
        s.spec.standbyThreshold = 250.0;
        if (i == 0) {
            s.workload = std::make_unique<dev::ConstantWorkload>(0.05);
        } else {
            s.workload = std::make_unique<dev::StepWorkload>(
                std::vector<std::pair<Seconds, Fraction>>{{0, 0.05},
                                                          {90, 0.95}});
        }
        servers.push_back(std::move(s));
    }
    auto sys = std::make_unique<topo::PowerSystem>(2);
    for (int feed = 0; feed < 2; ++feed) {
        auto tree = std::make_unique<topo::PowerTree>(
            feed, 0, feed == 0 ? "X" : "Y");
        const auto root =
            tree->makeRoot(topo::NodeKind::Breaker, "cb", 1000.0);
        tree->addSupplyPort(root, "s0", {0, feed});
        tree->addSupplyPort(root, "s1", {1, feed});
        sys->addTree(std::move(tree));
    }
    ClosedLoopSim rig(std::move(sys), std::move(servers), config);
    rig.service().refreshRootBudgets(1000.0);
    rig.utilityBlipAt(60, 0, /*duration=*/60, /*ups_holdup=*/10, 1000.0);
    rig.run(200);

    const auto &rec = rig.recorder();
    const auto mean = [&rec](std::size_t server, std::size_t supply,
                             Seconds from, Seconds to) {
        return rec.mean(ClosedLoopSim::supplySeries(server, supply,
                                                    "power"),
                        from, to);
    };
    // Before the outage each server runs on its larger-share supply.
    EXPECT_NEAR(mean(0, 1, 30, 69), 0.0, 1e-9);
    EXPECT_NEAR(mean(1, 0, 30, 69), 0.0, 1e-9);
    // S0 stays powered through the outage, on its woken spare.
    EXPECT_GT(rec.mean(ClosedLoopSim::serverSeries(0, "power"), 70, 71),
              150.0);
    EXPECT_NEAR(mean(0, 0, 70, 119), 0.0, 1e-9);
    EXPECT_GT(mean(0, 1, 70, 119), 150.0);
    // S1's surge draws nothing from the dead feed.
    EXPECT_NEAR(mean(1, 0, 90, 119), 0.0, 1e-9);
    EXPECT_GT(mean(1, 1, 100, 119), 300.0);
    // After the restore S0 parks its spare again; S1, now heavy, shares
    // its load over both supplies.
    EXPECT_NEAR(mean(0, 1, 130, 199), 0.0, 1e-9);
    EXPECT_GT(mean(0, 0, 130, 199), 150.0);
    EXPECT_GT(mean(1, 0, 130, 199), 100.0);
    EXPECT_FALSE(rig.anyBreakerTripped());
}

TEST(FailureInjection, EmergencyFastPathReactsSooner)
{
    // Compare overload-clear latency with and without the fast path.
    auto clear_latency = [](bool fast_path) {
        core::ServiceConfig config;
        config.emergencyFastPath = fast_path;
        config.controlPeriod = 16; // long period magnifies the benefit
        auto rig = makeDualFeedRig(config);
        rig.service().refreshRootBudgets(2000.0);
        // Fail just after a period boundary so the next scheduled
        // period is a full 16 s away.
        rig.failFeedAt(65, 0, 2000.0);
        rig.run(200);
        // "Cleared" = first time the load falls into the regulated band
        // (the PI loop holds the CB at its budget, so steady state sits
        // just under the limit with ~1 % sensor wobble).
        Seconds cleared = -1;
        for (const auto &p : rig.recorder().series("Y.leftCB.power")) {
            if (p.time < 65)
                continue;
            if (p.value > 750.0 * 1.01)
                cleared = -1;
            else if (cleared < 0)
                cleared = p.time;
        }
        return cleared - 65;
    };

    const Seconds without = clear_latency(false);
    const Seconds with = clear_latency(true);
    EXPECT_LT(with, without);
    EXPECT_LE(with, 15);
    EXPECT_GE(without, 15); // the 16 s period alone cannot react sooner
}

TEST(FailureInjection, EmergencyFastPathEmitsEvents)
{
    core::ServiceConfig config;
    config.emergencyFastPath = true;
    config.controlPeriod = 16;
    auto rig = makeDualFeedRig(config);
    rig.service().refreshRootBudgets(2000.0);
    rig.failFeedAt(65, 0, 2000.0);
    rig.run(160);
    EXPECT_GE(rig.eventLog().count(core::EventKind::EmergencyPeriod),
              1u);
    EXPECT_FALSE(rig.anyBreakerTripped());
}

TEST(FailureInjection, ShortUtilityBlipBridgedByUps)
{
    // A 6 s utility disturbance with 10 s of UPS holdup: the servers
    // never see it — no failure events, full throughput throughout.
    core::ServiceConfig config;
    auto rig = makeDualFeedRig(config, /*demand=*/380.0);
    rig.service().refreshRootBudgets(2000.0);
    rig.utilityBlipAt(60, 0, /*duration=*/6, /*ups_holdup=*/10, 2000.0);
    rig.run(160);

    EXPECT_EQ(rig.eventLog().count(core::EventKind::UtilityDisturbance),
              1u);
    EXPECT_EQ(rig.eventLog().count(core::EventKind::UpsBridged), 1u);
    EXPECT_EQ(rig.eventLog().count(core::EventKind::FeedFailed), 0u);
    EXPECT_FALSE(rig.system().feedFailed(0));
    EXPECT_GT(rig.recorder().mean(
                  ClosedLoopSim::serverSeries(1, "throughput"), 50, 159),
              0.99);
}

TEST(FailureInjection, LongUtilityOutageFailsThenRecovers)
{
    // A 90 s outage exceeds the 10 s holdup: the feed goes down at
    // t=70, throttling kicks in, and everything recovers at t=150.
    core::ServiceConfig config;
    auto rig = makeDualFeedRig(config); // demand 430 x 4
    rig.service().refreshRootBudgets(2000.0);
    rig.utilityBlipAt(60, 0, /*duration=*/90, /*ups_holdup=*/10,
                      2000.0);
    rig.run(320);

    const auto &log = rig.eventLog();
    EXPECT_EQ(log.count(core::EventKind::UtilityDisturbance), 1u);
    EXPECT_EQ(log.count(core::EventKind::UpsBridged), 0u);
    ASSERT_EQ(log.count(core::EventKind::FeedFailed), 1u);
    EXPECT_EQ(log.ofKind(core::EventKind::FeedFailed)[0].time, 70);
    ASSERT_EQ(log.count(core::EventKind::FeedRestored), 1u);
    EXPECT_EQ(log.ofKind(core::EventKind::FeedRestored)[0].time, 150);

    // During the outage the surviving left CB capped servers 0/1...
    EXPECT_LT(rig.recorder().mean(
                  ClosedLoopSim::serverSeries(1, "throughput"), 100,
                  149),
              0.97);
    // ...and after recovery throughput returns.
    EXPECT_GT(rig.recorder().mean(
                  ClosedLoopSim::serverSeries(1, "throughput"), 260,
                  319),
              0.99);
    EXPECT_FALSE(rig.anyBreakerTripped());
    EXPECT_FALSE(rig.system().feedFailed(0));
}

TEST(FailureInjection, FeedRestoreRecoversCapacity)
{
    // Contractual budget 2000 W/phase: ample in normal operation, so
    // the outage constraint is the 750 W left CB alone.
    core::ServiceConfig config;
    auto rig = makeDualFeedRig(config);
    rig.service().refreshRootBudgets(2000.0);
    rig.failFeedAt(60, 0, 2000.0);
    rig.at(200, [&rig] {
        rig.system().restoreFeed(0);
        for (std::size_t i = 0; i < 4; ++i)
            rig.server(i).setSupplyState(0, dev::SupplyState::Ok);
        rig.service().refreshRootBudgets(2000.0);
    });
    rig.run(360);

    // During the outage servers 0/1 were capped by the 750 W left CB;
    // after restoration they regain full throughput.
    const auto &rec = rig.recorder();
    EXPECT_LT(rec.mean(ClosedLoopSim::serverSeries(1, "throughput"),
                       140, 199),
              0.97);
    EXPECT_GT(rec.mean(ClosedLoopSim::serverSeries(1, "throughput"),
                       300, 359),
              0.99);
    EXPECT_FALSE(rig.anyBreakerTripped());
}
