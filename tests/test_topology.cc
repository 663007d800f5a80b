/**
 * @file
 * Unit tests for the topology module: breaker trip envelope and integrator,
 * power-tree construction/validation, and the multi-tree power system.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "topology/breaker.hh"
#include "topology/power_system.hh"
#include "topology/power_tree.hh"

namespace ct = capmaestro::topo;

TEST(Breaker, NoTripAtOrBelowRating)
{
    EXPECT_EQ(ct::minTripTimeSeconds(0.5), ct::kNeverTrips);
    EXPECT_EQ(ct::minTripTimeSeconds(1.0), ct::kNeverTrips);
}

TEST(Breaker, PaperAnchor160Percent)
{
    // Paper §2.1 / UL 489: minimum 30 s before tripping at 160 % load.
    EXPECT_NEAR(ct::minTripTimeSeconds(1.60), 30.0, 1e-9);
}

TEST(Breaker, MonotoneDecreasing)
{
    double prev = ct::minTripTimeSeconds(1.01);
    for (double f = 1.05; f < 12.0; f += 0.05) {
        const double t = ct::minTripTimeSeconds(f);
        EXPECT_LE(t, prev + 1e-9) << "at load fraction " << f;
        prev = t;
    }
}

TEST(Breaker, DeepOverloadIsFast)
{
    EXPECT_LT(ct::minTripTimeSeconds(10.0), 1.0);
    EXPECT_GT(ct::minTripTimeSeconds(1.2), 1000.0);
}

TEST(TripIntegrator, TripsAfterEnvelopeTime)
{
    ct::TripIntegrator ti(1000.0);
    // 160 % load: must survive just under 30 s, trip at/after 30 s.
    bool tripped = false;
    for (int s = 0; s < 29; ++s)
        tripped = ti.advance(1600.0, 1.0);
    EXPECT_FALSE(tripped);
    for (int s = 0; s < 3 && !tripped; ++s)
        tripped = ti.advance(1600.0, 1.0);
    EXPECT_TRUE(tripped);
    EXPECT_TRUE(ti.tripped());
}

TEST(TripIntegrator, CapedLoadAvoidsTrip)
{
    // CapMaestro's scenario: 160 % for 14 s (cap settles), then within
    // rating forever; the breaker must never trip.
    ct::TripIntegrator ti(1000.0);
    for (int s = 0; s < 14; ++s)
        ti.advance(1600.0, 1.0);
    EXPECT_FALSE(ti.tripped());
    for (int s = 0; s < 600; ++s)
        ti.advance(800.0, 1.0);
    EXPECT_FALSE(ti.tripped());
    EXPECT_LT(ti.progress(), 0.5);
}

TEST(TripIntegrator, CoolsWhenWithinRating)
{
    ct::TripIntegrator ti(1000.0);
    for (int s = 0; s < 10; ++s)
        ti.advance(1600.0, 1.0);
    const double hot = ti.progress();
    for (int s = 0; s < 120; ++s)
        ti.advance(500.0, 1.0);
    EXPECT_LT(ti.progress(), hot);
}

TEST(TripIntegrator, ResetClearsLatch)
{
    ct::TripIntegrator ti(100.0);
    for (int s = 0; s < 40; ++s)
        ti.advance(160.0, 1.0);
    EXPECT_TRUE(ti.tripped());
    ti.reset();
    EXPECT_FALSE(ti.tripped());
    EXPECT_DOUBLE_EQ(ti.progress(), 0.0);
}

namespace {

/** Build the paper's Figure 2 single-feed tree: top CB over two CBs. */
std::unique_ptr<ct::PowerTree>
makeFig2Tree()
{
    auto tree = std::make_unique<ct::PowerTree>(0, 0, "fig2");
    const auto top =
        tree->makeRoot(ct::NodeKind::Breaker, "topCB", 1400.0);
    const auto left =
        tree->addChild(top, ct::NodeKind::Breaker, "leftCB", 750.0);
    const auto right =
        tree->addChild(top, ct::NodeKind::Breaker, "rightCB", 750.0);
    tree->addSupplyPort(left, "SA.0", {0, 0});
    tree->addSupplyPort(left, "SB.0", {1, 0});
    tree->addSupplyPort(right, "SC.0", {2, 0});
    tree->addSupplyPort(right, "SD.0", {3, 0});
    return tree;
}

} // namespace

TEST(PowerTree, BuildFig2)
{
    auto tree = makeFig2Tree();
    EXPECT_EQ(tree->size(), 7u);
    EXPECT_EQ(tree->validate(), 4u);
    EXPECT_EQ(tree->node(tree->root()).name, "topCB");
    EXPECT_EQ(tree->supplyPorts().size(), 4u);
}

TEST(PowerTree, LimitAppliesDerate)
{
    ct::PowerTree tree(0, 0, "t");
    const auto root =
        tree.makeRoot(ct::NodeKind::Cdu, "cdu", 6900.0, 0.8);
    EXPECT_DOUBLE_EQ(tree.node(root).limit(), 5520.0);
}

TEST(PowerTree, UnlimitedNodes)
{
    ct::PowerTree tree(0, 0, "t");
    const auto root =
        tree.makeRoot(ct::NodeKind::Ats, "ats", ct::kUnlimited);
    EXPECT_EQ(tree.node(root).limit(), ct::kUnlimited);
}

TEST(PowerTree, SuppliesUnderSubtree)
{
    auto tree = makeFig2Tree();
    const auto &top = tree->node(tree->root());
    ASSERT_EQ(top.children.size(), 2u);
    const auto left_supplies = tree->suppliesUnder(top.children[0]);
    ASSERT_EQ(left_supplies.size(), 2u);
    EXPECT_EQ(left_supplies[0].server, 0);
    EXPECT_EQ(left_supplies[1].server, 1);
}

TEST(PowerTree, ForEachVisitsPreorder)
{
    auto tree = makeFig2Tree();
    std::vector<std::string> names;
    tree->forEach([&names](const ct::TopoNode &n) {
        names.push_back(n.name);
    });
    ASSERT_EQ(names.size(), 7u);
    EXPECT_EQ(names[0], "topCB");
    EXPECT_EQ(names[1], "leftCB");
    EXPECT_EQ(names[2], "SA.0");
}

TEST(PowerTreeDeath, DuplicateSupplyRefFailsValidation)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    ct::PowerTree tree(0, 0, "dup");
    const auto root = tree.makeRoot(ct::NodeKind::Breaker, "cb", 100.0);
    tree.addSupplyPort(root, "a", {0, 0});
    tree.addSupplyPort(root, "b", {0, 0});
    EXPECT_EXIT(tree.validate(), testing::ExitedWithCode(1), "duplicate");
}

TEST(PowerTreeDeath, DoubleRoot)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    ct::PowerTree tree(0, 0, "t");
    tree.makeRoot(ct::NodeKind::Breaker, "r", 100.0);
    EXPECT_EXIT(tree.makeRoot(ct::NodeKind::Breaker, "r2", 100.0),
                testing::ExitedWithCode(1), "root already created");
}

TEST(PowerSystem, LivePortsAndFeedFailure)
{
    ct::PowerSystem sys(2);
    {
        auto a = std::make_unique<ct::PowerTree>(0, 0, "feedA");
        const auto root = a->makeRoot(ct::NodeKind::Breaker, "a", 1000.0);
        a->addSupplyPort(root, "s0.0", {0, 0});
        sys.addTree(std::move(a));
    }
    {
        auto b = std::make_unique<ct::PowerTree>(1, 0, "feedB");
        const auto root = b->makeRoot(ct::NodeKind::Breaker, "b", 1000.0);
        b->addSupplyPort(root, "s0.1", {0, 1});
        sys.addTree(std::move(b));
    }
    EXPECT_EQ(sys.validate(), 2u);
    EXPECT_EQ(sys.liveFeeds(), 2);

    auto ports = sys.livePortsOf(0);
    EXPECT_EQ(ports.size(), 2u);

    sys.failFeed(1);
    EXPECT_TRUE(sys.feedFailed(1));
    EXPECT_EQ(sys.liveFeeds(), 1);
    ports = sys.livePortsOf(0);
    ASSERT_EQ(ports.size(), 1u);
    EXPECT_EQ(ports.begin()->first, 0); // only supply 0 (feed A) remains

    sys.restoreFeed(1);
    EXPECT_EQ(sys.livePortsOf(0).size(), 2u);
}

TEST(PowerSystemDeath, CrossTreeDuplicateSupply)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    ct::PowerSystem sys(1);
    auto a = std::make_unique<ct::PowerTree>(0, 0, "t0");
    auto ra = a->makeRoot(ct::NodeKind::Breaker, "a", 100.0);
    a->addSupplyPort(ra, "x", {0, 0});
    sys.addTree(std::move(a));

    auto b = std::make_unique<ct::PowerTree>(0, 1, "t1");
    auto rb = b->makeRoot(ct::NodeKind::Breaker, "b", 100.0);
    b->addSupplyPort(rb, "y", {0, 0});
    EXPECT_EXIT(sys.addTree(std::move(b)), testing::ExitedWithCode(1),
                "multiple trees");
}

TEST(PowerSystem, UnknownServerHasNoPorts)
{
    ct::PowerSystem sys(1);
    auto a = std::make_unique<ct::PowerTree>(0, 0, "t0");
    auto ra = a->makeRoot(ct::NodeKind::Breaker, "a", 100.0);
    a->addSupplyPort(ra, "x", {0, 0});
    sys.addTree(std::move(a));
    EXPECT_TRUE(sys.livePortsOf(42).empty());
}

TEST(NodeKindNames, AllDistinct)
{
    EXPECT_STREQ(ct::nodeKindName(ct::NodeKind::Cdu), "cdu");
    EXPECT_STREQ(ct::nodeKindName(ct::NodeKind::Rpp), "rpp");
    EXPECT_STREQ(ct::nodeKindName(ct::NodeKind::Transformer),
                 "transformer");
    EXPECT_STREQ(ct::nodeKindName(ct::NodeKind::SupplyPort),
                 "supply-port");
}

// ------------------------------------------------ the safety predicate

TEST(Overloads, TableOnAHandBuiltTree)
{
    // top (2000 W) -> R (1000 W derated 0.6 = 600 W) -> A, B (400 W)
    //              -> S (500 W)                       -> C (300 W)
    ct::PowerTree tree(0, 0, "X");
    const auto top = tree.makeRoot(ct::NodeKind::Transformer, "top", 2000);
    const auto r = tree.addChild(top, ct::NodeKind::Rpp, "R", 1000, 0.6);
    const auto a = tree.addChild(r, ct::NodeKind::Cdu, "A", 400);
    const auto b = tree.addChild(r, ct::NodeKind::Cdu, "B", 400);
    const auto s = tree.addChild(top, ct::NodeKind::Rpp, "S", 500);
    const auto c = tree.addChild(s, ct::NodeKind::Cdu, "C", 300);
    const double nan = std::nan("");

    struct Case
    {
        const char *name;
        ct::NodeId scope;
        double budget;
        std::map<ct::NodeId, double> applied;
        /** (station, load, bound), in pre-order. */
        std::vector<std::tuple<ct::NodeId, double, double>> want;
    };
    const std::vector<Case> cases = {
        {"every station at its limit is safe", top, 2000.0,
         {{a, 300.0}, {b, 300.0}, {c, 300.0}}, {}},
        {"float slack inside the tolerance", top, 2000.0,
         {{a, 300.0}, {b, 300.0 + 1e-8}, {c, 0.0}}, {}},
        {"a lost CDU's floor on top of its sibling's whole grant", top,
         2000.0, {{a, 240.0}, {b, 600.0}, {c, 0.0}},
         {{r, 840.0, 600.0}, {b, 600.0, 400.0}}},
        {"the top's bound is its budget when that is tighter", top, 800.0,
         {{a, 300.0}, {b, 300.0}, {c, 300.0}}, {{top, 900.0, 800.0}}},
        {"the top's bound is its limit when that is tighter", r, 5000.0,
         {{a, 400.0}, {b, 250.0}}, {{r, 650.0, 600.0}}},
        {"an interior boundary station is checked, nothing below it",
         top, 2000.0, {{r, 700.0}, {s, 100.0}}, {{r, 700.0, 600.0}}},
        {"stations without applied watts carry nothing", top, 2000.0,
         {{c, 350.0}}, {{c, 350.0, 300.0}}},
        {"a NaN load is never safe", top, 2000.0,
         {{a, nan}, {b, 0.0}, {c, 0.0}},
         {{top, nan, 2000.0}, {r, nan, 600.0}, {a, nan, 400.0}}},
    };
    for (const Case &tc : cases) {
        SCOPED_TRACE(tc.name);
        const auto got = ct::overloads(tree, tc.scope, tc.budget,
                                       tc.applied);
        ASSERT_EQ(got.size(), tc.want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            const auto [node, load, bound] = tc.want[i];
            EXPECT_EQ(got[i].node, node);
            if (std::isnan(load))
                EXPECT_TRUE(std::isnan(got[i].load));
            else
                EXPECT_DOUBLE_EQ(got[i].load, load);
            EXPECT_DOUBLE_EQ(got[i].bound, bound);
        }
    }
}
