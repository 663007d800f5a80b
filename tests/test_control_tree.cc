/**
 * @file
 * Control-tree tests: the paper's Figure 2 / Table 1 worked example under
 * all three policies, hierarchical limit safety, dead leaves, and metric
 * propagation through multiple levels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "control/control_tree.hh"
#include "test_support.hh"
#include "topology/power_tree.hh"
#include "util/random.hh"

using namespace capmaestro;
using ctrl::ControlTree;
using ctrl::LeafInput;
using ctrl::TreePolicy;

namespace {

/** Figure 2: top CB (1400 W) over left/right CBs (750 W), 2 servers each. */
std::unique_ptr<topo::PowerTree>
makeFig2Tree()
{
    auto tree = std::make_unique<topo::PowerTree>(0, 0, "fig2");
    const auto top =
        tree->makeRoot(topo::NodeKind::Breaker, "topCB", 1400.0);
    const auto left =
        tree->addChild(top, topo::NodeKind::Breaker, "leftCB", 750.0);
    const auto right =
        tree->addChild(top, topo::NodeKind::Breaker, "rightCB", 750.0);
    tree->addSupplyPort(left, "SA.0", {0, 0});
    tree->addSupplyPort(left, "SB.0", {1, 0});
    tree->addSupplyPort(right, "SC.0", {2, 0});
    tree->addSupplyPort(right, "SD.0", {3, 0});
    return tree;
}

/** Table 1 server inputs: 430 W demand, 270 W floor, SA high priority. */
LeafInput
table1Input(bool high_priority)
{
    LeafInput in;
    in.priority = high_priority ? 1 : 0;
    in.capMin = 270.0;
    in.demand = 430.0;
    in.constraint = 490.0;
    in.live = true;
    return in;
}

void
setTable1Inputs(ControlTree &ct)
{
    ct.setLeafInput({0, 0}, table1Input(true));
    ct.setLeafInput({1, 0}, table1Input(false));
    ct.setLeafInput({2, 0}, table1Input(false));
    ct.setLeafInput({3, 0}, table1Input(false));
}

} // namespace

TEST(ControlTree, Table1GlobalPriority)
{
    auto topo_tree = makeFig2Tree();
    ControlTree ct(*topo_tree, TreePolicy::globalPriority());
    setTable1Inputs(ct);
    ct.gather();
    const auto outcome = ct.allocate(1240.0);
    EXPECT_TRUE(outcome.feasible);

    // Paper Table 1, "Budget with Global Priority": 430/270/270/270.
    EXPECT_NEAR(ct.leafBudget({0, 0}), 430.0, 0.5);
    EXPECT_NEAR(ct.leafBudget({1, 0}), 270.0, 0.5);
    EXPECT_NEAR(ct.leafBudget({2, 0}), 270.0, 0.5);
    EXPECT_NEAR(ct.leafBudget({3, 0}), 270.0, 0.5);
}

TEST(ControlTree, Table1LocalPriority)
{
    auto topo_tree = makeFig2Tree();
    ControlTree ct(*topo_tree, TreePolicy::localPriority());
    setTable1Inputs(ct);
    ct.gather();
    ct.allocate(1240.0);

    // Paper Table 1, "Budget with Local Priority": 350/270/310/310.
    // The top CB splits 620/620 because priorities are invisible to it;
    // the left CB can then only shift SB's surplus to SA.
    EXPECT_NEAR(ct.leafBudget({0, 0}), 350.0, 0.5);
    EXPECT_NEAR(ct.leafBudget({1, 0}), 270.0, 0.5);
    EXPECT_NEAR(ct.leafBudget({2, 0}), 310.0, 0.5);
    EXPECT_NEAR(ct.leafBudget({3, 0}), 310.0, 0.5);
}

TEST(ControlTree, Table1NoPriority)
{
    auto topo_tree = makeFig2Tree();
    ControlTree ct(*topo_tree, TreePolicy::noPriority());
    setTable1Inputs(ct);
    ct.gather();
    ct.allocate(1240.0);

    // Equal demands, priority-blind: everyone gets 310 W.
    for (std::int32_t s = 0; s < 4; ++s)
        EXPECT_NEAR(ct.leafBudget({s, 0}), 310.0, 0.5);
}

TEST(ControlTree, BreakerLimitsRespected)
{
    auto topo_tree = makeFig2Tree();
    ControlTree ct(*topo_tree, TreePolicy::globalPriority());
    // All four high priority: the left/right CB limits (750 W) bind.
    for (std::int32_t s = 0; s < 4; ++s)
        ct.setLeafInput({s, 0}, table1Input(true));
    ct.gather();
    ct.allocate(5000.0); // huge budget: limits must still hold

    const auto &top = topo_tree->node(topo_tree->root());
    const Watts left_budget = ct.nodeBudget(top.children[0]);
    const Watts right_budget = ct.nodeBudget(top.children[1]);
    EXPECT_LE(left_budget, 750.0 + 1e-6);
    EXPECT_LE(right_budget, 750.0 + 1e-6);
    // Root budget itself clips at the top CB limit.
    EXPECT_LE(left_budget + right_budget, 1400.0 + 1e-6);
}

TEST(ControlTree, ChildBudgetsNeverExceedParent)
{
    auto topo_tree = makeFig2Tree();
    ControlTree ct(*topo_tree, TreePolicy::globalPriority());
    util::Rng rng(31);
    for (int trial = 0; trial < 100; ++trial) {
        for (std::int32_t s = 0; s < 4; ++s) {
            LeafInput in;
            in.priority = static_cast<Priority>(rng.uniformInt(0, 2));
            in.capMin = rng.uniform(100.0, 280.0);
            in.demand = in.capMin + rng.uniform(0.0, 250.0);
            in.constraint = in.demand + rng.uniform(0.0, 80.0);
            ct.setLeafInput({s, 0}, in);
        }
        ct.gather();
        ct.allocate(rng.uniform(1000.0, 2000.0));

        for (const auto cb : topo_tree->node(topo_tree->root()).children) {
            EXPECT_EQ(test_support::splitReport(ct, cb, ct.nodeBudget(cb)), "")
                << "trial " << trial;
        }
    }
}

TEST(ControlTree, DeadLeafGetsNothing)
{
    auto topo_tree = makeFig2Tree();
    ControlTree ct(*topo_tree, TreePolicy::globalPriority());
    setTable1Inputs(ct);
    LeafInput dead;
    dead.live = false;
    ct.setLeafInput({1, 0}, dead);
    ct.gather();
    ct.allocate(1240.0);
    EXPECT_DOUBLE_EQ(ct.leafBudget({1, 0}), 0.0);
    // With SB gone there is surplus: SA's request (430) is met in full and
    // step 4 tops it up to its constraint (490) as headroom.
    EXPECT_NEAR(ct.leafBudget({0, 0}), 490.0, 0.5);
    // The leftover after SA contests between SC and SD equally.
    EXPECT_NEAR(ct.leafBudget({2, 0}), 375.0, 0.5);
    EXPECT_NEAR(ct.leafBudget({3, 0}), 375.0, 0.5);
}

TEST(ControlTree, NonFiniteLeafInputIsRefused)
{
    // A NaN or infinite field would poison every split of the tree:
    // setLeafInput refuses it and the leaf keeps its last input, while
    // a dead input carries no watts and is always taken.
    auto topo_tree = makeFig2Tree();
    ControlTree ct(*topo_tree, TreePolicy::globalPriority());
    setTable1Inputs(ct);
    ct.gather();
    ct.allocate(1240.0);
    const Watts before = ct.leafBudget({0, 0});
    for (const Watts bad : {std::numeric_limits<Watts>::infinity(),
                            std::numeric_limits<Watts>::quiet_NaN()}) {
        for (Watts LeafInput::*field :
             {&LeafInput::capMin, &LeafInput::demand,
              &LeafInput::constraint}) {
            LeafInput in = table1Input(true);
            in.*field = bad;
            EXPECT_FALSE(ct.setLeafInput({0, 0}, in));
            in.live = false;
            EXPECT_TRUE(in.finite());
        }
    }
    ct.gather();
    ct.allocate(1240.0);
    EXPECT_EQ(ct.leafBudget({0, 0}), before);
    for (std::int32_t s = 1; s < 4; ++s)
        EXPECT_TRUE(std::isfinite(ct.leafBudget({s, 0})));
}

TEST(ControlTree, UninitializedLeavesAreDead)
{
    auto topo_tree = makeFig2Tree();
    ControlTree ct(*topo_tree, TreePolicy::globalPriority());
    ct.gather(); // no inputs set at all
    const auto outcome = ct.allocate(1240.0);
    EXPECT_TRUE(outcome.feasible);
    for (std::int32_t s = 0; s < 4; ++s)
        EXPECT_DOUBLE_EQ(ct.leafBudget({s, 0}), 0.0);
    EXPECT_NEAR(outcome.unallocatedAtRoot, 1240.0, 1e-6);
}

TEST(ControlTree, ClearAllLeaves)
{
    auto topo_tree = makeFig2Tree();
    ControlTree ct(*topo_tree, TreePolicy::globalPriority());
    setTable1Inputs(ct);
    ct.clearAllLeaves();
    ct.gather();
    ct.allocate(1240.0);
    for (std::int32_t s = 0; s < 4; ++s)
        EXPECT_DOUBLE_EQ(ct.leafBudget({s, 0}), 0.0);
}

TEST(ControlTree, InfeasibleFloorsFlagged)
{
    auto topo_tree = makeFig2Tree();
    ControlTree ct(*topo_tree, TreePolicy::globalPriority());
    setTable1Inputs(ct); // floors total 1080
    ct.gather();
    const auto outcome = ct.allocate(900.0);
    EXPECT_FALSE(outcome.feasible);
}

TEST(ControlTree, RootMetricsSummarizeTree)
{
    auto topo_tree = makeFig2Tree();
    ControlTree ct(*topo_tree, TreePolicy::globalPriority());
    setTable1Inputs(ct);
    ct.gather();
    const auto &m = ct.rootMetrics();
    EXPECT_DOUBLE_EQ(m.totalCapMin(), 4 * 270.0);
    EXPECT_DOUBLE_EQ(m.totalDemand(), 4 * 430.0);
    // Constraint: min(1400, 2 x min(750, 980)) = 1400.
    EXPECT_DOUBLE_EQ(m.constraint(), 1400.0);
    ASSERT_EQ(m.classes().size(), 2u);
}

TEST(ControlTree, GatherIsIdempotent)
{
    auto topo_tree = makeFig2Tree();
    ControlTree ct(*topo_tree, TreePolicy::globalPriority());
    setTable1Inputs(ct);
    ct.gather();
    const auto first = ct.rootMetrics().toString();
    ct.gather();
    EXPECT_EQ(ct.rootMetrics().toString(), first);
    // Allocation is also stable across repeated runs on fixed inputs.
    ct.allocate(1240.0);
    const auto budget = ct.leafBudget({0, 0});
    ct.gather();
    ct.allocate(1240.0);
    EXPECT_DOUBLE_EQ(ct.leafBudget({0, 0}), budget);
}

TEST(ControlTree, MessagesPerIteration)
{
    auto topo_tree = makeFig2Tree();
    ControlTree ct(*topo_tree, TreePolicy::globalPriority());
    // 7 nodes -> 6 edges -> 12 messages per gather+budget iteration.
    EXPECT_EQ(ct.messagesPerIteration(), 12u);
}

TEST(ControlTree, LeafRefsComplete)
{
    auto topo_tree = makeFig2Tree();
    ControlTree ct(*topo_tree, TreePolicy::globalPriority());
    EXPECT_EQ(ct.leafRefs().size(), 4u);
}

TEST(ControlTree, DeepHierarchyPropagation)
{
    // Four-level chain: root(1000) -> mid(800) -> leafparent(600) -> leaf.
    topo::PowerTree tree(0, 0, "deep");
    const auto root = tree.makeRoot(topo::NodeKind::Breaker, "r", 1000.0);
    const auto mid =
        tree.addChild(root, topo::NodeKind::Breaker, "m", 800.0);
    const auto lp =
        tree.addChild(mid, topo::NodeKind::Breaker, "lp", 600.0);
    tree.addSupplyPort(lp, "s", {0, 0});

    ControlTree ct(tree, TreePolicy::globalPriority());
    LeafInput in;
    in.priority = 0;
    in.capMin = 100.0;
    in.demand = 900.0; // wants more than the leaf-parent allows
    in.constraint = 950.0;
    ct.setLeafInput({0, 0}, in);
    ct.gather();
    ct.allocate(1000.0);
    // The tightest ancestor limit (600) must bind.
    EXPECT_NEAR(ct.leafBudget({0, 0}), 600.0, 1e-6);
}
