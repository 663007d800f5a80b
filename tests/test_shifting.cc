/**
 * @file
 * Unit tests for the shifting-controller algorithms (paper §4.3):
 * water-filling, metric aggregation with the allowable-request rule, and
 * the four-step budgeting phase, including priority-dominance properties.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "control/metrics.hh"
#include "control/shifting.hh"
#include "topology/power_tree.hh"
#include "util/random.hh"

using namespace capmaestro;
using ctrl::ClassMetrics;
using ctrl::NodeMetrics;

namespace {

/** Convenience: leaf-style metrics for one server class. */
NodeMetrics
leafMetrics(Priority priority, Watts cap_min, Watts demand,
            Watts constraint)
{
    NodeMetrics m;
    const Watts d = std::max(demand, cap_min);
    m.accumulate(priority, cap_min, d, d);
    m.setConstraint(constraint);
    return m;
}

} // namespace

// ---------------------------------------------------------------- waterfill

TEST(Waterfill, ProportionalWhenUncapped)
{
    const auto alloc = ctrl::waterfill(90.0, {100.0, 100.0, 100.0},
                                       {1.0, 2.0, 3.0});
    ASSERT_EQ(alloc.size(), 3u);
    EXPECT_NEAR(alloc[0], 15.0, 1e-9);
    EXPECT_NEAR(alloc[1], 30.0, 1e-9);
    EXPECT_NEAR(alloc[2], 45.0, 1e-9);
}

TEST(Waterfill, RedistributesClippedExcess)
{
    // Item 0 caps at 10; its surplus flows to the others by weight.
    const auto alloc =
        ctrl::waterfill(90.0, {10.0, 100.0, 100.0}, {1.0, 1.0, 1.0});
    EXPECT_NEAR(alloc[0], 10.0, 1e-9);
    EXPECT_NEAR(alloc[1], 40.0, 1e-9);
    EXPECT_NEAR(alloc[2], 40.0, 1e-9);
}

TEST(Waterfill, ZeroWeightsFallBackToHeadroom)
{
    const auto alloc =
        ctrl::waterfill(30.0, {20.0, 40.0}, {0.0, 0.0});
    EXPECT_NEAR(alloc[0], 10.0, 1e-9);
    EXPECT_NEAR(alloc[1], 20.0, 1e-9);
}

TEST(Waterfill, NeverExceedsCapsOrAmount)
{
    util::Rng rng(77);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = 1 + rng.uniformInt(0, 6);
        std::vector<Watts> caps(n), weights(n);
        for (std::size_t i = 0; i < n; ++i) {
            caps[i] = rng.uniform(0.0, 50.0);
            weights[i] = rng.uniform(0.0, 10.0);
        }
        const Watts amount = rng.uniform(0.0, 200.0);
        const auto alloc = ctrl::waterfill(amount, caps, weights);
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_LE(alloc[i], caps[i] + 1e-6);
            EXPECT_GE(alloc[i], -1e-9);
            sum += alloc[i];
        }
        EXPECT_LE(sum, amount + 1e-6);
        // Exhaustive: either amount fully used or all caps hit.
        const double cap_sum =
            std::accumulate(caps.begin(), caps.end(), 0.0);
        EXPECT_NEAR(sum, std::min(amount, cap_sum), 1e-6);
    }
}

TEST(Waterfill, ZeroAmount)
{
    const auto alloc = ctrl::waterfill(0.0, {10.0, 20.0}, {1.0, 1.0});
    EXPECT_DOUBLE_EQ(alloc[0], 0.0);
    EXPECT_DOUBLE_EQ(alloc[1], 0.0);
}

// ------------------------------------------------------------ NodeMetrics

TEST(NodeMetrics, AccumulateKeepsDescendingOrder)
{
    NodeMetrics m;
    m.accumulate(1, 10, 20, 20);
    m.accumulate(3, 5, 8, 8);
    m.accumulate(2, 1, 2, 2);
    m.accumulate(3, 5, 8, 8); // merges with existing class 3
    ASSERT_EQ(m.classes().size(), 3u);
    EXPECT_EQ(m.classes()[0].priority, 3);
    EXPECT_EQ(m.classes()[1].priority, 2);
    EXPECT_EQ(m.classes()[2].priority, 1);
    EXPECT_DOUBLE_EQ(m.classes()[0].capMin, 10.0);
    EXPECT_DOUBLE_EQ(m.totalCapMin(), 21.0);
    EXPECT_DOUBLE_EQ(m.totalDemand(), 38.0);
}

TEST(NodeMetrics, CollapseMergesAndClips)
{
    NodeMetrics m;
    m.accumulate(2, 100, 400, 400);
    m.accumulate(1, 100, 400, 400);
    m.setConstraint(600.0);
    const NodeMetrics c = m.collapsed();
    ASSERT_EQ(c.classes().size(), 1u);
    EXPECT_DOUBLE_EQ(c.classes()[0].capMin, 200.0);
    EXPECT_DOUBLE_EQ(c.classes()[0].demand, 800.0);
    EXPECT_DOUBLE_EQ(c.classes()[0].request, 600.0); // clipped
    EXPECT_DOUBLE_EQ(c.constraint(), 600.0);
}

// ---------------------------------------------------------- gatherMetrics

TEST(GatherMetrics, SumsAndConstraint)
{
    const auto a = leafMetrics(0, 135, 215, 245);
    const auto b = leafMetrics(0, 135, 215, 245);
    const auto m = ctrl::gatherMetrics({a, b}, 750.0, true);
    ASSERT_EQ(m.classes().size(), 1u);
    EXPECT_DOUBLE_EQ(m.classes()[0].capMin, 270.0);
    EXPECT_DOUBLE_EQ(m.classes()[0].demand, 430.0);
    EXPECT_DOUBLE_EQ(m.classes()[0].request, 430.0);
    EXPECT_DOUBLE_EQ(m.constraint(), 490.0); // children bound, not limit
}

TEST(GatherMetrics, AllowableRequestRule)
{
    // Paper Fig. 2 Left CB: SA (high) and SB (low), each demand 430,
    // capMin 270, under a 750 W breaker. High priority may request its
    // full 430; low priority only 750 - 430 = 320.
    const auto sa = leafMetrics(1, 270, 430, 490);
    const auto sb = leafMetrics(0, 270, 430, 490);
    const auto m = ctrl::gatherMetrics({sa, sb}, 750.0, true);
    ASSERT_EQ(m.classes().size(), 2u);
    EXPECT_EQ(m.classes()[0].priority, 1);
    EXPECT_DOUBLE_EQ(m.classes()[0].request, 430.0);
    EXPECT_EQ(m.classes()[1].priority, 0);
    EXPECT_DOUBLE_EQ(m.classes()[1].request, 320.0);
}

TEST(GatherMetrics, HighPriorityLimitedByLowerFloors)
{
    // The high class may request at most limit - sum(lower floors).
    const auto hi = leafMetrics(1, 100, 900, 1000);
    const auto lo = leafMetrics(0, 200, 300, 1000);
    const auto m = ctrl::gatherMetrics({hi, lo}, 800.0, true);
    EXPECT_DOUBLE_EQ(m.findClass(1)->request, 600.0); // 800 - 200
    EXPECT_DOUBLE_EQ(m.findClass(0)->request, 200.0); // floor only
}

TEST(GatherMetrics, RequestNeverBelowFloor)
{
    // Even when the limit is tiny, the request holds the floor.
    const auto hi = leafMetrics(1, 300, 400, 500);
    const auto lo = leafMetrics(0, 300, 400, 500);
    const auto m = ctrl::gatherMetrics({hi, lo}, 500.0, true);
    EXPECT_GE(m.findClass(1)->request, 300.0);
    EXPECT_GE(m.findClass(0)->request, 300.0);
}

TEST(GatherMetrics, CollapsedReport)
{
    const auto sa = leafMetrics(1, 270, 430, 490);
    const auto sb = leafMetrics(0, 270, 430, 490);
    const auto m = ctrl::gatherMetrics({sa, sb}, 750.0, false);
    ASSERT_EQ(m.classes().size(), 1u);
    EXPECT_DOUBLE_EQ(m.classes()[0].capMin, 540.0);
    EXPECT_DOUBLE_EQ(m.classes()[0].request, 750.0); // clipped to limit
}

TEST(GatherMetrics, UnlimitedNode)
{
    const auto a = leafMetrics(0, 100, 200, 300);
    const auto m =
        ctrl::gatherMetrics({a}, capmaestro::topo::kUnlimited, true);
    EXPECT_DOUBLE_EQ(m.constraint(), 300.0);
    EXPECT_DOUBLE_EQ(m.classes()[0].request, 200.0);
}

TEST(GatherMetrics, EmptyChildren)
{
    const auto m = ctrl::gatherMetrics({}, 100.0, true);
    EXPECT_TRUE(m.empty());
    EXPECT_DOUBLE_EQ(m.constraint(), 0.0);
}

// --------------------------------------------------------- budgetChildren

TEST(BudgetChildren, FloorsFirst)
{
    const auto a = leafMetrics(0, 270, 430, 490);
    const auto b = leafMetrics(0, 270, 430, 490);
    const auto split = ctrl::budgetChildren(540.0, {a, b}, true);
    EXPECT_TRUE(split.feasible);
    EXPECT_DOUBLE_EQ(split.childBudgets[0], 270.0);
    EXPECT_DOUBLE_EQ(split.childBudgets[1], 270.0);
}

TEST(BudgetChildren, InfeasibleScalesFloors)
{
    const auto a = leafMetrics(0, 300, 400, 500);
    const auto b = leafMetrics(0, 100, 400, 500);
    const auto split = ctrl::budgetChildren(200.0, {a, b}, true);
    EXPECT_FALSE(split.feasible);
    EXPECT_NEAR(split.childBudgets[0], 150.0, 1e-9);
    EXPECT_NEAR(split.childBudgets[1], 50.0, 1e-9);
}

TEST(BudgetChildren, FloorsAboveAChildsLimitAreStillBudgeted)
{
    // Child a's floors exceed its limit. Its servers still draw them,
    // so the parent budgets them and b gets only what is left.
    const auto a = leafMetrics(0, 600, 600, 500);
    const auto b = leafMetrics(0, 100, 600, 600);
    const auto split = ctrl::budgetChildren(1000.0, {a, b}, true);
    EXPECT_TRUE(split.feasible);
    EXPECT_NEAR(split.childBudgets[0], 600.0, 1e-9);
    EXPECT_NEAR(split.childBudgets[1], 400.0, 1e-9);
}

TEST(BudgetChildren, HighPriorityServedFirst)
{
    const auto hi = leafMetrics(1, 270, 430, 490);
    const auto lo = leafMetrics(0, 270, 430, 490);
    // 700 W: floors take 540, leaving 160 -- exactly the high extra need.
    const auto split = ctrl::budgetChildren(700.0, {hi, lo}, true);
    EXPECT_DOUBLE_EQ(split.childBudgets[0], 430.0);
    EXPECT_DOUBLE_EQ(split.childBudgets[1], 270.0);
}

TEST(BudgetChildren, ContestedLevelWaterfills)
{
    // Two low-priority servers with different dynamic ranges contest 60 W.
    const auto a = leafMetrics(0, 270, 390, 490); // weight 120
    const auto b = leafMetrics(0, 270, 330, 490); // weight 60
    const auto split = ctrl::budgetChildren(600.0, {a, b}, true);
    EXPECT_NEAR(split.childBudgets[0], 270.0 + 40.0, 1e-9);
    EXPECT_NEAR(split.childBudgets[1], 270.0 + 20.0, 1e-9);
}

TEST(BudgetChildren, LeftoverUpToConstraint)
{
    const auto a = leafMetrics(0, 270, 300, 490);
    const auto b = leafMetrics(0, 270, 300, 490);
    // Requests total 600; give 800: the extra 200 spreads to constraints.
    const auto split = ctrl::budgetChildren(800.0, {a, b}, true);
    EXPECT_NEAR(split.childBudgets[0], 400.0, 1e-9);
    EXPECT_NEAR(split.childBudgets[1], 400.0, 1e-9);
    EXPECT_NEAR(split.unallocated, 0.0, 1e-9);
}

TEST(BudgetChildren, UnallocatedWhenEveryoneSaturated)
{
    const auto a = leafMetrics(0, 270, 430, 490);
    const auto split = ctrl::budgetChildren(600.0, {a}, true);
    EXPECT_NEAR(split.childBudgets[0], 490.0, 1e-9);
    EXPECT_NEAR(split.unallocated, 110.0, 1e-9);
}

TEST(BudgetChildren, NoPriorityMergesClasses)
{
    const auto hi = leafMetrics(1, 270, 430, 490);
    const auto lo = leafMetrics(0, 270, 430, 490);
    // Priority-blind: the 160 W surplus splits evenly (equal weights).
    const auto split = ctrl::budgetChildren(700.0, {hi, lo}, false);
    EXPECT_NEAR(split.childBudgets[0], 350.0, 1e-9);
    EXPECT_NEAR(split.childBudgets[1], 350.0, 1e-9);
}

TEST(BudgetChildren, EmptyChildren)
{
    const auto split = ctrl::budgetChildren(500.0, {}, true);
    EXPECT_TRUE(split.childBudgets.empty());
    EXPECT_DOUBLE_EQ(split.unallocated, 500.0);
}

TEST(BudgetChildren, ThreePriorityLevelsStrictOrder)
{
    const auto p2 = leafMetrics(2, 100, 300, 400);
    const auto p1 = leafMetrics(1, 100, 300, 400);
    const auto p0 = leafMetrics(0, 100, 300, 400);
    // Floors 300; extra 250 serves p2 fully (200), then p1 partially (50).
    const auto split = ctrl::budgetChildren(550.0, {p2, p1, p0}, true);
    EXPECT_NEAR(split.childBudgets[0], 300.0, 1e-9);
    EXPECT_NEAR(split.childBudgets[1], 150.0, 1e-9);
    EXPECT_NEAR(split.childBudgets[2], 100.0, 1e-9);
}

// Property: total allocated never exceeds the budget, and every child
// gets at least its floor when feasible.
TEST(BudgetChildren, RandomizedSafetyProperties)
{
    util::Rng rng(2024);
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t n = 1 + rng.uniformInt(0, 5);
        std::vector<NodeMetrics> children;
        double floor_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const Priority p = static_cast<Priority>(rng.uniformInt(0, 3));
            const Watts cap_min = rng.uniform(50.0, 300.0);
            const Watts demand = cap_min + rng.uniform(0.0, 300.0);
            const Watts constraint = demand + rng.uniform(0.0, 100.0);
            children.push_back(leafMetrics(p, cap_min, demand, constraint));
            floor_sum += cap_min;
        }
        const Watts budget = rng.uniform(0.0, 2000.0);
        const bool by_priority = rng.chance(0.5);
        const auto split =
            ctrl::budgetChildren(budget, children, by_priority);

        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            total += split.childBudgets[i];
            EXPECT_LE(split.childBudgets[i],
                      children[i].constraint() + 1e-6);
            if (split.feasible) {
                EXPECT_GE(split.childBudgets[i],
                          children[i].totalCapMin() - 1e-6);
            }
        }
        EXPECT_LE(total, budget + 1e-6);
        EXPECT_EQ(split.feasible, floor_sum <= budget + 1e-9);
    }
}

// Property: requests are honest promises -- when the budget equals the
// total request, every child receives exactly its request (the gather
// phase's allowable-request rule guarantees requests are satisfiable).
TEST(BudgetChildren, ExactRequestBudgetSatisfiesEveryone)
{
    util::Rng rng(314);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = 1 + rng.uniformInt(0, 5);
        std::vector<NodeMetrics> children;
        Watts total_request = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const Priority p = static_cast<Priority>(rng.uniformInt(0, 3));
            const Watts cap_min = rng.uniform(50.0, 250.0);
            const Watts demand = cap_min + rng.uniform(0.0, 300.0);
            children.push_back(
                leafMetrics(p, cap_min, demand, demand + 50.0));
            total_request += children.back().totalRequest();
        }
        const auto split =
            ctrl::budgetChildren(total_request, children, true);
        ASSERT_TRUE(split.feasible);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(split.childBudgets[i],
                        children[i].totalRequest(), 1e-6)
                << "trial " << trial;
        }
        EXPECT_NEAR(split.unallocated, 0.0, 1e-6);
    }
}

// Property: priority dominance -- with priorities on, a higher-priority
// child is never throttled below its request while a lower-priority child
// sits above its floor.
TEST(BudgetChildren, PriorityDominanceProperty)
{
    util::Rng rng(555);
    for (int trial = 0; trial < 300; ++trial) {
        const auto hi_min = rng.uniform(50.0, 200.0);
        const auto hi_dem = hi_min + rng.uniform(0.0, 300.0);
        const auto lo_min = rng.uniform(50.0, 200.0);
        const auto lo_dem = lo_min + rng.uniform(0.0, 300.0);
        const auto hi = leafMetrics(1, hi_min, hi_dem, hi_dem + 50);
        const auto lo = leafMetrics(0, lo_min, lo_dem, lo_dem + 50);
        const Watts budget = rng.uniform(hi_min + lo_min, 1200.0);
        const auto split = ctrl::budgetChildren(budget, {hi, lo}, true);
        if (!split.feasible)
            continue;
        const bool hi_throttled = split.childBudgets[0] < hi_dem - 1e-6;
        const bool lo_above_floor = split.childBudgets[1] > lo_min + 1e-6;
        EXPECT_FALSE(hi_throttled && lo_above_floor)
            << "hi got " << split.childBudgets[0] << "/" << hi_dem
            << ", lo got " << split.childBudgets[1] << " floor " << lo_min;
    }
}
