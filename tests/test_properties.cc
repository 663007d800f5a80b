/**
 * @file
 * Parameterized property suites (TEST_P) sweeping the allocation
 * invariants of DESIGN.md across policies, budget scales, and randomly
 * generated power topologies:
 *
 *   1. Safety (topo::overloads): no node's children ever receive more
 *      than its budget or its power limit.
 *   2. Feasibility floor: every live leaf gets at least its Pcap_min
 *      when the tree is feasible.
 *   3. No waste: no leaf is budgeted beyond its constraint.
 *   4. Priority dominance (Global Priority): a higher-priority leaf is
 *      throttled only when every lower-priority leaf sharing each of its
 *      binding ancestors is already at its floor.
 *   5. Budget monotonicity: growing the root budget never shrinks any
 *      leaf's budget.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>

#include "control/control_tree.hh"
#include "policy/policy.hh"
#include "test_support.hh"
#include "topology/power_tree.hh"
#include "util/random.hh"

using namespace capmaestro;
using ctrl::ControlTree;
using ctrl::LeafInput;

namespace {

/** A randomly generated topology plus its leaf inputs. */
struct RandomCase
{
    std::unique_ptr<topo::PowerTree> tree;
    std::map<topo::NodeId, LeafInput> inputs; // keyed by leaf node id
};

/** Generate a random 2-4 level tree with plausible ratings. */
RandomCase
makeRandomCase(util::Rng &rng, int priorities)
{
    RandomCase rc;
    rc.tree = std::make_unique<topo::PowerTree>(0, 0, "fuzz");
    const auto root = rc.tree->makeRoot(topo::NodeKind::Breaker, "root",
                                        rng.uniform(2000.0, 8000.0));

    std::int32_t server = 0;
    const int branches = static_cast<int>(rng.uniformInt(1, 4));
    for (int b = 0; b < branches; ++b) {
        const auto mid = rc.tree->addChild(
            root, topo::NodeKind::Breaker, "b" + std::to_string(b),
            rng.uniform(600.0, 2500.0));
        // Half the branches get an extra level.
        topo::NodeId parent = mid;
        if (rng.chance(0.5)) {
            parent = rc.tree->addChild(mid, topo::NodeKind::Cdu,
                                       "c" + std::to_string(b),
                                       rng.uniform(500.0, 2000.0));
        }
        const int leaves = static_cast<int>(rng.uniformInt(1, 4));
        for (int l = 0; l < leaves; ++l, ++server) {
            const auto port = rc.tree->addSupplyPort(
                parent, "s" + std::to_string(server), {server, 0});
            LeafInput in;
            in.live = rng.chance(0.92);
            in.priority =
                static_cast<Priority>(rng.uniformInt(0, priorities - 1));
            in.capMin = rng.uniform(80.0, 300.0);
            in.demand = in.capMin + rng.uniform(0.0, 250.0);
            in.constraint = in.demand + rng.uniform(0.0, 100.0);
            rc.inputs[port] = in;
        }
    }
    return rc;
}

/** Sum of the floors of live leaves (for feasibility checks). */
Watts
floorSum(const RandomCase &rc)
{
    Watts sum = 0.0;
    for (const auto &[node, in] : rc.inputs)
        sum += in.live ? in.capMin : 0.0;
    return sum;
}

/** Apply inputs and allocate; returns leaf budgets keyed by node id. */
std::map<topo::NodeId, Watts>
allocate(ControlTree &ct, const RandomCase &rc, Watts budget,
         bool *feasible = nullptr)
{
    for (const auto &[node, in] : rc.inputs)
        ct.setLeafInput(*rc.tree->node(node).supplyRef, in);
    ct.gather();
    const auto outcome = ct.allocate(budget);
    if (feasible)
        *feasible = outcome.feasible;
    std::map<topo::NodeId, Watts> budgets;
    for (const auto &[node, in] : rc.inputs)
        budgets[node] = ct.nodeBudget(node);
    return budgets;
}

using PolicyBudgetParam = std::tuple<policy::PolicyKind, double>;

class AllocationInvariants
    : public testing::TestWithParam<PolicyBudgetParam>
{
};

std::string
policyBudgetName(const testing::TestParamInfo<PolicyBudgetParam> &info)
{
    std::string name = policy::policyName(std::get<0>(info.param));
    for (auto &c : name) {
        if (c == ' ')
            c = '_';
    }
    return name + "_x"
           + std::to_string(
               static_cast<int>(std::get<1>(info.param) * 100));
}

std::string
levelName(const testing::TestParamInfo<int> &info)
{
    return "levels" + std::to_string(info.param);
}

} // namespace

TEST_P(AllocationInvariants, SafetyFloorsAndNoWaste)
{
    const auto [kind, budget_scale] = GetParam();
    util::Rng rng(1234 + static_cast<int>(kind) * 17
                  + static_cast<int>(budget_scale * 100));

    for (int trial = 0; trial < 60; ++trial) {
        const auto rc = makeRandomCase(rng, 3);
        ControlTree ct(*rc.tree, policy::treePolicy(kind));
        const Watts budget = budget_scale * floorSum(rc) + 50.0;
        bool feasible = false;
        const auto budgets = allocate(ct, rc, budget, &feasible);

        // 1. Hierarchical safety at every controller: its children's
        // budgets sum to at most min(its limit, its own budget).
        rc.tree->forEach([&](const topo::TopoNode &n) {
            if (n.children.empty())
                return;
            EXPECT_EQ(
                test_support::splitReport(ct, n.id, ct.nodeBudget(n.id)), "")
                << n.name << " trial " << trial;
        });

        for (const auto &[node, in] : rc.inputs) {
            if (!in.live) {
                // Dead leaves receive nothing.
                EXPECT_DOUBLE_EQ(budgets.at(node), 0.0);
                continue;
            }
            // 3. No waste beyond the leaf constraint.
            EXPECT_LE(budgets.at(node), in.constraint + 1e-6);
            // 2. Floors when feasible.
            if (feasible) {
                EXPECT_GE(budgets.at(node), in.capMin - 1e-6)
                    << "trial " << trial;
            }
        }
    }
}

TEST_P(AllocationInvariants, ChildrenDrawNoMoreThanTheirParentsBudget)
{
    // A child whose floors exceed its own limit still draws them: every
    // server is capped at no less than its Pcap_min. Wherever a node's
    // budget covers its children's floors, its children's budgets, each
    // taken as at least its floors, must fit within that budget.
    const auto [kind, budget_scale] = GetParam();
    util::Rng rng(4321 + static_cast<int>(kind) * 13
                  + static_cast<int>(budget_scale * 100));

    for (int trial = 0; trial < 60; ++trial) {
        const auto rc = makeRandomCase(rng, 3);
        ControlTree ct(*rc.tree, policy::treePolicy(kind));
        allocate(ct, rc, budget_scale * floorSum(rc) + 50.0);

        rc.tree->forEach([&](const topo::TopoNode &n) {
            if (n.children.empty())
                return;
            Watts floors = 0.0;
            Watts draw = 0.0;
            for (const topo::NodeId c : n.children) {
                const Watts floor = ct.nodeMetrics(c).totalCapMin();
                floors += floor;
                draw += std::max(ct.nodeBudget(c), floor);
            }
            const Watts budget = ct.nodeBudget(n.id);
            if (floors > budget + 1e-6)
                return;
            EXPECT_LE(draw, budget + 1e-6) << n.name << " trial " << trial;
        });
    }
}

TEST_P(AllocationInvariants, BudgetMonotonicity)
{
    const auto [kind, budget_scale] = GetParam();
    util::Rng rng(777 + static_cast<int>(kind));

    for (int trial = 0; trial < 40; ++trial) {
        const auto rc = makeRandomCase(rng, 3);
        ControlTree ct(*rc.tree, policy::treePolicy(kind));
        const Watts base = budget_scale * floorSum(rc) + 50.0;
        const auto small = allocate(ct, rc, base);
        const auto large = allocate(ct, rc, base * 1.25);
        for (const auto &[node, in] : rc.inputs) {
            EXPECT_GE(large.at(node), small.at(node) - 1e-6)
                << "trial " << trial << " node " << node;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyBudgetSweep, AllocationInvariants,
    testing::Combine(testing::Values(policy::PolicyKind::NoPriority,
                                     policy::PolicyKind::LocalPriority,
                                     policy::PolicyKind::GlobalPriority),
                     testing::Values(0.8, 1.1, 1.5, 3.0)),
    policyBudgetName);

namespace {

class GlobalPriorityDominance : public testing::TestWithParam<int>
{
};

} // namespace

TEST_P(GlobalPriorityDominance, HigherNeverThrottledBeforeLower)
{
    // 4. Under Global Priority, if a higher-priority leaf is throttled,
    // then along the path to the root there is a binding constraint
    // under which every lower-priority leaf is already at its floor.
    // We verify the contrapositive pairwise on the (binding) root: if
    // some lower-priority leaf is above floor, every higher-priority
    // leaf sharing only the root must be unthrottled -- unless a tighter
    // intermediate breaker binds the higher leaf alone, which we detect
    // by checking that leaf's ancestor budgets.
    util::Rng rng(9000 + GetParam());
    for (int trial = 0; trial < 50; ++trial) {
        const auto rc = makeRandomCase(rng, GetParam());
        ControlTree ct(*rc.tree, ctrl::TreePolicy::globalPriority());
        const Watts budget = 1.2 * floorSum(rc);
        bool feasible = false;
        const auto budgets = allocate(ct, rc, budget, &feasible);
        if (!feasible)
            continue;

        // A leaf's "locally saturated" ancestors: those whose children
        // budgets consume the ancestor's budget (within epsilon).
        auto has_saturated_ancestor = [&](topo::NodeId leaf) {
            for (topo::NodeId a = rc.tree->node(leaf).parent;
                 a != topo::kNoNode; a = rc.tree->node(a).parent) {
                const auto &an = rc.tree->node(a);
                Watts child_sum = 0.0;
                for (const auto c : an.children)
                    child_sum += ct.nodeBudget(c);
                const Watts cap =
                    std::min(ct.nodeBudget(a), an.limit());
                if (a != rc.tree->root() && child_sum >= cap - 1e-3)
                    return true;
            }
            return false;
        };

        for (const auto &[hi_node, hi] : rc.inputs) {
            if (!hi.live)
                continue;
            const bool hi_throttled =
                budgets.at(hi_node)
                < std::max(hi.demand, hi.capMin) - 1e-3;
            if (!hi_throttled || has_saturated_ancestor(hi_node))
                continue;
            // hi is throttled by the root alone: every strictly lower
            // priority live leaf must be at its floor.
            for (const auto &[lo_node, lo] : rc.inputs) {
                if (!lo.live || lo.priority >= hi.priority)
                    continue;
                EXPECT_LE(budgets.at(lo_node), lo.capMin + 1e-3)
                    << "trial " << trial << ": leaf " << lo_node
                    << " (p" << lo.priority << ") above floor while "
                    << hi_node << " (p" << hi.priority
                    << ") is root-throttled";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PriorityLevels, GlobalPriorityDominance,
                         testing::Values(2, 3, 5, 8), levelName);
