/**
 * @file
 * Randomized multi-feed allocator fuzzing (TEST_P over seed banks):
 * generates random dual-feed topologies and fleets, runs the full
 * allocation with and without SPO under every policy, and asserts the
 * DESIGN.md invariants — hierarchical safety after SPO, floor
 * guarantees, no-waste, SPO monotonicity, and stranded-power accounting.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "control/allocator.hh"
#include "policy/policy.hh"
#include "test_support.hh"
#include "topology/power_system.hh"
#include "util/random.hh"

using namespace capmaestro;
using ctrl::FleetAllocator;
using ctrl::ServerAllocInput;

namespace {

struct FuzzSystem
{
    std::unique_ptr<topo::PowerSystem> system;
    std::vector<ServerAllocInput> fleet;
    std::vector<Watts> rootBudgets;
};

/**
 * Random dual-feed system: each feed has a root breaker over 1-4 CDUs;
 * every server is dual-corded with supply f under a random CDU of
 * feed f. Demands/budgets chosen so most cases are feasible but capped.
 */
FuzzSystem
makeFuzzSystem(util::Rng &rng)
{
    FuzzSystem fs;
    const int cdus = 1 + static_cast<int>(rng.uniformInt(0, 3));
    const int servers = 2 + static_cast<int>(rng.uniformInt(0, 8));

    // Server placement: per feed, each server lands under a random CDU.
    std::vector<std::vector<int>> cdu_of(
        2, std::vector<int>(static_cast<std::size_t>(servers), 0));
    for (int f = 0; f < 2; ++f) {
        for (int s = 0; s < servers; ++s) {
            cdu_of[static_cast<std::size_t>(f)]
                  [static_cast<std::size_t>(s)] =
                static_cast<int>(rng.uniformInt(0, cdus - 1));
        }
    }

    fs.system = std::make_unique<topo::PowerSystem>(2);
    for (int f = 0; f < 2; ++f) {
        auto tree = std::make_unique<topo::PowerTree>(
            f, 0, f == 0 ? "X" : "Y");
        const auto root = tree->makeRoot(topo::NodeKind::Breaker, "root",
                                         rng.uniform(1500.0, 4000.0));
        std::vector<topo::NodeId> cdu_nodes;
        for (int c = 0; c < cdus; ++c) {
            cdu_nodes.push_back(
                tree->addChild(root, topo::NodeKind::Cdu,
                               "cdu" + std::to_string(c),
                               rng.uniform(500.0, 1500.0)));
        }
        for (int s = 0; s < servers; ++s) {
            tree->addSupplyPort(
                cdu_nodes[static_cast<std::size_t>(
                    cdu_of[static_cast<std::size_t>(f)]
                          [static_cast<std::size_t>(s)])],
                "s" + std::to_string(s) + "." + std::to_string(f),
                {s, f});
        }
        fs.system->addTree(std::move(tree));
    }

    fs.fleet.resize(static_cast<std::size_t>(servers));
    for (auto &in : fs.fleet) {
        in.priority = static_cast<Priority>(rng.uniformInt(0, 2));
        in.capMin = rng.uniform(120.0, 280.0);
        in.capMax = in.capMin + rng.uniform(100.0, 250.0);
        in.demand = rng.uniform(in.capMin * 0.8, in.capMax);
        const double share0 = rng.uniform(0.3, 0.7);
        in.supplies = {{share0, true}, {1.0 - share0, true}};
        if (rng.chance(0.1))
            in.supplies[rng.uniformInt(0, 1)].live = false;
    }

    fs.rootBudgets = {rng.uniform(800.0, 3500.0),
                      rng.uniform(800.0, 3500.0)};
    return fs;
}

/** Assert hierarchical safety of the current tree budgets. */
void
assertTreeSafety(const FleetAllocator &alloc, const FuzzSystem &fs,
                 int trial)
{
    for (std::size_t t = 0; t < alloc.treeCount(); ++t) {
        const auto &ct = alloc.tree(t);
        const auto &tree = ct.topoTree();
        // The tree within its root budget, and at every controller
        // its children's budgets within min(its limit, its budget).
        EXPECT_EQ(test_support::splitReport(ct, tree.root(),
                                            fs.rootBudgets[t]),
                  "")
            << "tree " << t << " trial " << trial;
        tree.forEach([&](const topo::TopoNode &n) {
            if (n.children.empty())
                return;
            EXPECT_EQ(
                test_support::splitReport(ct, n.id, ct.nodeBudget(n.id)), "")
                << "tree " << t << " node " << n.name << " trial "
                << trial;
        });
    }
}

class AllocatorFuzz : public testing::TestWithParam<int>
{
};

} // namespace

TEST_P(AllocatorFuzz, InvariantsAcrossPoliciesAndSpo)
{
    util::Rng rng(10007ULL * static_cast<unsigned>(GetParam()));
    for (int trial = 0; trial < 25; ++trial) {
        const auto fs = makeFuzzSystem(rng);
        for (const auto kind : policy::kAllPolicies) {
            FleetAllocator alloc(*fs.system, policy::treePolicy(kind));
            const auto before =
                alloc.allocate(fs.fleet, fs.rootBudgets, false);
            const auto after =
                alloc.allocate(fs.fleet, fs.rootBudgets, true);

            // Safety holds for the final (post-SPO) budgets.
            assertTreeSafety(alloc, fs, trial);

            for (std::size_t i = 0; i < fs.fleet.size(); ++i) {
                const auto &in = fs.fleet[i];
                const auto &a = after.servers[i];

                // Stranded accounting is non-negative.
                EXPECT_GE(a.strandedBeforeSpo, -1e-9);

                // No-waste: enforceable cap within the server range.
                if (a.enforceableCapAc > 0.0) {
                    EXPECT_LE(a.enforceableCapAc, in.capMax + 1e-6);
                    EXPECT_GE(a.enforceableCapAc, in.capMin - 1e-6);
                }

                // SPO monotonicity: nobody ends worse than pass 1.
                if (before.feasible) {
                    EXPECT_GE(a.enforceableCapAc,
                              before.servers[i].enforceableCapAc - 0.5)
                        << policy::policyName(kind) << " server " << i
                        << " trial " << trial;
                }
            }
            EXPECT_GE(after.strandedReclaimed, -1e-9);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SeedBanks, AllocatorFuzz,
                         testing::Values(1, 2, 3, 4, 5, 6),
                         [](const testing::TestParamInfo<int> &info) {
                             return "seed" + std::to_string(info.param);
                         });
