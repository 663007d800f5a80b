/**
 * @file
 * Property tests for deep control trees (core::TreePlan depth 2-4):
 * on every seeded random topology, the distributed allocation must be
 * bit-identical to the flat in-process allocation (one monolithic
 * ControlTree per power tree, the same recursion FleetAllocator runs).
 * This is the §4.3 associativity claim: cutting the reduction at
 * aggregator stations and chaining fragments over a lossless exchange
 * cannot change a single bit of any leaf budget, at any depth, under
 * any policy. The deployable engine is the oracle's subject at depths
 * 2-4: one rt::WorkerHost per topology hosts every role over a lossless
 * SimTransport, and each period every supply budget its leaves apply is
 * checked against the flat trees fed the same leaf inputs. Also
 * checked: the in-process message plane (2-level only) over a lossless
 * SimTransport and over real 127.0.0.1 UDP sockets, and the rt engines
 * against each other and across depths 2-4.
 *
 * Topologies are generated from the test seed: worker-plan depth 2-4
 * (0-2 aggregator tiers), per-level fan-out 1-64 (product bounded to
 * keep the suite fast), 1-2 feeds with structurally parallel trees.
 *
 * Set CAPMAESTRO_NO_NET=1 to skip the UDP test (binds real sockets).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "config/loader.hh"
#include "control/control_tree.hh"
#include "core/distributed.hh"
#include "core/tree_plan.hh"
#include "net/transport.hh"
#include "net/udp_transport.hh"
#include "rt/chaos.hh"
#include "rt/host.hh"
#include "test_support.hh"
#include "topology/power_system.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"

using namespace capmaestro;
using core::DistributedControlPlane;

namespace {

#define SKIP_WITHOUT_NET()                                            \
    do {                                                              \
        if (std::getenv("CAPMAESTRO_NO_NET") != nullptr)              \
            GTEST_SKIP() << "CAPMAESTRO_NO_NET is set";               \
    } while (0)

/** A seeded random deep system and the plan levels that cut it. */
struct DeepCase
{
    std::unique_ptr<topo::PowerSystem> sys;
    std::vector<std::uint32_t> aggLevels;
    std::size_t servers = 0;
    std::size_t feeds = 1;
    /** Breaker fan-out per level, root first, then supplies/edge. */
    std::vector<std::size_t> shape;
};

/**
 * Random topology for a depth-@p tiers worker plan: a uniform tree of
 * tiers breaker levels (root at height tiers-1, edge nodes at height
 * 0), replicated structurally parallel across 1-2 feeds. Fan-outs are
 * drawn log-uniformly from [1, 64] with the running leaf count capped,
 * so a single level can be wide without the product exploding.
 */
DeepCase
randomDeepCase(util::Rng &rng, std::uint32_t tiers)
{
    DeepCase out;
    out.feeds = rng.chance(0.5) ? 2 : 1;
    const std::size_t breaker_levels = tiers; // root .. edge nodes
    std::size_t leaves = 1;
    for (std::size_t level = 0; level < breaker_levels; ++level) {
        const std::size_t cap = std::max<std::size_t>(
            1, 48 / std::max<std::size_t>(leaves, 1));
        const auto max_pow = static_cast<std::int64_t>(
            cap >= 64 ? 6 : cap >= 32 ? 5 : cap >= 16 ? 4
            : cap >= 8 ? 3 : cap >= 4 ? 2 : cap >= 2 ? 1 : 0);
        const std::size_t fan = static_cast<std::size_t>(1)
                                << rng.uniformInt(0, max_pow);
        out.shape.push_back(fan);
        leaves *= fan;
    }
    // Supplies per edge node (the servers of one "rack").
    const auto per_edge =
        static_cast<std::size_t>(rng.uniformInt(1, 3));
    out.shape.push_back(per_edge);
    out.servers = leaves * per_edge;

    out.sys = std::make_unique<topo::PowerSystem>(
        static_cast<int>(out.feeds));
    for (std::size_t feed = 0; feed < out.feeds; ++feed) {
        auto tree = std::make_unique<topo::PowerTree>(
            static_cast<int>(feed), 0, "F" + std::to_string(feed));
        const Watts rating =
            static_cast<double>(out.servers) * 400.0;
        const auto root =
            tree->makeRoot(topo::NodeKind::Breaker, "root", rating);
        std::vector<topo::NodeId> frontier{root};
        for (std::size_t level = 0; level < breaker_levels; ++level) {
            std::vector<topo::NodeId> next;
            for (std::size_t p = 0; p < frontier.size(); ++p) {
                for (std::size_t c = 0; c < out.shape[level]; ++c) {
                    // Ratings shrink down the tree and sometimes bind.
                    const Watts r =
                        rating / static_cast<double>(leaves)
                        * static_cast<double>(
                              leaves >> std::min<std::size_t>(level, 5))
                        * 1.5;
                    next.push_back(tree->addChild(
                        frontier[p], topo::NodeKind::Breaker,
                        "b" + std::to_string(level) + "_"
                            + std::to_string(next.size()),
                        r));
                }
            }
            frontier = std::move(next);
        }
        std::size_t sid = 0;
        for (const auto edge : frontier) {
            for (std::size_t s = 0; s < per_edge; ++s, ++sid) {
                tree->addSupplyPort(
                    edge,
                    "s" + std::to_string(sid) + "."
                        + std::to_string(feed),
                    {static_cast<int>(sid), static_cast<int>(feed)});
            }
        }
        out.sys->addTree(std::move(tree));
    }
    for (std::uint32_t h = 1; h + 1 < tiers; ++h)
        out.aggLevels.push_back(h);
    return out;
}

/** Random leaf inputs for every supply of @p system. */
std::vector<std::pair<topo::ServerSupplyRef, ctrl::LeafInput>>
randomInputs(const topo::PowerSystem &system, util::Rng &rng)
{
    std::vector<std::pair<topo::ServerSupplyRef, ctrl::LeafInput>> out;
    for (const auto &tree : system.trees()) {
        for (const auto &ref : tree->suppliesUnder(tree->root())) {
            ctrl::LeafInput in;
            in.live = rng.chance(0.95);
            in.priority = static_cast<Priority>(rng.uniformInt(0, 3));
            in.capMin = rng.uniform(100.0, 150.0);
            in.demand = in.capMin + rng.uniform(0.0, 120.0);
            in.constraint = in.demand + rng.uniform(0.0, 60.0);
            out.emplace_back(ref, in);
        }
    }
    return out;
}

/** Flat reference: one monolithic ControlTree per power tree. */
std::vector<std::unique_ptr<ctrl::ControlTree>>
flatReference(const topo::PowerSystem &system, ctrl::TreePolicy policy)
{
    std::vector<std::unique_ptr<ctrl::ControlTree>> monos;
    for (const auto &tree : system.trees())
        monos.push_back(
            std::make_unique<ctrl::ControlTree>(*tree, policy));
    return monos;
}

/** The tree each supply ref draws from, per feed ordering. */
std::size_t
treeOf(const topo::PowerSystem &system,
       const topo::ServerSupplyRef &ref)
{
    return system.livePortsOf(ref.server).at(ref.supply).tree;
}

ctrl::TreePolicy
policyFor(std::uint64_t seed)
{
    switch (seed % 3) {
    case 0:
        return ctrl::TreePolicy::globalPriority();
    case 1:
        return ctrl::TreePolicy::localPriority();
    default:
        return ctrl::TreePolicy::noPriority();
    }
}

/** policyFor()'s policy as a scenario's "service.policy" value. */
const char *
policyNameFor(std::uint64_t seed)
{
    static const char *const kNames[] = {"global", "local", "none"};
    return kNames[seed % 3];
}

/**
 * A scenario over @p c's trees: random priorities and Pcap_min, one
 * random-walk workload per server (so leaf inputs move every period),
 * and per-tree root budgets drawn from @p rng.
 */
util::Json
scenarioFor(const DeepCase &c, std::uint64_t seed, util::Rng &rng)
{
    using Json = util::Json;
    Json::Array trees;
    for (const auto &tree : c.sys->trees())
        trees.push_back(config::powerTreeToJson(*tree));
    Json::Array servers;
    for (std::size_t s = 0; s < c.servers; ++s) {
        Json::Array supplies(
            c.feeds, Json(Json::Object{
                         {"share", Json(1.0 / static_cast<double>(c.feeds))}}));
        Json::Object workload{
            {"type", Json(std::string("randomwalk"))},
            {"start", Json(rng.uniform(0.1, 0.95))},
            {"step", Json(0.1)},
            {"seed", Json(static_cast<double>(s + 1))}};
        servers.push_back(Json(Json::Object{
            {"priority", Json(static_cast<double>(rng.uniformInt(0, 3)))},
            {"capMin", Json(rng.uniform(230.0, 300.0))},
            {"supplies", Json(std::move(supplies))},
            {"workload", Json(std::move(workload))}}));
    }
    Json::Array budgets;
    for (std::size_t t = 0; t < c.sys->trees().size(); ++t) {
        budgets.push_back(Json(rng.uniform(120.0, 420.0)
                               * static_cast<double>(c.servers)
                               / static_cast<double>(c.feeds)));
    }
    return Json(Json::Object{
        {"feeds", Json(static_cast<double>(c.feeds))},
        {"trees", Json(std::move(trees))},
        {"servers", Json(std::move(servers))},
        {"service", Json(Json::Object{
                        {"policy", Json(std::string(policyNameFor(seed)))},
                        {"spo", Json(false)}})},
        {"budgets",
         Json(Json::Object{{"perTree", Json(std::move(budgets))}})}});
}

/** A WorkerHost whose hosted roles and scenario the flat oracle reads. */
class OracleHost : public rt::WorkerHost
{
  public:
    using rt::WorkerHost::WorkerHost;
    const rt::RoleTable &roles() const { return roles_; }
    const config::LoadedScenario &scenario() const { return scenario_; }
};

void
expectBitIdentical(
    DistributedControlPlane &dist,
    const std::vector<std::unique_ptr<ctrl::ControlTree>> &monos,
    const topo::PowerSystem &system,
    const std::vector<std::pair<topo::ServerSupplyRef,
                                ctrl::LeafInput>> &inputs,
    const std::string &what)
{
    for (const auto &[ref, in] : inputs) {
        const auto tree = treeOf(system, ref);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(dist.leafBudget(ref)),
                  std::bit_cast<std::uint64_t>(
                      monos[tree]->leafBudget(ref)))
            << what << ": supply " << ref.server << "." << ref.supply
            << " dist=" << dist.leafBudget(ref)
            << " flat=" << monos[tree]->leafBudget(ref);
    }
}

} // namespace

TEST(TreeDepth, DirectDeepPlaneBitIdenticalToFlatAllocator)
{
    // 18 seeded topologies, cycling worker-plan depth 2/3/4 and all
    // three policies. One WorkerHost per topology runs every role in
    // one process over a lossless SimTransport. Each period, the flat
    // trees are fed the leaf inputs every hosted leaf's RackWorker
    // held, and every supply budget the leaves applied must match them
    // bit for bit.
    for (std::uint64_t seed = 0; seed < 18; ++seed) {
        util::Rng rng(1000 + seed * 7919);
        const auto tiers = static_cast<std::uint32_t>(2 + seed % 3);
        const auto c = randomDeepCase(rng, tiers);
        const auto policy = policyFor(seed);
        SCOPED_TRACE("seed " + std::to_string(seed) + " tiers "
                     + std::to_string(tiers) + " servers "
                     + std::to_string(c.servers));

        const auto plan = core::TreePlan::build(*c.sys, c.aggLevels);
        EXPECT_EQ(plan.tiers(), tiers);

        config::WorkerPeers peers;
        peers.periodMs = 1000.0;
        peers.aggLevels = c.aggLevels;
        for (std::uint32_t e = 0; e < plan.workers.size(); ++e)
            peers.peers[e] = net::UdpPeer{"127.0.0.1", 0};
        // The generated ratings ignore breaker selectivity; the
        // loader's advisory about it is noise here.
        const util::LogLevel level = util::logLevel();
        util::setLogLevel(util::LogLevel::Silent);
        auto scenario = config::loadScenario(scenarioFor(c, seed, rng));
        util::setLogLevel(level);
        net::SimTransport transport; // lossless, instantaneous
        OracleHost host(std::move(scenario), peers, /*process=*/0,
                        seed + 1, transport);
        const topo::PowerSystem &system = *host.scenario().system;
        const std::vector<Watts> &budgets = host.scenario().rootBudgets;
        auto monos = flatReference(system, policy);

        for (std::uint32_t period = 1; period <= 4; ++period) {
            SCOPED_TRACE("period " + std::to_string(period));
            ASSERT_EQ(host.runPeriods(1), 1u);
            for (const auto &leaf : host.roles().leaves()) {
                for (const auto &edge : leaf.role.rack().edges()) {
                    for (std::size_t i = 0; i < edge.leaves.size(); ++i) {
                        monos[edge.tree]->setLeafInput(edge.leaves[i],
                                                       edge.inputs[i]);
                    }
                }
            }
            for (std::size_t t = 0; t < monos.size(); ++t) {
                monos[t]->gather();
                monos[t]->allocate(budgets[t]);
            }
            std::size_t checked = 0;
            for (const auto &leaf : host.roles().leaves()) {
                for (const auto &edge : leaf.role.rack().edges()) {
                    for (std::size_t i = 0; i < edge.leaves.size(); ++i) {
                        const auto &ref = edge.leaves[i];
                        const Watts flat =
                            monos[edge.tree]->leafBudget(ref);
                        ASSERT_EQ(
                            std::bit_cast<std::uint64_t>(
                                edge.leafBudgets[i]),
                            std::bit_cast<std::uint64_t>(flat))
                            << "supply " << ref.server << "."
                            << ref.supply << " host="
                            << edge.leafBudgets[i] << " flat=" << flat;
                        ++checked;
                    }
                }
            }
            EXPECT_EQ(checked, c.servers * c.feeds);
        }
        EXPECT_EQ(host.stats().defaultBudgets, 0u);
        EXPECT_EQ(host.stats().staleReuses, 0u);
    }
}

TEST(TreeDepth, LosslessSimPlaneBitIdenticalToFlatAllocator)
{
    // Same property through the 2-level §4.5 message plane: every hop a
    // real encoded frame over a lossless zero-latency SimTransport,
    // with zero degraded decisions expected.
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        util::Rng rng(9000 + seed * 104729);
        const auto c = randomDeepCase(rng, 2);
        const auto policy = policyFor(seed + 1);
        SCOPED_TRACE("seed " + std::to_string(seed) + " servers "
                     + std::to_string(c.servers));

        net::SimTransport transport; // lossless, instantaneous
        DistributedControlPlane dist(*c.sys, policy, transport);
        auto monos = flatReference(*c.sys, policy);
        for (int trial = 0; trial < 3; ++trial) {
            const auto inputs = randomInputs(*c.sys, rng);
            std::vector<Watts> budgets;
            for (std::size_t t = 0; t < c.sys->trees().size(); ++t) {
                budgets.push_back(rng.uniform(
                    80.0 * static_cast<double>(c.servers),
                    260.0 * static_cast<double>(c.servers)));
            }
            for (const auto &[ref, in] : inputs) {
                dist.setLeafInput(ref, in);
                monos[treeOf(*c.sys, ref)]->setLeafInput(ref, in);
            }
            const auto stats = dist.iterate(budgets);
            EXPECT_EQ(stats.degraded.size(), 0u);
            EXPECT_EQ(stats.defaultBudgets, 0u);
            EXPECT_EQ(stats.staleReuses, 0u);
            EXPECT_GT(stats.bytesOnWire, 0u);
            for (std::size_t t = 0; t < monos.size(); ++t) {
                monos[t]->gather();
                monos[t]->allocate(budgets[t]);
            }
            expectBitIdentical(dist, monos, *c.sys, inputs,
                               "sim trial " + std::to_string(trial));
        }
    }
}

TEST(TreeDepth, UdpLoopbackPlaneBitIdenticalToFlatAllocator)
{
    SKIP_WITHOUT_NET();
    // Three seeded 2-level topologies over real loopback sockets. The
    // deadline schedule is shrunk so a degraded period (which would
    // break bit-identity legitimately) is effectively impossible on
    // loopback yet the test stays fast.
    net::ProtocolConfig proto;
    proto.gatherDeadlineMs = 60.0;
    proto.budgetDeadlineMs = 60.0;
    proto.retryTimeoutMs = 15.0;

    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        util::Rng rng(42000 + seed * 31337);
        const auto c = randomDeepCase(rng, 2);
        const auto policy = policyFor(seed);
        SCOPED_TRACE("seed " + std::to_string(seed) + " servers "
                     + std::to_string(c.servers));

        net::UdpTransport transport(net::UdpConfig::loopback(
            static_cast<std::uint32_t>(
                DistributedControlPlane::rackWorkerCountFor(*c.sys) + 1)));
        DistributedControlPlane dist(*c.sys, policy, transport, proto);
        auto monos = flatReference(*c.sys, policy);
        for (int trial = 0; trial < 2; ++trial) {
            const auto inputs = randomInputs(*c.sys, rng);
            std::vector<Watts> budgets;
            for (std::size_t t = 0; t < c.sys->trees().size(); ++t) {
                budgets.push_back(rng.uniform(
                    80.0 * static_cast<double>(c.servers),
                    260.0 * static_cast<double>(c.servers)));
            }
            for (const auto &[ref, in] : inputs) {
                dist.setLeafInput(ref, in);
                monos[treeOf(*c.sys, ref)]->setLeafInput(ref, in);
            }
            const auto stats = dist.iterate(budgets);
            ASSERT_EQ(stats.degraded.size(), 0u)
                << "UDP loopback run degraded; bit-identity does not "
                   "apply (rerun: seed "
                << seed << ")";
            for (std::size_t t = 0; t < monos.size(); ++t) {
                monos[t]->gather();
                monos[t]->allocate(budgets[t]);
            }
            expectBitIdentical(dist, monos, *c.sys, inputs,
                               "udp trial " + std::to_string(trial));
        }
    }
}

TEST(TreeDepth, PlanShapesAreSound)
{
    // Structural invariants of every generated plan: tier sizes
    // telescope, every non-root worker's parent sits exactly one tier
    // up (uniform trees), children partition the tier below, and leaf
    // workers match the 2-level partitioning rule.
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        util::Rng rng(500 + seed * 2477);
        const auto tiers = static_cast<std::uint32_t>(2 + seed % 3);
        const auto c = randomDeepCase(rng, tiers);
        const auto plan = core::TreePlan::build(*c.sys, c.aggLevels);
        SCOPED_TRACE("seed " + std::to_string(seed));

        EXPECT_EQ(plan.tiers(), tiers);
        EXPECT_EQ(plan.leafWorkers,
                  DistributedControlPlane::rackWorkerCountFor(*c.sys));
        std::size_t counted = 0;
        for (std::uint32_t t = 0; t < tiers; ++t)
            counted += plan.tierEndpoints(t).size();
        EXPECT_EQ(counted, plan.workers.size());
        EXPECT_EQ(plan.tierEndpoints(tiers - 1).size(), 1u);

        std::set<std::uint32_t> seen_children;
        for (const auto &w : plan.workers) {
            if (w.isRoot()) {
                EXPECT_EQ(w.tier, tiers - 1);
            } else {
                ASSERT_LT(w.parent, plan.workers.size());
                EXPECT_EQ(plan.workers[w.parent].tier, w.tier + 1);
            }
            for (const auto child : w.children) {
                EXPECT_TRUE(seen_children.insert(child).second)
                    << "worker " << child << " has two parents";
                EXPECT_EQ(plan.workers[child].parent, w.endpoint);
            }
        }
        EXPECT_EQ(seen_children.size(), plan.workers.size() - 1);
    }
}

// The two rt engines, one protocol: on a lossless SimTransport a
// lockstep WorkerRuntime deployment and a one-process WorkerHost
// running the same scenario and seed must apply bit-identical edge
// budgets every period, at every plan depth.
TEST(TreeDepth, LockstepRuntimeAndHostApplyIdenticalBudgets)
{
    const std::string scenario_json = test_support::depth4Scenario();
    constexpr std::uint64_t kSeed = 9;
    for (const std::vector<std::uint32_t> &levels :
         {std::vector<std::uint32_t>{}, std::vector<std::uint32_t>{1},
          std::vector<std::uint32_t>{1, 2}}) {
        SCOPED_TRACE("depth " + std::to_string(levels.size() + 2));
        rt::LockstepDeployment lockstep(scenario_json,
                                        rt::ChaosBackend::Sim,
                                        net::TransportConfig{}, kSeed,
                                        levels);

        config::WorkerPeers peers;
        peers.periodMs = 1000.0;
        peers.aggLevels = levels;
        for (std::uint32_t e = 0; e < lockstep.plan().workers.size(); ++e)
            peers.peers[e] = net::UdpPeer{"127.0.0.1", 0};
        net::SimTransport net;
        rt::WorkerHost host(
            config::loadScenario(util::parseJson(scenario_json)), peers,
            /*process=*/0, kSeed, net);

        for (std::uint32_t period = 1; period <= 20; ++period) {
            SCOPED_TRACE("period " + std::to_string(period));
            lockstep.run(1);
            ASSERT_EQ(host.runPeriods(1), 1u);
            std::map<std::pair<std::size_t, topo::NodeId>, Watts> merged;
            for (std::size_t r = 0; r < lockstep.rackCount(); ++r) {
                for (const auto &[edge, watts] :
                     lockstep.rack(r)->lastEdgeBudgets())
                    merged.emplace(edge, watts);
            }
            const auto &expect = host.lastEdgeBudgets();
            ASSERT_FALSE(expect.empty());
            ASSERT_EQ(merged.size(), expect.size());
            for (const auto &[edge, watts] : expect) {
                ASSERT_TRUE(merged.count(edge));
                ASSERT_EQ(std::bit_cast<std::uint64_t>(watts),
                          std::bit_cast<std::uint64_t>(merged.at(edge)))
                    << "tree " << edge.first << " node " << edge.second;
            }
        }
        EXPECT_EQ(host.stats().defaultBudgets, 0u);
        EXPECT_EQ(host.stats().staleReuses, 0u);
    }
}

// Depth invariance of the deployable engine: one WorkerHost per plan
// depth, each over its own lossless SimTransport, runs the same
// scenario and seed. Cutting the tree at more aggregator tiers must not
// change a bit of any applied edge budget, in any period.
TEST(TreeDepth, HostBudgetsIdenticalAtEveryDepth)
{
    const std::string scenario_json = test_support::depth4Scenario();
    constexpr std::uint64_t kSeed = 9;
    const std::vector<std::vector<std::uint32_t>> depths{{}, {1}, {1, 2}};
    std::vector<std::unique_ptr<net::SimTransport>> nets;
    std::vector<std::unique_ptr<rt::WorkerHost>> hosts;
    for (const auto &levels : depths) {
        config::WorkerPeers peers;
        peers.periodMs = 1000.0;
        peers.aggLevels = levels;
        const auto plan = core::TreePlan::build(
            *config::loadScenario(util::parseJson(scenario_json)).system,
            levels);
        for (std::uint32_t e = 0; e < plan.workers.size(); ++e)
            peers.peers[e] = net::UdpPeer{"127.0.0.1", 0};
        nets.push_back(std::make_unique<net::SimTransport>());
        hosts.push_back(std::make_unique<rt::WorkerHost>(
            config::loadScenario(util::parseJson(scenario_json)), peers,
            /*process=*/0, kSeed, *nets.back()));
    }

    for (std::uint32_t period = 1; period <= 30; ++period) {
        SCOPED_TRACE("period " + std::to_string(period));
        for (auto &host : hosts)
            ASSERT_EQ(host->runPeriods(1), 1u);
        const auto &flat = hosts[0]->lastEdgeBudgets();
        ASSERT_FALSE(flat.empty());
        for (std::size_t d = 1; d < hosts.size(); ++d) {
            SCOPED_TRACE("depth " + std::to_string(d + 2));
            const auto &deep = hosts[d]->lastEdgeBudgets();
            ASSERT_EQ(deep.size(), flat.size());
            for (const auto &[edge, watts] : flat) {
                ASSERT_TRUE(deep.count(edge));
                ASSERT_EQ(std::bit_cast<std::uint64_t>(watts),
                          std::bit_cast<std::uint64_t>(deep.at(edge)))
                    << "tree " << edge.first << " node " << edge.second;
            }
        }
    }
    for (const auto &host : hosts) {
        EXPECT_EQ(host->stats().defaultBudgets, 0u);
        EXPECT_EQ(host->stats().staleReuses, 0u);
    }
}
