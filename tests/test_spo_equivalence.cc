/**
 * @file
 * Equivalence suite for the distributed §4.4 stranded-power
 * optimization: on a lossless SimTransport the message-plane SPO
 * second pass must produce budgets bit-identical to
 * the monolithic FleetAllocator path — per supply, per period — across
 * the multi-supply / load-split scenarios in configs/. Also pins the
 * SPO counter semantics for the lossless case (every attempted tree
 * commits, nothing falls back).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "config/loader.hh"
#include "control/allocator.hh"
#include "core/distributed.hh"
#include "net/transport.hh"
#include "policy/policy.hh"
#include "sim/closed_loop.hh"
#include "util/json.hh"

using namespace capmaestro;

namespace {

std::string
configPath(const char *rel)
{
    return std::string(CAPMAESTRO_SOURCE_DIR) + "/" + rel;
}

void
expectBudgetsBitIdentical(const ctrl::FleetAllocation &mono,
                          const ctrl::FleetAllocation &plane,
                          int period)
{
    ASSERT_EQ(mono.servers.size(), plane.servers.size());
    for (std::size_t i = 0; i < mono.servers.size(); ++i) {
        const auto &mb = mono.servers[i].supplyBudget;
        const auto &pb = plane.servers[i].supplyBudget;
        ASSERT_EQ(mb.size(), pb.size());
        for (std::size_t s = 0; s < mb.size(); ++s) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(mb[s]),
                      std::bit_cast<std::uint64_t>(pb[s]))
                << "period " << period << " server " << i << " supply "
                << s;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      mono.servers[i].enforceableCapAc),
                  std::bit_cast<std::uint64_t>(
                      plane.servers[i].enforceableCapAc))
            << "period " << period << " server " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      mono.servers[i].strandedBeforeSpo),
                  std::bit_cast<std::uint64_t>(
                      plane.servers[i].strandedBeforeSpo))
            << "period " << period << " server " << i;
    }
    EXPECT_EQ(mono.passes, plane.passes) << "period " << period;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mono.strandedReclaimed),
              std::bit_cast<std::uint64_t>(plane.strandedReclaimed))
        << "period " << period;
}

/**
 * Run the scenario twice — monolithic and lossless message plane —
 * and assert per-supply budget bit-equivalence every control period.
 * Returns true when the SPO second round actually ran at least once
 * (so callers can assert the scenario exercised it).
 */
bool
runScenarioEquivalence(const char *rel_path)
{
    auto mono_scenario = config::loadScenarioFile(configPath(rel_path));
    auto plane_scenario = config::loadScenarioFile(configPath(rel_path));
    config::applyTransportJson(plane_scenario.service,
                               util::parseJson("{\"dropRate\": 0}"));

    auto mono_sim = config::makeSimulation(std::move(mono_scenario), 1);
    auto plane_sim = config::makeSimulation(std::move(plane_scenario), 1);

    bool spo_ran = false;
    for (int period = 0; period < 20; ++period) {
        mono_sim.run(8);
        plane_sim.run(8);
        const auto &mono = mono_sim.service().lastStats().allocation;
        const auto &plane = plane_sim.service().lastStats().allocation;
        expectBudgetsBitIdentical(mono, plane, period);

        // Lossless: every attempted tree commits and nothing degrades.
        const auto &msgs = plane_sim.service().lastStats().messages;
        EXPECT_EQ(msgs.spoTreesAttempted,
                  msgs.spoCommittedTrees + msgs.spoFallbackTrees);
        EXPECT_EQ(msgs.spoFallbackTrees, 0u);
        EXPECT_TRUE(msgs.degraded.empty());
        if (msgs.spoRounds > 0) {
            spo_ran = true;
            EXPECT_GT(msgs.spoSummaryMessages, 0u);
            EXPECT_GT(msgs.spoBudgetMessages, 0u);
            EXPECT_GT(msgs.spoBytesOnWire, 0u);
            EXPECT_GE(msgs.bytesOnWire, msgs.spoBytesOnWire);
        }
    }
    return spo_ran;
}

/** Fleet inputs for the scenario's servers at one demand fraction. */
std::vector<ctrl::ServerAllocInput>
inputsFrom(const config::LoadedScenario &scenario, double demand_frac)
{
    std::vector<ctrl::ServerAllocInput> inputs;
    inputs.reserve(scenario.servers.size());
    for (const auto &server : scenario.servers) {
        const auto &spec = server.spec;
        ctrl::ServerAllocInput in;
        in.priority = spec.priority;
        in.capMin = spec.capMin;
        in.capMax = spec.capMax;
        in.demand =
            spec.capMin + demand_frac * (spec.capMax - spec.capMin);
        in.supplies.resize(spec.supplies.size());
        for (std::size_t s = 0; s < spec.supplies.size(); ++s)
            in.supplies[s].share = spec.supplies[s].loadShare;
        inputs.push_back(std::move(in));
    }
    return inputs;
}

/**
 * Drive a DistributedControlPlane through one control period with SPO
 * rounds, mirroring CapMaestroService::runPlanePeriod: first-pass
 * iterate, then detect-stranded / iterateSpo / re-derive until the
 * pass budget is spent. Returns the resulting allocation.
 */
ctrl::FleetAllocation
runPlaneWithSpo(core::DistributedControlPlane &plane,
                const topo::PowerSystem &system,
                const std::vector<ctrl::ServerAllocInput> &inputs,
                const std::vector<Watts> &root_budgets, int spo_passes,
                core::MessageStats &stats)
{
    std::vector<std::vector<Fraction>> shares(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        shares[i] = ctrl::effectiveSupplyShares(
            system, inputs[i], static_cast<std::int32_t>(i));
    }
    for (const auto &tree : system.trees()) {
        for (const auto &ref : tree->suppliesUnder(tree->root())) {
            const auto sid = static_cast<std::size_t>(ref.server);
            const auto sup = static_cast<std::size_t>(ref.supply);
            const Fraction r =
                sup < shares[sid].size() ? shares[sid][sup] : 0.0;
            plane.setLeafInput(ref,
                               ctrl::scaledLeafInput(inputs[sid], r));
        }
    }

    stats = plane.iterate(root_budgets);

    ctrl::FleetAllocation alloc;
    const auto derive = [&] {
        ctrl::deriveServerCapsFrom(
            system, inputs, shares,
            [&](std::size_t, const topo::ServerSupplyRef &ref) {
                return plane.leafBudget(ref);
            },
            alloc);
    };
    derive();

    std::vector<Watts> stranded_first(inputs.size(), 0.0);
    while (alloc.passes < spo_passes) {
        const auto pins = ctrl::detectStrandedSupplies(
            system, inputs, shares, alloc, 1.0);
        if (alloc.passes == 1) {
            for (const auto &pin : pins) {
                stranded_first[static_cast<std::size_t>(
                    pin.ref.server)] += pin.stranded;
            }
        }
        if (pins.empty())
            break;
        const auto committed =
            plane.iterateSpo(root_budgets, pins, stats);
        for (const auto &pin : pins) {
            if (committed.count(pin.tree))
                alloc.strandedReclaimed += pin.stranded;
        }
        ++alloc.passes;
        derive();
        if (committed.empty())
            break;
    }
    for (std::size_t i = 0; i < inputs.size(); ++i)
        alloc.servers[i].strandedBeforeSpo = stranded_first[i];
    return alloc;
}

} // namespace

TEST(SpoEquivalence, DualFeedLoadSplitScenarioLosslessPlane)
{
    // Figure 7a: dual-corded servers with intrinsic share mismatches —
    // the canonical stranded-power testbed. SPO must actually fire.
    EXPECT_TRUE(runScenarioEquivalence("configs/dual_feed_spo.json"));
}

TEST(SpoEquivalence, ThreePhaseScenarioLosslessPlane)
{
    // Multi-supply (three-phase) server with uneven phase loading.
    // Whether or not SPO triggers each period, budgets must agree.
    runScenarioEquivalence("configs/three_phase.json");
}

TEST(SpoEquivalence, Fig2ScenarioLosslessPlane)
{
    // Single-supply servers, SPO disabled in the scenario: guards the
    // no-pin path (equivalence with zero SPO rounds).
    EXPECT_FALSE(runScenarioEquivalence("configs/fig2_testbed.json"));
}

TEST(SpoEquivalence, PlaneMatchesAllocatorAtEveryLeaf)
{
    // Plane-level check on the dual-feed topology: monolithic
    // FleetAllocator vs the lossless transport plane, every supply leaf
    // bit-identical after the SPO second pass.
    auto scenario =
        config::loadScenarioFile(configPath("configs/dual_feed_spo.json"));
    const topo::PowerSystem &system = *scenario.system;
    const auto policy = policy::treePolicy(scenario.service.policy);
    const auto inputs = inputsFrom(scenario, 0.8);
    const auto &root_budgets = scenario.rootBudgets;

    ctrl::FleetAllocator allocator(system, policy);
    const auto mono =
        allocator.allocate(inputs, root_budgets, true, 1.0, 2);
    ASSERT_GT(mono.strandedReclaimed, 0.0)
        << "scenario no longer strands power; the test lost its teeth";

    net::SimTransport lossless{net::TransportConfig{}};
    core::DistributedControlPlane transport(system, policy, lossless);
    core::MessageStats transport_stats;
    const auto transport_alloc = runPlaneWithSpo(
        transport, system, inputs, root_budgets, 2, transport_stats);

    for (std::size_t t = 0; t < system.trees().size(); ++t) {
        const auto &tree = system.tree(t);
        for (const auto &ref : tree.suppliesUnder(tree.root())) {
            const auto expected = std::bit_cast<std::uint64_t>(
                allocator.tree(t).leafBudget(ref));
            EXPECT_EQ(expected, std::bit_cast<std::uint64_t>(
                                    transport.leafBudget(ref)))
                << "transport plane, tree " << t << " server "
                << ref.server << " supply " << ref.supply;
        }
    }
    expectBudgetsBitIdentical(mono, transport_alloc, -1);

    // Counter semantics for a clean round.
    EXPECT_EQ(transport_stats.spoRounds, 1u);
    EXPECT_GT(transport_stats.spoTreesAttempted, 0u);
    EXPECT_EQ(transport_stats.spoTreesAttempted,
              transport_stats.spoCommittedTrees);
    EXPECT_EQ(transport_stats.spoFallbackTrees, 0u);
    EXPECT_GT(transport_stats.spoSummaryMessages, 0u);
    EXPECT_GT(transport_stats.spoBudgetMessages, 0u);
    EXPECT_GT(transport_stats.spoBytesOnWire, 0u);
    EXPECT_EQ(transport_stats.spoRetries, 0u);
}

TEST(SpoEquivalence, MultiRoundSpoStaysEquivalent)
{
    // spoPasses > 2 iterates until no new stranded power appears; the
    // plane's lastTreeMetrics bookkeeping must track every committed
    // round for the overlay to stay exact.
    auto scenario =
        config::loadScenarioFile(configPath("configs/dual_feed_spo.json"));
    const topo::PowerSystem &system = *scenario.system;
    const auto policy = policy::treePolicy(scenario.service.policy);
    const auto &root_budgets = scenario.rootBudgets;

    for (const double frac : {0.55, 0.7, 0.85, 1.0}) {
        const auto inputs = inputsFrom(scenario, frac);
        ctrl::FleetAllocator allocator(system, policy);
        const auto mono =
            allocator.allocate(inputs, root_budgets, true, 1.0, 4);

        net::SimTransport lossless{net::TransportConfig{}};
        core::DistributedControlPlane plane(system, policy, lossless);
        core::MessageStats stats;
        const auto plane_alloc = runPlaneWithSpo(
            plane, system, inputs, root_budgets, 4, stats);

        expectBudgetsBitIdentical(mono, plane_alloc,
                                  static_cast<int>(frac * 100));
        EXPECT_EQ(stats.spoTreesAttempted,
                  stats.spoCommittedTrees + stats.spoFallbackTrees);
        EXPECT_EQ(stats.spoFallbackTrees, 0u);
    }
}
