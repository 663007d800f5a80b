/**
 * @file
 * Tests for the distributed (rack-worker / room-worker) execution of the
 * capping algorithm (§5): equivalence with the monolithic ControlTree
 * under every policy, message accounting, partition behavior, and the
 * §4.5 fault-tolerant protocol over the simulated message plane
 * (lossless bit-equivalence, stale-metric reuse, default budgets, a
 * partitioned rack, non-finite input, and safety under frame loss).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "control/control_tree.hh"
#include "core/distributed.hh"
#include "net/chaos_transport.hh"
#include "net/transport.hh"
#include "sim/datacenter.hh"
#include "sim/scenario.hh"
#include "util/random.hh"

using namespace capmaestro;
using core::DistributedControlPlane;

namespace {

/** Random leaf inputs for every supply of @p system. */
std::vector<std::pair<topo::ServerSupplyRef, ctrl::LeafInput>>
randomInputs(const topo::PowerSystem &system, util::Rng &rng)
{
    std::vector<std::pair<topo::ServerSupplyRef, ctrl::LeafInput>> out;
    for (const auto &tree : system.trees()) {
        for (const auto &ref : tree->suppliesUnder(tree->root())) {
            ctrl::LeafInput in;
            in.live = rng.chance(0.9);
            in.priority = static_cast<Priority>(rng.uniformInt(0, 3));
            in.capMin = rng.uniform(100.0, 150.0);
            in.demand = in.capMin + rng.uniform(0.0, 120.0);
            in.constraint = in.demand + rng.uniform(0.0, 60.0);
            out.emplace_back(ref, in);
        }
    }
    return out;
}

} // namespace

TEST(Distributed, EquivalentToMonolithicOnFig2)
{
    util::Rng rng(404);
    auto sys = sim::fig2System();
    for (const auto policy :
         {ctrl::TreePolicy::globalPriority(),
          ctrl::TreePolicy::localPriority(),
          ctrl::TreePolicy::noPriority()}) {
        ctrl::ControlTree mono(sys->tree(0), policy);
        DistributedControlPlane dist(*sys, policy);

        for (int trial = 0; trial < 20; ++trial) {
            const auto inputs = randomInputs(*sys, rng);
            for (const auto &[ref, in] : inputs) {
                mono.setLeafInput(ref, in);
                dist.setLeafInput(ref, in);
            }
            const Watts budget = rng.uniform(600.0, 1600.0);
            mono.gather();
            mono.allocate(budget);
            dist.iterate({budget});
            for (const auto &[ref, in] : inputs) {
                EXPECT_NEAR(dist.leafBudget(ref), mono.leafBudget(ref),
                            1e-9)
                    << "supply " << ref.server << "." << ref.supply;
            }
        }
    }
}

TEST(Distributed, EquivalentToMonolithicOnDataCenter)
{
    sim::DataCenterParams params;
    params.phases = 1;
    params.serversPerRackPerPhase = 4;
    const auto dc = sim::buildDataCenter(params);

    const auto policy = ctrl::TreePolicy::globalPriority();
    DistributedControlPlane dist(*dc.system, policy);
    std::vector<std::unique_ptr<ctrl::ControlTree>> monos;
    for (const auto &tree : dc.system->trees())
        monos.push_back(
            std::make_unique<ctrl::ControlTree>(*tree, policy));

    util::Rng rng(606);
    const auto inputs = randomInputs(*dc.system, rng);
    for (const auto &[ref, in] : inputs)
        dist.setLeafInput(ref, in);
    // Each supply ref appears in exactly one tree; set it on all (the
    // wrong tree simply doesn't have the leaf). Use the port index.
    for (const auto &[ref, in] : inputs) {
        const auto ports = dc.system->livePortsOf(ref.server);
        monos[ports.at(ref.supply).tree]->setLeafInput(ref, in);
    }

    const std::vector<Watts> budgets(dc.system->trees().size(),
                                     300000.0);
    dist.iterate(budgets);
    for (std::size_t t = 0; t < monos.size(); ++t) {
        monos[t]->gather();
        monos[t]->allocate(budgets[t]);
    }

    EXPECT_EQ(dist.rackWorkerCount(), 162u);
    for (const auto &[ref, in] : inputs) {
        const auto ports = dc.system->livePortsOf(ref.server);
        const auto tree = ports.at(ref.supply).tree;
        EXPECT_NEAR(dist.leafBudget(ref), monos[tree]->leafBudget(ref),
                    1e-9);
    }
}

TEST(Distributed, EquivalentOnDataCenterUnderEveryPolicy)
{
    // The partition must preserve semantics for Local and No Priority
    // too (their collapse points sit exactly at the rack/room boundary).
    sim::DataCenterParams params;
    params.phases = 1;
    params.serversPerRackPerPhase = 2;
    const auto dc = sim::buildDataCenter(params);
    util::Rng rng(321);
    const auto inputs = randomInputs(*dc.system, rng);

    for (const auto policy :
         {ctrl::TreePolicy::localPriority(),
          ctrl::TreePolicy::noPriority()}) {
        DistributedControlPlane dist(*dc.system, policy);
        std::vector<std::unique_ptr<ctrl::ControlTree>> monos;
        for (const auto &tree : dc.system->trees())
            monos.push_back(
                std::make_unique<ctrl::ControlTree>(*tree, policy));
        for (const auto &[ref, in] : inputs) {
            dist.setLeafInput(ref, in);
            const auto ports = dc.system->livePortsOf(ref.server);
            monos[ports.at(ref.supply).tree]->setLeafInput(ref, in);
        }
        const std::vector<Watts> budgets(dc.system->trees().size(),
                                         250000.0);
        dist.iterate(budgets);
        for (std::size_t t = 0; t < monos.size(); ++t) {
            monos[t]->gather();
            monos[t]->allocate(budgets[t]);
        }
        for (const auto &[ref, in] : inputs) {
            const auto ports = dc.system->livePortsOf(ref.server);
            EXPECT_NEAR(dist.leafBudget(ref),
                        monos[ports.at(ref.supply).tree]->leafBudget(ref),
                        1e-9);
        }
    }
}

TEST(Distributed, MessageAccounting)
{
    sim::DataCenterParams params;
    params.phases = 1;
    params.serversPerRackPerPhase = 2;
    const auto dc = sim::buildDataCenter(params);
    DistributedControlPlane dist(*dc.system,
                                 ctrl::TreePolicy::globalPriority());

    util::Rng rng(7);
    for (const auto &[ref, in] : randomInputs(*dc.system, rng))
        dist.setLeafInput(ref, in);

    const auto stats = dist.iterate({300000.0, 300000.0});
    // 162 racks x 2 trees, one metrics and one budget message each.
    EXPECT_EQ(stats.metricsMessages, 324u);
    EXPECT_EQ(stats.budgetMessages, 324u);
    // Compact summaries: at most #priority-levels classes per message.
    EXPECT_LE(stats.metricClassesSent, 324u * 4u);
}

TEST(Distributed, FailedFeedSkipped)
{
    sim::DataCenterParams params;
    params.phases = 1;
    params.serversPerRackPerPhase = 2;
    auto dc = sim::buildDataCenter(params);
    dc.system->failFeed(1);
    DistributedControlPlane dist(*dc.system,
                                 ctrl::TreePolicy::globalPriority());
    util::Rng rng(7);
    for (const auto &[ref, in] : randomInputs(*dc.system, rng))
        dist.setLeafInput(ref, in);
    const auto stats = dist.iterate({300000.0, 300000.0});
    EXPECT_EQ(stats.metricsMessages, 162u); // only feed A's tree
}

// ------------------------------------------------- §4.5 message plane

TEST(MessagePlane, LosslessTransportBitIdenticalToMonolithic)
{
    // Under a lossless zero-latency transport the §4.5 protocol must
    // degenerate to the direct exchange: every budget bit-identical to
    // the monolithic ControlTree, no degraded decisions.
    util::Rng rng(808);
    auto sys = sim::fig2System();
    for (const auto policy :
         {ctrl::TreePolicy::globalPriority(),
          ctrl::TreePolicy::localPriority(),
          ctrl::TreePolicy::noPriority()}) {
        ctrl::ControlTree mono(sys->tree(0), policy);
        net::SimTransport transport; // lossless, instantaneous
        DistributedControlPlane dist(*sys, policy, transport);

        for (int trial = 0; trial < 20; ++trial) {
            const auto inputs = randomInputs(*sys, rng);
            for (const auto &[ref, in] : inputs) {
                mono.setLeafInput(ref, in);
                dist.setLeafInput(ref, in);
            }
            const Watts budget = rng.uniform(600.0, 1600.0);
            mono.gather();
            mono.allocate(budget);
            const auto stats = dist.iterate({budget});

            EXPECT_EQ(stats.degraded.size(), 0u);
            EXPECT_EQ(stats.defaultBudgets, 0u);
            EXPECT_EQ(stats.staleReuses, 0u);
            EXPECT_GT(stats.bytesOnWire, 0u);
            for (const auto &[ref, in] : inputs) {
                EXPECT_EQ(
                    std::bit_cast<std::uint64_t>(dist.leafBudget(ref)),
                    std::bit_cast<std::uint64_t>(mono.leafBudget(ref)))
                    << "supply " << ref.server << "." << ref.supply;
            }
        }
    }
}

TEST(MessagePlane, TotalLossFallsBackToDefaultBudgets)
{
    // With every frame dropped, period 1 has no cache to fall back on:
    // all metrics are lost and every edge applies the conservative
    // Pcap_min default.
    net::TransportConfig cfg;
    cfg.dropRate = 1.0;
    net::SimTransport transport(cfg);
    auto sys = sim::fig2System();
    DistributedControlPlane dist(*sys, ctrl::TreePolicy::globalPriority(),
                                 transport);

    util::Rng rng(11);
    const auto inputs = randomInputs(*sys, rng);
    for (const auto &[ref, in] : inputs)
        dist.setLeafInput(ref, in);
    const auto stats = dist.iterate({1200.0});

    const std::size_t edges = dist.rackWorkerCount();
    EXPECT_EQ(stats.metricsLost, edges);
    EXPECT_EQ(stats.defaultBudgets, edges);
    EXPECT_EQ(stats.staleReuses, 0u);
    EXPECT_GT(stats.retries, 0u);

    // Default budgets equal the sum of live leaves' capMin (clamped to
    // the edge limit), split per the edge's own shifting controller —
    // every live leaf gets at least its floor covered in aggregate.
    for (const auto &[ref, in] : inputs) {
        if (in.live) {
            EXPECT_GE(dist.leafBudget(ref), 0.0);
        }
    }
    Watts total = 0.0, floor_total = 0.0;
    for (const auto &[ref, in] : inputs) {
        total += dist.leafBudget(ref);
        if (in.live)
            floor_total += in.capMin;
    }
    EXPECT_NEAR(total, floor_total, 1e-6);
}

TEST(MessagePlane, PartitionedRackRidesStaleThenDefaults)
{
    // Cut rack 0 off from the room: the room rides rack 0's cached
    // summary up to the stale-age cap, then counts its metrics lost;
    // rack 0 hears no budget and applies its Pcap_min default all the
    // while. Nobody fails over. After the heal the plane is back to the
    // monolithic allocation, bit for bit.
    net::ProtocolConfig proto;
    proto.staleAgeCapPeriods = 2;
    auto sys = sim::fig2System();
    net::SimTransport inner; // lossless: isolate the partition
    const auto room = static_cast<net::Transport::Endpoint>(
        DistributedControlPlane::rackWorkerCountFor(*sys));
    net::ChaosTransport transport(inner, room);
    DistributedControlPlane dist(*sys, ctrl::TreePolicy::globalPriority(),
                                 transport, proto);
    ASSERT_GE(dist.rackWorkerCount(), 2u);

    util::Rng rng(21);
    auto inputs = randomInputs(*sys, rng);
    for (auto &[ref, in] : inputs) {
        in.live = true;
        dist.setLeafInput(ref, in);
    }
    ctrl::ControlTree mono(sys->tree(0),
                           ctrl::TreePolicy::globalPriority());
    for (const auto &[ref, in] : inputs)
        mono.setLeafInput(ref, in);
    mono.gather();
    mono.allocate(1200.0);
    const auto expect_monolithic = [&] {
        for (const auto &[ref, in] : inputs) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(dist.leafBudget(ref)),
                      std::bit_cast<std::uint64_t>(mono.leafBudget(ref)))
                << "supply " << ref.server << "." << ref.supply;
        }
    };

    // Period 1: healthy; the room's cache fills.
    auto stats = dist.iterate({1200.0});
    EXPECT_TRUE(stats.degraded.empty());
    expect_monolithic();

    transport.setPartition(0, room, true);
    for (std::uint32_t age = 1; age <= 4; ++age) {
        SCOPED_TRACE("silent period " + std::to_string(age));
        stats = dist.iterate({1200.0});
        const bool stale = age <= 2;
        EXPECT_EQ(stats.staleReuses, stale ? 1u : 0u);
        EXPECT_EQ(stats.metricsLost, stale ? 0u : 1u);
        EXPECT_EQ(stats.defaultBudgets, 1u);
        ASSERT_EQ(stats.degraded.size(), 2u);
        for (const auto &d : stats.degraded) {
            // Every decision concerns rack 0; none is a failover.
            EXPECT_EQ(d.rack, 0u);
            if (d.kind == core::DegradedKind::DefaultBudgetApplied)
                continue;
            EXPECT_EQ(d.kind, stale ? core::DegradedKind::StaleMetricsReused
                                    : core::DegradedKind::MetricsLost);
            EXPECT_EQ(d.value, static_cast<double>(age));
        }
        // Rack 0's edge splits its Pcap_min default over its leaves.
        const auto &edge = sys->tree(0).node(stats.degraded[0].node);
        Watts edge_total = 0.0, edge_floor = 0.0;
        for (const auto c : edge.children) {
            const auto &ref = *sys->tree(0).node(c).supplyRef;
            edge_total += dist.leafBudget(ref);
            for (const auto &[r, in] : inputs) {
                if (r == ref)
                    edge_floor += in.capMin;
            }
        }
        EXPECT_NEAR(edge_total, edge_floor, 1e-9);
    }
    EXPECT_GT(transport.framesBlocked(), 0u);

    transport.heal();
    stats = dist.iterate({1200.0});
    EXPECT_TRUE(stats.degraded.empty());
    expect_monolithic();
}

TEST(MessagePlane, NonFiniteLeafDemandNeverReachesTheMerge)
{
    // A leaf whose demand is NaN makes its rack's Metrics summary
    // non-finite. The room drops that frame as corrupt (the edge rides
    // its stale -> lost ladder), so the §4.3 merge never sees the NaN
    // and every applied budget stays finite.
    auto sys = sim::fig2System();
    for (const auto policy :
         {ctrl::TreePolicy::globalPriority(),
          ctrl::TreePolicy::localPriority(),
          ctrl::TreePolicy::noPriority()}) {
        net::SimTransport transport;
        DistributedControlPlane dist(*sys, policy, transport);
        util::Rng rng(31);
        auto inputs = randomInputs(*sys, rng);
        for (auto &[ref, in] : inputs)
            in.live = true;
        inputs.front().second.demand = std::nan("");
        for (const auto &[ref, in] : inputs)
            dist.setLeafInput(ref, in);

        for (int period = 1; period <= 4; ++period) {
            SCOPED_TRACE("period " + std::to_string(period));
            const auto stats = dist.iterate({1200.0});
            // The first copy and every retransmission are dropped.
            EXPECT_GE(stats.corruptFrames, 1u);
            EXPECT_EQ(stats.corruptFrames, 1 + stats.retries);
            EXPECT_EQ(stats.metricsLost, 1u);
            EXPECT_EQ(stats.staleReuses, 0u);
            for (const auto &[ref, in] : inputs) {
                EXPECT_TRUE(std::isfinite(dist.leafBudget(ref)))
                    << "supply " << ref.server << "." << ref.supply;
            }
        }
    }
}

TEST(MessagePlane, LossNeverInflatesTreeTotals)
{
    // Safety under drops: in a congested scenario (demand exceeds the
    // root budget) the lossless allocation hands out the entire root
    // budget, so no lossy run may ever exceed the lossless per-tree
    // total - whatever mix of fresh, stale, and default budgets the
    // protocol lands on.
    auto sys = sim::fig2System();
    util::Rng rng(99);
    std::vector<std::pair<topo::ServerSupplyRef, ctrl::LeafInput>> inputs;
    for (const auto &tree : sys->trees()) {
        for (const auto &ref : tree->suppliesUnder(tree->root())) {
            ctrl::LeafInput in;
            in.live = true;
            in.priority = static_cast<Priority>(rng.uniformInt(0, 3));
            in.capMin = rng.uniform(100.0, 140.0);
            in.demand = in.capMin + rng.uniform(100.0, 200.0);
            in.constraint = in.demand + 50.0;
            inputs.emplace_back(ref, in);
        }
    }
    const Watts budget = 900.0; // well under total demand, above floors

    // Lossless reference total.
    ctrl::ControlTree mono(sys->tree(0),
                           ctrl::TreePolicy::globalPriority());
    for (const auto &[ref, in] : inputs)
        mono.setLeafInput(ref, in);
    mono.gather();
    mono.allocate(budget);
    Watts lossless_total = 0.0;
    for (const auto &[ref, in] : inputs)
        lossless_total += mono.leafBudget(ref);

    for (const double drop : {0.1, 0.2, 0.4}) {
        net::TransportConfig cfg;
        cfg.dropRate = drop;
        cfg.seed = 42 + static_cast<std::uint64_t>(drop * 100);
        net::SimTransport transport(cfg);
        DistributedControlPlane dist(
            *sys, ctrl::TreePolicy::globalPriority(), transport);
        for (const auto &[ref, in] : inputs)
            dist.setLeafInput(ref, in);

        for (int period = 0; period < 12; ++period) {
            dist.iterate({budget});
            Watts total = 0.0;
            for (const auto &[ref, in] : inputs)
                total += dist.leafBudget(ref);
            EXPECT_LE(total, lossless_total + 1e-6)
                << "drop=" << drop << " period=" << period;
        }
    }
}

TEST(MessagePlane, RetriesRecoverFromModerateLoss)
{
    // At 20% drop with 4 attempts per message, the per-message loss
    // probability is 0.2^4 = 0.16%; a run of periods should complete
    // mostly clean, and every degraded period must still deliver a
    // budget (fresh, stale, or default) to every edge.
    net::TransportConfig cfg;
    cfg.dropRate = 0.2;
    cfg.seed = 7;
    net::SimTransport transport(cfg);
    auto sys = sim::fig2System();
    DistributedControlPlane dist(*sys, ctrl::TreePolicy::globalPriority(),
                                 transport);
    util::Rng rng(13);
    const auto inputs = randomInputs(*sys, rng);
    for (const auto &[ref, in] : inputs)
        dist.setLeafInput(ref, in);

    std::size_t clean = 0;
    const int periods = 50;
    for (int p = 0; p < periods; ++p) {
        const auto stats = dist.iterate({1200.0});
        if (stats.degraded.empty())
            ++clean;
        EXPECT_EQ(stats.metricsMessages, dist.rackWorkerCount());
        EXPECT_EQ(stats.budgetMessages, dist.rackWorkerCount());
    }
    EXPECT_GT(clean, static_cast<std::size_t>(periods * 3 / 5));
}

TEST(MessagePlane, BytesOnWireScaleWithSummariesNotServers)
{
    // The compactness claim (§4.1) holds on the real wire encoding:
    // 5x the servers per rack must not change the per-period bytes,
    // because messages carry per-priority summaries.
    std::size_t bytes_small = 0, bytes_large = 0;
    for (const int per_phase : {3, 15}) {
        sim::DataCenterParams params;
        params.phases = 1;
        params.serversPerRackPerPhase = per_phase;
        const auto dc = sim::buildDataCenter(params);
        net::SimTransport transport;
        DistributedControlPlane dist(
            *dc.system, ctrl::TreePolicy::globalPriority(), transport);
        util::Rng rng(11);
        for (const auto &[ref, in] : randomInputs(*dc.system, rng))
            dist.setLeafInput(ref, in);
        const auto stats = dist.iterate({300000.0, 300000.0});
        (per_phase == 3 ? bytes_small : bytes_large) = stats.bytesOnWire;
    }
    EXPECT_GT(bytes_small, 0u);
    EXPECT_LE(bytes_large, bytes_small * 2);
}

TEST(Distributed, CompactSummariesIndependentOfServerCount)
{
    // The paper's scalability insight: upstream messages carry per-
    // priority summaries, not per-server data. Growing the rack must
    // not grow the message payload.
    std::size_t classes_small = 0, classes_large = 0;
    for (const int per_phase : {3, 15}) {
        sim::DataCenterParams params;
        params.phases = 1;
        params.serversPerRackPerPhase = per_phase;
        const auto dc = sim::buildDataCenter(params);
        DistributedControlPlane dist(
            *dc.system, ctrl::TreePolicy::globalPriority());
        util::Rng rng(11);
        for (const auto &[ref, in] : randomInputs(*dc.system, rng))
            dist.setLeafInput(ref, in);
        const auto stats = dist.iterate({300000.0, 300000.0});
        (per_phase == 3 ? classes_small : classes_large) =
            stats.metricClassesSent;
    }
    EXPECT_EQ(classes_small > 0, true);
    // 5x the servers, same number of messages, payload within the
    // priority-level bound either way.
    EXPECT_LE(classes_large, classes_small * 2);
}
