/**
 * @file
 * The paper's §5 overhead and scalability microbenchmarks
 * (google-benchmark): metrics gathering and budgeting cost per
 * controller vs. fan-out, full-tree allocation, message-plane
 * iteration, closed-loop period, and the wire codec (CRC-32, Metrics
 * encode/decode). Each is tagged with fleet / tiers / processes
 * counters so its JSON entry is self-describing. These are the
 * evidence for "linear in children" (DESIGN.md S5); the end-to-end
 * control plane is measured by perfbench/ (BENCHMARK.json).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "control/allocator.hh"
#include "core/distributed.hh"
#include "device/workload.hh"
#include "net/wire.hh"
#include "sim/capacity.hh"
#include "sim/datacenter.hh"
#include "sim/scenario.hh"
#include "util/random.hh"

using namespace capmaestro;

namespace {

// ---------------------------------------------------------------------
// §5 microbenchmarks (single process). Every benchmark reports fleet /
// tiers / processes counters so its JSON entry is self-describing.
// ---------------------------------------------------------------------

void
tagScale(benchmark::State &state, double fleet, double tiers,
         double processes)
{
    state.counters["fleet"] = fleet;
    state.counters["tiers"] = tiers;
    state.counters["processes"] = processes;
}

std::vector<ctrl::NodeMetrics>
makeChildren(std::size_t n)
{
    util::Rng rng(7);
    std::vector<ctrl::NodeMetrics> children;
    children.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ctrl::NodeMetrics m;
        const Priority p = static_cast<Priority>(rng.uniformInt(0, 3));
        const Watts lo = rng.uniform(100.0, 300.0);
        const Watts d = lo + rng.uniform(0.0, 200.0);
        m.accumulate(p, lo, d, d);
        m.setConstraint(d + 50.0);
        children.push_back(std::move(m));
    }
    return children;
}

void
BM_GatherMetrics(benchmark::State &state)
{
    const auto children =
        makeChildren(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ctrl::gatherMetrics(children, 50000.0, true));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    tagScale(state, static_cast<double>(state.range(0)), 1, 1);
}
BENCHMARK(BM_GatherMetrics)->Arg(9)->Arg(45)->Arg(162)->Arg(500);

void
BM_BudgetChildren(benchmark::State &state)
{
    const auto children =
        makeChildren(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ctrl::budgetChildren(30000.0, children, true));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    tagScale(state, static_cast<double>(state.range(0)), 1, 1);
}
BENCHMARK(BM_BudgetChildren)->Arg(9)->Arg(45)->Arg(162)->Arg(500);

/** Full allocation over the Table 4 data center, one phase. */
void
BM_FleetAllocation(benchmark::State &state)
{
    sim::DataCenterParams params;
    params.phases = 1;
    params.serversPerRackPerPhase = static_cast<int>(state.range(0));
    auto dc = sim::buildDataCenter(params);
    ctrl::FleetAllocator alloc(*dc.system,
                               ctrl::TreePolicy::globalPriority());
    util::Rng rng(3);
    std::vector<ctrl::ServerAllocInput> fleet(dc.servers.size());
    for (auto &s : fleet) {
        s.priority = rng.chance(0.3) ? 1 : 0;
        s.capMin = 270.0;
        s.capMax = 490.0;
        s.demand = rng.uniform(270.0, 490.0);
        s.supplies = {{0.5, true}, {0.5, true}};
    }
    const std::vector<Watts> budgets(dc.system->trees().size(),
                                     332500.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(alloc.allocate(fleet, budgets, false));
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(fleet.size()));
    tagScale(state, static_cast<double>(fleet.size()), 2, 1);
}
BENCHMARK(BM_FleetAllocation)->Arg(5)->Arg(13)->Arg(15)
    ->Unit(benchmark::kMillisecond);

/** Distributed (rack/room worker) iteration over the Table 4 center. */
void
BM_DistributedIteration(benchmark::State &state)
{
    sim::DataCenterParams params;
    params.phases = 1;
    params.serversPerRackPerPhase = static_cast<int>(state.range(0));
    auto dc = sim::buildDataCenter(params);
    core::DistributedControlPlane plane(
        *dc.system, ctrl::TreePolicy::globalPriority());

    util::Rng rng(5);
    std::size_t servers = 0;
    for (const auto &tree : dc.system->trees()) {
        for (const auto &ref : tree->suppliesUnder(tree->root())) {
            ctrl::LeafInput in;
            in.live = true;
            in.priority = rng.chance(0.3) ? 1 : 0;
            in.capMin = 135.0;
            in.demand = rng.uniform(135.0, 245.0);
            in.constraint = 245.0;
            plane.setLeafInput(ref, in);
            ++servers;
        }
    }
    const std::vector<Watts> budgets(dc.system->trees().size(),
                                     332500.0);
    std::size_t messages = 0;
    for (auto _ : state) {
        const auto stats = plane.iterate(budgets);
        messages = stats.metricsMessages + stats.budgetMessages;
    }
    state.counters["messages"] = static_cast<double>(messages);
    tagScale(state, static_cast<double>(servers), 2, 1);
}
BENCHMARK(BM_DistributedIteration)->Arg(5)->Arg(13)
    ->Unit(benchmark::kMillisecond);

/**
 * Message-plane iteration over the Table 4 center: the same exchange as
 * BM_DistributedIteration but with every metric/budget frame encoded
 * (net/wire) and carried by a lossless SimTransport, measuring the
 * serialization + transport overhead and the real bytes on the wire.
 */
void
BM_MessagePlaneIteration(benchmark::State &state)
{
    sim::DataCenterParams params;
    params.phases = 1;
    params.serversPerRackPerPhase = static_cast<int>(state.range(0));
    auto dc = sim::buildDataCenter(params);
    net::SimTransport transport;
    core::DistributedControlPlane plane(
        *dc.system, ctrl::TreePolicy::globalPriority(), transport);

    util::Rng rng(5);
    std::size_t servers = 0;
    for (const auto &tree : dc.system->trees()) {
        for (const auto &ref : tree->suppliesUnder(tree->root())) {
            ctrl::LeafInput in;
            in.live = true;
            in.priority = rng.chance(0.3) ? 1 : 0;
            in.capMin = 135.0;
            in.demand = rng.uniform(135.0, 245.0);
            in.constraint = 245.0;
            plane.setLeafInput(ref, in);
            ++servers;
        }
    }
    const std::vector<Watts> budgets(dc.system->trees().size(),
                                     332500.0);
    std::size_t messages = 0;
    std::size_t bytes = 0;
    for (auto _ : state) {
        const auto stats = plane.iterate(budgets);
        messages = stats.metricsMessages + stats.budgetMessages;
        bytes = stats.bytesOnWire;
    }
    state.counters["msgs/period"] = static_cast<double>(messages);
    state.counters["bytes/period"] = static_cast<double>(bytes);
    tagScale(state, static_cast<double>(servers), 2, 1);
}
BENCHMARK(BM_MessagePlaneIteration)->Arg(5)->Arg(13)
    ->Unit(benchmark::kMillisecond);

/** One closed-loop control period on the Fig. 6 testbed, per server. */
void
BM_ControlPeriod(benchmark::State &state)
{
    auto rig = sim::makeFig6Rig(policy::PolicyKind::GlobalPriority);
    rig.run(16); // prime
    for (auto _ : state)
        rig.run(8);
    state.SetItemsProcessed(state.iterations() * 4);
    tagScale(state, 4, 2, 1);
}
BENCHMARK(BM_ControlPeriod)->Unit(benchmark::kMicrosecond);

/** CRC-32 over an n-byte buffer: the frame checksum, computed once per
 *  encode and once per decode. */
void
BM_Crc32(benchmark::State &state)
{
    util::Rng rng(11);
    std::vector<std::uint8_t> buffer(
        static_cast<std::size_t>(state.range(0)));
    for (auto &b : buffer)
        b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            net::crc32(buffer.data(), buffer.size()));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
    tagScale(state, 1, 1, 1);
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(256)->Arg(4096);

/** One edge controller's Metrics message with @p classes priority
 *  classes (a leaf carries 1-2, a mid-tier summary ~10). */
net::MetricsMsg
makeMetricsMsg(std::size_t classes)
{
    util::Rng rng(13);
    net::MetricsMsg msg;
    msg.tree = 1;
    msg.edgeNode = 42;
    for (std::size_t c = 0; c < classes; ++c) {
        const Watts lo = rng.uniform(100.0, 300.0);
        msg.metrics.accumulate(static_cast<Priority>(c), lo, lo + 50.0,
                               lo + 60.0);
    }
    msg.metrics.setConstraint(400.0 * static_cast<double>(classes));
    return msg;
}

/** Encode one Metrics frame (header, payload, CRC, one allocation). */
void
BM_EncodeMetrics(benchmark::State &state)
{
    const auto msg =
        makeMetricsMsg(static_cast<std::size_t>(state.range(0)));
    const net::FrameMeta meta{7, 1000, 1};
    std::size_t frame_bytes = 0;
    for (auto _ : state) {
        const auto frame = net::encodeMetrics(meta, msg);
        frame_bytes = frame.size();
        benchmark::DoNotOptimize(frame.data());
        benchmark::ClobberMemory();
    }
    state.counters["frame_bytes"] = static_cast<double>(frame_bytes);
    tagScale(state, 1, 1, 1);
}
BENCHMARK(BM_EncodeMetrics)->Arg(1)->Arg(2)->Arg(10);

/** Decode (and fully validate) one Metrics frame. */
void
BM_DecodeMetrics(benchmark::State &state)
{
    const auto frame = net::encodeMetrics(
        net::FrameMeta{7, 1000, 1},
        makeMetricsMsg(static_cast<std::size_t>(state.range(0))));
    for (auto _ : state)
        benchmark::DoNotOptimize(net::decodeFrame(frame));
    state.counters["frame_bytes"] = static_cast<double>(frame.size());
    tagScale(state, 1, 1, 1);
}
BENCHMARK(BM_DecodeMetrics)->Arg(1)->Arg(2)->Arg(10);

} // namespace

BENCHMARK_MAIN();
