/**
 * @file
 * The paper's §5 overhead and scalability microbenchmarks
 * (google-benchmark): metrics gathering and budgeting cost per
 * controller vs. fan-out, full-tree allocation, message-plane
 * iteration, closed-loop period, and the wire codec (CRC-32, Metrics
 * encode/decode), and one deployable-host period on a deep plan
 * (BM_HostPeriodDepth4: µs and heap allocations per leaf per period,
 * for profiling the rt hot path without forking UDP hosts). Each is
 * tagged with fleet / tiers / processes counters so its JSON entry is
 * self-describing. These are the evidence for "linear in children"
 * (DESIGN.md S5); the end-to-end control plane is measured by
 * perfbench/ (BENCHMARK.json).
 *
 * The binary replaces the global operator new with one that counts
 * calls, for BM_HostPeriodDepth4's allocation counter.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "config/loader.hh"
#include "control/allocator.hh"
#include "core/distributed.hh"
#include "core/tree_plan.hh"
#include "device/workload.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "rt/host.hh"
#include "sim/capacity.hh"
#include "sim/datacenter.hh"
#include "sim/scenario.hh"
#include "util/random.hh"

namespace {

std::atomic<std::size_t> g_allocs{0};

void *
countedAlloc(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

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

/**
 * Message-plane iteration over the Table 4 center: the rack/room
 * exchange with every metric/budget frame encoded (net/wire) and
 * carried by a lossless SimTransport, measuring the §4.3 compute plus
 * the serialization and transport overhead, and the real bytes on the
 * wire.
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

/**
 * A one-feed deep tree: root -> 4 -> 4 rows -> @p per_row racks per
 * row, one single-supply server per rack, cut at levels 1 and 2 (a
 * depth-4 worker plan: leaves, row and level-1 aggregators, root).
 */
config::LoadedScenario
deepHostScenario(std::size_t per_row)
{
    constexpr std::size_t kFanout = 4;
    const std::size_t leaves = kFanout * kFanout * per_row;
    config::LoadedScenario out;
    out.system = std::make_unique<topo::PowerSystem>(1);
    auto tree = std::make_unique<topo::PowerTree>(0, 0, "F0");
    const auto total = static_cast<double>(leaves) * 500.0;
    std::vector<topo::NodeId> frontier{
        tree->makeRoot(topo::NodeKind::Breaker, "root", total)};
    for (int level = 0; level < 2; ++level) {
        std::vector<topo::NodeId> next;
        for (const topo::NodeId parent : frontier) {
            for (std::size_t c = 0; c < kFanout; ++c) {
                std::string name = "i" + std::to_string(level);
                name += "_" + std::to_string(next.size());
                next.push_back(tree->addChild(
                    parent, topo::NodeKind::Breaker, name,
                    total / static_cast<double>(kFanout * (level + 1))));
            }
        }
        frontier = std::move(next);
    }
    std::size_t sid = 0;
    for (const topo::NodeId row : frontier) {
        for (std::size_t r = 0; r < per_row; ++r, ++sid) {
            const auto rack = tree->addChild(row, topo::NodeKind::Breaker,
                                             "rack" + std::to_string(sid),
                                             600.0);
            tree->addSupplyPort(rack, "s" + std::to_string(sid),
                                {static_cast<std::int32_t>(sid), 0});
        }
    }
    out.system->addTree(std::move(tree));

    util::Rng rng(3);
    for (std::size_t s = 0; s < leaves; ++s) {
        sim::ServerSetup setup;
        setup.spec = sim::testbedServerSpec("S" + std::to_string(s),
                                            rng.chance(1.0 / 3.0) ? 1 : 0,
                                            1.0, 1);
        setup.workload =
            std::make_unique<dev::ConstantWorkload>(rng.uniform(0.5, 0.9));
        out.servers.push_back(std::move(setup));
    }
    out.service.controlPeriod = 1;
    out.service.policy = policy::PolicyKind::GlobalPriority;
    out.service.enableSpo = false;
    out.rootBudgets = {static_cast<double>(leaves) * 330.0};
    return out;
}

/**
 * One rt::WorkerHost hosting every endpoint of a depth-4 plan over a
 * lossless SimTransport (every frame co-hosted): the rt hot path of a
 * deep-10k host (plants, roles, codec, in-memory delivery) in one
 * process. Reports wall µs and heap allocations per leaf per period.
 */
void
BM_HostPeriodDepth4(benchmark::State &state)
{
    const auto per_row = static_cast<std::size_t>(state.range(0));
    config::LoadedScenario scenario = deepHostScenario(per_row);
    config::WorkerPeers peers;
    peers.aggLevels = {1, 2};
    const auto plan = core::TreePlan::build(*scenario.system,
                                            peers.aggLevels);
    for (std::uint32_t e = 0; e < plan.workers.size(); ++e)
        peers.peers[e] = net::UdpPeer{"127.0.0.1", 0};
    net::SimTransport net;
    rt::WorkerHost host(std::move(scenario), peers, /*process=*/0,
                        /*seed=*/1, net);
    host.runPeriods(5); // warm every buffer

    const std::size_t allocs0 = g_allocs.load();
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state)
        host.runPeriods(1);
    const std::chrono::duration<double, std::micro> us =
        std::chrono::steady_clock::now() - t0;
    const double leaf_periods =
        static_cast<double>(plan.leafWorkers)
        * static_cast<double>(state.iterations());
    state.counters["us_per_leaf_period"] = us.count() / leaf_periods;
    state.counters["allocs_per_leaf_period"] =
        static_cast<double>(g_allocs.load() - allocs0) / leaf_periods;
    tagScale(state, static_cast<double>(plan.leafWorkers), plan.tiers(),
             1);
}
BENCHMARK(BM_HostPeriodDepth4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
