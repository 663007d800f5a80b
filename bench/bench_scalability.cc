/**
 * @file
 * Reproduces the paper's §5 overhead & scalability analysis in two
 * halves:
 *
 *   1. google-benchmark microbenchmarks — metrics gathering /
 *      budgeting cost per controller vs. fan-out, full-tree
 *      allocation, message-plane iteration, closed-loop period,
 *      and the wire codec (CRC-32, Metrics encode/decode) —
 *      each tagged with fleet / tiers / processes counters so
 *      BENCH_scalability.json entries stay comparable PR-over-PR.
 *
 *   2. a multi-process deep-tree sweep (--sweep-out=FILE): for each
 *      configuration the bench forks N host processes, each running
 *      an rt::WorkerHost event loop over real loopback UDP sockets,
 *      and measures tree-wide periods/sec and bytes/period while the
 *      whole control tree free-runs flow-controlled by its own
 *      frames. The largest configuration runs >= 10k leaf workers on
 *      one box across depth-3 and depth-4 trees — the ROADMAP's
 *      event-loop scalability claim, measured instead of asserted.
 *
 * After the microbenchmarks run, main() also feeds measured per-child
 * costs into the worker-layout model and prints the §5 claims (rack
 * budgeting ~10 ms; 500-rack room worker < 300 ms; < 0.1 % core
 * overhead).
 *
 * The sweep binds real sockets: it is skipped under CAPMAESTRO_NO_NET=1
 * and only runs when --sweep-out is given (the ctest smoke runs the
 * microbenchmarks only). --sweep-max-leaves=N trims the sweep for
 * quick runs; CAPMAESTRO_BENCH_PORT_BASE overrides the first UDP port
 * (default 22000).
 */

#include <benchmark/benchmark.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "config/loader.hh"
#include "control/allocator.hh"
#include "core/distributed.hh"
#include "core/tree_plan.hh"
#include "core/worker.hh"
#include "device/workload.hh"
#include "net/wire.hh"
#include "rt/host.hh"
#include "sim/capacity.hh"
#include "sim/datacenter.hh"
#include "sim/scenario.hh"
#include "util/json.hh"
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
        messages = stats.metricsMessages + stats.budgetMessages
                   + stats.heartbeatMessages;
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

// ---------------------------------------------------------------------
// Multi-process deep-tree sweep.
// ---------------------------------------------------------------------

/** One configuration of the fork-based host sweep. */
struct SweepConfig
{
    const char *name;
    /** Leaf workers (one rack breaker + one server each). */
    std::size_t leaves;
    /** Fan-out chain below the root; tiers = interior.size() + 2. */
    std::vector<std::size_t> interior;
    /** Host processes forked for this configuration. */
    std::uint32_t processes;
    /** Control periods every host free-runs. */
    std::size_t periods;
};

std::vector<std::uint32_t>
aggLevelsOf(const SweepConfig &cfg)
{
    // Interior nodes sit at heights interior.size()..1 above the edge
    // level; every one of them is an aggregation cut.
    std::vector<std::uint32_t> levels;
    for (std::size_t h = 1; h <= cfg.interior.size(); ++h)
        levels.push_back(static_cast<std::uint32_t>(h));
    return levels;
}

/**
 * Synthetic deep scenario: one feed, one tree, cfg.interior fan-outs
 * below the root, then the leaves split evenly over the bottom row —
 * one rack breaker + one single-supply server per leaf worker. The
 * root budget binds (~2/3 of aggregate capMax) so every period runs a
 * real priority-aware allocation, and the protocol deadlines are left
 * generous: pacing is completeness-driven, so on a lossless loopback
 * they never fire and the measured rate is pure protocol throughput.
 */
config::LoadedScenario
makeDeepScenario(const SweepConfig &cfg)
{
    config::LoadedScenario out;
    out.system = std::make_unique<topo::PowerSystem>(1);

    auto tree = std::make_unique<topo::PowerTree>(0, 0, "F0");
    const auto leaves_d = static_cast<double>(cfg.leaves);
    const auto root = tree->makeRoot(topo::NodeKind::Breaker, "root",
                                     leaves_d * 500.0);
    std::vector<topo::NodeId> frontier{root};
    std::size_t rows = 1;
    for (std::size_t level = 0; level < cfg.interior.size(); ++level) {
        rows *= cfg.interior[level];
        std::vector<topo::NodeId> next;
        const Watts rating =
            leaves_d * 500.0 / static_cast<double>(rows);
        for (const auto parent : frontier) {
            for (std::size_t c = 0; c < cfg.interior[level]; ++c) {
                next.push_back(tree->addChild(
                    parent, topo::NodeKind::Breaker,
                    "i" + std::to_string(level) + "_"
                        + std::to_string(next.size()),
                    rating));
            }
        }
        frontier = std::move(next);
    }
    if (cfg.leaves % frontier.size() != 0) {
        std::fprintf(stderr,
                     "sweep %s: %zu leaves not divisible by %zu rows\n",
                     cfg.name, cfg.leaves, frontier.size());
        std::exit(1);
    }
    const std::size_t per_row = cfg.leaves / frontier.size();
    std::size_t sid = 0;
    for (const auto row : frontier) {
        for (std::size_t r = 0; r < per_row; ++r, ++sid) {
            const auto edge = tree->addChild(
                row, topo::NodeKind::Breaker,
                "rack" + std::to_string(sid), 600.0);
            tree->addSupplyPort(edge, "s" + std::to_string(sid),
                                {static_cast<int>(sid), 0});
        }
    }
    out.system->addTree(std::move(tree));

    out.servers.reserve(cfg.leaves);
    for (std::size_t s = 0; s < cfg.leaves; ++s) {
        sim::ServerSetup setup;
        setup.spec.name = "S" + std::to_string(s);
        setup.spec.idle = 160.0;
        setup.spec.capMin = 270.0;
        setup.spec.capMax = 490.0;
        setup.spec.priority = s % 3 == 0 ? 1 : 0;
        setup.spec.supplies = {{1.0, 0.94}};
        setup.workload = std::make_unique<dev::ConstantWorkload>(
            0.5 + 0.4 * static_cast<double>(s % 7) / 7.0);
        out.servers.push_back(std::move(setup));
    }

    out.service.controlPeriod = 1;
    out.service.policy = policy::PolicyKind::GlobalPriority;
    out.service.enableSpo = false;
    out.service.protocol.gatherDeadlineMs = 10000.0;
    out.service.protocol.budgetDeadlineMs = 10000.0;
    out.rootBudgets = {leaves_d * 330.0};
    out.totalPerPhase = out.rootBudgets[0];
    return out;
}

/**
 * Peer table for the sweep: fixed loopback ports (base + endpoint),
 * leaves chunked contiguously over the processes, every interior
 * worker co-located with its first child — the same layout
 * capmaestro_worker --print-peers-template --processes=K emits.
 */
config::WorkerPeers
makeSweepPeers(const core::TreePlan &plan,
               const std::vector<std::uint32_t> &agg_levels,
               int port_base, std::uint32_t processes)
{
    config::WorkerPeers peers;
    peers.periodMs = 1000.0;
    peers.aggLevels = agg_levels;
    for (std::size_t e = 0; e < plan.workers.size(); ++e) {
        net::UdpPeer peer;
        peer.host = "127.0.0.1";
        peer.port =
            static_cast<std::uint16_t>(port_base + static_cast<int>(e));
        peers.peers[static_cast<net::Transport::Endpoint>(e)] = peer;
    }
    if (processes > 1) {
        const std::size_t racks = plan.leafWorkers;
        for (std::size_t e = 0; e < plan.workers.size(); ++e) {
            const auto ep = static_cast<net::Transport::Endpoint>(e);
            if (e < racks) {
                peers.processOf[ep] =
                    static_cast<std::uint32_t>(e * processes / racks);
            } else {
                const auto first_child =
                    static_cast<net::Transport::Endpoint>(
                        plan.workers[e].children.front());
                peers.processOf[ep] = peers.processOf.count(first_child)
                                          ? peers.processOf[first_child]
                                          : 0;
            }
        }
    }
    return peers;
}

/** What each forked host reports back over its result pipe. */
struct HostResult
{
    std::uint64_t periods = 0;
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    /** Frames and bytes between roles of one host, delivered in
     *  memory (frames + coHostedFrames is every frame exchanged). */
    std::uint64_t coHostedFrames = 0;
    std::uint64_t coHostedBytes = 0;
    std::uint64_t budgetsApplied = 0;
    std::uint64_t defaults = 0;
    std::uint64_t stale = 0;
    std::uint64_t lost = 0;
};

struct SweepRow
{
    const SweepConfig *cfg = nullptr;
    std::size_t workers = 0;
    std::uint32_t tiers = 0;
    double wallMs = 0.0;
    HostResult total;
    bool ok = false;
};

[[noreturn]] void
runSweepChild(const SweepConfig &cfg, config::WorkerPeers peers,
              std::uint32_t process, int ready_fd, int go_fd,
              int result_fd)
{
    auto scenario = makeDeepScenario(cfg);
    rt::WorkerHost host(std::move(scenario), std::move(peers), process,
                        1);
    char byte = 1;
    (void)!::write(ready_fd, &byte, 1);
    // The barrier: the parent closes the go pipe once every host is
    // bound, so no frame is ever sent at an unbound socket.
    (void)!::read(go_fd, &byte, 1);
    host.runPeriods(cfg.periods);

    HostResult r;
    r.periods = host.stats().periodsRun;
    r.frames = host.transport().stats().framesSent;
    r.bytes = host.transport().stats().bytesSent;
    r.coHostedFrames = host.stats().coHostedFrames;
    r.coHostedBytes = host.stats().coHostedBytes;
    r.budgetsApplied = host.stats().budgetsApplied;
    r.defaults = host.stats().defaultBudgets;
    r.stale = host.stats().staleReuses;
    r.lost = host.stats().metricsLost;
    (void)!::write(result_fd, &r, sizeof(r));
    ::_exit(0);
}

SweepRow
runSweepConfig(const SweepConfig &cfg, int port_base)
{
    SweepRow row;
    row.cfg = &cfg;

    const auto agg_levels = aggLevelsOf(cfg);
    auto scenario = makeDeepScenario(cfg);
    const auto plan =
        core::TreePlan::build(*scenario.system, agg_levels);
    row.workers = plan.workers.size();
    row.tiers = plan.tiers();
    const auto peers =
        makeSweepPeers(plan, agg_levels, port_base, cfg.processes);

    int ready[2], go[2];
    if (::pipe(ready) != 0 || ::pipe(go) != 0) {
        std::perror("pipe");
        return row;
    }
    std::vector<pid_t> pids;
    std::vector<int> results;
    std::fflush(stdout);
    std::fflush(stderr);
    for (std::uint32_t p = 0; p < cfg.processes; ++p) {
        int res[2];
        if (::pipe(res) != 0) {
            std::perror("pipe");
            return row;
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::perror("fork");
            return row;
        }
        if (pid == 0) {
            ::close(ready[0]);
            ::close(go[1]);
            ::close(res[0]);
            runSweepChild(cfg, peers, p, ready[1], go[0], res[1]);
        }
        ::close(res[1]);
        pids.push_back(pid);
        results.push_back(res[0]);
    }
    ::close(ready[1]);
    ::close(go[0]);

    // Wait for every host to finish binding (one ready byte each).
    std::size_t got = 0;
    while (got < cfg.processes) {
        char buf[64];
        const ssize_t n = ::read(ready[0], buf, sizeof(buf));
        if (n <= 0)
            break; // a child died before binding
        got += static_cast<std::size_t>(n);
    }
    ::close(ready[0]);

    const auto t0 = std::chrono::steady_clock::now();
    ::close(go[1]); // EOF releases every host at once

    bool all_exited_clean = got == cfg.processes;
    for (const pid_t pid : pids) {
        int status = 0;
        if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)
            || WEXITSTATUS(status) != 0)
            all_exited_clean = false;
    }
    const auto t1 = std::chrono::steady_clock::now();
    row.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    bool results_ok = true;
    for (const int fd : results) {
        HostResult r;
        const ssize_t n = ::read(fd, &r, sizeof(r));
        ::close(fd);
        if (n != static_cast<ssize_t>(sizeof(r))) {
            results_ok = false;
            continue;
        }
        row.total.periods += r.periods;
        row.total.frames += r.frames;
        row.total.bytes += r.bytes;
        row.total.coHostedFrames += r.coHostedFrames;
        row.total.coHostedBytes += r.coHostedBytes;
        row.total.budgetsApplied += r.budgetsApplied;
        row.total.defaults += r.defaults;
        row.total.stale += r.stale;
        row.total.lost += r.lost;
    }
    row.ok = all_exited_clean && results_ok
             && row.total.periods
                    == cfg.periods
                           * static_cast<std::size_t>(cfg.processes);
    return row;
}

// ---------------------------------------------------------------------
// BENCH_scalability.json trajectory.
// ---------------------------------------------------------------------

/** One captured microbenchmark run (name + per-op time + counters). */
struct MicroRun
{
    std::string name;
    double realTime = 0.0;
    std::string timeUnit;
    std::map<std::string, double> counters;
};

/** Console output plus an in-memory capture for the trajectory file. */
class CaptureReporter : public benchmark::ConsoleReporter
{
  public:
    std::vector<MicroRun> runs;

    void ReportRuns(const std::vector<Run> &report) override
    {
        for (const auto &run : report) {
            MicroRun m;
            m.name = run.benchmark_name();
            m.realTime = run.GetAdjustedRealTime();
            m.timeUnit = benchmark::GetTimeUnitString(run.time_unit);
            for (const auto &[key, counter] : run.counters)
                m.counters[key] = counter.value;
            runs.push_back(std::move(m));
        }
        ConsoleReporter::ReportRuns(report);
    }
};

std::string
utcDate()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

/**
 * One-line drift summary against the trajectory's baseline (first)
 * entry: the geometric mean of per-op time ratios over the micro
 * benchmarks both entries share. Printed on every append so a PR's
 * bench run shows its regression (or win) at a glance without diffing
 * the JSON by hand.
 */
void
printBaselineDelta(const util::Json::Array &entries,
                   const std::vector<MicroRun> &micro)
{
    if (entries.empty() || micro.empty())
        return;
    const auto &base = entries.front();
    if (!base.isObject() || base.find("micro") == nullptr)
        return;
    std::map<std::string, double> baseline;
    for (const auto &run : base.at("micro").asArray()) {
        if (run.isObject() && run.find("name") != nullptr
            && run.find("real_time") != nullptr)
            baseline[run.at("name").asString()] =
                run.at("real_time").asNumber();
    }
    double log_sum = 0.0;
    std::size_t shared = 0;
    for (const auto &run : micro) {
        const auto it = baseline.find(run.name);
        if (it == baseline.end() || it->second <= 0.0
            || run.realTime <= 0.0)
            continue;
        log_sum += std::log(run.realTime / it->second);
        ++shared;
    }
    if (shared == 0)
        return;
    const double pct =
        (std::exp(log_sum / static_cast<double>(shared)) - 1.0) * 100.0;
    std::fprintf(stderr,
                 "trajectory: %+.1f%% geomean micro per-op time vs "
                 "baseline %s (%zu shared benchmarks)\n",
                 pct, base.at("date").asString().c_str(), shared);
}

/**
 * Append one entry to the trajectory document at @p path. The file is
 * { "benchmark": "scalability", "entries": [ ... ] }; a missing file
 * (or one in the old raw google-benchmark format, which has no
 * "entries") starts a fresh trajectory.
 */
void
appendTrajectory(const std::string &path,
                 const std::vector<SweepRow> &rows,
                 const std::vector<MicroRun> &micro)
{
    util::Json::Array entries;
    {
        std::ifstream in(path);
        if (in) {
            const std::string text(
                (std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
            if (!text.empty()) {
                const auto doc = util::parseJson(text, path);
                if (doc.isObject() && doc.find("entries") != nullptr
                    && doc.at("entries").isArray())
                    entries = doc.at("entries").asArray();
            }
        }
    }

    util::Json::Object entry;
    entry["date"] = util::Json(utcDate());
    entry["num_cpus"] = util::Json(
        static_cast<double>(std::thread::hardware_concurrency()));

    util::Json::Array sweep;
    for (const auto &row : rows) {
        util::Json::Object o;
        o["name"] = util::Json(std::string(row.cfg->name));
        o["leaves"] = util::Json(static_cast<double>(row.cfg->leaves));
        o["tiers"] = util::Json(static_cast<double>(row.tiers));
        o["processes"] =
            util::Json(static_cast<double>(row.cfg->processes));
        o["workers"] = util::Json(static_cast<double>(row.workers));
        o["periods"] =
            util::Json(static_cast<double>(row.cfg->periods));
        o["ok"] = util::Json(row.ok);
        o["wall_ms"] = util::Json(row.wallMs);
        const double periods = static_cast<double>(row.cfg->periods);
        o["periods_per_sec"] = util::Json(
            row.wallMs > 0.0 ? periods / (row.wallMs / 1000.0) : 0.0);
        o["frames_per_period"] = util::Json(
            static_cast<double>(row.total.frames) / periods);
        o["bytes_per_period"] = util::Json(
            static_cast<double>(row.total.bytes) / periods);
        o["co_hosted_frames_per_period"] = util::Json(
            static_cast<double>(row.total.coHostedFrames) / periods);
        o["co_hosted_bytes_per_period"] = util::Json(
            static_cast<double>(row.total.coHostedBytes) / periods);
        o["budgets_applied"] = util::Json(
            static_cast<double>(row.total.budgetsApplied));
        o["default_budgets"] =
            util::Json(static_cast<double>(row.total.defaults));
        o["stale_reuses"] =
            util::Json(static_cast<double>(row.total.stale));
        o["metrics_lost"] =
            util::Json(static_cast<double>(row.total.lost));
        sweep.push_back(util::Json(std::move(o)));
    }
    entry["sweep"] = util::Json(std::move(sweep));

    util::Json::Array micro_arr;
    for (const auto &run : micro) {
        util::Json::Object o;
        o["name"] = util::Json(run.name);
        o["real_time"] = util::Json(run.realTime);
        o["time_unit"] = util::Json(run.timeUnit);
        for (const auto &[key, value] : run.counters)
            o[key] = util::Json(value);
        micro_arr.push_back(util::Json(std::move(o)));
    }
    entry["micro"] = util::Json(std::move(micro_arr));

    printBaselineDelta(entries, micro);
    entries.push_back(util::Json(std::move(entry)));
    const std::size_t count = entries.size();
    util::Json::Object doc;
    doc["benchmark"] = util::Json(std::string("scalability"));
    doc["entries"] = util::Json(std::move(entries));

    std::ofstream out(path);
    out << util::serializeJson(util::Json(std::move(doc)), 2) << "\n";
    std::fprintf(stderr, "trajectory: appended entry %zu to %s\n",
                 count, path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip our flags before google-benchmark sees the command line.
    std::string sweep_out;
    std::size_t sweep_max_leaves = static_cast<std::size_t>(-1);
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], "--sweep-out=", 12) == 0)
            sweep_out = argv[i] + 12;
        else if (std::strncmp(argv[i], "--sweep-max-leaves=", 19) == 0)
            sweep_max_leaves = static_cast<std::size_t>(
                std::strtoull(argv[i] + 19, nullptr, 10));
        else
            args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());

    CaptureReporter reporter;
    benchmark::Initialize(&bench_argc, args.data());
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    // §5 worker-model summary using conservative measured-scale costs.
    core::WorkerCosts costs;
    costs.gatherPerChildUs = 2.0;
    costs.budgetPerChildUs = 2.0;

    std::printf("\n== §5 worker deployment model ==\n");
    for (std::size_t racks : {162u, 500u, 1000u}) {
        core::DeploymentShape shape;
        shape.racks = racks;
        const auto layout = core::planWorkers(shape, costs);
        std::printf("racks=%4zu rack-workers=%zu room compute=%.1f ms "
                    "rack compute=%.2f ms messages/period=%zu core "
                    "overhead=%.4f%%\n",
                    racks, layout.rackWorkers, layout.roomComputeMs,
                    layout.rackComputeMs, layout.messagesPerPeriod,
                    100.0 * layout.coreOverheadFraction);
    }
    std::printf("Paper claims: room-level worker < 300 ms at 500 racks; "
                "< 0.1%% of cores reserved.\n");

    if (sweep_out.empty())
        return 0;
    if (std::getenv("CAPMAESTRO_NO_NET") != nullptr) {
        std::printf("\nsweep skipped: CAPMAESTRO_NO_NET is set\n");
        return 0;
    }

    const char *base_env = std::getenv("CAPMAESTRO_BENCH_PORT_BASE");
    const int port_base = base_env ? std::atoi(base_env) : 22000;

    // The sweep grid: fleet size x depth x processes. The depth-4
    // 10240-leaf row is the ROADMAP's "10k+ leaves on one box" claim;
    // the two 4096 rows isolate depth at a fixed fleet.
    const std::vector<SweepConfig> grid = {
        {"flat-256x1", 256, {}, 1, 8},
        {"flat-256x4", 256, {}, 4, 8},
        {"depth3-1024x4", 1024, {32}, 4, 6},
        {"depth3-4096x8", 4096, {64}, 8, 4},
        {"depth4-4096x8", 4096, {8, 16}, 8, 4},
        {"depth4-10240x8", 10240, {16, 16}, 8, 4},
    };

    std::printf("\n== multi-process deep-tree sweep (loopback UDP, "
                "ports %d+) ==\n",
                port_base);
    std::vector<SweepRow> rows;
    for (const auto &cfg : grid) {
        if (cfg.leaves > sweep_max_leaves) {
            std::printf("%-16s skipped (--sweep-max-leaves)\n",
                        cfg.name);
            continue;
        }
        const auto row = runSweepConfig(cfg, port_base);
        std::printf("%-16s leaves=%6zu tiers=%u procs=%u workers=%zu "
                    "wall=%8.1f ms  periods/s=%7.2f  bytes/period=%9.0f "
                    "defaults=%zu stale=%zu%s\n",
                    cfg.name, cfg.leaves, row.tiers, cfg.processes,
                    row.workers, row.wallMs,
                    row.wallMs > 0.0
                        ? static_cast<double>(cfg.periods)
                              / (row.wallMs / 1000.0)
                        : 0.0,
                    static_cast<double>(row.total.bytes)
                        / static_cast<double>(cfg.periods),
                    static_cast<std::size_t>(row.total.defaults),
                    static_cast<std::size_t>(row.total.stale),
                    row.ok ? "" : "  [FAILED]");
        rows.push_back(row);
        std::fflush(stdout);
    }

    appendTrajectory(sweep_out, rows, reporter.runs);

    for (const auto &row : rows) {
        if (!row.ok)
            return 1;
    }
    return 0;
}
