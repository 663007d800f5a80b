/**
 * @file
 * feedfail-sim: ClosedLoopSim on the Table 4 center (one phase, 15
 * servers per rack per phase: 2,430 dual-supply servers at utilisation
 * 0.95, 10 % supply mismatch) with the control exchange over a
 * SimTransport that drops 2 % of frames, SPO on, and feed 1 failing
 * mid-run. It is the one workload with SPO, the retry ladder and a real
 * overload to clear.
 *
 * The run repeats one fixed episode — construct, warm up, then a
 * measured stretch with the feed failure in it — until --seconds have
 * passed. The episode is deterministic for a seed, so frame counts,
 * control quality and memory repeat exactly; every repetition adds
 * timing samples. A period is the eight one-second ticks from a
 * control-period boundary on, each timed around ClosedLoopSim::run(1).
 * The reference kernel runs after every kScaleBlock periods, between
 * ticks and outside every timed span.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"
#include "config/loader.hh"
#include "replay.hh"
#include "rt/plant.hh"
#include "scenarios.hh"
#include "telemetry/trace.hh"

namespace perfbench {

using namespace capmaestro;

namespace {

constexpr int kPerPhase = 15;
constexpr double kUtilisation = 0.95;
/** The server mix (priorities, supply mismatch) is drawn once from this
 *  seed, one on which SPO runs until the feed fails; --seed draws the
 *  sensor noise and the frame-loss pattern. Whether SPO runs at all
 *  depends on the mix, and it changes the frames per period by a fifth,
 *  so a mix drawn per seed would make every count seed-dependent. */
constexpr std::uint64_t kCenterSeed = 2;
constexpr double kDropRate = 0.02;
/** Episode schedule, simulated seconds: 5 warm-up periods, then 20
 *  measured ones with feed 1 failing inside the 13th. */
constexpr Seconds kWarmupEnd = 40;
constexpr Seconds kFailAt = 100;
constexpr Seconds kEpisodeEnd = 200;
constexpr int kFailedFeed = 1;
/** Constructions timed before the first episode, so setup_s is a
 *  median of at least three even when one episode fills the window. */
constexpr std::size_t kExtraSetups = 2;
constexpr std::size_t kPlantReplayPeriods = 5;

config::LoadedScenario
simScenario(std::uint64_t seed)
{
    auto scenario = table4Scenario(kCenterSeed, table4Params(1, kPerPhase),
                                   kUtilisation);
    scenario.service.enableSpo = true;
    scenario.service.useMessagePlane = true;
    scenario.service.transportBackend =
        core::ServiceConfig::TransportBackend::Sim;
    scenario.service.transport.dropRate = kDropRate;
    scenario.service.transport.seed = seed;
    // Virtual time: the retry ladder runs on the stock §4.5 deadlines.
    scenario.service.protocol = net::ProtocolConfig{};
    return scenario;
}

/** Sums over every measured period of every episode. */
struct SimWindow
{
    std::vector<double> setupMs;
    std::vector<double> periodMs;
    /** Ticks without / with a control period, microseconds. */
    std::vector<double> plainTickUs;
    std::vector<double> boundaryTickUs;
    /** Reference-kernel time after each block of periods, and the CPU
     *  time of the runs inside episodes (taken out of cpuUs). */
    std::vector<double> kernelMs;
    double kernelCpuUs = 0.0;
    double cpuUs = 0.0;
    double sysUs = 0.0;
    std::size_t periods = 0;
    std::size_t episodes = 0;
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    std::uint64_t episodeFrames = 0;
    std::uint64_t attempted = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t retries = 0;
    std::uint64_t stale = 0;
    std::uint64_t defaults = 0;
    std::uint64_t spoAttempted = 0;
    std::uint64_t spoCommitted = 0;
    double overloadBreakerS = 0.0;
    double overloadClearS = 0.0;
    /** Span sums over the traced periods, microseconds. */
    std::map<std::string, double> spanUs;
    std::size_t tracedPeriods = 0;
    std::vector<std::string> violations;
};

void
violate(SimWindow &w, const std::string &what)
{
    if (std::find(w.violations.begin(), w.violations.end(), what)
        == w.violations.end())
        w.violations.push_back(what);
}

/** Gate and account one control period just run. */
void
checkPeriod(sim::ClosedLoopSim &sim, Watts contract, std::size_t edges,
            SimWindow &w)
{
    const core::PeriodStats &st = sim.service().lastStats();
    if (!st.allocation.feasible)
        violate(w, "infeasible allocation");
    const auto &roots = sim.service().rootBudgets();
    for (std::size_t t = 0; t < st.budgetByTree.size(); ++t) {
        if (!(st.budgetByTree[t] <= roots[t] + 1e-6)
            || !(st.budgetByTree[t] <= contract + 1e-6))
            violate(w, "tree budget above the contractual budget");
    }
    const core::MessageStats &msg = st.messages;
    w.attempted += edges;
    w.fallbacks += msg.defaultBudgets + msg.staleReuses + msg.metricsLost;
    w.retries += msg.retries + msg.spoRetries;
    w.stale += msg.staleReuses;
    w.defaults += msg.defaultBudgets;
    w.spoAttempted += msg.spoTreesAttempted;
    w.spoCommitted += msg.spoCommittedTrees;
}

/** Breaker-seconds above the derated limit in the measured stretch,
 *  and the time from the feed failure to the last such second. */
void
overloadFrom(sim::ClosedLoopSim &sim, SimWindow &w)
{
    double breaker_s = 0.0;
    Seconds last_over = -1;
    const auto &system = sim.system();
    for (std::size_t t = 0; t < system.trees().size(); ++t) {
        const auto &tree = system.tree(t);
        tree.forEach([&](const topo::TopoNode &n) {
            if (n.kind == topo::NodeKind::SupplyPort
                || n.rating == topo::kUnlimited)
                return;
            const auto &series = sim.recorder().series(
                tree.name() + "." + n.name + ".power");
            for (const auto &p : series) {
                if (p.time < kWarmupEnd || p.value <= n.limit())
                    continue;
                breaker_s += 1.0;
                if (p.time >= kFailAt)
                    last_over = std::max(last_over, p.time);
            }
        });
    }
    w.overloadBreakerS = breaker_s;
    w.overloadClearS =
        last_over >= kFailAt ? static_cast<double>(last_over + 1 - kFailAt)
                             : 0.0;
}

void
runEpisode(std::uint64_t seed, bool traced, SimWindow &w)
{
    const auto params = table4Params(1, kPerPhase);
    const std::size_t edges =
        static_cast<std::size_t>(params.racks() * params.feeds);

    const double t0 = monoMs();
    auto sim = config::makeSimulation(simScenario(seed), seed);
    w.setupMs.push_back(monoMs() - t0);

    telemetry::PeriodTracer tracer;
    if (traced)
        sim.enableTelemetry(nullptr, &tracer);
    sim.failFeedAt(kFailAt, kFailedFeed, params.usableBudgetPerPhase());
    sim.run(kWarmupEnd);

    const Seconds period = sim.service().config().controlPeriod;
    const net::TransportStats f0 = sim.service().transport()->stats();
    const CpuSample c0 = cpuNow();
    double period_start = monoMs();
    for (Seconds t = kWarmupEnd; t < kEpisodeEnd; ++t) {
        const bool boundary = t % period == 0;
        const double a = monoMs();
        sim.run(1);
        const double b = monoMs();
        if (boundary) {
            period_start = a;
            w.boundaryTickUs.push_back((b - a) * 1000.0);
            checkPeriod(sim, params.usableBudgetPerPhase(), edges, w);
        } else {
            w.plainTickUs.push_back((b - a) * 1000.0);
        }
        if ((t + 1) % period == 0) {
            w.periodMs.push_back(b - period_start);
            ++w.periods;
            if (w.periods % kScaleBlock == 0)
                w.kernelMs.push_back(referenceKernelMs(w.kernelCpuUs));
        }
    }
    const CpuSample c1 = cpuNow();
    const net::TransportStats &f1 = sim.service().transport()->stats();
    w.cpuUs += (c1.userUs + c1.sysUs) - (c0.userUs + c0.sysUs);
    w.sysUs += c1.sysUs - c0.sysUs;
    const std::uint64_t frames = f1.framesSent - f0.framesSent;
    if (w.episodes > 0 && frames != w.episodeFrames)
        violate(w, "episodes of one seed sent different frame counts");
    w.episodeFrames = frames;
    w.frames += frames;
    w.bytes += f1.bytesSent - f0.bytesSent;
    ++w.episodes;

    if (sim.anyBreakerTripped())
        violate(w, "a breaker tripped");
    overloadFrom(sim, w);

    if (traced) {
        for (const auto &trace : tracer.periods()) {
            if (trace.simTime < static_cast<double>(kWarmupEnd))
                continue;
            ++w.tracedPeriods;
            for (const auto &span : trace.spans) {
                if (span.endUs >= span.beginUs)
                    w.spanUs[span.name] += span.endUs - span.beginUs;
            }
        }
    }
}

SimWindow
measure(std::uint64_t seed, bool traced, double seconds)
{
    SimWindow w;
    for (std::size_t i = 0; i < kExtraSetups; ++i) {
        const double t0 = monoMs();
        const auto sim = config::makeSimulation(simScenario(seed), seed);
        w.setupMs.push_back(monoMs() - t0);
    }
    const double start = monoMs();
    do {
        runEpisode(seed, traced, w);
    } while (monoMs() - start < seconds * 1000.0);
    if (w.periods % kScaleBlock != 0) {
        double outside_cpu_us = 0.0;
        w.kernelMs.push_back(referenceKernelMs(outside_cpu_us));
    }
    return w;
}

double
meanKernelMs(const SimWindow &w)
{
    double sum = 0.0;
    for (const double k : w.kernelMs)
        sum += k;
    return sum / static_cast<double>(w.kernelMs.size());
}

Metrics
endToEnd(const SimWindow &w, double servers, double peak_rss_kb)
{
    Metrics m;
    const auto n = static_cast<double>(w.periods);
    const auto scaled = atReferenceSpeed(w.periodMs, w.kernelMs, false);
    double scaled_sum = 0.0;
    for (const double t : scaled)
        scaled_sum += t;
    const double kernel_ms = meanKernelMs(w);
    const double cpu_us = (w.cpuUs - w.kernelCpuUs) * kRefKernelMs / kernel_ms;
    put(m, "period_p50_ms", median(scaled), "ms");
    put(m, "period_p90_ms", nearestRank(scaled, 0.9), "ms");
    put(m, "periods_per_s",
        static_cast<double>(scaled.size()) / (scaled_sum / 1000.0), "1/s");
    put(m, "cpu_us_per_server_period", cpu_us / (servers * n), "us");
    put(m, "frames_per_period", static_cast<double>(w.frames) / n, "count");
    put(m, "bytes_per_period", static_cast<double>(w.bytes) / n, "B");
    put(m, "setup_s", median(w.setupMs) / 1000.0 * kRefKernelMs / kernel_ms,
        "s");
    put(m, "peak_rss_mb", peak_rss_kb / 1024.0, "MB");
    return m;
}

double
spanPerPeriod(const SimWindow &w, const char *name)
{
    const auto it = w.spanUs.find(name);
    return it == w.spanUs.end() || w.tracedPeriods == 0
               ? 0.0
               : it->second / static_cast<double>(w.tracedPeriods);
}

} // namespace

RunResult
runFeedfailSim(const Options &opts)
{
    const auto params = table4Params(1, kPerPhase);
    const double servers = static_cast<double>(
        params.racks() * params.phases * params.serversPerRackPerPhase);

    RunResult r;
    const double untraced_s = opts.trace ? opts.seconds / 2.0 : opts.seconds;
    const SimWindow plain = measure(opts.seed, false, untraced_s);
    r.e2e = endToEnd(plain, servers, cpuNow().maxRssKb);
    r.attempted = plain.attempted;
    r.fallbacks = plain.fallbacks;
    r.violations = plain.violations;

    SimWindow traced;
    const SimWindow *layer_window = &plain;
    if (opts.trace) {
        traced = measure(opts.seed, true, opts.seconds / 2.0);
        r.tracedE2e = endToEnd(traced, servers, cpuNow().maxRssKb);
        for (const auto &v : traced.violations)
            r.violations.push_back("traced: " + v);
        layer_window = &traced;
    }
    const SimWindow &w = *layer_window;
    const double n = static_cast<double>(w.periods);

    put(r.layers, "wall.period_p50_ms", median(plain.periodMs), "ms");
    put(r.layers, "wall.period_p90_ms", nearestRank(plain.periodMs, 0.9),
        "ms");
    put(r.layers, "host.ref_kernel_ms", meanKernelMs(plain), "ms");
    const double tick_us = median(w.plainTickUs);
    put(r.layers, "sim.tick_us", tick_us, "us");
    put(r.layers, "core.period_us", median(w.boundaryTickUs) - tick_us, "us");
    put(r.layers, "control.close_us", spanPerPeriod(w, "close"), "us");
    put(r.layers, "core.gather_us", spanPerPeriod(w, "gather"), "us");
    put(r.layers, "core.budget_us", spanPerPeriod(w, "budget"), "us");
    // The message plane's SPO round records its two phases as spans of
    // their own; the direct plane records one "spo" span.
    put(r.layers, "core.spo_us",
        spanPerPeriod(w, "spo") + spanPerPeriod(w, "spo.gather")
            + spanPerPeriod(w, "spo.budget"),
        "us");
    put(r.layers, "control.apply_us", spanPerPeriod(w, "apply"), "us");
    put(r.layers, "net.retries_per_period",
        static_cast<double>(w.retries) / n, "count");
    put(r.layers, "core.stale_reuses", static_cast<double>(w.stale), "count");
    put(r.layers, "core.default_budgets", static_cast<double>(w.defaults),
        "count");
    put(r.layers, "core.spo_commit_ratio",
        w.spoAttempted ? static_cast<double>(w.spoCommitted)
                             / static_cast<double>(w.spoAttempted)
                       : 1.0,
        "ratio");
    put(r.layers, "fallback_ratio",
        static_cast<double>(w.fallbacks) / static_cast<double>(w.attempted),
        "ratio");
    put(r.layers, "overload_breaker_s", w.overloadBreakerS, "s");
    put(r.layers, "overload_clear_s", w.overloadClearS, "s");
    put(r.layers, "host.sys_share",
        w.cpuUs > w.kernelCpuUs ? w.sysUs / (w.cpuUs - w.kernelCpuUs) : 0.0,
        "ratio");
    if (opts.trace) {
        // The plant step the sim runs every tick, replayed through rt's
        // plant helpers on every rack of the same center.
        auto scenario = simScenario(opts.seed);
        const auto floors =
            rt::nominalEdgeFloors(*scenario.system, scenario);
        std::vector<std::size_t> racks(
            static_cast<std::size_t>(params.racks()));
        for (std::size_t i = 0; i < racks.size(); ++i)
            racks[i] = i;
        put(r.layers, "device.plant_us",
            replayPlants(std::move(scenario), racks, floors, opts.seed,
                         kPlantReplayPeriods),
            "us");
    }

    char line[200];
    std::snprintf(line, sizeof(line),
                  "feedfail-sim: %zu episodes, %zu periods; feed %d fails at "
                  "t=%lld s; %.0f breaker-s over limit, cleared %.0f s after",
                  w.episodes, w.periods, kFailedFeed,
                  static_cast<long long>(kFailAt), w.overloadBreakerS,
                  w.overloadClearS);
    r.notes.push_back(line);
    return r;
}

} // namespace perfbench
