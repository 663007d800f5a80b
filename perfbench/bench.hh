/**
 * @file
 * Shared declarations of the control-plane benchmark binary
 * (perfbench_plane): run options, the result every workload returns,
 * and the clock, statistics and rusage helpers the workloads share.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measurement window in seconds; a traced run splits it between
     *  an untraced and a traced half. */
    double seconds = 10.0;
    /** Report per-layer metrics and the tracing cost. */
    bool trace = false;
};

/** A measured value and its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** Everything one workload measured. */
struct RunResult
{
    /** Leaf budgets due in the measured window. */
    std::uint64_t attempted = 0;
    /** Due budgets that fell back (default budget, stale or lost
     *  metrics) instead of arriving. */
    std::uint64_t fallbacks = 0;
    /** Correctness-gate failures; empty when every check passed. */
    std::vector<std::string> violations;
    /** End-to-end metrics, measured with tracing off. */
    Metrics e2e;
    /** The same end-to-end metrics, measured with tracing on (traced
     *  runs only); their difference to e2e is the tracing cost. */
    Metrics tracedE2e;
    /** Per-layer metrics of the traced measurement (traced runs). */
    Metrics layers;
    /** Host processes the workload ran (1 for the in-process sim). */
    std::uint32_t hostProcesses = 1;
    /** Human-readable lines printed ahead of the result. */
    std::vector<std::string> notes;
};

/** CLOCK_MONOTONIC in milliseconds; comparable across processes. */
double monoMs();

/** CLOCK_MONOTONIC when main() started (the run's start). */
double startMs();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank quantile of @p v for @p q in (0, 1] (0 when empty). */
double nearestRank(std::vector<double> v, double q);

/** CPU time and peak resident set of the calling process so far. */
struct CpuSample
{
    double userUs = 0.0;
    double sysUs = 0.0;
    double maxRssKb = 0.0;
};

CpuSample cpuNow();

/** Processors this process may run on (the nproc figure). */
std::uint32_t usableCpus();

/** Reference-speed scaling. On a shared VM, CPUs change speed by up to
 *  half for seconds to minutes at a time, with other tenants' load, and
 *  every window timing moves with them. So each run times a fixed reference
 *  kernel next to its periods, on the same CPUs, and reports its window
 *  timings scaled by kRefKernelMs / kernel time: milliseconds on a CPU
 *  that runs the kernel in kRefKernelMs. */
constexpr double kRefKernelMs = 5.0;
/** Periods per scaling block: the kernel runs once after every block,
 *  and the block's periods are scaled by that run. */
constexpr std::size_t kScaleBlock = 8;

/** Run the reference kernel once (sorting 65,536 fixed pseudo-random
 *  integers); returns its wall time in ms and adds its CPU time to
 *  @p cpu_us. */
double referenceKernelMs(double &cpu_us);

/** Scale period @p times to reference speed: period i lies in block
 *  i / kScaleBlock and is multiplied by kRefKernelMs / kernel_ms[block].
 *  With @p skip_after_kernel the first period of every block but the
 *  first is left out, because the kernel run before it skews it. */
std::vector<double> atReferenceSpeed(const std::vector<double> &times,
                                     const std::vector<double> &kernel_ms,
                                     bool skip_after_kernel);

/** Shorthand for filling a metric map. */
inline void
put(Metrics &m, const std::string &name, double value, const char *unit)
{
    m[name] = Metric{value, unit};
}

RunResult runDeep10k(const Options &opts);
RunResult runTable4Room(const Options &opts);
RunResult runFeedfailSim(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
