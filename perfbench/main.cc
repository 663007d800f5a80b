/**
 * @file
 * perfbench_plane: runs one workload of the control-plane benchmark and
 * prints, as its last line, "RESULT " plus a JSON object with every
 * measured metric, the correctness gate's verdict and the counts of
 * due and fallen-back budgets. run.py builds this binary, runs it, and
 * turns that line into the benchmark's result.
 *
 *   perfbench_plane --workload deep-10k|table4-room|feedfail-sim
 *                   --seed N --seconds S --trace 0|1
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "bench.hh"

namespace perfbench {

namespace {

double g_startMs = 0.0;

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonMetrics(const Metrics &metrics, RunResult &r)
{
    std::string out = "{";
    for (const auto &[name, metric] : metrics) {
        double value = metric.value;
        if (!std::isfinite(value)) {
            r.violations.push_back("metric " + name + " is not finite");
            value = 0.0;
        }
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", value);
        if (out.size() > 1)
            out += ", ";
        out += jsonString(name) + ": {\"value\": " + num
               + ", \"unit\": " + jsonString(metric.unit) + "}";
    }
    return out + "}";
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_plane: %s\nusage: perfbench_plane --workload "
                 "deep-10k|table4-room|feedfail-sim --seed N --seconds S "
                 "--trace 0|1\n",
                 why);
    std::exit(2);
}

} // namespace

double
monoMs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3
           + static_cast<double>(ts.tv_nsec) / 1e6;
}

double
startMs()
{
    return g_startMs;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double
nearestRank(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

CpuSample
cpuNow()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    CpuSample s;
    s.userUs = static_cast<double>(ru.ru_utime.tv_sec) * 1e6
               + static_cast<double>(ru.ru_utime.tv_usec);
    s.sysUs = static_cast<double>(ru.ru_stime.tv_sec) * 1e6
              + static_cast<double>(ru.ru_stime.tv_usec);
    s.maxRssKb = static_cast<double>(ru.ru_maxrss);
    return s;
}

double
referenceKernelMs(double &cpu_us)
{
    static std::vector<std::uint32_t> data(1u << 16);
    static volatile std::uint32_t sink = 0;
    timespec c0{}, c1{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &c0);
    const double t0 = monoMs();
    std::uint32_t x = 12345;
    for (auto &d : data) {
        x = x * 1664525u + 1013904223u;
        d = x;
    }
    std::sort(data.begin(), data.end());
    sink = data[data.size() / 2];
    const double t1 = monoMs();
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &c1);
    cpu_us += static_cast<double>(c1.tv_sec - c0.tv_sec) * 1e6
              + static_cast<double>(c1.tv_nsec - c0.tv_nsec) / 1e3;
    return t1 - t0;
}

std::vector<double>
atReferenceSpeed(const std::vector<double> &times,
                 const std::vector<double> &kernel_ms, bool skip_after_kernel)
{
    std::vector<double> out;
    out.reserve(times.size());
    for (std::size_t i = 0; i < times.size(); ++i) {
        const std::size_t block = i / kScaleBlock;
        if (block >= kernel_ms.size() || !(kernel_ms[block] > 0.0))
            break;
        if (skip_after_kernel && block > 0 && i % kScaleBlock == 0)
            continue;
        out.push_back(times[i] * kRefKernelMs / kernel_ms[block]);
    }
    return out;
}

std::uint32_t
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&set)));
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    g_startMs = monoMs();

    Options opts;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value, &end, 10);
            have_seed = end != value && *end == '\0';
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value, &end);
            have_seconds = end != value && *end == '\0'
                           && opts.seconds > 0.0 && opts.seconds <= 600.0;
        } else if (flag == "--trace") {
            have_trace = std::strcmp(value, "0") == 0
                         || std::strcmp(value, "1") == 0;
            opts.trace = std::strcmp(value, "1") == 0;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds (0 < S <= 600) and --trace 0|1 are "
              "required");

    RunResult r;
    if (opts.workload == "deep-10k")
        r = runDeep10k(opts);
    else if (opts.workload == "table4-room")
        r = runTable4Room(opts);
    else if (opts.workload == "feedfail-sim")
        r = runFeedfailSim(opts);
    else
        usage(("unknown workload '" + opts.workload + "'").c_str());

    for (const auto &note : r.notes)
        std::printf("%s\n", note.c_str());
    for (const auto &v : r.violations)
        std::printf("correctness gate: %s\n", v.c_str());

    const std::string e2e = jsonMetrics(r.e2e, r);
    const std::string traced = jsonMetrics(r.tracedE2e, r);
    const std::string layers = jsonMetrics(r.layers, r);
    std::string violations = "[";
    for (const auto &v : r.violations)
        violations += (violations.size() > 1 ? ", " : "") + jsonString(v);
    violations += "]";
    std::printf("RESULT {\"workload\": %s, \"host_processes\": %u, "
                "\"attempted\": %llu, \"fallbacks\": %llu, "
                "\"violations\": %s, \"e2e\": %s, \"traced_e2e\": %s, "
                "\"layers\": %s}\n",
                jsonString(opts.workload).c_str(), r.hostProcesses,
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.fallbacks),
                violations.c_str(), e2e.c_str(), traced.c_str(),
                layers.c_str());
    return 0;
}
