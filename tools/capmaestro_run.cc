/**
 * @file
 * capmaestro_run — run a CapMaestro scenario from a JSON config.
 *
 * Usage:
 *   capmaestro_run <config.json> [options]
 *
 * Options:
 *   --duration=SECONDS    simulated time to run (default 200)
 *   --fail-feed=F@T       fail feed F at simulated time T seconds
 *   --fail-supply=S.P@T   fail supply P of server S at time T
 *   --csv                 dump all recorded time series as CSV to stdout
 *   --seed=N              sensor-noise seed (default 1)
 *   --transport=JSON      run the control exchange over the message
 *                         plane; JSON is a transport block, e.g.
 *                         '{"dropRate":0.2,"latencyMs":5}'. A bare
 *                         backend name is shorthand: --transport=udp
 *                         runs every worker in-process over real
 *                         127.0.0.1 UDP sockets (wall-clock paced)
 *   --drop-rate=P         shorthand: message plane with drop rate P
 *   --latency-ms=MS       shorthand: message plane with mean latency MS
 *   --telemetry-out=DIR   enable telemetry and write DIR/metrics.prom
 *                         (Prometheus text format 0.0.4),
 *                         DIR/metrics.jsonl, DIR/trace.jsonl (one line
 *                         per control period), and DIR/events.jsonl
 *   --workload=SPEC       attach the job/tenant traffic layer
 *                         (docs/workload.md). SPEC is a workload JSON
 *                         block, a bare placement-policy name as
 *                         shorthand (--workload=loadBalanced), or
 *                         "off" to ignore the config's workload block
 *
 * Without --csv the tool prints a per-server summary (budget, power,
 * throughput over the final quarter of the run) plus breaker status;
 * in message-plane mode it adds message accounting and the §4.5
 * degraded-mode decisions from the event log; with a workload layer it
 * adds per-priority-class SLO attainment and slowdown percentiles.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "config/loader.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "workload/engine.hh"

using namespace capmaestro;

namespace {

const char *
flagValue(int argc, char **argv, const char *name)
{
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 2; i < argc; ++i) {
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
            return argv[i] + prefix.size();
    }
    return nullptr;
}

bool
hasFlag(int argc, char **argv, const char *name)
{
    const std::string flag = std::string("--") + name;
    for (int i = 2; i < argc; ++i) {
        if (flag == argv[i])
            return true;
    }
    return false;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: capmaestro_run <config.json> [--duration=N] "
                 "[--fail-feed=F@T]\n"
                 "                      [--fail-supply=S.P@T] [--csv] "
                 "[--seed=N]\n"
                 "                      [--transport=JSON] "
                 "[--drop-rate=P] [--latency-ms=MS]\n"
                 "                      [--telemetry-out=DIR] "
                 "[--workload=SPEC]\n");
    std::exit(2);
}

std::ofstream
openOutput(const std::filesystem::path &path)
{
    std::ofstream os(path);
    if (!os)
        util::fatal("cannot write %s", path.string().c_str());
    return os;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argv[1][0] == '-')
        usage();

    auto scenario = config::loadScenarioFile(argv[1]);

    // Transport overrides: a full JSON block, a bare backend name
    // (--transport=udp runs the whole tree over 127.0.0.1 sockets), or
    // the shorthands that enable the plane with a single fault knob.
    if (const char *spec = flagValue(argc, argv, "transport")) {
        const std::string text =
            spec[0] == '{' ? spec
                           : "{\"backend\":\"" + std::string(spec) + "\"}";
        config::applyTransportJson(scenario.service,
                                   util::parseJson(text));
    }
    if (const char *rate = flagValue(argc, argv, "drop-rate")) {
        const double p = std::atof(rate);
        if (p < 0.0 || p >= 1.0)
            util::fatal("--drop-rate=%s: must be in [0, 1)", rate);
        scenario.service.useMessagePlane = true;
        scenario.service.transport.dropRate = p;
    }
    if (const char *lat = flagValue(argc, argv, "latency-ms")) {
        const double ms = std::atof(lat);
        if (ms < 0.0)
            util::fatal("--latency-ms=%s: must be >= 0", lat);
        scenario.service.useMessagePlane = true;
        scenario.service.transport.latencyMeanMs = ms;
    }
    // Workload override: a full workload JSON block, a bare placement
    // policy name, or "off" to drop the config's block.
    if (const char *spec = flagValue(argc, argv, "workload")) {
        if (std::strcmp(spec, "off") == 0) {
            scenario.workload.reset();
        } else {
            const std::string text =
                spec[0] == '{'
                    ? spec
                    : "{\"placement\":\"" + std::string(spec) + "\"}";
            scenario.workload =
                config::workloadParamsFromJson(util::parseJson(text));
        }
    }

    const bool message_plane = scenario.service.useMessagePlane;

    const auto server_count = scenario.servers.size();
    const auto total_per_phase = scenario.totalPerPhase;

    const char *duration_arg = flagValue(argc, argv, "duration");
    const Seconds duration =
        duration_arg ? std::atoll(duration_arg) : 200;
    const char *seed_arg = flagValue(argc, argv, "seed");
    const std::uint64_t seed =
        seed_arg ? std::strtoull(seed_arg, nullptr, 10) : 1;

    auto simulation = config::makeSimulation(std::move(scenario), seed);

    if (const char *spec = flagValue(argc, argv, "fail-feed")) {
        int feed = 0;
        long long when = 0;
        if (std::sscanf(spec, "%d@%lld", &feed, &when) != 2)
            usage();
        simulation.failFeedAt(when, feed,
                              total_per_phase.value_or(0.0));
    }
    if (const char *spec = flagValue(argc, argv, "fail-supply")) {
        int server = 0, supply = 0;
        long long when = 0;
        if (std::sscanf(spec, "%d.%d@%lld", &server, &supply, &when)
            != 3) {
            usage();
        }
        simulation.failSupplyAt(when,
                                static_cast<std::size_t>(server),
                                static_cast<std::size_t>(supply));
    }

    auto *engine = dynamic_cast<workload::WorkloadEngine *>(
        simulation.traffic());

    telemetry::Registry registry;
    telemetry::PeriodTracer tracer;
    const char *telemetry_dir = flagValue(argc, argv, "telemetry-out");
    if (telemetry_dir != nullptr) {
        simulation.enableTelemetry(&registry, &tracer);
        if (engine != nullptr)
            engine->bindTelemetry(&registry);
    }

    simulation.run(duration);

    if (telemetry_dir != nullptr) {
        const std::filesystem::path dir(telemetry_dir);
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec)
            util::fatal("cannot create %s: %s", telemetry_dir,
                        ec.message().c_str());
        openOutput(dir / "metrics.prom") << registry.renderPrometheus();
        auto metrics_jsonl = openOutput(dir / "metrics.jsonl");
        registry.writeJsonl(metrics_jsonl);
        auto trace_jsonl = openOutput(dir / "trace.jsonl");
        tracer.writeJsonl(trace_jsonl);
        auto events_jsonl = openOutput(dir / "events.jsonl");
        simulation.eventLog().printJsonl(events_jsonl);
        std::fprintf(stderr,
                     "telemetry: wrote metrics.prom, metrics.jsonl, "
                     "trace.jsonl (%zu periods), events.jsonl to %s\n",
                     tracer.periods().size(), telemetry_dir);
    }

    if (hasFlag(argc, argv, "csv")) {
        simulation.recorder().printCsv(std::cout);
        return 0;
    }

    const Seconds tail_from = duration - std::max<Seconds>(duration / 4,
                                                           1);
    util::TextTable table("capmaestro_run summary (tail of the run)");
    table.setHeader({"server", "priority", "demand est (W)",
                     "budget (W)", "power (W)", "throughput"});
    const auto &rec = simulation.recorder();
    for (std::size_t i = 0; i < server_count; ++i) {
        double budget = 0.0;
        for (std::size_t s = 0;
             s < simulation.server(i).supplyCount(); ++s) {
            budget += rec.mean(
                sim::ClosedLoopSim::supplySeries(i, s, "budget"),
                tail_from, duration);
        }
        const auto &report =
            simulation.service().controller(i).lastReport();
        table.addRow(
            {simulation.server(i).spec().name,
             std::to_string(simulation.server(i).spec().priority),
             util::formatFixed(report.demandEstimate, 0),
             util::formatFixed(budget, 0),
             util::formatFixed(
                 rec.mean(sim::ClosedLoopSim::serverSeries(i, "power"),
                          tail_from, duration),
                 0),
             util::formatFixed(
                 rec.mean(
                     sim::ClosedLoopSim::serverSeries(i, "throughput"),
                     tail_from, duration),
                 2)});
    }
    table.print(std::cout);
    std::printf("\nsimulated %lld s; control periods run: %zu; breakers "
                "tripped: %s\n",
                static_cast<long long>(duration),
                simulation.service().lastStats().periodsRun,
                simulation.anyBreakerTripped() ? "YES" : "no");
    if (message_plane) {
        const auto &msgs = simulation.service().lastStats().messages;
        const auto &log = simulation.eventLog();
        std::printf(
            "\nmessage plane (last period): %zu metrics + %zu budget "
            "msgs, %zu retries, %zu bytes on wire\n"
            "spo round (last period): %zu summary + %zu budget msgs, "
            "%zu retries, %zu/%zu trees committed, %zu bytes on wire\n"
            "degraded decisions over the run: %zu stale-metrics, "
            "%zu metrics-lost, %zu default-budget, %zu spo-fallback\n",
            msgs.metricsMessages, msgs.budgetMessages, msgs.retries,
            msgs.bytesOnWire,
            msgs.spoSummaryMessages, msgs.spoBudgetMessages,
            msgs.spoRetries, msgs.spoCommittedTrees,
            msgs.spoTreesAttempted, msgs.spoBytesOnWire,
            log.count(core::EventKind::StaleMetricsReused),
            log.count(core::EventKind::MetricsLost),
            log.count(core::EventKind::DefaultBudgetApplied),
            log.count(core::EventKind::SpoFallback));
    }
    if (engine != nullptr) {
        const auto report = engine->report(duration);
        util::TextTable slo("workload SLO summary");
        slo.setHeader({"priority", "arrived", "completed", "dropped",
                       "SLO met", "p50 slowdown", "p99 slowdown",
                       "jobs/s"});
        for (const auto &cls : report.classes) {
            const double attainment =
                cls.completed > 0
                    ? static_cast<double>(cls.sloMet)
                          / static_cast<double>(cls.completed)
                    : 0.0;
            slo.addRow({std::to_string(cls.priority),
                        std::to_string(cls.arrived),
                        std::to_string(cls.completed),
                        std::to_string(cls.dropped),
                        util::formatFixed(100.0 * attainment, 1) + "%",
                        util::formatFixed(cls.p50Slowdown, 2),
                        util::formatFixed(cls.p99Slowdown, 2),
                        util::formatFixed(cls.throughput, 3)});
        }
        std::printf("\n");
        slo.print(std::cout);
        std::printf("workload: %llu arrived, %llu completed, %llu "
                    "dropped, %zu queued, %zu running; priority "
                    "inversions in %llu/%llu control periods\n",
                    static_cast<unsigned long long>(report.arrived),
                    static_cast<unsigned long long>(report.completed),
                    static_cast<unsigned long long>(report.dropped),
                    engine->queuedJobs(), engine->runningJobs(),
                    static_cast<unsigned long long>(
                        report.inversionPeriods),
                    static_cast<unsigned long long>(report.periods));
    }
    if (!simulation.eventLog().events().empty()) {
        std::printf("\nevents:\n");
        simulation.eventLog().print(std::cout);
    }
    return 0;
}
