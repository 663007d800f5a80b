/**
 * @file
 * capmaestro_worker — one process of the multi-process control plane
 * (docs/distributed.md quickstart). Every worker loads the same
 * scenario and peer table; the role selects which endpoint this
 * process drives: rack index 0..N-1, then any aggregator tiers
 * bottom-up, the root (room) last (see core::TreePlan). Alternatively
 * --process=K hosts *every* endpoint the peer table's "processes" map
 * assigns to process K inside one rt::WorkerHost event loop — the
 * deployment shape for deep trees, where one box serves hundreds of
 * subtrees off a single epoll sweep.
 *
 * Usage:
 *   capmaestro_worker <config.json> --peers=peers.json --role=N
 *                     [options]
 *   capmaestro_worker <config.json> --peers=peers.json --process=K
 *                     [options]
 *   capmaestro_worker <config.json> --print-peers-template
 *                     [--port-base=P] [--period-ms=MS]
 *                     [--agg-levels=H1,H2,..] [--processes=K]
 *
 * Options:
 *   --peers=FILE          shared peer table (see config::WorkerPeers)
 *   --role=N              endpoint to drive (rack index, aggregator
 *                         endpoint, or the root endpoint for the room)
 *   --process=K           host every endpoint the peer table assigns
 *                         to process K (mutually exclusive with
 *                         --role; requires a peers file whose
 *                         "processes" map covers the plan)
 *   --periods=N           stop after N control periods (default: run
 *                         until SIGTERM/SIGINT)
 *   --seed=N              sensor-noise seed (default 1; give every
 *                         worker the same seed)
 *   --telemetry-out=DIR   write DIR/metrics.prom + DIR/metrics.jsonl,
 *                         DIR/trace.jsonl (per-period span traces,
 *                         stitchable across processes with
 *                         capmaestro_trace --stitch), and
 *                         DIR/events.jsonl (degraded-mode decisions,
 *                         timestamps are epochs) on exit
 *   --http-port=P         serve live /metrics, /healthz, and /tracez
 *                         on 127.0.0.1:P (0 = ephemeral; the bound
 *                         port is printed on stderr). Defaults to the
 *                         peers file's observability.httpPortBase +
 *                         role (or + process) when that is set
 *   --shadow              non-root roles: boot as a late joiner with
 *                         an empty membership replica — every period
 *                         rides the Pcap_min clamp until the root's
 *                         MembershipDelta broadcast shows this worker
 *                         Live (see docs/distributed.md, "Online
 *                         elasticity")
 *   --state-dir=DIR       room only: persist the latest checkpoint
 *                         per rack under DIR (and reload any left by
 *                         a previous room instance), so a
 *                         supervisor-restarted room can still re-home
 *                         racks that died while it was down
 *   --print-peers-template  print a ready-to-use peers.json for this
 *                         scenario (originMs = now) and exit
 *   --port-base=P         first UDP port for the template (default
 *                         19870; endpoint e gets port P+e). P=0 probes
 *                         a free ephemeral port per endpoint instead —
 *                         the collision-proof choice for test scripts
 *   --period-ms=MS        wall-clock control period for the template
 *                         (default 1000)
 *   --agg-levels=H1,H2    aggregation levels for the template: cut
 *                         heights above the edge level, ascending
 *                         (e.g. --agg-levels=1 for a depth-3 tree);
 *                         the template then covers every plan worker
 *                         and records the levels in "aggLevels"
 *   --processes=K         spread the template's workers over K host
 *                         processes: leaves in contiguous chunks,
 *                         each aggregator co-located with its first
 *                         child (subtree locality), written to the
 *                         "processes" map for --process=K hosting
 *   --http-port-base=B    record observability.httpPortBase=B in the
 *                         template, turning on the per-process scrape
 *                         endpoints for every worker started from it
 *
 * On SIGTERM/SIGINT the worker finishes nothing: it exits its period
 * loop at the next stop check (≤ ~25 ms) and reports. Exit status 0
 * when the requested periods ran (or a signal stopped the loop).
 *
 * On SIGHUP the root worker re-reads the peers file at the next period
 * boundary and applies its "membership" block (join/drain
 * announcements); non-root --role workers ignore the signal and
 * --process hosts explicitly discard it (host mode has no reload
 * plane). A drained worker exits its loop on its own once it has
 * acked the committed Left state.
 */

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "config/loader.hh"
#include "core/tree_plan.hh"
#include "rt/host.hh"
#include "rt/worker_runtime.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace.hh"
#include "util/logging.hh"

using namespace capmaestro;

namespace {

rt::WorkerRuntime *g_runtime = nullptr;
rt::WorkerHost *g_host = nullptr;

extern "C" void
onSignal(int)
{
    // async-signal-safe: one atomic store either way
    if (g_runtime != nullptr)
        g_runtime->requestStop();
    if (g_host != nullptr)
        g_host->requestStop();
}

extern "C" void
onReload(int)
{
    // async-signal-safe: one atomic store; the period loop runs the
    // reload handler at its next top-of-period check
    if (g_runtime != nullptr)
        g_runtime->requestReload();
}

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
    std::fprintf(
        stderr,
        "usage: capmaestro_worker <config.json> --peers=FILE --role=N\n"
        "                         [--periods=N] [--seed=N] [--shadow]\n"
        "                         [--telemetry-out=DIR] [--state-dir=DIR]\n"
        "                         [--http-port=P]\n"
        "       capmaestro_worker <config.json> --peers=FILE --process=K\n"
        "                         [--periods=N] [--seed=N]\n"
        "                         [--telemetry-out=DIR] [--http-port=P]\n"
        "       capmaestro_worker <config.json> --print-peers-template\n"
        "                         [--port-base=P] [--period-ms=MS]\n"
        "                         [--agg-levels=H1,H2,..] "
        "[--processes=K]\n"
        "                         [--http-port-base=B]\n");
    std::exit(2);
}

std::uint64_t
unixNowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

/**
 * Probe @p count free ephemeral UDP ports on 127.0.0.1. All probe
 * sockets stay open until every port is allocated, so the kernel
 * cannot hand the same port out twice within one probe; the ports are
 * only *likely* free afterwards (another process may grab one before
 * the workers bind), which is exactly the collision risk a fixed
 * port-base scheme has constantly and this one has for a few
 * milliseconds.
 */
std::vector<std::uint16_t>
probeFreePorts(std::size_t count)
{
    std::vector<int> fds;
    std::vector<std::uint16_t> ports;
    for (std::size_t i = 0; i < count; ++i) {
        const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
        if (fd < 0)
            util::fatal("port probe: socket() failed: %s",
                        std::strerror(errno));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;
        if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) < 0) {
            util::fatal("port probe: bind failed: %s",
                        std::strerror(errno));
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                          &len) < 0) {
            util::fatal("port probe: getsockname failed: %s",
                        std::strerror(errno));
        }
        fds.push_back(fd);
        ports.push_back(ntohs(bound.sin_port));
    }
    for (const int fd : fds)
        ::close(fd);
    return ports;
}

/** Parse "1,2,3" into ascending aggregation levels. */
std::vector<std::uint32_t>
parseAggLevels(const char *arg)
{
    std::vector<std::uint32_t> levels;
    if (arg == nullptr)
        return levels;
    const std::string text(arg);
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string part = text.substr(pos, comma - pos);
        if (part.empty())
            util::fatal("--agg-levels: empty entry in '%s'", arg);
        levels.push_back(static_cast<std::uint32_t>(
            std::strtoul(part.c_str(), nullptr, 10)));
        pos = comma + 1;
    }
    return levels;
}

int
printPeersTemplate(const config::LoadedScenario &scenario, int argc,
                   char **argv)
{
    const char *base_arg = flagValue(argc, argv, "port-base");
    const int port_base = base_arg ? std::atoi(base_arg) : 19870;
    const char *period_arg = flagValue(argc, argv, "period-ms");
    const double period_ms =
        period_arg ? std::atof(period_arg) : 1000.0;
    const auto agg_levels =
        parseAggLevels(flagValue(argc, argv, "agg-levels"));
    const char *procs_arg = flagValue(argc, argv, "processes");
    const auto processes = static_cast<std::uint32_t>(
        procs_arg ? std::strtoul(procs_arg, nullptr, 10) : 0);
    const char *http_arg = flagValue(argc, argv, "http-port-base");
    const int http_base = http_arg ? std::atoi(http_arg) : 0;

    const auto plan =
        core::TreePlan::build(*scenario.system, agg_levels);
    const std::size_t workers = plan.workers.size();
    const std::size_t racks = plan.leafWorkers;
    const auto probed = port_base == 0
                            ? probeFreePorts(workers)
                            : std::vector<std::uint16_t>{};
    config::WorkerPeers peers;
    peers.periodMs = period_ms;
    peers.originMs = unixNowMs();
    peers.aggLevels = agg_levels;
    if (http_base > 0) {
        peers.observability.httpPortBase =
            static_cast<std::uint16_t>(http_base);
    }
    for (std::size_t e = 0; e < workers; ++e) {
        net::UdpPeer peer;
        peer.host = "127.0.0.1";
        peer.port = port_base == 0
                        ? probed[e]
                        : static_cast<std::uint16_t>(
                              port_base + static_cast<int>(e));
        peers.peers[static_cast<net::Transport::Endpoint>(e)] = peer;
    }
    if (processes > 1) {
        // Leaves in contiguous chunks; every internal worker lands in
        // its first child's process (children have lower endpoints, so
        // a single ascending pass resolves), keeping each aggregator
        // co-located with part of its own subtree.
        for (std::size_t e = 0; e < workers; ++e) {
            const auto ep =
                static_cast<net::Transport::Endpoint>(e);
            if (e < racks) {
                peers.processOf[ep] = static_cast<std::uint32_t>(
                    e * processes / racks);
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
    std::printf("%s\n",
                util::serializeJson(config::workerPeersToJson(peers),
                                    2)
                    .c_str());
    std::fprintf(stderr,
                 "peers template: %zu leaf workers (roles 0..%zu), %zu "
                 "aggregators, room (role %zu), %u tiers",
                 racks, racks - 1, workers - racks - 1,
                 workers - 1, plan.tiers());
    if (port_base == 0)
        std::fprintf(stderr, ", probed ephemeral ports");
    else
        std::fprintf(stderr, ", ports %d..%d", port_base,
                     port_base + static_cast<int>(workers) - 1);
    if (processes > 1)
        std::fprintf(stderr, ", %u host processes", processes);
    std::fprintf(stderr, "\n");
    return 0;
}

/**
 * Resolve the scrape port for one role/process slot: the explicit
 * --http-port flag wins; otherwise the peer table's
 * observability.httpPortBase + slot (when the base is set). Returns
 * -1 when the endpoint stays off.
 */
int
resolveHttpPort(int argc, char **argv,
                const config::WorkerPeers &peers, std::uint32_t slot)
{
    const char *arg = flagValue(argc, argv, "http-port");
    if (arg != nullptr)
        return std::atoi(arg);
    if (peers.observability.httpPortBase != 0)
        return peers.observability.httpPortBase + static_cast<int>(slot);
    return -1;
}

/** Write the on-exit telemetry bundle (--telemetry-out=DIR). */
void
writeTelemetryDir(const char *dir_arg,
                  const telemetry::Registry &registry,
                  const telemetry::PeriodTracer &tracer,
                  const core::EventLog &events_log)
{
    const std::filesystem::path dir(dir_arg);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        util::fatal("cannot create %s: %s", dir_arg,
                    ec.message().c_str());
    std::ofstream prom(dir / "metrics.prom");
    prom << registry.renderPrometheus();
    std::ofstream jsonl(dir / "metrics.jsonl");
    registry.writeJsonl(jsonl);
    std::ofstream trace(dir / "trace.jsonl");
    tracer.writeJsonl(trace);
    std::ofstream events(dir / "events.jsonl");
    events_log.printJsonl(events);
    std::fprintf(stderr,
                 "telemetry: wrote metrics.prom, metrics.jsonl, "
                 "trace.jsonl, events.jsonl to %s\n",
                 dir_arg);
}

/** The --process=K path: host every endpoint assigned to process K. */
int
runHost(config::LoadedScenario scenario,
        const config::WorkerPeers &peers, std::uint32_t process,
        std::uint64_t seed, std::size_t max_periods, int argc,
        char **argv)
{
    rt::WorkerHost host(std::move(scenario), peers, process, seed);
    g_host = &host;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    // Host mode is membership-replica-only (see rt/host.hh): no reload
    // plane, but the supervisor's broadcast SIGHUP must not kill us.
    std::signal(SIGHUP, SIG_IGN);

    const char *telemetry_dir = flagValue(argc, argv, "telemetry-out");
    const int http_port = resolveHttpPort(argc, argv, peers, process);
    telemetry::Registry registry;
    telemetry::PeriodTracer tracer;
    if (telemetry_dir != nullptr || http_port >= 0) {
        // Endless daemon scrapes ride a bounded trace window; an
        // on-exit export keeps every period.
        if (telemetry_dir == nullptr)
            tracer.setKeep(peers.observability.tracezKeep);
        host.setTelemetry(&registry, &tracer);
    }
    if (http_port >= 0) {
        const std::uint16_t bound = host.serveHttp(
            static_cast<std::uint16_t>(http_port));
        if (bound == 0) {
            util::fatal("cannot bind http port %d for process %u",
                        http_port, process);
        }
        std::fprintf(stderr,
                     "host process %u http: 127.0.0.1:%u "
                     "(/metrics /healthz /tracez)\n",
                     process, bound);
    }

    std::string eps;
    for (const auto ep : host.endpoints())
        eps += (eps.empty() ? "" : ",") + std::to_string(ep);
    std::fprintf(stderr,
                 "host process %u up: %zu endpoints [%s] of %zu "
                 "workers (%u tiers), period %.0f ms\n",
                 process, host.endpoints().size(), eps.c_str(),
                 host.plan().workers.size(), host.plan().tiers(),
                 peers.periodMs);

    const std::size_t ran = host.runPeriods(max_periods);

    const auto &stats = host.stats();
    const auto &net = host.transport().stats();
    std::fprintf(stderr,
                 "host process %u done: %zu periods, %zu budgets "
                 "applied, %zu defaults, %zu stale, %zu lost, %zu "
                 "summaries, %zu sub-budgets applied, %zu missed, "
                 "%zu catch-ups, %zu orphan + %zu corrupt frames, "
                 "%zu frames / %zu bytes sent, %zu frames / %zu bytes "
                 "co-hosted\n",
                 process, ran, stats.budgetsApplied,
                 stats.defaultBudgets, stats.staleReuses,
                 stats.metricsLost, stats.summariesSent,
                 stats.subBudgetsApplied, stats.subBudgetsMissed,
                 stats.catchUpPeriods, stats.orphanFrames,
                 stats.corruptFrames, net.framesSent, net.bytesSent,
                 stats.coHostedFrames, stats.coHostedBytes);
    host.eventLog().printJsonl(std::cout);

    if (telemetry_dir != nullptr)
        writeTelemetryDir(telemetry_dir, registry, tracer,
                          host.eventLog());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argv[1][0] == '-')
        usage();

    auto scenario = config::loadScenarioFile(argv[1]);

    if (hasFlag(argc, argv, "print-peers-template"))
        return printPeersTemplate(scenario, argc, argv);

    const char *peers_path = flagValue(argc, argv, "peers");
    const char *role_arg = flagValue(argc, argv, "role");
    const char *process_arg = flagValue(argc, argv, "process");
    if (peers_path == nullptr
        || (role_arg == nullptr) == (process_arg == nullptr))
        usage();

    std::ifstream peers_in(peers_path);
    if (!peers_in)
        util::fatal("cannot read %s", peers_path);
    const std::string peers_text(
        (std::istreambuf_iterator<char>(peers_in)),
        std::istreambuf_iterator<char>());
    const auto peers =
        config::loadWorkerPeers(util::parseJson(peers_text));

    const char *seed_arg = flagValue(argc, argv, "seed");
    const std::uint64_t seed =
        seed_arg ? std::strtoull(seed_arg, nullptr, 10) : 1;
    const char *periods_arg = flagValue(argc, argv, "periods");
    const std::size_t max_periods =
        periods_arg
            ? static_cast<std::size_t>(
                  std::strtoull(periods_arg, nullptr, 10))
            : static_cast<std::size_t>(-1);

    if (process_arg != nullptr) {
        return runHost(std::move(scenario), peers,
                       static_cast<std::uint32_t>(
                           std::strtoul(process_arg, nullptr, 10)),
                       seed, max_periods, argc, argv);
    }

    const auto role =
        static_cast<std::uint32_t>(std::strtoul(role_arg, nullptr, 10));
    rt::WorkerRuntime runtime(std::move(scenario), peers, role, seed);
    g_runtime = &runtime;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGHUP, onReload);

    if (hasFlag(argc, argv, "shadow")) {
        // Late joiner: boot with an empty membership replica so every
        // period rides the Pcap_min clamp until the root's broadcast
        // shows this worker Live (docs/distributed.md quickstart).
        runtime.beginShadow();
    }
    if (runtime.isRoom()) {
        // Boot-time elasticity directives, then the same application
        // again on every SIGHUP-triggered reload of the peers file.
        const std::string peers_file(peers_path);
        const auto apply_membership =
            [&runtime](const config::MembershipConfig &member,
                       bool boot) {
            if (boot) {
                for (const std::uint32_t ep : member.absent)
                    runtime.membershipMarkAbsent(ep);
                for (const std::uint32_t ep : member.join)
                    runtime.membershipMarkAbsent(ep);
            }
            std::size_t joins = 0;
            std::size_t drains = 0;
            for (const std::uint32_t ep : member.join)
                joins += runtime.membershipBeginJoin(ep) ? 1 : 0;
            for (const std::uint32_t ep : member.drain)
                drains += runtime.membershipBeginDrain(ep) ? 1 : 0;
            if (joins + drains > 0 || !boot) {
                std::fprintf(stderr,
                             "membership: %zu join, %zu drain "
                             "announced (generation %u)\n",
                             joins, drains,
                             runtime.membershipGeneration());
            }
        };
        apply_membership(peers.membership, true);
        runtime.setReloadHandler([&runtime, peers_file,
                                  apply_membership] {
            std::ifstream in(peers_file);
            if (!in) {
                std::fprintf(stderr, "reload: cannot read %s\n",
                             peers_file.c_str());
                return;
            }
            const std::string text(
                (std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
            const auto reloaded =
                config::loadWorkerPeers(util::parseJson(text));
            std::fprintf(stderr, "reload: %s\n", peers_file.c_str());
            apply_membership(reloaded.membership, false);
        });
    }

    const char *state_dir = flagValue(argc, argv, "state-dir");
    if (state_dir != nullptr) {
        if (!runtime.isRoom())
            util::fatal("--state-dir only applies to the room worker");
        std::error_code ec;
        std::filesystem::create_directories(state_dir, ec);
        if (ec) {
            util::fatal("cannot create %s: %s", state_dir,
                        ec.message().c_str());
        }
        runtime.setStateDir(state_dir);
    }

    telemetry::Registry registry;
    telemetry::PeriodTracer tracer;
    const char *telemetry_dir = flagValue(argc, argv, "telemetry-out");
    const int http_port = resolveHttpPort(argc, argv, peers, role);
    if (telemetry_dir != nullptr || http_port >= 0) {
        if (telemetry_dir == nullptr)
            tracer.setKeep(peers.observability.tracezKeep);
        runtime.setTelemetry(&registry, &tracer);
    }
    if (http_port >= 0) {
        const std::uint16_t bound = runtime.serveHttp(
            static_cast<std::uint16_t>(http_port));
        if (bound == 0) {
            util::fatal("cannot bind http port %d for role %u",
                        http_port, role);
        }
        std::fprintf(stderr,
                     "worker role %u http: 127.0.0.1:%u "
                     "(/metrics /healthz /tracez)\n",
                     role, bound);
    }

    std::fprintf(stderr,
                 "worker role %u (%s) up: %zu rack workers, %u tiers, "
                 "period %.0f ms, udp port %u\n",
                 role, runtime.roleName().c_str(),
                 runtime.rackCount(), runtime.plan().tiers(),
                 peers.periodMs, runtime.udp()->boundPort(role));

    const std::size_t ran = runtime.runPeriods(max_periods);

    const auto &stats = runtime.stats();
    std::fprintf(stderr,
                 "worker role %u done: %zu periods, %zu budgets "
                 "applied, %zu defaults, %zu stale, %zu lost, %zu "
                 "failovers, %zu retries, %zu orphan + %zu corrupt "
                 "frames, %zu checkpoints, %zu restarts detected, "
                 "%zu rehomes sent, %zu replayed, %zu declined, "
                 "%zu rehomed\n",
                 role, ran, stats.budgetsApplied, stats.defaultBudgets,
                 stats.staleReuses, stats.metricsLost, stats.failovers,
                 stats.retries, stats.orphanFrames,
                 stats.corruptFrames, stats.checkpointsSent,
                 stats.restartsDetected, stats.rehomesSent,
                 stats.rehomesApplied, stats.rehomesDeclined,
                 stats.rehomed);
    runtime.eventLog().printJsonl(std::cout);

    if (telemetry_dir != nullptr)
        writeTelemetryDir(telemetry_dir, registry, tracer,
                          runtime.eventLog());
    return 0;
}
