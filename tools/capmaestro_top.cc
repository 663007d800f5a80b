/**
 * @file
 * capmaestro_top — live fleet view over the per-process scrape
 * endpoints (docs/observability.md).
 *
 * Polls /healthz and /metrics on every listed port each interval and
 * renders one ANSI screen: per-process control progress (epoch,
 * periods/sec, catch-ups), the root's fleet health rollup
 * (live/stale/lost/rehoming and the degraded fraction), the online
 * safety auditor's verdict, and per-hop latency quantiles aggregated
 * from every process's capmaestro_hop_latency_ms histograms.
 *
 * Usage:
 *   capmaestro_top --ports=P1,P2,..        explicit scrape ports
 *   capmaestro_top --port-base=B --count=N ports B..B+N-1
 *
 * Options:
 *   --host=H          scrape host (default 127.0.0.1)
 *   --interval-ms=MS  poll interval (default 1000)
 *   --iterations=N    stop after N screens (default: until SIGINT;
 *                     with N=1 prints a single plain snapshot)
 *   --plain           never emit ANSI clear/home (scripts, logs)
 *
 * Exit status 0; an unreachable or half-up endpoint (no /healthz, or
 * an answer that does not parse — mid-restart, mid-upgrade) renders as
 * an explicit DOWN row rather than failing the whole view or omitting
 * the process: during a join, drain, or rolling restart that gap is
 * exactly what an operator is watching for. The gen column shows each
 * process's membership generation ("-" on a pre-elasticity build).
 * Needs nothing but the endpoints: run it next to a deployment
 * started with --http-port / observability.httpPortBase.
 */

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <netinet/in.h>
#include <optional>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "util/json.hh"

using capmaestro::util::Json;
using capmaestro::util::parseJson;

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void
onSignal(int)
{
    g_stop = 1;
}

const char *
flagValue(int argc, char **argv, const char *name)
{
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
            return argv[i] + prefix.size();
    }
    return nullptr;
}

bool
hasFlag(int argc, char **argv, const char *name)
{
    const std::string flag = std::string("--") + name;
    for (int i = 1; i < argc; ++i) {
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
        "usage: capmaestro_top --ports=P1,P2,.. [options]\n"
        "       capmaestro_top --port-base=B --count=N [options]\n"
        "options: --host=H --interval-ms=MS --iterations=N --plain\n");
    std::exit(2);
}

/**
 * One blocking HTTP/1.0 GET with a short timeout. The scrape plane is
 * loopback HTTP with Connection: close, so "read to EOF, split at the
 * blank line" is the whole client.
 */
std::optional<std::string>
httpGet(const std::string &host, std::uint16_t port,
        const std::string &path, int timeout_ms)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return std::nullopt;
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1
        || ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                     sizeof(addr)) != 0) {
        ::close(fd);
        return std::nullopt;
    }
    const std::string request =
        "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
    if (::send(fd, request.data(), request.size(), 0)
        != static_cast<ssize_t>(request.size())) {
        ::close(fd);
        return std::nullopt;
    }
    std::string response;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    const std::size_t split = response.find("\r\n\r\n");
    if (split == std::string::npos
        || response.compare(0, 9, "HTTP/1.0 ") != 0
        || response.compare(9, 3, "200") != 0) {
        return std::nullopt;
    }
    return response.substr(split + 4);
}

/** One parsed Prometheus sample: name, labels, value. */
struct Sample
{
    std::string name;
    std::map<std::string, std::string> labels;
    double value = 0.0;
};

/** Parse the exposition text (enough for our own renderer's output). */
std::vector<Sample>
parseMetrics(const std::string &text)
{
    std::vector<Sample> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        Sample s;
        std::size_t cursor = line.find_first_of("{ ");
        if (cursor == std::string::npos)
            continue;
        s.name = line.substr(0, cursor);
        if (line[cursor] == '{') {
            const std::size_t close = line.find('}', cursor);
            if (close == std::string::npos)
                continue;
            std::size_t lp = cursor + 1;
            while (lp < close) {
                const std::size_t eq = line.find('=', lp);
                if (eq == std::string::npos || eq >= close)
                    break;
                const std::string key = line.substr(lp, eq - lp);
                const std::size_t q1 = eq + 1;
                if (q1 >= close || line[q1] != '"')
                    break;
                const std::size_t q2 = line.find('"', q1 + 1);
                if (q2 == std::string::npos || q2 > close)
                    break;
                s.labels[key] = line.substr(q1 + 1, q2 - q1 - 1);
                lp = q2 + 1;
                if (lp < close && line[lp] == ',')
                    ++lp;
            }
            cursor = close + 1;
        }
        while (cursor < line.size() && line[cursor] == ' ')
            ++cursor;
        if (cursor >= line.size())
            continue;
        s.value = std::strtod(line.c_str() + cursor, nullptr);
        out.push_back(std::move(s));
    }
    return out;
}

/** Cumulative-bucket histogram reassembled from _bucket samples. */
struct HopHistogram
{
    /** (upper edge, cumulative count), ascending; +Inf edge last. */
    std::vector<std::pair<double, double>> buckets;
    double count = 0.0;

    double quantile(double q) const
    {
        if (count <= 0.0)
            return 0.0;
        const double target = q * count;
        double prev_edge = 0.0;
        double prev_cum = 0.0;
        for (const auto &[edge, cum] : buckets) {
            if (cum >= target) {
                if (std::isinf(edge))
                    return prev_edge;
                const double in_bin = cum - prev_cum;
                const double frac =
                    in_bin > 0.0 ? (target - prev_cum) / in_bin : 1.0;
                return prev_edge + frac * (edge - prev_edge);
            }
            prev_edge = std::isinf(edge) ? prev_edge : edge;
            prev_cum = cum;
        }
        return prev_edge;
    }
};

struct ProcessRow
{
    std::uint16_t port = 0;
    bool up = false;
    /** /healthz answered but was unusable (bad JSON): the endpoint is
     *  half-up — mid-restart or mid-upgrade — and renders as DOWN. */
    bool halfUp = false;
    bool ok = true;
    std::string name;
    /** Membership generation the process reports (0 = pre-elasticity
     *  build or no /healthz field). */
    double generation = 0.0;
    double lastEpoch = 0.0;
    double periods = 0.0;
    double periodsPerSec = 0.0;
    double catchUps = 0.0;
    double violations = 0.0;
    /** Fleet counts when this process exposes a rollup. */
    double live = 0.0, stale = 0.0, lost = 0.0, rehoming = 0.0;
    double degradedFraction = 0.0;
    bool hasFleet = false;
};

std::vector<std::uint16_t>
parsePorts(int argc, char **argv)
{
    std::vector<std::uint16_t> ports;
    if (const char *list = flagValue(argc, argv, "ports")) {
        const std::string text(list);
        std::size_t pos = 0;
        while (pos < text.size()) {
            std::size_t comma = text.find(',', pos);
            if (comma == std::string::npos)
                comma = text.size();
            ports.push_back(static_cast<std::uint16_t>(std::strtoul(
                text.substr(pos, comma - pos).c_str(), nullptr, 10)));
            pos = comma + 1;
        }
    } else if (const char *base_arg =
                   flagValue(argc, argv, "port-base")) {
        const int base = std::atoi(base_arg);
        const char *count_arg = flagValue(argc, argv, "count");
        const int count = count_arg ? std::atoi(count_arg) : 0;
        if (count <= 0)
            usage();
        for (int i = 0; i < count; ++i)
            ports.push_back(static_cast<std::uint16_t>(base + i));
    }
    if (ports.empty())
        usage();
    return ports;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto ports = parsePorts(argc, argv);
    const char *host_arg = flagValue(argc, argv, "host");
    const std::string host = host_arg ? host_arg : "127.0.0.1";
    const char *interval_arg = flagValue(argc, argv, "interval-ms");
    const int interval_ms =
        interval_arg ? std::atoi(interval_arg) : 1000;
    const char *iters_arg = flagValue(argc, argv, "iterations");
    const long iterations = iters_arg ? std::atol(iters_arg) : 0;
    const bool ansi = !hasFlag(argc, argv, "plain")
                      && iterations != 1 && ::isatty(1) != 0;

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::map<std::uint16_t, double> last_periods;
    for (long iter = 0; (iterations == 0 || iter < iterations)
                        && g_stop == 0;
         ++iter) {
        std::vector<ProcessRow> rows;
        // (kind, from_tier, to_tier) -> merged histogram across
        // processes; every process uses identical bucket edges, so
        // cumulative counts simply add.
        std::map<std::string, HopHistogram> hops;
        for (const std::uint16_t port : ports) {
            ProcessRow row;
            row.port = port;
            const auto health =
                httpGet(host, port, "/healthz", 500);
            if (!health) {
                rows.push_back(row);
                continue;
            }
            row.up = true;
            try {
                const Json doc = parseJson(*health);
                row.ok = doc.find("ok") != nullptr
                         && doc.at("ok").isBool()
                         && doc.at("ok").asBool();
                if (const Json *process = doc.find("process")) {
                    row.name =
                        "host" + std::to_string(static_cast<long>(
                                     process->asNumber()));
                } else {
                    row.name = doc.stringOr("role", "?");
                }
                row.lastEpoch = doc.numberOr("lastEpoch", 0.0);
                row.periods = doc.numberOr("periods", 0.0);
                row.generation = doc.numberOr("generation", 0.0);
                if (const Json *fleet = doc.find("fleet")) {
                    row.hasFleet = true;
                    if (const Json *counts = fleet->find("counts")) {
                        row.live = counts->numberOr("live", 0.0);
                        row.stale = counts->numberOr("stale", 0.0);
                        row.lost = counts->numberOr("lost", 0.0);
                        row.rehoming =
                            counts->numberOr("rehoming", 0.0);
                    }
                    row.degradedFraction =
                        fleet->numberOr("degradedFraction", 0.0);
                }
                if (const Json *safety = doc.find("safety")) {
                    row.violations =
                        safety->numberOr("violations", 0.0);
                }
            } catch (...) {
                // Answered but unusable: mid-restart/mid-upgrade.
                row.halfUp = true;
                row.ok = false;
            }
            const auto prev = last_periods.find(port);
            if (prev != last_periods.end() && interval_ms > 0) {
                row.periodsPerSec =
                    std::max(0.0, row.periods - prev->second) * 1000.0
                    / static_cast<double>(interval_ms);
            }
            last_periods[port] = row.periods;

            if (const auto metrics =
                    httpGet(host, port, "/metrics", 500)) {
                for (const Sample &s : parseMetrics(*metrics)) {
                    if (s.name == "capmaestro_hop_latency_ms_bucket") {
                        const auto kind = s.labels.find("kind");
                        const auto from = s.labels.find("from_tier");
                        const auto to = s.labels.find("to_tier");
                        const auto le = s.labels.find("le");
                        if (kind == s.labels.end()
                            || le == s.labels.end())
                            continue;
                        const std::string key =
                            kind->second + " "
                            + (from != s.labels.end() ? from->second
                                                      : "?")
                            + "\xE2\x86\x92"
                            + (to != s.labels.end() ? to->second
                                                    : "?");
                        const double edge =
                            le->second == "+Inf"
                                ? HUGE_VAL
                                : std::strtod(le->second.c_str(),
                                              nullptr);
                        // Merge: same edges across processes, so the
                        // cumulative counts for one edge add up.
                        auto &hist = hops[key];
                        bool merged = false;
                        for (auto &[e, c] : hist.buckets) {
                            if (e == edge
                                || (std::isinf(e)
                                    && std::isinf(edge))) {
                                c += s.value;
                                merged = true;
                                break;
                            }
                        }
                        if (!merged)
                            hist.buckets.emplace_back(edge, s.value);
                        if (std::isinf(edge))
                            hist.count += s.value;
                    } else if (s.name
                               == "capmaestro_host_catch_up_"
                                  "periods_total") {
                        // Only a host catches up; a one-role daemon
                        // shows 0.
                        row.catchUps += s.value;
                    }
                }
            }
            rows.push_back(row);
        }
        for (auto &[key, hist] : hops) {
            std::sort(hist.buckets.begin(), hist.buckets.end(),
                      [](const auto &a, const auto &b) {
                          if (std::isinf(a.first))
                              return false;
                          if (std::isinf(b.first))
                              return true;
                          return a.first < b.first;
                      });
        }

        if (ansi)
            std::printf("\x1b[H\x1b[2J");
        std::printf("capmaestro_top — %zu endpoints on %s  (sample "
                    "%ld)\n\n",
                    ports.size(), host.c_str(), iter + 1);
        std::printf("  %-6s %-8s %-6s %-4s %-9s %-9s %-8s %-6s\n",
                    "port", "who", "epoch", "gen", "periods", "per/s",
                    "catchup", "ok");
        for (const ProcessRow &row : rows) {
            // An unreachable or half-up endpoint is an explicit DOWN
            // row, never an omission: during a join, drain, or rolling
            // restart the gap in the fleet is exactly what an operator
            // is watching for.
            if (!row.up || row.halfUp) {
                std::printf("  %-6u %-8s %-6s %-4s %-9s %-9s %-8s "
                            "DOWN%s\n",
                            row.port,
                            row.name.empty() ? "-" : row.name.c_str(),
                            "-", "-", "-", "-", "-",
                            row.up ? " (bad /healthz)"
                                   : " (no /healthz)");
                continue;
            }
            char gen[16];
            if (row.generation > 0.0) {
                std::snprintf(gen, sizeof(gen), "%.0f",
                              row.generation);
            } else {
                std::snprintf(gen, sizeof(gen), "-");
            }
            std::printf("  %-6u %-8s %-6.0f %-4s %-9.0f %-9.2f %-8.0f "
                        "%-6s\n",
                        row.port, row.name.c_str(), row.lastEpoch, gen,
                        row.periods, row.periodsPerSec, row.catchUps,
                        row.ok ? "yes" : "NO");
        }

        double live = 0.0, stale = 0.0, lost = 0.0, rehoming = 0.0;
        double worst_degraded = 0.0, violations = 0.0;
        bool any_fleet = false;
        for (const ProcessRow &row : rows) {
            violations += row.violations;
            if (!row.hasFleet)
                continue;
            any_fleet = true;
            live += row.live;
            stale += row.stale;
            lost += row.lost;
            rehoming += row.rehoming;
            worst_degraded =
                std::max(worst_degraded, row.degradedFraction);
        }
        if (any_fleet) {
            std::printf("\n  fleet: %.0f live, %.0f stale, %.0f lost, "
                        "%.0f rehoming  (degraded %.1f%%)\n",
                        live, stale, lost, rehoming,
                        100.0 * worst_degraded);
        }
        std::printf("  safety: %s (%.0f violations)\n",
                    violations == 0.0 ? "clean" : "VIOLATED",
                    violations);

        if (!hops.empty()) {
            std::printf("\n  hop latency (ms)      %8s %8s %8s %10s\n",
                        "p50", "p95", "p99", "samples");
            for (const auto &[key, hist] : hops) {
                std::printf("  %-20s  %8.3f %8.3f %8.3f %10.0f\n",
                            key.c_str(), hist.quantile(0.50),
                            hist.quantile(0.95), hist.quantile(0.99),
                            hist.count);
            }
        }
        std::fflush(stdout);

        if ((iterations != 0 && iter + 1 >= iterations) || g_stop)
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
    return 0;
}
