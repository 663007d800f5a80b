/**
 * @file
 * Tests for the live observability plane: the poll-driven HTTP scrape
 * endpoint, the fleet health rollup and online safety auditor,
 * telemetry export from a deep-plan WorkerHost (hop latency
 * histograms + stitched period traces) and from lockstep
 * WorkerRuntimes, the shared plane's schema and detach contract on
 * both runtimes, and the acceptance invariant that attaching the
 * whole plane — wire-v5 trace contexts included — changes not a
 * single bit of any leaf budget on a lossless plane.
 *
 * Set CAPMAESTRO_NO_NET=1 to skip the socket-bound tests (the HTTP
 * endpoint and the UDP host run); the sim-transport tests always run.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "config/loader.hh"
#include "net/http_endpoint.hh"
#include "net/transport.hh"
#include "rt/chaos.hh"
#include "rt/host.hh"
#include "rt/worker_runtime.hh"
#include "telemetry/health.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace.hh"
#include "util/json.hh"

using namespace capmaestro;

namespace {

#define SKIP_WITHOUT_NET()                                            \
    do {                                                              \
        if (std::getenv("CAPMAESTRO_NO_NET") != nullptr)              \
            GTEST_SKIP() << "CAPMAESTRO_NO_NET is set";               \
    } while (0)

/**
 * Blocking loopback GET against a polled HttpEndpoint: the client
 * runs on its own thread while the caller's thread drives poll(), the
 * same division of labor as a real scrape against the period loop.
 */
std::string
scrape(net::HttpEndpoint &endpoint, const std::string &path)
{
    std::string response;
    std::thread client([&endpoint, &path, &response] {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(endpoint.port());
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        ASSERT_EQ(::connect(fd,
                            reinterpret_cast<const sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        const std::string request =
            "GET " + path + " HTTP/1.0\r\n\r\n";
        ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
                  static_cast<ssize_t>(request.size()));
        char buf[4096];
        for (;;) {
            const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n <= 0)
                break;
            response.append(buf, static_cast<std::size_t>(n));
        }
        ::close(fd);
    });
    // Drive the endpoint until the client saw the full exchange.
    while (true) {
        endpoint.poll();
        if (client.joinable()) {
            // joinable() stays true until join(); probe completion
            // via a short yield + retry bounded by the test timeout.
            std::this_thread::yield();
        }
        // The client closes after recv() returns 0, which only
        // happens once the endpoint wrote and closed — one extra
        // poll() pass after that is harmless.
        if (response.find("\r\n\r\n") != std::string::npos
            || !client.joinable())
            break;
    }
    client.join();
    endpoint.poll();
    return response;
}

/**
 * Depth-3 single-feed scenario: root -> 2 rows -> 2 racks each -> 2
 * supplies, 8 servers. With aggLevels = {1} the plan is 4 leaf
 * workers (0-3), 2 row aggregators (4-5), and the root (6).
 */
std::string
depth3Scenario()
{
    std::string rows;
    for (int row = 0; row < 2; ++row) {
        std::string racks;
        for (int rack = 0; rack < 2; ++rack) {
            const int base = row * 4 + rack * 2;
            racks += std::string(rack ? "," : "")
                     + R"({ "kind": "breaker", "name": "rk)"
                     + std::to_string(row) + std::to_string(rack)
                     + R"(", "rating": 900, "children": [)"
                     + R"({ "kind": "supply", "server": )"
                     + std::to_string(base) + R"(, "supply": 0 },)"
                     + R"({ "kind": "supply", "server": )"
                     + std::to_string(base + 1)
                     + R"(, "supply": 0 }]})";
        }
        rows += std::string(row ? "," : "")
                + R"({ "kind": "breaker", "name": "row)"
                + std::to_string(row)
                + R"(", "rating": 1700, "children": [)" + racks
                + "]}";
    }
    std::string servers;
    for (int s = 0; s < 8; ++s) {
        servers += std::string(s ? "," : "") + R"({ "name": "S)"
                   + std::to_string(s) + R"(", "priority": )"
                   + std::to_string(s % 3 == 0 ? 1 : 0)
                   + R"(, "supplies": [{ "share": 1 }], "workload": )"
                   + R"({ "type": "constant", "utilization": 0.6)"
                   + std::to_string(50 + s) + " }}";
    }
    return R"({ "feeds": 1, "trees": [{ "feed": 0, "phase": 0, )"
           + std::string(R"("name": "X", "root": { "kind": "breaker", )"
                         R"("name": "top", "rating": 3300, )"
                         R"("children": [)")
           + rows + R"(]}}], "servers": [)" + servers
           + R"(], "service": { "policy": "global", "spo": false }, )"
           + R"("budgets": { "totalPerPhase": 3300 }})";
}

config::WorkerPeers
depth3Peers()
{
    config::WorkerPeers peers;
    peers.periodMs = 200.0;
    peers.originMs = 0;
    peers.aggLevels = {1};
    for (std::uint32_t e = 0; e < 7; ++e)
        peers.peers[e] = net::UdpPeer{"127.0.0.1", 0};
    return peers;
}

/** Value of label @p key in a snapshot's label list ("" if absent). */
std::string
labelValue(const telemetry::Labels &labels, const std::string &key)
{
    for (const auto &[name, value] : labels) {
        if (name == key)
            return value;
    }
    return "";
}

config::LoadedScenario
loadDepth3(const char *transport_json)
{
    auto scenario =
        config::loadScenario(util::parseJson(depth3Scenario()));
    config::applyTransportJson(scenario.service,
                               util::parseJson(transport_json));
    return scenario;
}

} // namespace

// --------------------------------------------------- HTTP endpoint

TEST(HttpEndpoint, ServesRegisteredPathsFromThePollLoop)
{
    SKIP_WITHOUT_NET();
    net::HttpEndpoint endpoint;
    ASSERT_TRUE(endpoint.listen(0));
    ASSERT_NE(endpoint.port(), 0);
    int hits = 0;
    endpoint.handle("/metrics", [&hits] {
        ++hits;
        net::HttpResponse response;
        response.contentType = "text/plain; version=0.0.4";
        response.body = "capmaestro_up 1\n";
        return response;
    });

    const std::string reply = scrape(endpoint, "/metrics");
    EXPECT_NE(reply.find("200"), std::string::npos) << reply;
    EXPECT_NE(reply.find("capmaestro_up 1\n"), std::string::npos);
    EXPECT_NE(reply.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(endpoint.requestsServed(), 1u);

    // Sequential scrapes reuse the same listener.
    EXPECT_NE(scrape(endpoint, "/metrics").find("capmaestro_up"),
              std::string::npos);
    EXPECT_EQ(hits, 2);
    endpoint.close();
    EXPECT_FALSE(endpoint.listening());
}

TEST(HttpEndpoint, UnknownPathIs404AndHandlersAreGetOnly)
{
    SKIP_WITHOUT_NET();
    net::HttpEndpoint endpoint;
    ASSERT_TRUE(endpoint.listen(0));
    endpoint.handle("/healthz", [] {
        net::HttpResponse response;
        response.body = "{}";
        return response;
    });
    EXPECT_NE(scrape(endpoint, "/nope").find("404"),
              std::string::npos);
    EXPECT_NE(scrape(endpoint, "/healthz").find("200"),
              std::string::npos);
    endpoint.close();
}

// ------------------------------------------- fleet health registry

TEST(FleetHealth, RollupCountsStatesAndDegradedFraction)
{
    telemetry::Registry registry;
    telemetry::FleetHealthRegistry fleet;
    fleet.setTelemetry(&registry, {{"role", "room"}});

    fleet.report("rack0", telemetry::UnitHealth::Live, 1);
    fleet.report("rack1", telemetry::UnitHealth::Live, 1);
    fleet.report("rack2", telemetry::UnitHealth::Live, 1);
    fleet.report("rack3", telemetry::UnitHealth::Live, 1);
    EXPECT_EQ(fleet.countOf(telemetry::UnitHealth::Live), 4u);
    EXPECT_DOUBLE_EQ(fleet.degradedFraction(), 0.0);

    fleet.report("rack1", telemetry::UnitHealth::Stale, 2);
    fleet.report("rack2", telemetry::UnitHealth::Lost, 2);
    fleet.report("rack3", telemetry::UnitHealth::Rehoming, 2);
    EXPECT_EQ(fleet.countOf(telemetry::UnitHealth::Live), 1u);
    EXPECT_EQ(fleet.countOf(telemetry::UnitHealth::Stale), 1u);
    EXPECT_EQ(fleet.countOf(telemetry::UnitHealth::Lost), 1u);
    EXPECT_EQ(fleet.countOf(telemetry::UnitHealth::Rehoming), 1u);
    EXPECT_DOUBLE_EQ(fleet.degradedFraction(), 0.75);

    // Recovery flows back through the same unit slot.
    fleet.report("rack2", telemetry::UnitHealth::Live, 3);
    const auto &unit = fleet.units().at("rack2");
    EXPECT_EQ(unit.health, telemetry::UnitHealth::Live);
    EXPECT_EQ(unit.lastLiveEpoch, 3u);
    EXPECT_EQ(unit.degradedPeriods, 1u);

    // The JSON rollup (the /healthz "fleet" block) agrees.
    const util::Json doc = fleet.toJson();
    EXPECT_DOUBLE_EQ(doc.numberOr("unitCount", -1.0), 4.0);
    EXPECT_DOUBLE_EQ(doc.at("counts").numberOr("live", -1.0), 2.0);
    EXPECT_DOUBLE_EQ(doc.at("counts").numberOr("stale", -1.0), 1.0);
    EXPECT_DOUBLE_EQ(doc.numberOr("degradedFraction", -1.0), 0.5);
    EXPECT_EQ(
        doc.at("units").at("rack3").stringOr("state", ""),
        "rehoming");

    // And the gauges track report() without a manual publish step.
    bool saw_live = false;
    for (const auto &series : registry.snapshot()) {
        if (series.name == "capmaestro_fleet_units"
            && labelValue(series.labels, "state") == "live") {
            saw_live = true;
            EXPECT_DOUBLE_EQ(series.value, 2.0);
        }
        if (series.name == "capmaestro_fleet_degraded_fraction") {
            EXPECT_DOUBLE_EQ(series.value, 0.5);
        }
    }
    EXPECT_TRUE(saw_live);

    // A null registry drops the gauges: later reports leave it alone.
    fleet.setTelemetry(nullptr, {});
    fleet.report("rack0", telemetry::UnitHealth::Lost, 4);
    EXPECT_DOUBLE_EQ(
        registry.gauge("capmaestro_fleet_degraded_fraction",
                       {{"role", "room"}})
            .value(),
        0.5);
}

// ------------------------------------------------- safety auditor

TEST(SafetyAuditor, FlagsOverdrawAndKeepsTheWorstSubject)
{
    // The check is topo::overloads(); the auditor counts scopes and
    // the stations they found over their bound.
    telemetry::Registry registry;
    telemetry::SafetyAuditor auditor;
    auditor.setTelemetry(&registry, {{"role", "room"}});

    for (int i = 0; i < 4; ++i)
        auditor.audit();
    auditor.violation(3, "X.rpp0@room", 50.0);
    // A worse one replaces the retained worst subject.
    auditor.violation(4, "Y.cdu1@agg4", 200.0);

    EXPECT_EQ(auditor.audits(), 4u);
    EXPECT_EQ(auditor.violations(), 2u);
    EXPECT_NEAR(auditor.worstOverdrawWatts(), 200.0, 1e-9);
    EXPECT_EQ(auditor.worstSubject(), "Y.cdu1@agg4@epoch4");

    const util::Json doc = auditor.toJson();
    EXPECT_DOUBLE_EQ(doc.numberOr("violations", -1.0), 2.0);
    EXPECT_NEAR(doc.numberOr("worstOverdrawWatts", -1.0), 200.0,
                1e-9);

    double counted = -1.0;
    for (const auto &series : registry.snapshot()) {
        if (series.name == "capmaestro_safety_violations_total")
            counted = series.value;
    }
    EXPECT_DOUBLE_EQ(counted, 2.0);

    // A null registry drops the counters: later violations leave it
    // alone.
    auditor.setTelemetry(nullptr, {});
    auditor.violation(5, "X.rpp0@room", 100.0);
    EXPECT_EQ(auditor.violations(), 3u);
    EXPECT_DOUBLE_EQ(registry
                         .counter("capmaestro_safety_violations_total",
                                  {{"role", "room"}})
                         .value(),
                     2.0);
}

// ------------------------------- host-mode telemetry export (UDP)

// The depth-3 plan split over two WorkerHosts cross-wired over real
// loopback sockets, telemetry attached: process 0 hosts leaves 0-1,
// row aggregator 4 and the root; process 1 hosts leaves 2-3 and row
// aggregator 5, so the rowB summary and SubBudget cross a socket while
// the rest travel in memory. Every period must land in the tracer
// with cross-tier hop spans, the hop-latency histograms must fill,
// and /healthz must report the safety auditor clean.
TEST(HostObservability, DeepPlanExportsHopsTracesAndHealth)
{
    SKIP_WITHOUT_NET();
    const char *transport =
        R"({"backend":"udp","gatherDeadlineMs":40,
            "budgetDeadlineMs":40,"retryTimeoutMs":10})";
    config::WorkerPeers peers = depth3Peers();
    for (const std::uint32_t ep : {2u, 3u, 5u})
        peers.processOf[ep] = 1;
    telemetry::Registry registry;
    telemetry::PeriodTracer tracer;
    rt::WorkerHost host(loadDepth3(transport), peers, /*process=*/0,
                        /*seed=*/1);
    telemetry::Registry peer_registry;
    telemetry::PeriodTracer peer_tracer;
    rt::WorkerHost peer(loadDepth3(transport), peers, /*process=*/1,
                        /*seed=*/1);
    for (const auto ep : peer.endpoints()) {
        host.udp()->setPeer(
            ep, net::UdpPeer{"127.0.0.1", peer.udp()->boundPort(ep)});
    }
    for (const auto ep : host.endpoints()) {
        peer.udp()->setPeer(
            ep, net::UdpPeer{"127.0.0.1", host.udp()->boundPort(ep)});
    }
    host.setTelemetry(&registry, &tracer);
    peer.setTelemetry(&peer_registry, &peer_tracer);
    ASSERT_NE(host.serveHttp(0), 0);

    std::thread peer_loop([&peer] { peer.runPeriods(6); });
    const std::size_t ran = host.runPeriods(6);
    peer_loop.join();
    ASSERT_EQ(ran, 6u);
    EXPECT_EQ(peer.lastEpoch(), 6u);
    // Both directions of the cut link used the sockets; the peer's
    // SubBudget hops can only have come over one.
    EXPECT_GT(host.transport().stats().framesSent, 0u);
    EXPECT_GT(peer.transport().stats().framesSent, 0u);
    EXPECT_GT(peer.stats().coHostedFrames, 0u);
    std::uint64_t socket_hops = 0;
    for (const auto &series : peer_registry.snapshot()) {
        if (series.name == "capmaestro_hop_latency_ms"
            && series.histogram
            && labelValue(series.labels, "kind") == "sub_budget")
            socket_hops += series.histogram->count;
    }
    EXPECT_GT(socket_hops, 0u);
    EXPECT_EQ(host.stats().periodsRun, 6u);
    EXPECT_GT(host.stats().budgetsApplied, 0u);
    EXPECT_EQ(host.safetyAuditor().violations(), 0u);
    EXPECT_GT(host.safetyAuditor().audits(), 0u);
    // Every observed child unit of the lossless run is live.
    EXPECT_GT(host.fleetHealth().unitCount(), 0u);
    EXPECT_DOUBLE_EQ(host.fleetHealth().degradedFraction(), 0.0);

    // Hop histograms cover the upstream and downstream wire kinds
    // across tiers (metrics tier0 -> tier1, summary tier1 -> tier2,
    // budget tier2 -> tier1, sub_budget tier1 -> tier0).
    std::set<std::string> kinds;
    std::uint64_t hop_samples = 0;
    for (const auto &series : registry.snapshot()) {
        if (series.name != "capmaestro_hop_latency_ms"
            || !series.histogram)
            continue;
        kinds.insert(labelValue(series.labels, "kind"));
        hop_samples += series.histogram->count;
    }
    EXPECT_TRUE(kinds.count("metrics")) << "kinds: " << kinds.size();
    EXPECT_TRUE(kinds.count("summary"));
    EXPECT_TRUE(kinds.count("budget"));
    EXPECT_TRUE(kinds.count("sub_budget"));
    EXPECT_GT(hop_samples, 0u);

    // The tracer stitched every period: epoch + traceId attrs, and
    // hop spans carrying the from_tier attribution.
    const util::Json periods = tracer.lastJson(6);
    ASSERT_TRUE(periods.isArray());
    ASSERT_EQ(periods.asArray().size(), 6u);
    const util::Json &last = periods.asArray().back();
    EXPECT_DOUBLE_EQ(last.at("attrs").numberOr("epoch", -1.0), 6.0);
    EXPECT_DOUBLE_EQ(last.at("attrs").numberOr("traceId", -1.0),
                     6.0);
    bool saw_hop = false;
    for (const util::Json &span : last.at("spans").asArray()) {
        if (span.stringOr("name", "") != "hop")
            continue;
        saw_hop = true;
        EXPECT_FALSE(
            span.at("attrs").stringOr("from_tier", "").empty());
    }
    EXPECT_TRUE(saw_hop);

    // /healthz carries the fleet and safety blocks end to end.
    const util::Json health = host.healthJson();
    EXPECT_TRUE(health.at("ok").asBool());
    EXPECT_DOUBLE_EQ(
        health.at("safety").numberOr("violations", -1.0), 0.0);
    EXPECT_DOUBLE_EQ(
        health.at("fleet").numberOr("degradedFraction", -1.0), 0.0);

    // The Prometheus render of the same registry parses as text with
    // the histogram exposition (obs_smoke.sh runs the full grammar
    // check against a live deployment).
    const std::string prom = registry.renderPrometheus();
    EXPECT_NE(prom.find("capmaestro_hop_latency_ms_bucket"),
              std::string::npos);
    EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
    // The host's own sockets are instrumented too, with the series a
    // one-role daemon exports (udp_smoke.sh greps the delivered one).
    EXPECT_NE(prom.find("\ncapmaestro_transport_frames_sent_total "),
              std::string::npos);
    EXPECT_NE(prom.find("\ncapmaestro_transport_frames_delivered_total "),
              std::string::npos);
}

// ------------------------- bit-identity acceptance (sim, lossless)

// Attaching the whole observability plane — registry, tracer, wire-v5
// trace contexts in every frame — must not move a single leaf budget
// bit on a lossless plane. Two identical deployments over lossless
// SimTransports, one instrumented and one dark, must agree exactly.
TEST(HostObservability, TelemetryIsBitInvisibleOnALosslessPlane)
{
    const char *transport =
        R"({"backend":"sim","gatherDeadlineMs":40,
            "budgetDeadlineMs":40,"retryTimeoutMs":10})";

    net::SimTransport dark_net;
    rt::WorkerHost dark(loadDepth3(transport), depth3Peers(),
                        /*process=*/0, /*seed=*/7, dark_net);

    net::SimTransport lit_net;
    rt::WorkerHost lit(loadDepth3(transport), depth3Peers(),
                       /*process=*/0, /*seed=*/7, lit_net);
    telemetry::Registry registry;
    telemetry::PeriodTracer tracer;
    lit.setTelemetry(&registry, &tracer);

    ASSERT_EQ(dark.runPeriods(5), 5u);
    ASSERT_EQ(lit.runPeriods(5), 5u);

    // The instrumented run actually traced (the comparison would be
    // vacuous otherwise)...
    EXPECT_GT(lit.safetyAuditor().audits(), 0u);
    bool lit_hops = false;
    for (const auto &series : registry.snapshot()) {
        if (series.name == "capmaestro_hop_latency_ms"
            && series.histogram && series.histogram->count > 0)
            lit_hops = true;
    }
    EXPECT_TRUE(lit_hops);

    // ...and the allocations are identical to the last bit.
    const auto &a = dark.lastEdgeBudgets();
    const auto &b = lit.lastEdgeBudgets();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (const auto &[edge, budget] : a) {
        const auto found = b.find(edge);
        ASSERT_NE(found, b.end());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(budget),
                  std::bit_cast<std::uint64_t>(found->second))
            << "tree " << edge.first << " node " << edge.second;
    }
    EXPECT_EQ(dark.stats().budgetsApplied, lit.stats().budgetsApplied);
    EXPECT_EQ(dark.stats().defaultBudgets, lit.stats().defaultBudgets);
}

// -------------------- the shared plane on both runtimes (sim, lossless)

namespace {

constexpr const char *kSimTransport =
    R"({"backend":"sim","gatherDeadlineMs":40,
        "budgetDeadlineMs":40,"retryTimeoutMs":10})";

/** depth3Scenario() carrying kSimTransport's deadlines. */
std::string
simDepth3Scenario()
{
    std::string json = depth3Scenario();
    json.insert(json.rfind('}'),
                std::string(R"(, "transport": )") + kSimTransport);
    return json;
}

} // namespace

// The rigs live outside the anonymous namespace so the typed tests are
// named SharedObservability.<test><HostRig|RuntimeRig>.

/** The depth-3 plan as one WorkerHost over a lossless SimTransport. */
struct HostRig
{
    net::SimTransport net;
    rt::WorkerHost host{loadDepth3(kSimTransport), depth3Peers(),
                        /*process=*/0, /*seed=*/7, net};

    void setTelemetry(telemetry::Registry *registry,
                      telemetry::PeriodTracer *tracer)
    {
        host.setTelemetry(registry, tracer);
    }
    void run(std::size_t periods) { host.runPeriods(periods); }
    /** (document, aggregating owner) per /healthz endpoint. */
    std::vector<std::pair<util::Json, bool>> health() const
    {
        return {{host.healthJson(), true}};
    }
};

/**
 * The depth-3 plan (or, with no aggregation levels, the 2-level one) as
 * one WorkerRuntime per endpoint on the chaos harness over a lossless
 * SimTransport. A tracer follows the root's periods: one tracer per
 * process, as in a deployment.
 */
struct RuntimeRig
{
    explicit RuntimeRig(std::vector<std::uint32_t> agg_levels = {1})
        : dep(simDepth3Scenario(), rt::ChaosBackend::Sim,
              net::TransportConfig{}, /*seed=*/7, std::move(agg_levels))
    {
    }

    std::vector<rt::WorkerRuntime *> runtimes()
    {
        std::vector<rt::WorkerRuntime *> out;
        for (std::uint32_t e = 0; e < dep.plan().workers.size(); ++e)
            out.push_back(dep.unit(e));
        return out;
    }
    void setTelemetry(telemetry::Registry *registry,
                      telemetry::PeriodTracer *tracer)
    {
        for (rt::WorkerRuntime *runtime : runtimes())
            runtime->setTelemetry(registry,
                                  runtime->isRoom() ? tracer : nullptr);
    }
    void run(std::size_t periods)
    {
        dep.run(static_cast<std::uint32_t>(periods));
    }
    std::vector<std::pair<util::Json, bool>> health()
    {
        std::vector<std::pair<util::Json, bool>> docs;
        for (const rt::WorkerRuntime *runtime : runtimes()) {
            docs.emplace_back(runtime->healthJson(),
                              runtime->isRoom()
                                  || runtime->isAggregator());
        }
        return docs;
    }
    /** Every leaf's applied budgets, merged. */
    std::map<std::pair<std::size_t, topo::NodeId>, Watts> edgeBudgets()
    {
        std::map<std::pair<std::size_t, topo::NodeId>, Watts> all;
        for (const rt::WorkerRuntime *runtime : runtimes()) {
            for (const auto &[edge, budget] : runtime->lastEdgeBudgets())
                all.emplace(edge, budget);
        }
        return all;
    }

    rt::LockstepDeployment dep;
};

namespace {

/** Every series' value (histograms: sample count), keyed by name and
 *  labels. */
std::map<std::string, double>
seriesValues(const telemetry::Registry &registry)
{
    std::map<std::string, double> out;
    for (const auto &series : registry.snapshot()) {
        std::string key = series.name;
        for (const auto &[name, value] : series.labels)
            key += "," + name + "=" + value;
        out[key] = series.histogram
                       ? static_cast<double>(series.histogram->count)
                       : series.value;
    }
    return out;
}

template <typename Rig>
class SharedObservability : public ::testing::Test
{
};

using Rigs = ::testing::Types<HostRig, RuntimeRig>;
TYPED_TEST_SUITE(SharedObservability, Rigs);

} // namespace

// Both runtimes build /healthz from the one plane: the same `stats`
// block (every RuntimeStats field, under its camelCase name), the same
// membership block, and fleet + safety on every aggregating owner.
TYPED_TEST(SharedObservability, HealthzCarriesOneSchema)
{
    TypeParam rig;
    telemetry::Registry registry;
    rig.setTelemetry(&registry, nullptr);
    rig.run(3);

    std::set<std::string> fields;
    for (const rt::StatField &field : rt::kStatFields)
        fields.insert(field.name);
    ASSERT_EQ(fields.size(), std::size(rt::kStatFields));
    EXPECT_TRUE(fields.count("coHostedFrames"));
    EXPECT_TRUE(fields.count("retries"));

    for (const auto &[doc, aggregating] : rig.health()) {
        EXPECT_TRUE(doc.at("ok").asBool());
        EXPECT_DOUBLE_EQ(doc.numberOr("lastEpoch", -1.0), 3.0);
        EXPECT_DOUBLE_EQ(doc.numberOr("periods", -1.0), 3.0);
        std::set<std::string> keys;
        for (const auto &[key, value] : doc.at("stats").asObject())
            keys.insert(key);
        EXPECT_EQ(keys, fields);
        const util::Json &members = doc.at("membership");
        for (const char *key :
             {"generation", "joining", "draining", "left",
              "shadowPeriods"})
            EXPECT_NE(members.find(key), nullptr) << key;
        EXPECT_EQ(doc.find("fleet") != nullptr, aggregating);
        EXPECT_EQ(doc.find("safety") != nullptr, aggregating);
    }
}

// Detaching must drop every handle into the registry: afterwards the
// registry no longer moves, and destroying it is safe while the
// runtime keeps running (a use-after-free under ASan otherwise).
TYPED_TEST(SharedObservability, DetachDropsEveryRegistryHandle)
{
    TypeParam rig;
    auto registry = std::make_unique<telemetry::Registry>();
    telemetry::PeriodTracer tracer;
    rig.setTelemetry(registry.get(), &tracer);
    rig.run(2);
    const auto attached = seriesValues(*registry);
    double moved = 0.0;
    for (const auto &[key, value] : attached)
        moved += value;
    EXPECT_GT(moved, 0.0);

    rig.setTelemetry(nullptr, nullptr);
    rig.run(3);
    EXPECT_EQ(seriesValues(*registry), attached);

    registry.reset();
    rig.run(3);
    for (const auto &[doc, aggregating] : rig.health())
        EXPECT_DOUBLE_EQ(doc.numberOr("periods", -1.0), 8.0);
}

// Lockstep WorkerRuntimes export through the same plane as the host:
// hop histograms labeled {role, tier, kind, from_tier, to_tier}, hop
// spans, clean audits on every aggregating role, and /healthz — all
// without moving a budget bit against a dark fleet, in the 2-level
// and the depth-3 plan.
TEST(RuntimeObservability, LockstepRuntimesExportHopsHealthAndAudits)
{
    for (const std::vector<std::uint32_t> &levels :
         {std::vector<std::uint32_t>{}, std::vector<std::uint32_t>{1}}) {
        SCOPED_TRACE(levels.empty() ? "2-level" : "depth-3");
        RuntimeRig dark(levels);
        RuntimeRig lit(levels);
        telemetry::Registry registry;
        telemetry::PeriodTracer tracer;
        lit.setTelemetry(&registry, &tracer);
        dark.run(5);
        lit.run(5);

        std::set<std::string> kinds;
        for (const auto &series : registry.snapshot()) {
            if (series.name != "capmaestro_hop_latency_ms")
                continue;
            ASSERT_TRUE(series.histogram);
            EXPECT_GT(series.histogram->count, 0u);
            for (const char *label :
                 {"role", "tier", "kind", "from_tier", "to_tier"})
                EXPECT_FALSE(labelValue(series.labels, label).empty())
                    << label;
            EXPECT_TRUE(labelValue(series.labels, "process").empty());
            kinds.insert(labelValue(series.labels, "kind"));
        }
        EXPECT_TRUE(kinds.count("metrics"));
        EXPECT_TRUE(kinds.count("budget"));
        EXPECT_EQ(kinds.count("summary"), levels.empty() ? 0u : 1u);
        EXPECT_EQ(kinds.count("sub_budget"), levels.empty() ? 0u : 1u);

        bool saw_hop = false;
        const util::Json last = tracer.lastJson(1);
        ASSERT_EQ(last.asArray().size(), 1u);
        for (const util::Json &span :
             last.asArray().back().at("spans").asArray()) {
            if (span.stringOr("name", "") != "hop")
                continue;
            saw_hop = true;
            const util::Json &attrs = span.at("attrs");
            for (const char *key : {"kind", "from_tier", "to_tier"})
                EXPECT_FALSE(attrs.stringOr(key, "").empty()) << key;
            for (const char *key : {"from", "latencyMs", "traceId"})
                EXPECT_GE(attrs.numberOr(key, -1.0), 0.0) << key;
        }
        EXPECT_TRUE(saw_hop);

        std::size_t aggregating = 0;
        for (const auto &runtime : lit.runtimes()) {
            const util::Json health = runtime->healthJson();
            EXPECT_TRUE(health.at("ok").asBool());
            EXPECT_NE(health.find("stats"), nullptr);
            EXPECT_FALSE(
                health.at("membership").stringOr("self", "").empty());
            if (!runtime->isRoom() && !runtime->isAggregator()) {
                EXPECT_EQ(health.find("fleet"), nullptr);
                continue;
            }
            ++aggregating;
            ASSERT_NE(health.find("fleet"), nullptr);
            ASSERT_NE(health.find("safety"), nullptr);
            EXPECT_GT(runtime->safetyAuditor().audits(), 0u);
            EXPECT_EQ(runtime->safetyAuditor().violations(), 0u);
            EXPECT_GT(runtime->fleetHealth().unitCount(), 0u);
            EXPECT_DOUBLE_EQ(runtime->fleetHealth().degradedFraction(),
                             0.0);
        }
        EXPECT_EQ(aggregating, levels.empty() ? 1u : 3u);

        const auto a = dark.edgeBudgets();
        const auto b = lit.edgeBudgets();
        ASSERT_EQ(a.size(), b.size());
        ASSERT_FALSE(a.empty());
        for (const auto &[edge, budget] : a) {
            const auto found = b.find(edge);
            ASSERT_NE(found, b.end());
            EXPECT_EQ(std::bit_cast<std::uint64_t>(budget),
                      std::bit_cast<std::uint64_t>(found->second))
                << "tree " << edge.first << " node " << edge.second;
        }
        for (std::size_t e = 0; e < lit.runtimes().size(); ++e) {
            EXPECT_EQ(lit.runtimes()[e]->stats().defaultBudgets, 0u);
            EXPECT_EQ(dark.runtimes()[e]->stats().budgetsApplied,
                      lit.runtimes()[e]->stats().budgetsApplied);
        }
    }
}
