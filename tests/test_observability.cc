/**
 * @file
 * Tests for the live observability plane (PR 8): the poll-driven HTTP
 * scrape endpoint, the fleet health rollup and online safety auditor,
 * telemetry export from a deep-plan WorkerHost (hop latency
 * histograms + stitched period traces), and the acceptance invariant
 * that attaching the whole plane — wire-v5 trace contexts included —
 * changes not a single bit of any leaf budget on a lossless plane.
 *
 * Set CAPMAESTRO_NO_NET=1 to skip the socket-bound tests (the HTTP
 * endpoint and the UDP host run); the sim-transport tests always run.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
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
#include "rt/host.hh"
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
}

// ------------------------------------------------- safety auditor

TEST(SafetyAuditor, FlagsOverdrawAndKeepsTheWorstSubject)
{
    telemetry::Registry registry;
    telemetry::SafetyAuditor auditor;
    auditor.setTelemetry(&registry, {{"role", "room"}});

    // committed + reserved within the grant: clean.
    EXPECT_TRUE(auditor.audit(1, "X@room", 1000.0, 800.0, 200.0));
    // Float accumulation inside the relative tolerance: still clean.
    EXPECT_TRUE(
        auditor.audit(2, "X@room", 1000.0, 1000.0 + 1e-8, 0.0));
    // A real overdraw is a violation.
    EXPECT_FALSE(auditor.audit(3, "X@room", 1000.0, 950.0, 100.0));
    // A worse one replaces the retained worst subject.
    EXPECT_FALSE(auditor.audit(4, "Y@agg4", 500.0, 700.0, 0.0));

    EXPECT_EQ(auditor.audits(), 4u);
    EXPECT_EQ(auditor.violations(), 2u);
    EXPECT_NEAR(auditor.worstOverdrawWatts(), 200.0, 1e-9);
    EXPECT_EQ(auditor.worstSubject(), "Y@agg4@epoch4");

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
