/**
 * @file
 * Closed-loop equivalence between the two transport backends: the same
 * scenario driven once over a lossless SimTransport and once over real
 * 127.0.0.1 UDP sockets (the single-process loopback mode behind
 * `capmaestro_run --transport=udp`) must produce bit-identical budget,
 * power, and throughput traces — the §4.5 protocol hands every summary
 * and budget over verbatim whenever every frame makes its deadline, and
 * on loopback every frame does. Also locks in the issue's acceptance
 * criterion directly: a UDP-backed run completes with zero
 * protocol-degraded periods.
 *
 * Wall-clock cost: each UDP control period really sleeps through the
 * protocol's deadline schedule, so the tests shrink the deadlines to
 * keep the whole suite under a few seconds.
 *
 * Set CAPMAESTRO_NO_NET=1 to skip the socket-bound tests.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <string>

#include "config/loader.hh"
#include "core/events.hh"
#include "sim/closed_loop.hh"
#include "util/json.hh"

using namespace capmaestro;

namespace {

#define SKIP_WITHOUT_NET()                                            \
    do {                                                              \
        if (std::getenv("CAPMAESTRO_NO_NET") != nullptr)              \
            GTEST_SKIP() << "CAPMAESTRO_NO_NET is set";               \
    } while (0)

/** Dual-feed SPO testbed (Figure 7a shape): share mismatches so the
 *  §4.4 second round fires once caps bite — the hardest protocol path
 *  to keep bit-identical across backends. */
const char *kScenario = R"({
  "feeds": 2,
  "trees": [
    {
      "feed": 0, "phase": 0, "name": "X",
      "root": {
        "kind": "breaker", "name": "topCB", "rating": 1400,
        "children": [
          { "kind": "breaker", "name": "leftCB", "rating": 750,
            "children": [
              { "kind": "supply", "server": 0, "supply": 0 },
              { "kind": "supply", "server": 2, "supply": 0 } ] },
          { "kind": "breaker", "name": "rightCB", "rating": 750,
            "children": [
              { "kind": "supply", "server": 1, "supply": 0 },
              { "kind": "supply", "server": 3, "supply": 0 } ] }
        ]
      }
    },
    {
      "feed": 1, "phase": 0, "name": "Y",
      "root": {
        "kind": "breaker", "name": "topCB", "rating": 1400,
        "children": [
          { "kind": "breaker", "name": "leftCB", "rating": 750,
            "children": [
              { "kind": "supply", "server": 0, "supply": 1 },
              { "kind": "supply", "server": 2, "supply": 1 } ] },
          { "kind": "breaker", "name": "rightCB", "rating": 750,
            "children": [
              { "kind": "supply", "server": 1, "supply": 1 },
              { "kind": "supply", "server": 3, "supply": 1 } ] }
        ]
      }
    }
  ],
  "servers": [
    { "name": "SA", "priority": 1,
      "supplies": [ { "share": 0.5 }, { "share": 0.5 } ],
      "workload": { "type": "constant", "utilization": 0.684 } },
    { "name": "SB",
      "supplies": [ { "share": 0.5 }, { "share": 0.5 } ],
      "workload": { "type": "constant", "utilization": 0.686 } },
    { "name": "SC",
      "supplies": [ { "share": 0.53 }, { "share": 0.47 } ],
      "workload": { "type": "constant", "utilization": 0.722 } },
    { "name": "SD",
      "supplies": [ { "share": 0.46 }, { "share": 0.54 } ],
      "workload": { "type": "constant", "utilization": 0.734 } }
  ],
  "service": { "policy": "global", "spo": true },
  "budgets": { "totalPerPhase": 1400 }
})";

/** Deadline schedule shared by both backends; small so the UDP run's
 *  real sleeps stay short, generous enough that loopback frames never
 *  miss (a loopback round trip is well under a millisecond). */
const char *kProtocol = R"(,"gatherDeadlineMs":40,"budgetDeadlineMs":40,
  "spoGatherDeadlineMs":40,"spoBudgetDeadlineMs":40,
  "retryTimeoutMs":10)";

sim::ClosedLoopSim
makeRun(const std::string &backend, Seconds duration)
{
    auto scenario = config::loadScenario(util::parseJson(kScenario));
    config::applyTransportJson(
        scenario.service,
        util::parseJson("{\"backend\":\"" + backend + "\""
                        + std::string(kProtocol) + "}"));
    auto simulation = config::makeSimulation(std::move(scenario), 1);
    simulation.run(duration);
    return simulation;
}

std::size_t
degradedEventCount(const core::EventLog &log)
{
    return log.count(core::EventKind::StaleMetricsReused)
           + log.count(core::EventKind::MetricsLost)
           + log.count(core::EventKind::DefaultBudgetApplied)
           + log.count(core::EventKind::WorkerFailover)
           + log.count(core::EventKind::SpoFallback);
}

} // namespace

TEST(UdpClosedLoop, LoopbackRunHasZeroDegradedPeriods)
{
    SKIP_WITHOUT_NET();
    auto udp = makeRun("udp", 48);
    EXPECT_EQ(udp.service().lastStats().periodsRun, 5u);
    EXPECT_EQ(degradedEventCount(udp.eventLog()), 0u)
        << "UDP loopback run took degraded-mode decisions";
    EXPECT_FALSE(udp.anyBreakerTripped());
    // Real sockets carried the exchange: bytes actually moved.
    EXPECT_GT(udp.service().lastStats().messages.bytesOnWire, 0u);
}

TEST(UdpClosedLoop, BudgetsBitIdenticalToLosslessSimBackend)
{
    SKIP_WITHOUT_NET();
    const Seconds duration = 48;
    auto sim_run = makeRun("sim", duration);
    auto udp_run = makeRun("udp", duration);

    // Neither backend may have degraded — otherwise the comparison
    // below tests the fault path, not backend equivalence.
    ASSERT_EQ(degradedEventCount(sim_run.eventLog()), 0u);
    ASSERT_EQ(degradedEventCount(udp_run.eventLog()), 0u);

    const auto &sim_rec = sim_run.recorder();
    const auto &udp_rec = udp_run.recorder();
    ASSERT_EQ(sim_rec.names(), udp_rec.names());
    for (const auto &name : sim_rec.names()) {
        const auto &a = sim_rec.series(name);
        const auto &b = udp_rec.series(name);
        ASSERT_EQ(a.size(), b.size()) << name;
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].time, b[i].time) << name << "[" << i << "]";
            ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].value),
                      std::bit_cast<std::uint64_t>(b[i].value))
                << name << "[" << i << "] sim=" << a[i].value
                << " udp=" << b[i].value;
        }
    }
}
