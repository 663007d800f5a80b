/**
 * @file
 * Golden digest of a seeded ClosedLoopSim run. Every recorded series
 * (name, time, value bit pattern) and every event (kind, time, subject,
 * value bit pattern) is hashed into one 64-bit FNV-1a digest, and the
 * digest is pinned. A change that moves any plant double - a server's
 * power, a supply's share, a breaker's load, a budget - changes it.
 *
 * The digest may only be re-pinned by a change that means to alter
 * plant arithmetic and says so (see docs/testing.md).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "config/loader.hh"
#include "core/events.hh"
#include "sim/closed_loop.hh"
#include "util/json.hh"

using namespace capmaestro;

namespace {

/**
 * Two feeds, four dual-corded servers, SPO and the emergency fast path
 * on, the message plane at 2 % frame loss. SB is a hot spare that
 * parks a supply while its load is light and wakes it when the load
 * rises; capped near its floor it parks supply 0, so when feed 1 fails
 * it goes dark. SC has a load-dependent efficiency curve; SD
 * random-walks. Feed 1 fails mid-run, so feed 0 carries everything and
 * its breakers overload until capping clears it.
 */
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
              { "kind": "supply", "server": 1, "supply": 0 } ] },
          { "kind": "breaker", "name": "rightCB", "rating": 750,
            "children": [
              { "kind": "supply", "server": 2, "supply": 0 },
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
              { "kind": "supply", "server": 1, "supply": 1 } ] },
          { "kind": "breaker", "name": "rightCB", "rating": 750,
            "children": [
              { "kind": "supply", "server": 2, "supply": 1 },
              { "kind": "supply", "server": 3, "supply": 1 } ] }
        ]
      }
    }
  ],
  "servers": [
    { "name": "SA", "priority": 1,
      "supplies": [ { "share": 0.55 }, { "share": 0.45 } ],
      "workload": { "type": "constant", "utilization": 0.82 } },
    { "name": "SB", "hotSpare": true, "standbyThreshold": 300,
      "supplies": [ { "share": 0.5 }, { "share": 0.5 } ],
      "workload": { "type": "steps",
                    "steps": [ [0, 0.2], [60, 0.75], [170, 0.1] ] } },
    { "name": "SC",
      "supplies": [ { "share": 0.47, "ratedPower": 600 },
                    { "share": 0.53, "ratedPower": 600 } ],
      "workload": { "type": "sine", "mean": 0.7, "amplitude": 0.2,
                    "period": 90 } },
    { "name": "SD",
      "supplies": [ { "share": 0.5 }, { "share": 0.5 } ],
      "workload": { "type": "randomwalk", "start": 0.8, "step": 0.05,
                    "seed": 11 } }
  ],
  "service": { "policy": "global", "spo": true,
               "emergencyFastPath": true },
  "transport": { "dropRate": 0.02, "seed": 5 },
  "budgets": { "totalPerPhase": 1400 }
})";

constexpr Seconds kFailAt = 100;
constexpr Seconds kRunFor = 240;

/** 64-bit FNV-1a over a byte stream. */
class Fnv1a
{
  public:
    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Digest of every recorded series and every event of @p sim. */
std::uint64_t
digestOf(const sim::ClosedLoopSim &sim)
{
    Fnv1a h;
    const auto &rec = sim.recorder();
    for (const auto &name : rec.names()) {
        h.str(name);
        const auto &pts = rec.series(name);
        h.u64(pts.size());
        for (const auto &p : pts) {
            h.u64(static_cast<std::uint64_t>(p.time));
            h.u64(std::bit_cast<std::uint64_t>(p.value));
        }
    }
    for (const auto &e : sim.eventLog().events()) {
        h.u64(static_cast<std::uint64_t>(e.kind));
        h.u64(static_cast<std::uint64_t>(e.time));
        h.str(e.subject);
        h.u64(std::bit_cast<std::uint64_t>(e.value));
    }
    return h.value();
}

} // namespace

TEST(SimGolden, SeededRunMatchesPinnedDigest)
{
    auto sim = config::makeSimulation(
        config::loadScenario(util::parseJson(kScenario)), 3);
    sim.failFeedAt(kFailAt, 1, 1400.0);
    sim.run(kRunFor);

    // The scenario exercises what the digest is meant to guard.
    const auto &log = sim.eventLog();
    EXPECT_EQ(log.count(core::EventKind::FeedFailed), 1u);
    EXPECT_GT(log.count(core::EventKind::BreakerOverloadBegan), 0u);
    EXPECT_GT(log.count(core::EventKind::BreakerOverloadCleared), 0u);
    EXPECT_GT(log.count(core::EventKind::EmergencyPeriod), 0u);
    EXPECT_FALSE(sim.anyBreakerTripped());
    // 4 servers x (4 signals + 2 supply powers + 2 supply budgets) plus
    // 6 breakers.
    EXPECT_EQ(sim.recorder().names().size(), 4u * 8u + 6u);

    const std::uint64_t digest = digestOf(sim);
    EXPECT_EQ(digest, 0x3a5ff01f416640c4ull)
        << "golden digest moved: 0x" << std::hex << digest;
}
