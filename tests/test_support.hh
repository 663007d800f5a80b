/**
 * @file
 * Helpers shared by more than one test binary: scenario documents and
 * the digest the golden tests pin.
 */

#ifndef CAPMAESTRO_TESTS_TEST_SUPPORT_HH
#define CAPMAESTRO_TESTS_TEST_SUPPORT_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace capmaestro::test_support {

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

/**
 * Depth-4 dual-feed scenario for agg_levels = {1, 2}: per tree,
 * root -> 2 pods -> 2 rows each -> 2 rack breakers each -> 2 supplies
 * each (16 servers, structurally parallel across both feeds). Worker
 * plan: 8 leaf workers (0-7), 4 row aggregators (8-11), 2 pod
 * aggregators (12-13), root (14).
 */
inline std::string
depth4Scenario()
{
    std::string trees;
    for (int feed = 0; feed < 2; ++feed) {
        std::string pods;
        for (int pod = 0; pod < 2; ++pod) {
            std::string rows;
            for (int row = 0; row < 2; ++row) {
                std::string racks;
                for (int rack = 0; rack < 2; ++rack) {
                    const int base =
                        pod * 8 + row * 4 + rack * 2;
                    racks += std::string(rack ? "," : "")
                             + R"({ "kind": "breaker", "name": "rk)"
                             + std::to_string(pod)
                             + std::to_string(row)
                             + std::to_string(rack)
                             + R"(", "rating": 900, "children": [)"
                             + R"({ "kind": "supply", "server": )"
                             + std::to_string(base)
                             + R"(, "supply": )"
                             + std::to_string(feed) + "},"
                             + R"({ "kind": "supply", "server": )"
                             + std::to_string(base + 1)
                             + R"(, "supply": )"
                             + std::to_string(feed) + "}]}";
                }
                rows += std::string(row ? "," : "")
                        + R"({ "kind": "breaker", "name": "row)"
                        + std::to_string(pod) + std::to_string(row)
                        + R"(", "rating": 1700, "children": [)"
                        + racks + "]}";
            }
            pods += std::string(pod ? "," : "")
                    + R"({ "kind": "breaker", "name": "pod)"
                    + std::to_string(pod)
                    + R"(", "rating": 3300, "children": [)" + rows
                    + "]}";
        }
        trees += std::string(feed ? "," : "") + R"({ "feed": )"
                 + std::to_string(feed) + R"(, "phase": 0, "name": ")"
                 + (feed == 0 ? "X" : "Y") + R"(", "root": { "kind": )"
                 + R"("breaker", "name": "top", "rating": 6400, )"
                 + R"("children": [)" + pods + "]}}";
    }
    std::string servers;
    for (int s = 0; s < 16; ++s) {
        servers += std::string(s ? "," : "") + R"({ "name": "S)"
                   + std::to_string(s) + R"(", "priority": )"
                   + std::to_string(s % 3 == 0 ? 1 : 0)
                   + R"(, "supplies": [{ "share": 0.5 }, )"
                   + R"({ "share": 0.5 }], "workload": { "type": )"
                   + R"("constant", "utilization": 0.6)"
                   + std::to_string(50 + s) + " }}";
    }
    return R"({ "feeds": 2, "trees": [)" + trees + R"(], "servers": [)"
           + servers + R"(], "service": { "policy": "global", )"
           + R"("spo": false }, "budgets": { "totalPerPhase": 6400 }})";
}

} // namespace capmaestro::test_support

#endif // CAPMAESTRO_TESTS_TEST_SUPPORT_HH
