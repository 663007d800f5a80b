/**
 * @file
 * Helpers shared by more than one test binary: scenario documents, the
 * digest the golden tests pin, and the safety predicate's report.
 */

#ifndef CAPMAESTRO_TESTS_TEST_SUPPORT_HH
#define CAPMAESTRO_TESTS_TEST_SUPPORT_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "control/control_tree.hh"
#include "topology/power_tree.hh"

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

/** One "<station> <load> W > <bound> W; " per entry of @p overs. */
inline std::string
describeOverloads(const topo::PowerTree &tree,
                  const std::vector<topo::Overload> &overs)
{
    std::string out;
    for (const topo::Overload &over : overs) {
        out += tree.node(over.node).name + " " + std::to_string(over.load)
               + " W > " + std::to_string(over.bound) + " W; ";
    }
    return out;
}

/** The stations topo::overloads() finds over their bound, described:
 *  "" when the scope is safe. */
inline std::string
overloadReport(const topo::PowerTree &tree, topo::NodeId top,
               Watts top_budget, const std::map<topo::NodeId, Watts> &applied)
{
    return describeOverloads(tree,
                             topo::overloads(tree, top, top_budget, applied));
}

/** Every supply leaf's budget in @p ct by node id: the watts a whole
 *  tree applies. */
inline std::map<topo::NodeId, Watts>
leafBudgets(const ctrl::ControlTree &ct)
{
    std::map<topo::NodeId, Watts> out;
    for (const topo::NodeId leaf : ct.topoTree().supplyPorts())
        out[leaf] = ct.nodeBudget(leaf);
    return out;
}

/**
 * Controller @p node's own split in @p ct, checked with
 * topo::overloads(): the sum of its children's budgets against
 * min(its limit, @p budget). Only @p node's verdict is read; a child
 * budgeted above its own limit is clamped by the child's split, which
 * its own call checks. "" when the split is safe.
 */
inline std::string
splitReport(const ctrl::ControlTree &ct, topo::NodeId node, Watts budget)
{
    const topo::PowerTree &tree = ct.topoTree();
    std::map<topo::NodeId, Watts> children;
    for (const topo::NodeId child : tree.node(node).children)
        children[child] = ct.nodeBudget(child);
    std::vector<topo::Overload> mine;
    for (const topo::Overload &over :
         topo::overloads(tree, node, budget, children)) {
        if (over.node == node)
            mine.push_back(over);
    }
    return describeOverloads(tree, mine);
}

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
