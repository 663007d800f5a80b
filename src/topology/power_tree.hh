/**
 * @file
 * The per-(feed, phase) power distribution tree.
 *
 * CapMaestro replicates its control tree for each power feed and each phase
 * (paper §4.1); this class is the *physical* model a control tree mirrors.
 * Interior nodes are distribution devices (transformer, RPP, CDU, breaker,
 * contractual point) with a per-phase power rating and a continuous-load
 * derating factor; leaves are server supply ports referencing one power
 * supply of one server.
 */

#ifndef CAPMAESTRO_TOPOLOGY_POWER_TREE_HH
#define CAPMAESTRO_TOPOLOGY_POWER_TREE_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/units.hh"

namespace capmaestro::topo {

/** Index of a node within its PowerTree. */
using NodeId = std::int32_t;

/** Sentinel for "no node". */
constexpr NodeId kNoNode = -1;

/** Rating value meaning "no physical limit at this node". */
constexpr Watts kUnlimited = std::numeric_limits<Watts>::infinity();

/** The kind of physical equipment a tree node models. */
enum class NodeKind {
    Contractual, ///< utility contractual-draw point (budget, not hardware)
    Ats,         ///< automatic transfer switch (usually pass-through)
    Transformer, ///< step-down transformer
    Ups,         ///< uninterruptible power supply (usually pass-through)
    Rpp,         ///< remote power panel (branch circuit breakers)
    Cdu,         ///< cabinet distribution unit (rack PDU), per-phase breaker
    Breaker,     ///< a bare circuit breaker (testbed topologies)
    SupplyPort,  ///< leaf: outlet feeding one server power supply
};

/** Human-readable name of a NodeKind. */
const char *nodeKindName(NodeKind kind);

/** Reference from a supply-port leaf to a server's power supply. */
struct ServerSupplyRef
{
    /** Index of the server in the owning fleet. */
    std::int32_t server = -1;
    /** Index of the supply within the server (0-based). */
    std::int32_t supply = -1;

    bool operator==(const ServerSupplyRef &) const = default;
};

/** One node of a power distribution tree. */
struct TopoNode
{
    NodeId id = kNoNode;
    NodeId parent = kNoNode;
    NodeKind kind = NodeKind::Breaker;
    std::string name;
    /** Device rated power for this phase; kUnlimited for pass-throughs. */
    Watts rating = kUnlimited;
    /** Allowed continuous-load fraction of the rating (NEC-style). */
    Fraction derate = 1.0;
    /** Leaf payload; present iff kind == SupplyPort. */
    std::optional<ServerSupplyRef> supplyRef;
    std::vector<NodeId> children;

    /** Effective continuous power limit (rating x derate). */
    Watts limit() const
    {
        return rating == kUnlimited ? kUnlimited : rating * derate;
    }
};

/**
 * An immutable-shape tree of TopoNodes (nodes are added, never removed).
 *
 * The tree records which feed and phase it belongs to so that diagnostics
 * and control-tree construction can label controllers unambiguously.
 */
class PowerTree
{
  public:
    /**
     * @param feed   feed index (0 = A/X side, 1 = B/Y side, ...)
     * @param phase  phase index (0..2 for three-phase distribution)
     * @param name   label for diagnostics, e.g. "feedA.phase0"
     */
    PowerTree(int feed, int phase, std::string name);

    /** Create the root node. Must be called exactly once, first. */
    NodeId makeRoot(NodeKind kind, const std::string &name, Watts rating,
                    Fraction derate = 1.0);

    /** Add an interior node beneath @p parent. */
    NodeId addChild(NodeId parent, NodeKind kind, const std::string &name,
                    Watts rating, Fraction derate = 1.0);

    /** Add a supply-port leaf beneath @p parent. */
    NodeId addSupplyPort(NodeId parent, const std::string &name,
                         ServerSupplyRef ref,
                         Watts rating = kUnlimited, Fraction derate = 1.0);

    /** Node accessor (checked). */
    const TopoNode &node(NodeId id) const;

    /** Mutable node accessor (checked). */
    TopoNode &node(NodeId id);

    /** Root node id (kNoNode before makeRoot). */
    NodeId root() const { return root_; }

    /** Total number of nodes. */
    std::size_t size() const { return nodes_.size(); }

    /** Feed index this tree belongs to. */
    int feed() const { return feed_; }

    /** Phase index this tree belongs to. */
    int phase() const { return phase_; }

    /** Tree label. */
    const std::string &name() const { return name_; }

    /** Pre-order traversal applying @p fn to every node. */
    void forEach(const std::function<void(const TopoNode &)> &fn) const;

    /** All supply-port refs in the subtree under @p id (pre-order). */
    std::vector<ServerSupplyRef> suppliesUnder(NodeId id) const;

    /** All supply-port node ids (whole tree). */
    std::vector<NodeId> supplyPorts() const;

    /**
     * Validate structural invariants: a root exists, ratings are positive,
     * derates in (0, 1], exactly the SupplyPort nodes carry supply refs,
     * interior nodes have children, and supply refs are unique.
     * Calls fatal() on violation; returns the number of supply ports.
     */
    std::size_t validate() const;

  private:
    int feed_;
    int phase_;
    std::string name_;
    NodeId root_ = kNoNode;
    std::vector<TopoNode> nodes_;

    NodeId allocate(NodeId parent, NodeKind kind, const std::string &name,
                    Watts rating, Fraction derate);
};

/** One station whose load exceeds its bound (see overloads()). */
struct Overload
{
    NodeId node = kNoNode;
    /** Watts applied beneath the station. */
    Watts load = 0.0;
    /** limit(); at the scope's top, min(limit(), its budget). */
    Watts bound = 0.0;
};

/**
 * DESIGN.md invariants 1-2 as one predicate: the stations of a scope
 * whose load exceeds their bound. The scope is @p tree from @p top down
 * to the stations named in @p applied, each with the watts it applies
 * (a budget, a Pcap_min default, or the floor a silent unit rides). A
 * station's load is its own applied watts, else the sum of its
 * children's loads; its bound is limit(), and at @p top
 * min(limit(), @p top_budget). A relative tolerance of 1e-9 (at least
 * 1e-6 W) absorbs float accumulation; a NaN load always overloads.
 *
 * @return every overloaded station, in pre-order (empty: safe)
 */
std::vector<Overload> overloads(const PowerTree &tree, NodeId top,
                                Watts top_budget,
                                const std::map<NodeId, Watts> &applied);

} // namespace capmaestro::topo

#endif // CAPMAESTRO_TOPOLOGY_POWER_TREE_HH
