/**
 * @file
 * A control tree mirroring one (feed, phase) power tree (paper §4.1).
 *
 * Interior topology nodes get shifting controllers; supply-port leaves get
 * the per-supply half of a capping controller. One full control iteration
 * is gather() (metrics flow upstream) followed by allocate() (budgets flow
 * downstream), after which every leaf holds the AC budget for its supply.
 *
 * Priority handling is configured per tree with two flags that implement
 * the three policies evaluated in the paper (§6.2):
 *
 *   Global Priority : leaf-parents and upper levels both priority-aware
 *   Local Priority  : leaf-parents priority-aware, hidden from upper levels
 *   No Priority     : priorities ignored everywhere
 */

#ifndef CAPMAESTRO_CONTROL_CONTROL_TREE_HH
#define CAPMAESTRO_CONTROL_CONTROL_TREE_HH

#include <cmath>
#include <map>
#include <vector>

#include "control/metrics.hh"
#include "control/shifting.hh"
#include "topology/power_tree.hh"
#include "util/units.hh"

namespace capmaestro::ctrl {

/** Priority-awareness configuration for a control tree. */
struct TreePolicy
{
    /** Leaf-parent controllers split budgets by priority. */
    bool leafPriorityAware = true;
    /** Upper-level controllers split by priority and see priorities. */
    bool upperPriorityAware = true;

    /** CapMaestro's Global Priority policy. */
    static TreePolicy globalPriority() { return {true, true}; }

    /** Dynamo-style Local Priority (leaf groups only). */
    static TreePolicy localPriority() { return {true, false}; }

    /** Priority-oblivious baseline. */
    static TreePolicy noPriority() { return {false, false}; }
};

/**
 * Input a capping controller reports for one supply leaf, already scaled
 * by the supply's share r of the server load (paper §4.3.1, level-1
 * formulas):
 *
 *   capMin     = r x Pcap_min(server)
 *   demand     = r x max(Pdemand(server), Pcap_min(server))
 *   constraint = r x Pcap_max(server)
 */
struct LeafInput
{
    Priority priority = 0;
    Watts capMin = 0.0;
    Watts demand = 0.0;
    Watts constraint = 0.0;
    /** False when the supply or its feed is dead; metrics become zero. */
    bool live = true;

    /** A live input's capMin, demand and constraint are finite (a dead
     *  one carries no watts). setLeafInput() refuses any other. */
    bool finite() const
    {
        return !live
               || (std::isfinite(capMin) && std::isfinite(demand)
                   && std::isfinite(constraint));
    }
};

/** Outcome of one allocate() pass. */
struct AllocationOutcome
{
    /**
     * True when every node could cover its children's Pcap_min floors.
     * When false, floors were scaled best-effort and servers may receive
     * unenforceable budgets.
     */
    bool feasible = true;
    /** Power left unallocated at the root (after step 4). */
    Watts unallocatedAtRoot = 0.0;
};

/** Control tree over one physical (feed, phase) power tree. */
class ControlTree
{
  public:
    /**
     * @param tree    physical tree to mirror (not owned; must outlive this)
     * @param policy  priority-awareness flags
     */
    ControlTree(const topo::PowerTree &tree, TreePolicy policy);

    /**
     * Set (replace) a leaf's reported metrics by supply reference. A
     * non-finite @p input would make the whole split NaN, so it is
     * refused and the leaf keeps its last input (returns false).
     */
    bool setLeafInput(const topo::ServerSupplyRef &ref,
                      const LeafInput &input);

    /** Mark every leaf dead (used when this tree's feed fails). */
    void clearAllLeaves();

    /** Metrics-gathering phase: recompute all node metrics bottom-up. */
    void gather();

    /**
     * Budgeting phase: split @p root_budget down the tree. The effective
     * root budget is min(root_budget, root node limit). gather() must
     * have run since the last leaf-input change.
     */
    AllocationOutcome allocate(Watts root_budget);

    /** Budget assigned to the supply leaf for @p ref (after allocate()). */
    Watts leafBudget(const topo::ServerSupplyRef &ref) const;

    /** Budget assigned to any node by topo node id (after allocate()). */
    Watts nodeBudget(topo::NodeId id) const;

    /** Metrics of any node by topo node id (after gather()). */
    const NodeMetrics &nodeMetrics(topo::NodeId id) const;

    /** Root metrics (the whole tree's summary). */
    const NodeMetrics &rootMetrics() const;

    /** All supply refs with leaves in this tree. */
    std::vector<topo::ServerSupplyRef> leafRefs() const;

    /** The mirrored physical tree. */
    const topo::PowerTree &topoTree() const { return tree_; }

    /** Tree policy. */
    const TreePolicy &policy() const { return policy_; }

    /**
     * Number of parent->child metric/budget messages one full iteration
     * exchanges (for the scalability analysis of §5).
     */
    std::size_t messagesPerIteration() const;

  private:
    struct CtrlNode
    {
        Watts limit = topo::kUnlimited;
        bool isLeaf = false;
        bool budgetByPriority = true;
        bool reportByPriority = true;
        LeafInput leaf;
        NodeMetrics metrics;
        Watts budget = 0.0;
    };

    const topo::PowerTree &tree_;
    TreePolicy policy_;
    /** Indexed by topo::NodeId. */
    std::vector<CtrlNode> nodes_;
    /** (server, supply) -> topo node id. */
    std::map<std::pair<std::int32_t, std::int32_t>, topo::NodeId> leafIndex_;

    void gatherNode(topo::NodeId id);
    void budgetNode(topo::NodeId id, AllocationOutcome &outcome);
};

} // namespace capmaestro::ctrl

#endif // CAPMAESTRO_CONTROL_CONTROL_TREE_HH
