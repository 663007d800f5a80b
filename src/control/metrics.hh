/**
 * @file
 * Per-priority power metrics exchanged between controllers (paper §4.3.1).
 *
 * Each node of a control tree summarizes the servers beneath it with, per
 * priority level j:
 *
 *   - Pcap_min(j):  minimum budget that must be allocated to priority-j
 *                   servers under the node,
 *   - Pdemand(j):   their total power demand,
 *   - Prequest(j):  the budget they are allowed to request given the node's
 *                   power limit and the needs of other priority levels,
 *
 * plus a single Pconstraint: the largest budget the node can usefully
 * absorb (its own limit and its children's constraints).
 *
 * Conveying only these per-priority summaries upstream — instead of
 * per-server data — is what makes the algorithm scale (§4.1).
 */

#ifndef CAPMAESTRO_CONTROL_METRICS_HH
#define CAPMAESTRO_CONTROL_METRICS_HH

#include <string>
#include <vector>

#include "util/units.hh"

namespace capmaestro::ctrl {

/** Metrics for one priority class at one node. */
struct ClassMetrics
{
    Priority priority = 0;
    /** Minimum total budget owed to this class (Pcap_min). */
    Watts capMin = 0.0;
    /** Total uncapped demand of this class (Pdemand). */
    Watts demand = 0.0;
    /** Budget this class requests given limits (Prequest). */
    Watts request = 0.0;
};

/**
 * The full metric summary a node reports to its parent: priority classes
 * in descending priority order, plus the node constraint.
 */
class NodeMetrics
{
  public:
    NodeMetrics() = default;

    /** Classes in strictly descending priority order. */
    const std::vector<ClassMetrics> &classes() const { return classes_; }

    /** Mutable access (keeps ordering responsibilities with the caller). */
    std::vector<ClassMetrics> &classes() { return classes_; }

    /** Pconstraint: maximum budget the node can absorb. */
    Watts constraint() const { return constraint_; }

    /** Set Pconstraint. */
    void setConstraint(Watts c) { constraint_ = c; }

    /**
     * Add (or merge into) the class for @p priority, accumulating capMin,
     * demand, and request. Keeps descending order.
     */
    void accumulate(Priority priority, Watts cap_min, Watts demand,
                    Watts request);

    /** Sum of capMin across classes. */
    Watts totalCapMin() const;

    /** Sum of demand across classes. */
    Watts totalDemand() const;

    /** Sum of request across classes. */
    Watts totalRequest() const;

    /** Lookup a class; nullptr when absent. */
    const ClassMetrics *findClass(Priority priority) const;

    /**
     * Collapse all classes into a single priority-0 class (used when a
     * controller is configured to hide priorities from its parent, i.e.,
     * the No-Priority and Local-Priority baselines). The merged request is
     * additionally clipped to the constraint.
     */
    NodeMetrics collapsed() const;

    /** True when there are no classes (dead/failed leaf). */
    bool empty() const { return classes_.empty(); }

    /**
     * True when every class's capMin, demand and request and the
     * constraint are finite. Receivers drop a summary that fails this
     * before it reaches the §4.3 merge; allocates nothing.
     */
    bool finite() const;

    /** Reset to the empty state with zero constraint. */
    void clear();

    /** Debug rendering. */
    std::string toString() const;

  private:
    std::vector<ClassMetrics> classes_;
    Watts constraint_ = 0.0;
};

} // namespace capmaestro::ctrl

#endif // CAPMAESTRO_CONTROL_METRICS_HH
