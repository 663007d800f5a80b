/**
 * @file
 * The shifting-controller algorithms of paper §4.3: per-priority metric
 * aggregation (metrics-gathering phase) and the four-step budget split
 * (budgeting phase). These are pure functions over child metrics so they
 * can be tested exhaustively in isolation; ControlTree wires them into the
 * hierarchy.
 *
 * Each phase also has an overload that writes into a caller-owned
 * result and reuses its storage, and both overloads of budgetChildren()
 * keep their working vectors in per-thread scratch: a controller that
 * keeps its result objects across periods splits and gathers without
 * touching the heap once warm. The value-returning forms run the same
 * code.
 */

#ifndef CAPMAESTRO_CONTROL_SHIFTING_HH
#define CAPMAESTRO_CONTROL_SHIFTING_HH

#include <span>
#include <vector>

#include "control/metrics.hh"
#include "util/units.hh"

namespace capmaestro::ctrl {

/**
 * Water-fill @p amount across items with upper bounds @p caps and
 * proportional weights @p weights. Items whose proportional share exceeds
 * their cap are clipped and the excess is redistributed among the rest.
 * When all weights are zero, capacity headroom is used as the weight.
 *
 * @return per-item allocation; sum <= amount; alloc[i] <= caps[i].
 */
std::vector<Watts> waterfill(Watts amount, const std::vector<Watts> &caps,
                             const std::vector<Watts> &weights);

/**
 * Metrics-gathering phase at one shifting controller.
 *
 * Aggregates child metrics by priority, then computes this node's
 * Prequest(j) top-down in priority order:
 *
 *   Prequest(j) = min( limit - sum_{h>j} Prequest(h) - sum_{l<j} Pcap_min(l),
 *                      sum_k Prequest_k(j) )
 *
 * clamped below at Pcap_min(j) (the floor is owed regardless), and
 * Pconstraint = min(limit, sum_k Pconstraint_k).
 *
 * @param children            metrics reported by each child
 * @param limit               this node's power limit (kUnlimited-safe)
 * @param report_by_priority  when false, the returned metrics are collapsed
 *                            to a single class (hides priorities upstream)
 */
NodeMetrics gatherMetrics(const std::vector<NodeMetrics> &children,
                          Watts limit, bool report_by_priority);

/** gatherMetrics() into @p out, reusing its storage (@p out must not
 *  be one of @p children). */
void gatherMetrics(std::span<const NodeMetrics> children, Watts limit,
                   bool report_by_priority, NodeMetrics &out);

/** Result of the budgeting phase at one node. */
struct BudgetSplit
{
    /** Budget assigned to each child (same order as the input). */
    std::vector<Watts> childBudgets;
    /**
     * False when the budget could not even cover the children's Pcap_min
     * floors (the floors are then scaled proportionally).
     */
    bool feasible = true;
    /** Budget left unassigned after step 4 (children at constraint). */
    Watts unallocated = 0.0;
};

/**
 * Budgeting phase at one shifting controller (paper §4.3.2).
 *
 *  1. Give every child its Pcap_min floor (all classes).
 *  2. Priority levels in descending order: grant each child its extra
 *     request (Prequest - Pcap_min) while the budget lasts.
 *  3. At the first level that does not fit, water-fill the remainder
 *     proportionally to (Pdemand - Pcap_min).
 *  4. Any leftover is assigned up to each child's Pconstraint.
 *
 * @param budget              power available at this node
 * @param children            metrics reported by each child
 * @param budget_by_priority  when false, each child's classes are merged
 *                            before splitting (No-Priority behavior)
 */
BudgetSplit budgetChildren(Watts budget,
                           const std::vector<NodeMetrics> &children,
                           bool budget_by_priority);

/** budgetChildren() into @p out, reusing its storage. */
void budgetChildren(Watts budget, std::span<const NodeMetrics> children,
                    bool budget_by_priority, BudgetSplit &out);

} // namespace capmaestro::ctrl

#endif // CAPMAESTRO_CONTROL_SHIFTING_HH
