#include "control/shifting.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/logging.hh"
#include "util/numeric.hh"

namespace capmaestro::ctrl {

namespace {

/**
 * waterfill() into @p alloc, with @p frozen as working storage (both
 * resized here, their storage reused).
 */
void
waterfillInto(Watts amount, std::span<const Watts> caps,
              std::span<const Watts> weights, std::vector<Watts> &alloc,
              std::vector<char> &frozen)
{
    if (caps.size() != weights.size())
        util::panic("waterfill: caps/weights size mismatch");
    alloc.assign(caps.size(), 0.0);
    if (amount <= 0.0)
        return;

    frozen.assign(caps.size(), 0);
    Watts remaining = amount;

    // Each pass either exhausts the remainder or freezes at least one item,
    // so this terminates in at most caps.size() passes.
    for (std::size_t pass = 0; pass < caps.size() + 1; ++pass) {
        double weight_sum = 0.0;
        double headroom_sum = 0.0;
        for (std::size_t i = 0; i < caps.size(); ++i) {
            if (frozen[i])
                continue;
            const double headroom = caps[i] - alloc[i];
            if (headroom <= 1e-12) {
                frozen[i] = 1;
                continue;
            }
            weight_sum += std::max(0.0, weights[i]);
            headroom_sum += headroom;
        }
        if (headroom_sum <= 1e-12 || remaining <= 1e-12)
            break;

        bool clipped = false;
        Watts granted_total = 0.0;
        for (std::size_t i = 0; i < caps.size(); ++i) {
            if (frozen[i])
                continue;
            const double headroom = caps[i] - alloc[i];
            double share;
            if (weight_sum > 1e-12) {
                share = remaining * std::max(0.0, weights[i]) / weight_sum;
            } else {
                share = remaining * headroom / headroom_sum;
            }
            if (share >= headroom - 1e-12) {
                share = headroom;
                frozen[i] = 1;
                clipped = true;
            }
            alloc[i] += share;
            granted_total += share;
        }
        remaining -= granted_total;
        if (!clipped || remaining <= 1e-12)
            break;
    }
}

/** Per-child, per-priority view used by the budgeting phase. */
struct ChildClassView
{
    Watts capMin = 0.0;
    Watts demand = 0.0;
    Watts request = 0.0;
};

/** budgetChildren()'s working vectors, kept per thread so that a
 *  steady-state split allocates nothing. */
struct SplitScratch
{
    std::vector<NodeMetrics> merged;
    std::vector<Priority> priorities;
    std::vector<Watts> need;
    std::vector<Watts> weight;
    std::vector<Watts> alloc;
    std::vector<char> frozen;
};

thread_local SplitScratch t_split;

} // namespace

std::vector<Watts>
waterfill(Watts amount, const std::vector<Watts> &caps,
          const std::vector<Watts> &weights)
{
    std::vector<Watts> alloc;
    std::vector<char> frozen;
    waterfillInto(amount, caps, weights, alloc, frozen);
    return alloc;
}

NodeMetrics
gatherMetrics(const std::vector<NodeMetrics> &children, Watts limit,
              bool report_by_priority)
{
    NodeMetrics out;
    gatherMetrics(children, limit, report_by_priority, out);
    return out;
}

void
gatherMetrics(std::span<const NodeMetrics> children, Watts limit,
              bool report_by_priority, NodeMetrics &out)
{
    out.clear();

    // Aggregate raw sums by priority (classes stay priority-descending).
    for (const auto &child : children) {
        for (const auto &c : child.classes())
            out.accumulate(c.priority, c.capMin, c.demand, c.request);
    }

    // Pconstraint = min(limit, sum of child constraints).
    Watts child_constraint_sum = 0.0;
    for (const auto &child : children)
        child_constraint_sum += child.constraint();
    out.setConstraint(std::min(limit, child_constraint_sum));

    // Recompute Prequest per priority with the allowable-request rule.
    // Classes are in descending priority order; walk them accumulating the
    // higher-priority requests and lower-priority floors.
    auto &classes = out.classes();
    Watts lower_capmin_sum = 0.0;
    for (const auto &c : classes)
        lower_capmin_sum += c.capMin;

    Watts higher_request_sum = 0.0;
    const Watts request_ceiling = out.constraint();
    for (auto &c : classes) {
        lower_capmin_sum -= c.capMin; // now the sum over strictly lower
        const Watts allowable =
            request_ceiling - higher_request_sum - lower_capmin_sum;
        c.request = std::min(allowable, c.request);
        // The floor is owed regardless of limits; never request below it.
        c.request = std::max(c.request, c.capMin);
        higher_request_sum += c.request;
    }

    if (!report_by_priority)
        out.collapseFrom(out);
}

BudgetSplit
budgetChildren(Watts budget, const std::vector<NodeMetrics> &children,
               bool budget_by_priority)
{
    BudgetSplit result;
    budgetChildren(budget, children, budget_by_priority, result);
    return result;
}

void
budgetChildren(Watts budget, std::span<const NodeMetrics> children,
               bool budget_by_priority, BudgetSplit &result)
{
    SplitScratch &scratch = t_split;
    result.childBudgets.assign(children.size(), 0.0);
    result.feasible = true;
    result.unallocated = 0.0;
    if (children.empty()) {
        result.unallocated = budget;
        return;
    }

    // Optionally merge each child's classes (No-Priority behavior), then
    // collect the union of priority levels in descending order.
    std::span<const NodeMetrics> view = children;
    if (!budget_by_priority) {
        if (scratch.merged.size() < children.size())
            scratch.merged.resize(children.size());
        for (std::size_t k = 0; k < children.size(); ++k)
            scratch.merged[k].collapseFrom(children[k]);
        view = std::span<const NodeMetrics>(scratch.merged.data(),
                                            children.size());
    }

    std::vector<Priority> &priorities = scratch.priorities;
    priorities.clear();
    for (const auto &child : view) {
        for (const auto &c : child.classes())
            priorities.push_back(c.priority);
    }
    std::sort(priorities.begin(), priorities.end(), std::greater<>());
    priorities.erase(std::unique(priorities.begin(), priorities.end()),
                     priorities.end());

    auto class_of = [](const NodeMetrics &m, Priority p) -> ChildClassView {
        const ClassMetrics *c = m.findClass(p);
        if (!c)
            return {};
        return {c->capMin, c->demand, c->request};
    };

    // Step 1: Pcap_min floors.
    Watts floor_sum = 0.0;
    for (std::size_t k = 0; k < view.size(); ++k) {
        result.childBudgets[k] = view[k].totalCapMin();
        floor_sum += result.childBudgets[k];
    }

    if (floor_sum > budget + 1e-9) {
        // Infeasible: not even the floors fit. Scale floors proportionally
        // (best-effort) and report infeasibility to the caller.
        result.feasible = false;
        const double scale = floor_sum > 0.0 ? budget / floor_sum : 0.0;
        for (auto &b : result.childBudgets)
            b = std::max(0.0, b * scale);
        result.unallocated = 0.0;
        return;
    }

    Watts remaining = budget - floor_sum;

    // Step 2 (+3): per priority level, grant extra requests; when a level
    // does not fit, water-fill by (Pdemand - Pcap_min) and stop.
    std::vector<Watts> &need = scratch.need;
    std::vector<Watts> &weight = scratch.weight;
    std::vector<Watts> &alloc = scratch.alloc;
    for (Priority p : priorities) {
        need.assign(view.size(), 0.0);
        weight.assign(view.size(), 0.0);
        Watts need_sum = 0.0;
        for (std::size_t k = 0; k < view.size(); ++k) {
            const ChildClassView c = class_of(view[k], p);
            need[k] = std::max(0.0, c.request - c.capMin);
            weight[k] = std::max(0.0, c.demand - c.capMin);
            need_sum += need[k];
        }
        if (need_sum <= remaining + 1e-9) {
            for (std::size_t k = 0; k < view.size(); ++k)
                result.childBudgets[k] += need[k];
            remaining -= std::min(need_sum, remaining);
        } else {
            // Step 3: the contested level.
            waterfillInto(remaining, need, weight, alloc, scratch.frozen);
            for (std::size_t k = 0; k < view.size(); ++k)
                result.childBudgets[k] += alloc[k];
            remaining = 0.0;
            break;
        }
    }

    // Step 4: leftover up to each child's constraint.
    if (remaining > 1e-9) {
        std::vector<Watts> &headroom = need;
        headroom.assign(view.size(), 0.0);
        for (std::size_t k = 0; k < view.size(); ++k) {
            headroom[k] = std::max(
                0.0, view[k].constraint() - result.childBudgets[k]);
        }
        waterfillInto(remaining, headroom, headroom, alloc,
                      scratch.frozen);
        Watts granted = 0.0;
        for (std::size_t k = 0; k < view.size(); ++k) {
            result.childBudgets[k] += alloc[k];
            granted += alloc[k];
        }
        remaining -= granted;
    }

    result.unallocated = util::snapNonNegative(remaining);
}

} // namespace capmaestro::ctrl
