/**
 * @file
 * Iteration body of DistributedControlPlane's direct mode: the
 * gather/budget exchange chained tier by tier over a core::TreePlan
 * worker tree of any depth (the 2-level plan is the case with no
 * aggregator tier), in process.
 *
 * RoomWorker fragments pass boundary summaries up and budgets down
 * verbatim, so the result is bit-identical to the monolithic
 * ControlTree because gatherMetrics/budgetChildren are associative.
 * This is the core-level oracle the deep runtimes (rt::WorkerHost,
 * rt::WorkerRuntime) are checked against; the deep §4.5 message plane
 * itself lives only there (rt::AggregatorRole).
 */

#include <map>
#include <utility>
#include <vector>

#include "core/distributed.hh"

namespace capmaestro::core {

namespace {

/** Station of worker @p w in tree @p t, or kNoNode. */
topo::NodeId
stationIn(const TreePlan::Worker &w, std::size_t t)
{
    const auto it = w.stations.find(t);
    return it == w.stations.end() ? topo::kNoNode : it->second;
}

} // namespace

MessageStats
DistributedControlPlane::iterateDirectDeep(
    const std::vector<Watts> &root_budgets)
{
    MessageStats stats;
    const auto iterate_span = tracer_
                                  ? tracer_->begin("iterate")
                                  : telemetry::PeriodTracer::kNoSpan;
    lastTreeMetrics_.assign(system_.trees().size(), {});
    const std::uint32_t tiers = plan_.tiers();

    for (std::size_t t = 0; t < system_.trees().size(); ++t) {
        if (system_.feedFailed(system_.tree(t).feed()))
            continue;
        const auto tree_span =
            tracer_ ? tracer_->begin("tree", iterate_span)
                    : telemetry::PeriodTracer::kNoSpan;

        // Upstream: summaries per station, built tier by tier.
        std::map<topo::NodeId, ctrl::NodeMetrics> summary;
        for (const auto &[key, rack] : edgeOwner_) {
            if (key.first != t)
                continue;
            ctrl::NodeMetrics m =
                racks_[rack].computeMetrics(t, key.second);
            ++stats.metricsMessages;
            stats.metricClassesSent += m.classes().size();
            summary.emplace(key.second, std::move(m));
        }
        lastTreeMetrics_[t] = summary;

        for (std::uint32_t tier = 1; tier + 1 < tiers; ++tier) {
            for (const std::uint32_t ep : plan_.tierEndpoints(tier)) {
                const TreePlan::Worker &w = plan_.workers[ep];
                const topo::NodeId top = stationIn(w, t);
                if (top == topo::kNoNode)
                    continue;
                std::map<topo::NodeId, ctrl::NodeMetrics> boundary;
                for (const std::uint32_t c : w.children) {
                    const topo::NodeId cs =
                        stationIn(plan_.workers[c], t);
                    const auto got = summary.find(cs);
                    if (cs != topo::kNoNode && got != summary.end())
                        boundary.emplace(cs, got->second);
                }
                ctrl::NodeMetrics m =
                    aggs_[ep - plan_.leafWorkers].gatherTop(t,
                                                            boundary);
                ++stats.summaryMessages;
                stats.metricClassesSent += m.classes().size();
                summary.emplace(top, std::move(m));
            }
        }

        // Root worker: gather its boundary, split the root budget.
        std::map<topo::NodeId, ctrl::NodeMetrics> root_boundary;
        for (const std::uint32_t c : plan_.root().children) {
            const topo::NodeId cs = stationIn(plan_.workers[c], t);
            const auto got = summary.find(cs);
            if (cs != topo::kNoNode && got != summary.end())
                root_boundary.emplace(cs, got->second);
        }
        std::map<topo::NodeId, Watts> station_budget =
            room_.iterate(t, root_boundary, root_budgets[t]);

        // Downstream: aggregators split tier by tier.
        for (std::uint32_t tier = tiers - 2; tier >= 1; --tier) {
            for (const std::uint32_t ep : plan_.tierEndpoints(tier)) {
                const TreePlan::Worker &w = plan_.workers[ep];
                const topo::NodeId top = stationIn(w, t);
                if (top == topo::kNoNode)
                    continue;
                const auto got = station_budget.find(top);
                if (got == station_budget.end())
                    continue;
                ++stats.subBudgetMessages;
                const auto split =
                    aggs_[ep - plan_.leafWorkers].budgetDown(
                        t, got->second);
                for (const auto &[node, b] : split)
                    station_budget[node] = b;
            }
        }

        std::size_t edges = 0;
        for (const auto &[key, rack] : edgeOwner_) {
            if (key.first != t)
                continue;
            const auto got = station_budget.find(key.second);
            if (got == station_budget.end())
                continue;
            ++stats.budgetMessages;
            ++edges;
            racks_[rack].applyBudget(t, key.second, got->second);
        }
        if (tracer_) {
            tracer_->num(tree_span, "tree", static_cast<double>(t));
            tracer_->num(tree_span, "edges",
                         static_cast<double>(edges));
            tracer_->end(tree_span);
        }
    }
    if (tracer_) {
        tracer_->num(iterate_span, "metrics_messages",
                     static_cast<double>(stats.metricsMessages));
        tracer_->num(iterate_span, "summary_messages",
                     static_cast<double>(stats.summaryMessages));
        tracer_->num(iterate_span, "budget_messages",
                     static_cast<double>(stats.budgetMessages));
        tracer_->end(iterate_span);
    }
    return stats;
}

} // namespace capmaestro::core
