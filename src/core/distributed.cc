#include "core/distributed.hh"

#include <algorithm>

#include "net/wire.hh"
#include "util/logging.hh"

namespace capmaestro::core {

const char *
degradedKindName(DegradedKind kind)
{
    switch (kind) {
      case DegradedKind::StaleMetricsReused:   return "stale-metrics";
      case DegradedKind::MetricsLost:          return "metrics-lost";
      case DegradedKind::DefaultBudgetApplied: return "default-budget";
      case DegradedKind::SpoFallback:          return "spo-fallback";
    }
    return "unknown";
}

namespace {

/** A message-plane frame awaiting delivery, keyed by its edge. */
struct Pending
{
    std::size_t tree;
    topo::NodeId node;
    std::size_t rack;
    std::vector<std::uint8_t> frame;
};

/**
 * One §4.5 phase's retransmission schedule: every retryTimeoutMs after
 * @p start, poll the receivers and re-send each pending frame whose
 * (tree, edge) key is not yet in @p delivered, until everything is in,
 * the attempts run out, or the next retry would pass @p deadline; then
 * poll once more at the deadline. Upstream frames travel rack -> room,
 * downstream ones room -> rack.
 */
template <typename Delivered, typename Poll>
void
retransmitUntil(net::Transport &tp, const net::ProtocolConfig &protocol,
                double start, double deadline, bool upstream,
                net::Transport::Endpoint room,
                const std::vector<Pending> &pending,
                const Delivered &delivered, const Poll &poll,
                std::size_t &retries)
{
    for (int attempt = 1; attempt < protocol.maxAttempts; ++attempt) {
        const double next = start + attempt * protocol.retryTimeoutMs;
        if (next >= deadline)
            break;
        tp.advanceTo(next);
        poll();
        bool all_in = true;
        for (const Pending &p : pending) {
            if (delivered.count({p.tree, p.node}))
                continue;
            all_in = false;
            ++retries;
            const auto rack = static_cast<net::Transport::Endpoint>(p.rack);
            tp.send(upstream ? rack : room, upstream ? room : rack,
                    p.frame);
        }
        if (all_in)
            break;
    }
    tp.advanceTo(deadline);
    poll();
}

} // namespace

// ---------------------------------------------------------------- RackWorker

RackWorker::RackWorker(const topo::PowerSystem &system,
                       ctrl::TreePolicy policy)
    : system_(system), policy_(policy)
{
}

void
RackWorker::addEdge(std::size_t tree, topo::NodeId node)
{
    Edge edge;
    edge.tree = tree;
    edge.node = node;
    const auto &topo_tree = system_.tree(tree);
    for (const topo::NodeId c : topo_tree.node(node).children) {
        const auto &child = topo_tree.node(c);
        if (child.kind != topo::NodeKind::SupplyPort) {
            util::fatal("RackWorker: edge node %s has a non-leaf "
                        "child; mixed fan-out is not partitionable",
                        topo_tree.node(node).name.c_str());
        }
        edge.leaves.push_back(*child.supplyRef);
        ctrl::LeafInput dead;
        dead.live = false;
        edge.inputs.push_back(dead);
    }
    edge.leafMetrics.resize(edge.leaves.size());
    edge.leafBudgets.assign(edge.leaves.size(), 0.0);
    edges_.push_back(std::move(edge));
}

RackWorker::Edge &
RackWorker::findEdge(std::size_t tree, topo::NodeId node)
{
    for (Edge &edge : edges_) {
        if (edge.tree == tree && edge.node == node)
            return edge;
    }
    util::panic("RackWorker: edge %zu/%d not owned by this worker", tree,
                node);
}

const RackWorker::Edge &
RackWorker::findEdge(std::size_t tree, topo::NodeId node) const
{
    return const_cast<RackWorker *>(this)->findEdge(tree, node);
}

void
RackWorker::setLeafInput(std::size_t tree,
                         const topo::ServerSupplyRef &ref,
                         const ctrl::LeafInput &input)
{
    for (Edge &edge : edges_) {
        if (edge.tree != tree)
            continue;
        for (std::size_t i = 0; i < edge.leaves.size(); ++i) {
            if (edge.leaves[i] == ref) {
                edge.inputs[i] = input;
                return;
            }
        }
    }
    util::panic("RackWorker: supply %d.%d not under this worker",
                ref.server, ref.supply);
}

void
RackWorker::refreshLeafMetrics(Edge &edge)
{
    const auto &topo_tree = system_.tree(edge.tree);
    for (std::size_t i = 0; i < edge.leaves.size(); ++i) {
        ctrl::NodeMetrics m;
        const ctrl::LeafInput &in = edge.inputs[i];
        if (in.live) {
            // Identical to ControlTree's leaf handling.
            const topo::NodeId leaf_node =
                topo_tree.node(edge.node).children[i];
            const Watts demand = std::max(in.demand, in.capMin);
            const Watts constraint = std::min(
                in.constraint, topo_tree.node(leaf_node).limit());
            m.accumulate(in.priority, in.capMin, demand, demand);
            m.setConstraint(constraint);
        }
        edge.leafMetrics[i] = std::move(m);
    }
}

ctrl::NodeMetrics
RackWorker::computeMetrics(std::size_t tree, topo::NodeId node)
{
    Edge &edge = findEdge(tree, node);
    refreshLeafMetrics(edge);
    const Watts limit = system_.tree(tree).node(node).limit();
    return ctrl::gatherMetrics(edge.leafMetrics, limit,
                               policy_.upperPriorityAware);
}

void
RackWorker::applyBudget(std::size_t tree, topo::NodeId node, Watts budget)
{
    Edge &edge = findEdge(tree, node);
    // Mirror ControlTree: never distribute beyond the device limit.
    const Watts usable =
        std::min(budget, system_.tree(tree).node(node).limit());
    const auto split = ctrl::budgetChildren(usable, edge.leafMetrics,
                                            policy_.leafPriorityAware);
    edge.leafBudgets = split.childBudgets;
}

Watts
RackWorker::defaultBudget(std::size_t tree, topo::NodeId node) const
{
    const Edge &edge = findEdge(tree, node);
    Watts floor = 0.0;
    for (const ctrl::LeafInput &in : edge.inputs) {
        if (in.live)
            floor += in.capMin;
    }
    return std::min(floor, system_.tree(tree).node(node).limit());
}

Watts
RackWorker::leafBudget(std::size_t tree,
                       const topo::ServerSupplyRef &ref) const
{
    for (const Edge &edge : edges_) {
        if (edge.tree != tree)
            continue;
        for (std::size_t i = 0; i < edge.leaves.size(); ++i) {
            if (edge.leaves[i] == ref)
                return edge.leafBudgets[i];
        }
    }
    util::panic("RackWorker: supply %d.%d not under this worker",
                ref.server, ref.supply);
}

// ---------------------------------------------------------------- RoomWorker

RoomWorker::RoomWorker(const topo::PowerSystem &system,
                       std::vector<std::set<topo::NodeId>> edge_nodes,
                       ctrl::TreePolicy policy)
    : system_(system), edgeNodes_(std::move(edge_nodes)), policy_(policy),
      lastCache_(edgeNodes_.size())
{
}

RoomWorker::RoomWorker(const topo::PowerSystem &system,
                       std::vector<topo::NodeId> tops,
                       std::vector<std::set<topo::NodeId>> boundaries,
                       ctrl::TreePolicy policy)
    : system_(system), edgeNodes_(std::move(boundaries)),
      policy_(policy), tops_(std::move(tops)),
      lastCache_(edgeNodes_.size())
{
    if (tops_.size() != edgeNodes_.size()) {
        util::fatal("RoomWorker: %zu fragment tops for %zu boundary "
                    "sets",
                    tops_.size(), edgeNodes_.size());
    }
}

topo::NodeId
RoomWorker::topOf(std::size_t tree) const
{
    if (tops_.empty())
        return system_.tree(tree).root();
    const topo::NodeId top = tops_.at(tree);
    if (top == topo::kNoNode) {
        util::fatal("RoomWorker: no fragment in tree %zu", tree);
    }
    return top;
}

ctrl::NodeMetrics
RoomWorker::gatherAbove(std::size_t tree, topo::NodeId node,
                        const std::map<topo::NodeId, ctrl::NodeMetrics>
                            &edges,
                        std::map<topo::NodeId, ctrl::NodeMetrics> &cache)
{
    if (edgeNodes_.at(tree).count(node)) {
        // Edge node: the rack worker's message is this node's metrics.
        const auto it = edges.find(node);
        const ctrl::NodeMetrics m =
            it != edges.end() ? it->second : ctrl::NodeMetrics{};
        cache[node] = m;
        return m;
    }

    const auto &topo_tree = system_.tree(tree);
    const auto &tn = topo_tree.node(node);
    std::vector<ctrl::NodeMetrics> children;
    children.reserve(tn.children.size());
    for (const topo::NodeId c : tn.children)
        children.push_back(gatherAbove(tree, c, edges, cache));
    ctrl::NodeMetrics m = ctrl::gatherMetrics(
        children, tn.limit(), policy_.upperPriorityAware);
    cache[node] = m;
    return m;
}

void
RoomWorker::budgetAbove(std::size_t tree, topo::NodeId node, Watts budget,
                        const std::map<topo::NodeId, ctrl::NodeMetrics>
                            &cache,
                        std::map<topo::NodeId, Watts> &edge_budgets)
{
    if (edgeNodes_.at(tree).count(node)) {
        edge_budgets[node] = budget;
        return;
    }

    const auto &topo_tree = system_.tree(tree);
    const auto &tn = topo_tree.node(node);
    std::vector<ctrl::NodeMetrics> children;
    children.reserve(tn.children.size());
    for (const topo::NodeId c : tn.children)
        children.push_back(cache.at(c));
    const Watts usable = std::min(budget, tn.limit());
    const auto split = ctrl::budgetChildren(usable, children,
                                            policy_.upperPriorityAware);
    for (std::size_t i = 0; i < tn.children.size(); ++i) {
        budgetAbove(tree, tn.children[i], split.childBudgets[i], cache,
                    edge_budgets);
    }
}

ctrl::NodeMetrics
RoomWorker::gatherTop(std::size_t tree,
                      const std::map<topo::NodeId, ctrl::NodeMetrics>
                          &boundary_metrics)
{
    auto &cache = lastCache_.at(tree);
    cache.clear();
    return gatherAbove(tree, topOf(tree), boundary_metrics, cache);
}

std::map<topo::NodeId, Watts>
RoomWorker::budgetDown(std::size_t tree, Watts top_budget)
{
    const topo::NodeId top = topOf(tree);
    std::map<topo::NodeId, Watts> edge_budgets;
    // budgetAbove() clamps to the top's own limit, so an over-generous
    // (or unlimited-root) grant never overloads the fragment.
    const Watts budget =
        std::min(top_budget, system_.tree(tree).node(top).limit());
    budgetAbove(tree, top, budget, lastCache_.at(tree), edge_budgets);
    return edge_budgets;
}

std::map<topo::NodeId, Watts>
RoomWorker::iterate(std::size_t tree,
                    const std::map<topo::NodeId, ctrl::NodeMetrics>
                        &edge_metrics,
                    Watts root_budget)
{
    gatherTop(tree, edge_metrics);
    return budgetDown(tree, root_budget);
}

// --------------------------------------------------- DistributedControlPlane

std::vector<std::map<topo::NodeId, std::size_t>>
DistributedControlPlane::partition(const topo::PowerSystem &system)
{
    std::vector<std::map<topo::NodeId, std::size_t>> owners(
        system.trees().size());
    for (std::size_t t = 0; t < system.trees().size(); ++t) {
        std::size_t next = 0;
        system.tree(t).forEach([&](const topo::TopoNode &n) {
            bool leaf_parent = false;
            for (const topo::NodeId c : n.children) {
                if (system.tree(t).node(c).kind
                    == topo::NodeKind::SupplyPort) {
                    leaf_parent = true;
                }
            }
            if (leaf_parent)
                owners[t][n.id] = next++;
        });
    }
    return owners;
}

std::vector<std::map<std::size_t, topo::NodeId>>
DistributedControlPlane::partitionEdges(const topo::PowerSystem &system)
{
    const auto owners = partition(system);
    std::size_t rack_count = 0;
    for (const auto &per_tree : owners) {
        for (const auto &[node, rack] : per_tree)
            rack_count = std::max(rack_count, rack + 1);
    }
    std::vector<std::map<std::size_t, topo::NodeId>> per_rack(rack_count);
    for (std::size_t t = 0; t < owners.size(); ++t) {
        for (const auto &[node, rack] : owners[t]) {
            if (per_rack[rack].count(t)) {
                util::fatal("partitionEdges: rack worker %zu owns two "
                            "edges of tree %zu; this topology cannot be "
                            "deployed one-process-per-rack",
                            rack, t);
            }
            per_rack[rack][t] = node;
        }
    }
    return per_rack;
}

std::size_t
DistributedControlPlane::rackWorkerCountFor(const topo::PowerSystem &system)
{
    std::size_t rack_count = 0;
    for (const auto &per_tree : partition(system)) {
        for (const auto &[node, rack] : per_tree)
            rack_count = std::max(rack_count, rack + 1);
    }
    return rack_count;
}

DistributedControlPlane::DistributedControlPlane(
    const topo::PowerSystem &system, ctrl::TreePolicy policy,
    std::vector<std::uint32_t> agg_levels)
    : system_(system), policy_(policy),
      plan_(TreePlan::build(system, agg_levels)),
      // The root fragment's boundary: its child stations — which with
      // an empty plan are exactly the edge node sets of old.
      room_(system, plan_.boundariesOf(plan_.rootEndpoint()), policy)
{
    buildWorkers();
}

DistributedControlPlane::DistributedControlPlane(
    const topo::PowerSystem &system, ctrl::TreePolicy policy,
    net::Transport &transport, net::ProtocolConfig protocol)
    : system_(system), policy_(policy), plan_(TreePlan::build(system, {})),
      room_(system, plan_.boundariesOf(plan_.rootEndpoint()), policy),
      transport_(&transport), protocol_(protocol)
{
    buildWorkers();
}

void
DistributedControlPlane::buildWorkers()
{
    const auto owners = partition(system_);
    std::size_t rack_count = 0;
    for (const auto &per_tree : owners) {
        for (const auto &[node, rack] : per_tree)
            rack_count = std::max(rack_count, rack + 1);
    }

    racks_.reserve(rack_count);
    for (std::size_t r = 0; r < rack_count; ++r)
        racks_.emplace_back(system_, policy_);

    for (std::size_t t = 0; t < owners.size(); ++t) {
        for (const auto &[node, rack] : owners[t]) {
            racks_[rack].addEdge(t, node);
            edgeOwner_[{t, node}] = rack;
            for (const topo::NodeId c :
                 system_.tree(t).node(node).children) {
                const auto &ref = *system_.tree(t).node(c).supplyRef;
                leafToRack_[{ref.server, ref.supply}] = rack;
            }
        }
    }

    rackSeq_.assign(rack_count, 0);
    lastTreeMetrics_.assign(system_.trees().size(), {});

    // Aggregator fragments for deep direct plans: one RoomWorker per
    // internal non-root worker, cut at its stations and its children's.
    for (std::uint32_t ep = static_cast<std::uint32_t>(plan_.leafWorkers);
         ep < plan_.rootEndpoint(); ++ep) {
        aggs_.emplace_back(system_, plan_.topsOf(ep),
                           plan_.boundariesOf(ep), policy_);
    }
}

net::Transport::Endpoint
DistributedControlPlane::roomEndpoint() const
{
    return static_cast<net::Transport::Endpoint>(racks_.size());
}

void
DistributedControlPlane::setTelemetry(telemetry::Registry *registry,
                                      telemetry::PeriodTracer *tracer)
{
    registry_ = registry;
    tracer_ = tracer;
    if (registry_ == nullptr) {
        metrics_ = {};
        return;
    }
    auto counter = [&](const char *name, const char *help) {
        return registry_->counter(name, {}, help);
    };
    metrics_.metricsMessages =
        counter("capmaestro_plane_metrics_messages_total",
                "Rack -> room metric messages (logical)");
    metrics_.budgetMessages =
        counter("capmaestro_plane_budget_messages_total",
                "Room -> rack budget messages (logical)");
    metrics_.metricClasses =
        counter("capmaestro_plane_metric_classes_total",
                "Priority classes serialized upstream");
    metrics_.heartbeats = counter("capmaestro_plane_heartbeats_total",
                                  "Heartbeat frames sent");
    metrics_.retries = counter("capmaestro_plane_retries_total",
                               "First-pass retransmissions");
    metrics_.bytes = counter("capmaestro_plane_bytes_total",
                             "Encoded payload bytes on the wire");
    metrics_.staleReuses =
        counter("capmaestro_plane_stale_reuses_total",
                "Edges served from a cached metric summary");
    metrics_.metricsLost = counter("capmaestro_plane_metrics_lost_total",
                                   "Edges whose metrics were unusable");
    metrics_.defaultBudgets =
        counter("capmaestro_plane_default_budgets_total",
                "Edges that fell back to the Pcap_min default budget");
    metrics_.orphanFrames =
        counter("capmaestro_plane_orphan_frames_total",
                "Frames discarded for epoch/type mismatch");
    metrics_.corruptFrames =
        counter("capmaestro_plane_corrupt_frames_total",
                "Frames that failed to decode");
    metrics_.spoRounds = counter("capmaestro_plane_spo_rounds_total",
                                 "SPO rounds run");
    metrics_.spoSummaryMessages =
        counter("capmaestro_plane_spo_summary_messages_total",
                "Rack -> room pinned-summary messages");
    metrics_.spoBudgetMessages =
        counter("capmaestro_plane_spo_budget_messages_total",
                "Room -> rack second-pass budget messages");
    metrics_.spoRetries = counter("capmaestro_plane_spo_retries_total",
                                  "SPO-phase retransmissions");
    metrics_.spoTreesAttempted =
        counter("capmaestro_plane_spo_trees_attempted_total",
                "Trees that entered an SPO round");
    metrics_.spoCommittedTrees =
        counter("capmaestro_plane_spo_committed_trees_total",
                "Trees that committed second-pass budgets");
    metrics_.spoFallbackTrees =
        counter("capmaestro_plane_spo_fallback_trees_total",
                "Trees that rolled back to first-pass budgets");
    metrics_.spoBytes = counter("capmaestro_plane_spo_bytes_total",
                                "Encoded SPO bytes on the wire");
    metrics_.degradedDecisions =
        counter("capmaestro_plane_degraded_decisions_total",
                "Degraded-mode (§4.5) decisions taken");
    metrics_.epoch = registry_->gauge("capmaestro_plane_epoch", {},
                                      "Current control-period epoch");
}

void
DistributedControlPlane::recordIterationMetrics(const MessageStats &stats)
{
    if (registry_ == nullptr)
        return;
    const auto n = [](std::size_t v) { return static_cast<double>(v); };
    metrics_.metricsMessages.inc(n(stats.metricsMessages));
    metrics_.budgetMessages.inc(n(stats.budgetMessages));
    metrics_.metricClasses.inc(n(stats.metricClassesSent));
    metrics_.heartbeats.inc(n(stats.heartbeatMessages));
    metrics_.retries.inc(n(stats.retries));
    metrics_.bytes.inc(n(stats.bytesOnWire));
    metrics_.staleReuses.inc(n(stats.staleReuses));
    metrics_.metricsLost.inc(n(stats.metricsLost));
    metrics_.defaultBudgets.inc(n(stats.defaultBudgets));
    metrics_.orphanFrames.inc(n(stats.orphanFrames));
    metrics_.corruptFrames.inc(n(stats.corruptFrames));
    metrics_.degradedDecisions.inc(n(stats.degraded.size()));
    metrics_.epoch.set(static_cast<double>(epoch_));
}

void
DistributedControlPlane::recordSpoMetrics(const MessageStats &before,
                                          const MessageStats &after)
{
    if (registry_ == nullptr)
        return;
    // iterateSpo accumulates into the caller's MessageStats (the same
    // object iterate() filled, possibly across several SPO rounds), so
    // only the growth since entry may be added to the counters.
    const auto delta = [](std::size_t b, std::size_t a) {
        return static_cast<double>(a - b);
    };
    metrics_.spoRounds.inc(delta(before.spoRounds, after.spoRounds));
    metrics_.spoSummaryMessages.inc(
        delta(before.spoSummaryMessages, after.spoSummaryMessages));
    metrics_.spoBudgetMessages.inc(
        delta(before.spoBudgetMessages, after.spoBudgetMessages));
    metrics_.spoRetries.inc(delta(before.spoRetries, after.spoRetries));
    metrics_.spoTreesAttempted.inc(
        delta(before.spoTreesAttempted, after.spoTreesAttempted));
    metrics_.spoCommittedTrees.inc(
        delta(before.spoCommittedTrees, after.spoCommittedTrees));
    metrics_.spoFallbackTrees.inc(
        delta(before.spoFallbackTrees, after.spoFallbackTrees));
    metrics_.spoBytes.inc(delta(before.spoBytesOnWire,
                                after.spoBytesOnWire));
    metrics_.bytes.inc(delta(before.bytesOnWire, after.bytesOnWire));
    metrics_.orphanFrames.inc(delta(before.orphanFrames,
                                    after.orphanFrames));
    metrics_.corruptFrames.inc(delta(before.corruptFrames,
                                     after.corruptFrames));
    metrics_.degradedDecisions.inc(
        delta(before.degraded.size(), after.degraded.size()));
}

void
DistributedControlPlane::setLeafInput(const topo::ServerSupplyRef &ref,
                                      const ctrl::LeafInput &input)
{
    const auto it = leafToRack_.find({ref.server, ref.supply});
    if (it == leafToRack_.end())
        util::panic("DistributedControlPlane: unknown supply %d.%d",
                    ref.server, ref.supply);
    // A leaf lives in exactly one of the owning rack's edges.
    for (const RackWorker::Edge &edge : racks_[it->second].edges()) {
        for (const auto &leaf : edge.leaves) {
            if (leaf == ref) {
                racks_[it->second].setLeafInput(edge.tree, ref, input);
                return;
            }
        }
    }
    util::panic("DistributedControlPlane: supply %d.%d not routed",
                ref.server, ref.supply);
}

MessageStats
DistributedControlPlane::iterate(const std::vector<Watts> &root_budgets)
{
    if (root_budgets.size() != system_.trees().size()) {
        util::fatal("DistributedControlPlane: %zu budgets for %zu trees",
                    root_budgets.size(), system_.trees().size());
    }
    MessageStats stats;
    if (transport_)
        stats = iterateTransport(root_budgets);
    else
        stats = iterateDirectDeep(root_budgets);
    recordIterationMetrics(stats);
    return stats;
}

MessageStats
DistributedControlPlane::iterateTransport(
    const std::vector<Watts> &root_budgets)
{
    MessageStats stats;
    net::Transport &tp = *transport_;
    ++epoch_;
    const std::size_t bytes_before = tp.stats().bytesSent;
    const double start = tp.nowMs();
    const net::Transport::Endpoint room = roomEndpoint();

    const auto gather_span =
        tracer_ ? tracer_->begin("gather") : telemetry::PeriodTracer::kNoSpan;
    if (tracer_) {
        tracer_->num(gather_span, "deadline_ms",
                     protocol_.gatherDeadlineMs);
    }

    const auto tree_live = [&](std::size_t t) {
        return !system_.feedFailed(system_.tree(t).feed());
    };

    // ---------------- upstream: heartbeats + per-edge metrics
    std::vector<Pending> pending_up;
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        tp.send(static_cast<net::Transport::Endpoint>(r), room,
                net::encodeHeartbeat(
                    {static_cast<std::uint16_t>(r), epoch_,
                     rackSeq_[r]++}));
        ++stats.heartbeatMessages;
        for (const RackWorker::Edge &edge : racks_[r].edges()) {
            if (!tree_live(edge.tree))
                continue;
            net::MetricsMsg msg;
            msg.tree = static_cast<std::uint16_t>(edge.tree);
            msg.edgeNode = static_cast<std::uint32_t>(edge.node);
            msg.metrics = racks_[r].computeMetrics(edge.tree, edge.node);
            ++stats.metricsMessages;
            stats.metricClassesSent += msg.metrics.classes().size();
            auto frame = net::encodeMetrics(
                {static_cast<std::uint16_t>(r), epoch_, rackSeq_[r]++},
                msg);
            tp.send(static_cast<net::Transport::Endpoint>(r), room,
                    frame);
            pending_up.push_back(
                {edge.tree, edge.node, r, std::move(frame)});
        }
    }

    std::map<std::pair<std::size_t, topo::NodeId>, ctrl::NodeMetrics>
        fresh;
    const auto poll_room = [&] {
        for (const auto &bytes : tp.poll(room)) {
            const auto frame = net::decodeFrame(bytes);
            if (!frame) {
                ++stats.corruptFrames;
                continue;
            }
            if (frame->epoch != epoch_) {
                ++stats.orphanFrames;
                continue;
            }
            if (frame->type != net::MsgType::Metrics)
                continue; // heartbeats: nothing to gather
            // A non-finite summary would poison the §4.3 merge; the
            // edge rides its stale -> lost ladder instead.
            if (!frame->metrics.metrics.finite()) {
                ++stats.corruptFrames;
                continue;
            }
            fresh[{frame->metrics.tree,
                   static_cast<topo::NodeId>(frame->metrics.edgeNode)}] =
                frame->metrics.metrics;
        }
    };

    retransmitUntil(tp, protocol_, start,
                    start + protocol_.gatherDeadlineMs, true, room,
                    pending_up, fresh, poll_room, stats.retries);

    // Assemble per-tree edge metrics with §4.5 stale fallback.
    std::vector<std::map<topo::NodeId, ctrl::NodeMetrics>> tree_metrics(
        system_.trees().size());
    for (const auto &[key, rack] : edgeOwner_) {
        const auto [t, node] = key;
        if (!tree_live(t))
            continue;
        const auto got = fresh.find(key);
        if (got != fresh.end()) {
            tree_metrics[t][node] = got->second;
            metricCache_[key] = {got->second, epoch_, true};
            continue;
        }
        const auto cached = metricCache_.find(key);
        const std::uint32_t age =
            cached != metricCache_.end() && cached->second.valid
                ? epoch_ - cached->second.epoch
                : 0;
        if (cached != metricCache_.end() && cached->second.valid
            && age <= static_cast<std::uint32_t>(
                   protocol_.staleAgeCapPeriods)) {
            tree_metrics[t][node] = cached->second.metrics;
            ++stats.staleReuses;
            stats.degraded.push_back({DegradedKind::StaleMetricsReused,
                                      t, node, rack,
                                      static_cast<double>(age)});
        } else {
            // Too old (or never seen): the edge contributes nothing.
            ++stats.metricsLost;
            stats.degraded.push_back(
                {DegradedKind::MetricsLost, t, node, rack,
                 static_cast<double>(age)});
        }
    }

    // The SPO round (if any) overlays pinned summaries on this view.
    lastTreeMetrics_ = tree_metrics;

    const std::size_t gather_retries = stats.retries;
    if (tracer_) {
        tracer_->num(gather_span, "messages",
                     static_cast<double>(stats.metricsMessages));
        tracer_->num(gather_span, "heartbeats",
                     static_cast<double>(stats.heartbeatMessages));
        tracer_->num(gather_span, "retries",
                     static_cast<double>(gather_retries));
        tracer_->num(gather_span, "stale",
                     static_cast<double>(stats.staleReuses));
        tracer_->num(gather_span, "lost",
                     static_cast<double>(stats.metricsLost));
        tracer_->end(gather_span);
    }

    const auto budget_span =
        tracer_ ? tracer_->begin("budget") : telemetry::PeriodTracer::kNoSpan;
    if (tracer_) {
        tracer_->num(budget_span, "deadline_ms",
                     protocol_.budgetDeadlineMs);
    }

    // ---------------- room compute + downstream budgets
    std::vector<Pending> pending_down;
    for (std::size_t t = 0; t < system_.trees().size(); ++t) {
        if (!tree_live(t))
            continue;
        const auto edge_budgets =
            room_.iterate(t, tree_metrics[t], root_budgets[t]);
        for (const auto &[node, budget] : edge_budgets) {
            const std::size_t rack = edgeOwner_.at({t, node});
            net::BudgetMsg msg;
            msg.tree = static_cast<std::uint16_t>(t);
            msg.edgeNode = static_cast<std::uint32_t>(node);
            msg.budget = budget;
            ++stats.budgetMessages;
            auto frame = net::encodeBudget(
                {net::kRoomSender, epoch_, roomSeq_++}, msg);
            tp.send(room, static_cast<net::Transport::Endpoint>(rack),
                    frame);
            pending_down.push_back({t, node, rack, std::move(frame)});
        }
    }

    std::set<std::pair<std::size_t, topo::NodeId>> applied;
    const auto poll_racks = [&] {
        for (std::size_t r = 0; r < racks_.size(); ++r) {
            for (const auto &bytes :
                 tp.poll(static_cast<net::Transport::Endpoint>(r))) {
                const auto frame = net::decodeFrame(bytes);
                if (!frame) {
                    ++stats.corruptFrames;
                    continue;
                }
                if (frame->epoch != epoch_
                    || frame->type != net::MsgType::Budget) {
                    ++stats.orphanFrames;
                    continue;
                }
                const std::size_t t = frame->budget.tree;
                const auto node =
                    static_cast<topo::NodeId>(frame->budget.edgeNode);
                if (applied.count({t, node}))
                    continue; // duplicate delivery
                const auto owner = edgeOwner_.find({t, node});
                if (owner == edgeOwner_.end() || owner->second != r) {
                    ++stats.orphanFrames;
                    continue;
                }
                racks_[r].applyBudget(t, node, frame->budget.budget);
                applied.insert({t, node});
            }
        }
    };

    const double budget_start = tp.nowMs();
    retransmitUntil(tp, protocol_, budget_start,
                    budget_start + protocol_.budgetDeadlineMs, false, room,
                    pending_down, applied, poll_racks, stats.retries);

    // §4.5 default budgets: an edge that saw no budget by the deadline
    // falls back to its Pcap_min floor.
    for (const auto &[key, rack] : edgeOwner_) {
        const auto [t, node] = key;
        if (!tree_live(t) || applied.count(key))
            continue;
        const Watts fallback = racks_[rack].defaultBudget(t, node);
        racks_[rack].applyBudget(t, node, fallback);
        ++stats.defaultBudgets;
        stats.degraded.push_back(
            {DegradedKind::DefaultBudgetApplied, t, node, rack,
             fallback});
    }

    stats.bytesOnWire = tp.stats().bytesSent - bytes_before;
    if (tracer_) {
        tracer_->num(budget_span, "messages",
                     static_cast<double>(stats.budgetMessages));
        tracer_->num(budget_span, "retries",
                     static_cast<double>(stats.retries - gather_retries));
        tracer_->num(budget_span, "defaults",
                     static_cast<double>(stats.defaultBudgets));
        tracer_->end(budget_span);
        for (const DegradedDecision &d : stats.degraded) {
            const auto span = tracer_->begin("degraded");
            tracer_->str(span, "kind", degradedKindName(d.kind));
            tracer_->num(span, "tree", static_cast<double>(d.tree));
            tracer_->num(span, "rack", static_cast<double>(d.rack));
            tracer_->num(span, "value", d.value);
            tracer_->end(span);
        }
    }
    return stats;
}

std::map<std::size_t, std::set<topo::NodeId>>
DistributedControlPlane::pinnedEdges(
    const std::vector<ctrl::SpoPin> &pins) const
{
    std::map<std::size_t, std::set<topo::NodeId>> affected;
    for (const ctrl::SpoPin &pin : pins) {
        const auto it =
            leafToRack_.find({pin.ref.server, pin.ref.supply});
        if (it == leafToRack_.end()) {
            util::panic("DistributedControlPlane: unknown pinned supply "
                        "%d.%d", pin.ref.server, pin.ref.supply);
        }
        for (const RackWorker::Edge &edge : racks_[it->second].edges()) {
            if (edge.tree != pin.tree)
                continue;
            for (const auto &leaf : edge.leaves) {
                if (leaf == pin.ref) {
                    affected[pin.tree].insert(edge.node);
                    break;
                }
            }
        }
    }
    return affected;
}

std::set<std::size_t>
DistributedControlPlane::iterateSpo(const std::vector<Watts> &root_budgets,
                                    const std::vector<ctrl::SpoPin> &pins,
                                    MessageStats &stats)
{
    if (root_budgets.size() != system_.trees().size()) {
        util::fatal("DistributedControlPlane: %zu budgets for %zu trees",
                    root_budgets.size(), system_.trees().size());
    }
    if (plan_.tiers() > 2 && !pins.empty()) {
        // The §4.4 second round is a room <-> rack exchange; deep
        // plans run SPO-free until the round learns to hop tiers.
        util::fatal("DistributedControlPlane: iterateSpo is not "
                    "supported on a deep plan");
    }
    MessageStats before;
    if (registry_ != nullptr)
        before = stats;
    const auto committed =
        transport_ ? iterateSpoTransport(root_budgets, pins, stats)
                   : iterateSpoDirect(root_budgets, pins, stats);
    recordSpoMetrics(before, stats);
    return committed;
}

std::set<std::size_t>
DistributedControlPlane::iterateSpoDirect(
    const std::vector<Watts> &root_budgets,
    const std::vector<ctrl::SpoPin> &pins, MessageStats &stats)
{
    std::set<std::size_t> committed;
    if (pins.empty())
        return committed;
    ++stats.spoRounds;
    const auto spo_span =
        tracer_ ? tracer_->begin("spo") : telemetry::PeriodTracer::kNoSpan;

    // The per-server capping controllers pin their stranded supplies;
    // the link to the owning rack worker is local (paper §5: capping
    // controllers are colocated), so no frames travel for this step.
    for (const ctrl::SpoPin &pin : pins) {
        setLeafInput(pin.ref,
                     ctrl::pinnedLeafInput(pin.priority, pin.consumption));
    }

    // Only pinned edges re-report: an unpinned edge's inputs are
    // unchanged, so recomputing its metrics would reproduce the
    // first-phase summary bit for bit. Trees without pins are skipped
    // entirely for the same reason.
    for (const auto &[t, nodes] : pinnedEdges(pins)) {
        ++stats.spoTreesAttempted;
        auto base = lastTreeMetrics_[t];
        for (const topo::NodeId node : nodes) {
            const std::size_t rack = edgeOwner_.at({t, node});
            ++stats.spoSummaryMessages;
            base[node] = racks_[rack].computeMetrics(t, node);
        }

        const auto edge_budgets =
            room_.iterate(t, base, root_budgets[t]);
        lastTreeMetrics_[t] = std::move(base);

        for (const auto &[node, budget] : edge_budgets) {
            ++stats.spoBudgetMessages;
            racks_[edgeOwner_.at({t, node})].applyBudget(t, node, budget);
        }
        committed.insert(t);
        ++stats.spoCommittedTrees;
    }
    if (tracer_) {
        tracer_->num(spo_span, "pins", static_cast<double>(pins.size()));
        tracer_->num(spo_span, "committed",
                     static_cast<double>(committed.size()));
        tracer_->end(spo_span);
    }
    return committed;
}

std::set<std::size_t>
DistributedControlPlane::iterateSpoTransport(
    const std::vector<Watts> &root_budgets,
    const std::vector<ctrl::SpoPin> &pins, MessageStats &stats)
{
    std::set<std::size_t> committed;
    if (pins.empty())
        return committed;
    ++stats.spoRounds;

    net::Transport &tp = *transport_;
    const std::size_t bytes_before = tp.stats().bytesSent;
    const net::Transport::Endpoint room = roomEndpoint();
    const std::size_t spo_retries_entry = stats.spoRetries;
    const auto spo_gather_span =
        tracer_ ? tracer_->begin("spo.gather")
                : telemetry::PeriodTracer::kNoSpan;
    if (tracer_) {
        tracer_->num(spo_gather_span, "deadline_ms",
                     protocol_.spoGatherDeadlineMs);
        tracer_->num(spo_gather_span, "pins",
                     static_cast<double>(pins.size()));
    }

    // Pin inputs locally (see iterateSpoDirect).
    for (const ctrl::SpoPin &pin : pins) {
        setLeafInput(pin.ref,
                     ctrl::pinnedLeafInput(pin.priority, pin.consumption));
    }
    const auto affected = pinnedEdges(pins);

    // ---------------- upstream: pinned summaries from affected edges
    std::vector<Pending> pending_up;
    for (const auto &[t, nodes] : affected) {
        ++stats.spoTreesAttempted;
        for (const topo::NodeId node : nodes) {
            const std::size_t rack = edgeOwner_.at({t, node});
            net::MetricsMsg msg;
            msg.tree = static_cast<std::uint16_t>(t);
            msg.edgeNode = static_cast<std::uint32_t>(node);
            msg.metrics = racks_[rack].computeMetrics(t, node);
            ++stats.spoSummaryMessages;
            auto frame = net::encodePinnedSummary(
                {static_cast<std::uint16_t>(rack), epoch_,
                 rackSeq_[rack]++},
                msg);
            tp.send(static_cast<net::Transport::Endpoint>(rack), room,
                    frame);
            pending_up.push_back({t, node, rack, std::move(frame)});
        }
    }

    std::map<std::pair<std::size_t, topo::NodeId>, ctrl::NodeMetrics>
        fresh;
    const auto poll_room = [&] {
        for (const auto &bytes : tp.poll(room)) {
            const auto frame = net::decodeFrame(bytes);
            if (!frame) {
                ++stats.corruptFrames;
                continue;
            }
            // Late first-phase traffic and old epochs are both dead
            // weight here; neither may masquerade as a pinned summary.
            if (frame->epoch != epoch_
                || frame->type != net::MsgType::PinnedSummary) {
                ++stats.orphanFrames;
                continue;
            }
            if (!frame->metrics.metrics.finite()) {
                ++stats.corruptFrames;
                continue;
            }
            fresh[{frame->metrics.tree,
                   static_cast<topo::NodeId>(frame->metrics.edgeNode)}] =
                frame->metrics.metrics;
        }
    };

    const double spo_start = tp.nowMs();
    retransmitUntil(tp, protocol_, spo_start,
                    spo_start + protocol_.spoGatherDeadlineMs, true, room,
                    pending_up, fresh, poll_room, stats.spoRetries);

    // A tree may only be re-budgeted from a complete second-pass view:
    // any missing pinned summary aborts the tree before a single budget
    // goes out, so it keeps its first-pass budgets wholesale.
    std::set<std::size_t> gather_ok;
    for (const auto &[t, nodes] : affected) {
        bool ok = true;
        for (const topo::NodeId node : nodes) {
            if (!fresh.count({t, node})) {
                ok = false;
                break;
            }
        }
        if (ok) {
            gather_ok.insert(t);
        } else {
            ++stats.spoFallbackTrees;
            stats.degraded.push_back({DegradedKind::SpoFallback, t,
                                      topo::kNoNode, 0, 1.0});
        }
    }

    const std::size_t spo_gather_retries =
        stats.spoRetries - spo_retries_entry;
    if (tracer_) {
        tracer_->num(spo_gather_span, "attempted",
                     static_cast<double>(affected.size()));
        tracer_->num(spo_gather_span, "gather_ok",
                     static_cast<double>(gather_ok.size()));
        tracer_->num(spo_gather_span, "retries",
                     static_cast<double>(spo_gather_retries));
        tracer_->end(spo_gather_span);
    }
    const auto spo_budget_span =
        tracer_ ? tracer_->begin("spo.budget")
                : telemetry::PeriodTracer::kNoSpan;
    if (tracer_) {
        tracer_->num(spo_budget_span, "deadline_ms",
                     protocol_.spoBudgetDeadlineMs);
    }

    // ---------------- room re-compute + downstream second-pass budgets
    std::vector<Pending> pending_down;
    std::map<std::size_t, std::set<topo::NodeId>> expect;
    std::map<std::size_t, std::map<topo::NodeId, ctrl::NodeMetrics>>
        new_base;
    for (const std::size_t t : gather_ok) {
        auto base = lastTreeMetrics_[t];
        for (const topo::NodeId node : affected.at(t))
            base[node] = fresh.at({t, node});
        const auto edge_budgets = room_.iterate(t, base, root_budgets[t]);
        new_base[t] = std::move(base);
        expect[t] = {};
        for (const auto &[node, budget] : edge_budgets) {
            const std::size_t rack = edgeOwner_.at({t, node});
            net::BudgetMsg msg;
            msg.tree = static_cast<std::uint16_t>(t);
            msg.edgeNode = static_cast<std::uint32_t>(node);
            msg.budget = budget;
            ++stats.spoBudgetMessages;
            auto frame = net::encodeSpoBudget(
                {net::kRoomSender, epoch_, roomSeq_++}, msg);
            tp.send(room, static_cast<net::Transport::Endpoint>(rack),
                    frame);
            expect[t].insert(node);
            pending_down.push_back({t, node, rack, std::move(frame)});
        }
    }

    // Racks buffer second-pass budgets without applying them, so an
    // incomplete tree can roll back without ever mixing the passes.
    std::map<std::pair<std::size_t, topo::NodeId>, Watts> buffered;
    const auto poll_racks = [&] {
        for (std::size_t r = 0; r < racks_.size(); ++r) {
            for (const auto &bytes :
                 tp.poll(static_cast<net::Transport::Endpoint>(r))) {
                const auto frame = net::decodeFrame(bytes);
                if (!frame) {
                    ++stats.corruptFrames;
                    continue;
                }
                if (frame->epoch != epoch_
                    || frame->type != net::MsgType::SpoBudget) {
                    ++stats.orphanFrames;
                    continue;
                }
                const std::size_t t = frame->budget.tree;
                const auto node =
                    static_cast<topo::NodeId>(frame->budget.edgeNode);
                const auto owner = edgeOwner_.find({t, node});
                if (owner == edgeOwner_.end() || owner->second != r) {
                    ++stats.orphanFrames;
                    continue;
                }
                buffered[{t, node}] = frame->budget.budget;
            }
        }
    };

    const double budget_start = tp.nowMs();
    retransmitUntil(tp, protocol_, budget_start,
                    budget_start + protocol_.spoBudgetDeadlineMs, false,
                    room, pending_down, buffered, poll_racks,
                    stats.spoRetries);

    // Per-tree atomic commit: every edge applies its second-pass
    // budget, or none does and the buffers are discarded.
    for (const std::size_t t : gather_ok) {
        bool complete = true;
        for (const topo::NodeId node : expect[t]) {
            if (!buffered.count({t, node})) {
                complete = false;
                break;
            }
        }
        if (!complete) {
            ++stats.spoFallbackTrees;
            stats.degraded.push_back({DegradedKind::SpoFallback, t,
                                      topo::kNoNode, 0, 2.0});
            continue;
        }
        for (const topo::NodeId node : expect[t]) {
            racks_[edgeOwner_.at({t, node})].applyBudget(
                t, node, buffered.at({t, node}));
        }
        lastTreeMetrics_[t] = std::move(new_base[t]);
        committed.insert(t);
        ++stats.spoCommittedTrees;
    }

    const std::size_t spo_bytes = tp.stats().bytesSent - bytes_before;
    stats.spoBytesOnWire += spo_bytes;
    stats.bytesOnWire += spo_bytes;
    if (tracer_) {
        tracer_->num(spo_budget_span, "retries",
                     static_cast<double>(stats.spoRetries
                                         - spo_retries_entry
                                         - spo_gather_retries));
        tracer_->num(spo_budget_span, "committed",
                     static_cast<double>(committed.size()));
        tracer_->end(spo_budget_span);
    }
    return committed;
}

Watts
DistributedControlPlane::leafBudget(const topo::ServerSupplyRef &ref) const
{
    const auto it = leafToRack_.find({ref.server, ref.supply});
    if (it == leafToRack_.end())
        util::panic("DistributedControlPlane: unknown supply %d.%d",
                    ref.server, ref.supply);
    // The owning rack knows which of its edges holds the leaf; search
    // its trees (a leaf lives in exactly one edge).
    for (const RackWorker::Edge &edge : racks_[it->second].edges()) {
        for (std::size_t i = 0; i < edge.leaves.size(); ++i) {
            if (edge.leaves[i] == ref)
                return racks_[it->second].leafBudget(edge.tree, ref);
        }
    }
    util::panic("DistributedControlPlane: supply %d.%d not routed",
                ref.server, ref.supply);
}

} // namespace capmaestro::core
