#include "core/distributed.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>

#include "core/tree_plan.hh"
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

using EdgeKey = std::pair<std::size_t, topo::NodeId>;

/** The message plane's link, as one exchange sees it. */
struct Wire
{
    net::Transport &tp;
    const net::ProtocolConfig &protocol;
    /** (tree, edge node) -> owning rack, which is also its endpoint. */
    const std::map<EdgeKey, std::size_t> &owners;
    net::Transport::Endpoint room;
    std::uint32_t epoch;
    std::vector<std::uint32_t> &rackSeq;
    std::uint32_t &roomSeq;
};

/**
 * One §4.5 phase: the frame type it carries, how to encode it, and its
 * deadline from the phase start. Metrics-shaped phases run upstream
 * (rack -> room), budget-shaped ones downstream (room -> rack).
 */
template <typename Msg>
struct Phase
{
    net::MsgType type;
    std::vector<std::uint8_t> (*encode)(const net::FrameMeta &,
                                        const Msg &);
    double deadlineMs;
};

template <typename Msg>
EdgeKey
edgeOf(const Msg &msg)
{
    return {msg.tree, static_cast<topo::NodeId>(msg.edgeNode)};
}

/**
 * Run one §4.5 phase over @p wire: send one frame per message in
 * @p out (each concerns an owned edge), then every retryTimeoutMs poll
 * the receiving side and re-send each frame not yet delivered, until
 * everything is in, the attempts run out, or the next retry would pass
 * the deadline; poll once more at the deadline. A received frame
 * counts when it decodes (else corrupt), carries this epoch and the
 * phase's type (else orphan), comes from the edge's owner (else
 * orphan: upstream the owning rack must send it, downstream the room
 * must address it to the owning rack), and its payload is finite, a
 * budget also non-negative (else corrupt). Per-phase policy is the
 * caller's.
 *
 * @return the first good copy of each edge's message
 */
template <typename Msg>
std::map<EdgeKey, Msg>
exchange(const Wire &wire, const Phase<Msg> &phase,
         const std::vector<Msg> &out, std::size_t &retries,
         MessageStats &stats)
{
    constexpr bool up = std::is_same_v<Msg, net::MetricsMsg>;
    using Endpoint = net::Transport::Endpoint;
    struct Pending
    {
        EdgeKey edge;
        Endpoint rack;
        std::vector<std::uint8_t> frame;
    };
    const auto send = [&](const Pending &p) {
        wire.tp.send(up ? p.rack : wire.room, up ? wire.room : p.rack,
                     p.frame);
    };

    const double start = wire.tp.nowMs();
    const double deadline = start + phase.deadlineMs;
    std::vector<Pending> pending;
    pending.reserve(out.size());
    for (const Msg &msg : out) {
        const EdgeKey edge = edgeOf(msg);
        const auto rack = static_cast<Endpoint>(wire.owners.at(edge));
        const net::FrameMeta meta =
            up ? net::FrameMeta(static_cast<std::uint16_t>(rack),
                                wire.epoch, wire.rackSeq[rack]++)
               : net::FrameMeta(net::kRoomSender, wire.epoch,
                                wire.roomSeq++);
        pending.push_back({edge, rack, phase.encode(meta, msg)});
        send(pending.back());
    }

    std::map<EdgeKey, Msg> got;
    const auto receive = [&](Endpoint at) {
        for (const auto &bytes : wire.tp.poll(at)) {
            const auto frame = net::decodeFrame(bytes);
            if (!frame) {
                ++stats.corruptFrames;
                continue;
            }
            if (frame->epoch != wire.epoch || frame->type != phase.type) {
                ++stats.orphanFrames;
                continue;
            }
            const Msg *msg = nullptr;
            if constexpr (up)
                msg = &frame->metrics;
            else
                msg = &frame->budget;
            const auto owner = wire.owners.find(edgeOf(*msg));
            const bool owned =
                owner != wire.owners.end()
                && (up ? frame->sender == owner->second
                       : frame->sender == net::kRoomSender
                             && at == owner->second);
            if (!owned) {
                ++stats.orphanFrames;
                continue;
            }
            bool finite = false;
            if constexpr (up)
                finite = msg->metrics.finite();
            else
                finite = std::isfinite(msg->budget) && msg->budget >= 0.0;
            if (!finite) {
                ++stats.corruptFrames;
                continue;
            }
            got.emplace(owner->first, *msg);
        }
    };
    const auto poll = [&] {
        if (up) {
            receive(wire.room);
            return;
        }
        for (Endpoint rack = 0; rack < wire.room; ++rack)
            receive(rack);
    };

    for (int attempt = 1; attempt < wire.protocol.maxAttempts; ++attempt) {
        const double next = start + attempt * wire.protocol.retryTimeoutMs;
        if (next >= deadline)
            break;
        wire.tp.advanceTo(next);
        poll();
        bool all_in = true;
        for (const Pending &p : pending) {
            if (got.count(p.edge))
                continue;
            all_in = false;
            ++retries;
            send(p);
        }
        if (all_in)
            break;
    }
    wire.tp.advanceTo(deadline);
    poll();
    return got;
}

/** A capmaestro_plane_<name>_total counter and the field it sums. */
struct PlaneCounter
{
    std::size_t MessageStats::*field;
    const char *name;
    const char *help;
};

/** Every exported MessageStats field, in registration order. */
const PlaneCounter kPlaneCounters[] = {
    {&MessageStats::metricsMessages, "metrics_messages",
     "Rack -> room metric messages (logical)"},
    {&MessageStats::budgetMessages, "budget_messages",
     "Room -> rack budget messages (logical)"},
    {&MessageStats::metricClassesSent, "metric_classes",
     "Priority classes serialized upstream"},
    {&MessageStats::retries, "retries", "First-pass retransmissions"},
    {&MessageStats::bytesOnWire, "bytes",
     "Encoded payload bytes on the wire"},
    {&MessageStats::staleReuses, "stale_reuses",
     "Edges served from a cached metric summary"},
    {&MessageStats::metricsLost, "metrics_lost",
     "Edges whose metrics were unusable"},
    {&MessageStats::defaultBudgets, "default_budgets",
     "Edges that fell back to the Pcap_min default budget"},
    {&MessageStats::orphanFrames, "orphan_frames",
     "Frames discarded for epoch/type mismatch"},
    {&MessageStats::corruptFrames, "corrupt_frames",
     "Frames that failed to decode"},
    {&MessageStats::spoRounds, "spo_rounds", "SPO rounds run"},
    {&MessageStats::spoSummaryMessages, "spo_summary_messages",
     "Rack -> room pinned-summary messages"},
    {&MessageStats::spoBudgetMessages, "spo_budget_messages",
     "Room -> rack second-pass budget messages"},
    {&MessageStats::spoRetries, "spo_retries", "SPO-phase retransmissions"},
    {&MessageStats::spoTreesAttempted, "spo_trees_attempted",
     "Trees that entered an SPO round"},
    {&MessageStats::spoCommittedTrees, "spo_committed_trees",
     "Trees that committed second-pass budgets"},
    {&MessageStats::spoFallbackTrees, "spo_fallback_trees",
     "Trees that rolled back to first-pass budgets"},
    {&MessageStats::spoBytesOnWire, "spo_bytes",
     "Encoded SPO bytes on the wire"},
};

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

bool
RackWorker::setLeafInput(std::size_t tree,
                         const topo::ServerSupplyRef &ref,
                         const ctrl::LeafInput &input)
{
    for (Edge &edge : edges_) {
        if (edge.tree != tree)
            continue;
        for (std::size_t i = 0; i < edge.leaves.size(); ++i) {
            if (edge.leaves[i] == ref) {
                if (!input.finite())
                    return false;
                edge.inputs[i] = input;
                return true;
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
        ctrl::NodeMetrics &m = edge.leafMetrics[i];
        m.clear();
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
    }
}

void
RackWorker::computeMetrics(std::size_t tree, topo::NodeId node,
                           ctrl::NodeMetrics &out)
{
    Edge &edge = findEdge(tree, node);
    refreshLeafMetrics(edge);
    const Watts limit = system_.tree(tree).node(node).limit();
    ctrl::gatherMetrics(edge.leafMetrics, limit,
                        policy_.upperPriorityAware, out);
}

void
RackWorker::applyBudget(std::size_t tree, topo::NodeId node, Watts budget)
{
    Edge &edge = findEdge(tree, node);
    // Mirror ControlTree: never distribute beyond the device limit.
    const Watts usable =
        std::min(budget, system_.tree(tree).node(node).limit());
    // The split is written into the edge's own budget vector.
    ctrl::BudgetSplit split;
    split.childBudgets.swap(edge.leafBudgets);
    ctrl::budgetChildren(usable, edge.leafMetrics,
                         policy_.leafPriorityAware, split);
    edge.leafBudgets.swap(split.childBudgets);
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
                       const std::vector<topo::NodeId> &tops,
                       const std::vector<std::set<topo::NodeId>> &boundaries,
                       ctrl::TreePolicy policy)
    : system_(system), policy_(policy), frags_(boundaries.size())
{
    if (tops.size() != boundaries.size()) {
        util::fatal("RoomWorker: %zu fragment tops for %zu boundary "
                    "sets",
                    tops.size(), boundaries.size());
    }
    for (std::size_t t = 0; t < tops.size(); ++t) {
        if (tops[t] != topo::kNoNode)
            layOut(t, tops[t], boundaries[t]);
    }
}

void
RoomWorker::layOut(std::size_t tree, topo::NodeId top,
                   const std::set<topo::NodeId> &boundary)
{
    Fragment &f = frags_.at(tree);
    f.present = true;
    const auto &topo_tree = system_.tree(tree);
    f.stations.push_back({top, 0, 0, boundary.count(top) != 0});
    for (std::size_t k = 0; k < f.stations.size(); ++k) {
        if (f.stations[k].boundary)
            continue;
        const auto &children = topo_tree.node(f.stations[k].node).children;
        f.stations[k].first = static_cast<std::uint32_t>(f.stations.size());
        f.stations[k].count = static_cast<std::uint32_t>(children.size());
        for (const topo::NodeId c : children)
            f.stations.push_back({c, 0, 0, boundary.count(c) != 0});
    }
    f.metrics.resize(f.stations.size());
    f.budgets.assign(f.stations.size(), 0.0);
    std::vector<std::pair<topo::NodeId, std::uint32_t>> edges;
    for (std::size_t k = 0; k < f.stations.size(); ++k) {
        if (f.stations[k].boundary)
            edges.emplace_back(f.stations[k].node,
                               static_cast<std::uint32_t>(k));
    }
    std::sort(edges.begin(), edges.end());
    for (const auto &[node, k] : edges) {
        f.boundary.push_back(node);
        f.boundaryStation.push_back(k);
    }
    f.boundaryBudgets.assign(f.boundary.size(), 0.0);
}

RoomWorker::Fragment &
RoomWorker::fragment(std::size_t tree)
{
    Fragment &f = frags_.at(tree);
    if (!f.present)
        util::fatal("RoomWorker: no fragment in tree %zu", tree);
    return f;
}

ctrl::NodeMetrics &
RoomWorker::boundaryMetrics(std::size_t tree, std::size_t i)
{
    Fragment &f = fragment(tree);
    return f.metrics[f.boundaryStation.at(i)];
}

const ctrl::NodeMetrics &
RoomWorker::gather(std::size_t tree)
{
    Fragment &f = fragment(tree);
    const auto &topo_tree = system_.tree(tree);
    // Children follow their parent in breadth-first order, so a reverse
    // walk merges every station after all of its children.
    for (std::size_t k = f.stations.size(); k-- > 0;) {
        const Fragment::Station &st = f.stations[k];
        if (st.boundary)
            continue;
        ctrl::gatherMetrics(
            std::span<const ctrl::NodeMetrics>(f.metrics.data() + st.first,
                                               st.count),
            topo_tree.node(st.node).limit(), policy_.upperPriorityAware,
            f.metrics[k]);
    }
    return f.metrics.front();
}

const std::vector<Watts> &
RoomWorker::split(std::size_t tree, Watts top_budget)
{
    Fragment &f = fragment(tree);
    const auto &topo_tree = system_.tree(tree);
    // The top's own limit clamps the grant, so an over-generous (or
    // unlimited-root) grant never overloads the fragment. A forward
    // walk splits every station before any of its children.
    f.budgets.front() = std::min(
        top_budget, topo_tree.node(f.stations.front().node).limit());
    for (std::size_t k = 0; k < f.stations.size(); ++k) {
        const Fragment::Station &st = f.stations[k];
        if (st.boundary)
            continue;
        const Watts usable =
            std::min(f.budgets[k], topo_tree.node(st.node).limit());
        ctrl::budgetChildren(
            usable,
            std::span<const ctrl::NodeMetrics>(f.metrics.data() + st.first,
                                               st.count),
            policy_.upperPriorityAware, split_);
        std::copy(split_.childBudgets.begin(), split_.childBudgets.end(),
                  f.budgets.begin() + st.first);
    }
    for (std::size_t i = 0; i < f.boundary.size(); ++i)
        f.boundaryBudgets[i] = f.budgets[f.boundaryStation[i]];
    return f.boundaryBudgets;
}

// --------------------------------------------------- DistributedControlPlane

std::vector<std::map<std::size_t, topo::NodeId>>
DistributedControlPlane::partitionEdges(const topo::PowerSystem &system)
{
    std::vector<std::map<std::size_t, topo::NodeId>> per_rack;
    for (std::size_t t = 0; t < system.trees().size(); ++t) {
        std::size_t next = 0;
        system.tree(t).forEach([&](const topo::TopoNode &n) {
            const bool leaf_parent = std::any_of(
                n.children.begin(), n.children.end(), [&](topo::NodeId c) {
                    return system.tree(t).node(c).kind
                           == topo::NodeKind::SupplyPort;
                });
            if (!leaf_parent)
                return;
            if (per_rack.size() <= next)
                per_rack.resize(next + 1);
            per_rack[next++][t] = n.id;
        });
    }
    return per_rack;
}

std::size_t
DistributedControlPlane::rackWorkerCountFor(const topo::PowerSystem &system)
{
    return partitionEdges(system).size();
}

namespace {

/** The 2-level root worker's fragment: every tree from its root down
 *  to its edge nodes. */
RoomWorker
roomFragment(const topo::PowerSystem &system, ctrl::TreePolicy policy)
{
    const TreePlan plan = TreePlan::build(system, {});
    return RoomWorker(system, plan.topsOf(plan.rootEndpoint()),
                      plan.boundariesOf(plan.rootEndpoint()), policy);
}

} // namespace

DistributedControlPlane::DistributedControlPlane(
    const topo::PowerSystem &system, ctrl::TreePolicy policy,
    net::Transport &transport, net::ProtocolConfig protocol)
    : system_(system), policy_(policy), room_(roomFragment(system, policy)),
      transport_(transport), protocol_(protocol)
{
    const auto per_rack = partitionEdges(system_);
    racks_.reserve(per_rack.size());
    for (std::size_t r = 0; r < per_rack.size(); ++r) {
        RackWorker &rack = racks_.emplace_back(system_, policy_);
        for (const auto &[t, node] : per_rack[r]) {
            rack.addEdge(t, node);
            edgeOwner_[{t, node}] = r;
            for (const topo::NodeId c :
                 system_.tree(t).node(node).children) {
                const auto &ref = *system_.tree(t).node(c).supplyRef;
                leafEdge_[{ref.server, ref.supply}] = {t, node};
            }
        }
    }

    rackSeq_.assign(racks_.size(), 0);
    lastTreeMetrics_.assign(system_.trees().size(), {});
}

void
DistributedControlPlane::setTelemetry(telemetry::Registry *registry,
                                      telemetry::PeriodTracer *tracer)
{
    registry_ = registry;
    tracer_ = tracer;
    counters_.clear();
    if (registry_ == nullptr)
        return; // record() touches no handle without a registry
    for (const PlaneCounter &c : kPlaneCounters) {
        counters_.push_back(registry_->counter(
            std::string("capmaestro_plane_") + c.name + "_total", {},
            c.help));
    }
    degradedCounter_ =
        registry_->counter("capmaestro_plane_degraded_decisions_total", {},
                           "Degraded-mode (§4.5) decisions taken");
    epochGauge_ = registry_->gauge("capmaestro_plane_epoch", {},
                                   "Current control-period epoch");
}

void
DistributedControlPlane::record(const MessageStats &before,
                                const MessageStats &after)
{
    if (registry_ == nullptr)
        return;
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        const std::size_t MessageStats::*field = kPlaneCounters[i].field;
        counters_[i].inc(static_cast<double>(after.*field - before.*field));
    }
    degradedCounter_.inc(
        static_cast<double>(after.degraded.size() - before.degraded.size()));
    epochGauge_.set(static_cast<double>(epoch_));
}

const std::pair<std::size_t, topo::NodeId> &
DistributedControlPlane::edgeOfLeaf(const topo::ServerSupplyRef &ref) const
{
    const auto it = leafEdge_.find({ref.server, ref.supply});
    if (it == leafEdge_.end())
        util::panic("DistributedControlPlane: unknown supply %d.%d",
                    ref.server, ref.supply);
    return it->second;
}

bool
DistributedControlPlane::setLeafInput(const topo::ServerSupplyRef &ref,
                                      const ctrl::LeafInput &input)
{
    const auto &edge = edgeOfLeaf(ref);
    return racks_[edgeOwner_.at(edge)].setLeafInput(edge.first, ref, input);
}

std::vector<net::BudgetMsg>
DistributedControlPlane::split(std::size_t tree,
                               const std::map<topo::NodeId,
                                              ctrl::NodeMetrics> &view,
                               Watts root_budget)
{
    // An edge missing from the view (its metrics were lost) rides its
    // Pcap_min default: it enters the merge as that floor, so every
    // station above counts it, and it gets no budget. The in-process
    // room reads the floor off the rack; a deployed parent uses a
    // config-nominal one (rt::AggregatorRole).
    const std::vector<topo::NodeId> &edges = room_.boundary(tree);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        ctrl::NodeMetrics &slot = room_.boundaryMetrics(tree, i);
        const auto got = view.find(edges[i]);
        if (got != view.end()) {
            slot = got->second;
        } else {
            slot.setFloorOnly(racks_[edgeOwner_.at({tree, edges[i]})]
                                  .defaultBudget(tree, edges[i]));
        }
    }
    room_.gather(tree);
    const std::vector<Watts> &budgets = room_.split(tree, root_budget);
    std::vector<net::BudgetMsg> out;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (view.count(edges[i])) {
            out.push_back({static_cast<std::uint16_t>(tree),
                           static_cast<std::uint32_t>(edges[i]),
                           budgets[i]});
        }
    }
    return out;
}

MessageStats
DistributedControlPlane::iterate(const std::vector<Watts> &root_budgets)
{
    if (root_budgets.size() != system_.trees().size()) {
        util::fatal("DistributedControlPlane: %zu budgets for %zu trees",
                    root_budgets.size(), system_.trees().size());
    }
    MessageStats stats;
    net::Transport &tp = transport_;
    ++epoch_;
    const std::size_t bytes_before = tp.stats().bytesSent;
    // The room's endpoint follows the racks'.
    const Wire wire{tp, protocol_, edgeOwner_,
                    static_cast<net::Transport::Endpoint>(racks_.size()),
                    epoch_, rackSeq_, roomSeq_};
    const auto tree_live = [&](std::size_t t) {
        return !system_.feedFailed(system_.tree(t).feed());
    };

    const auto gather_span =
        tracer_ ? tracer_->begin("gather") : telemetry::PeriodTracer::kNoSpan;
    if (tracer_) {
        tracer_->num(gather_span, "deadline_ms",
                     protocol_.gatherDeadlineMs);
    }

    // ---------------- gather: one Metrics per live edge
    std::vector<net::MetricsMsg> up;
    for (RackWorker &rack : racks_) {
        for (const RackWorker::Edge &edge : rack.edges()) {
            if (!tree_live(edge.tree))
                continue;
            net::MetricsMsg &msg = up.emplace_back();
            msg.tree = static_cast<std::uint16_t>(edge.tree);
            msg.edgeNode = static_cast<std::uint32_t>(edge.node);
            rack.computeMetrics(edge.tree, edge.node, msg.metrics);
            stats.metricClassesSent += msg.metrics.classes().size();
        }
    }
    stats.metricsMessages = up.size();
    const auto fresh = exchange(wire,
                                {net::MsgType::Metrics, net::encodeMetrics,
                                 protocol_.gatherDeadlineMs},
                                up, stats.retries, stats);

    // The §4.5 stale -> lost ladder, per edge.
    std::vector<std::map<topo::NodeId, ctrl::NodeMetrics>> tree_metrics(
        system_.trees().size());
    for (const auto &[key, rack] : edgeOwner_) {
        const auto [t, node] = key;
        if (!tree_live(t))
            continue;
        const auto got = fresh.find(key);
        if (got != fresh.end()) {
            tree_metrics[t][node] = got->second.metrics;
            metricCache_[key] = {got->second.metrics, epoch_};
            continue;
        }
        const auto cached = metricCache_.find(key);
        const bool seen = cached != metricCache_.end();
        const std::uint32_t age = seen ? epoch_ - cached->second.epoch : 0;
        if (seen && age <= static_cast<std::uint32_t>(
                               protocol_.staleAgeCapPeriods)) {
            tree_metrics[t][node] = cached->second.metrics;
            ++stats.staleReuses;
            stats.degraded.push_back({DegradedKind::StaleMetricsReused,
                                      t, node, rack,
                                      static_cast<double>(age)});
        } else {
            // Too old (or never seen): the edge is left out of the
            // split and rides its default budget (see split()).
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

    // ---------------- budget: the room's split, one Budget per edge
    std::vector<net::BudgetMsg> down;
    for (std::size_t t = 0; t < system_.trees().size(); ++t) {
        if (!tree_live(t))
            continue;
        const auto grants = split(t, tree_metrics[t], root_budgets[t]);
        down.insert(down.end(), grants.begin(), grants.end());
    }
    stats.budgetMessages = down.size();
    const auto granted = exchange(wire,
                                  {net::MsgType::Budget, net::encodeBudget,
                                   protocol_.budgetDeadlineMs},
                                  down, stats.retries, stats);

    // §4.5 default budgets: an edge that saw no budget by the deadline
    // falls back to its Pcap_min floor.
    for (const auto &[key, rack] : edgeOwner_) {
        const auto [t, node] = key;
        if (!tree_live(t))
            continue;
        const auto got = granted.find(key);
        if (got != granted.end()) {
            racks_[rack].applyBudget(t, node, got->second.budget);
            continue;
        }
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
    record({}, stats);
    return stats;
}

std::map<std::size_t, std::set<topo::NodeId>>
DistributedControlPlane::pinnedEdges(
    const std::vector<ctrl::SpoPin> &pins) const
{
    std::map<std::size_t, std::set<topo::NodeId>> affected;
    for (const ctrl::SpoPin &pin : pins) {
        const auto &edge = edgeOfLeaf(pin.ref);
        affected[edge.first].insert(edge.second);
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
    if (pins.empty())
        return {};
    // stats may already hold this period's iterate() (and earlier SPO
    // rounds), so only what this round adds is recorded.
    MessageStats before;
    if (registry_ != nullptr)
        before = stats;
    ++stats.spoRounds;
    // The per-server capping controllers pin their stranded supplies;
    // the link to the owning rack worker is local (paper §5: capping
    // controllers are colocated), so no frames travel for this step.
    for (const ctrl::SpoPin &pin : pins) {
        setLeafInput(pin.ref,
                     ctrl::pinnedLeafInput(pin.priority, pin.consumption));
    }
    std::set<std::size_t> committed;
    net::Transport &tp = transport_;
    const std::size_t bytes_before = tp.stats().bytesSent;
    const std::size_t spo_retries_entry = stats.spoRetries;
    // The room's endpoint follows the racks'.
    const Wire wire{tp, protocol_, edgeOwner_,
                    static_cast<net::Transport::Endpoint>(racks_.size()),
                    epoch_, rackSeq_, roomSeq_};
    const auto fall_back = [&](std::size_t t, double phase) {
        ++stats.spoFallbackTrees;
        stats.degraded.push_back(
            {DegradedKind::SpoFallback, t, topo::kNoNode, 0, phase});
    };
    const auto spo_gather_span =
        tracer_ ? tracer_->begin("spo.gather")
                : telemetry::PeriodTracer::kNoSpan;
    if (tracer_) {
        tracer_->num(spo_gather_span, "deadline_ms",
                     protocol_.spoGatherDeadlineMs);
        tracer_->num(spo_gather_span, "pins",
                     static_cast<double>(pins.size()));
    }

    const auto affected = pinnedEdges(pins);

    // ---------------- SPO gather: pinned summaries from affected edges
    std::vector<net::MetricsMsg> up;
    for (const auto &[t, nodes] : affected) {
        ++stats.spoTreesAttempted;
        for (const topo::NodeId node : nodes) {
            net::MetricsMsg &msg = up.emplace_back();
            msg.tree = static_cast<std::uint16_t>(t);
            msg.edgeNode = static_cast<std::uint32_t>(node);
            racks_[edgeOwner_.at({t, node})].computeMetrics(t, node,
                                                            msg.metrics);
        }
    }
    stats.spoSummaryMessages += up.size();
    const auto fresh = exchange(wire,
                                {net::MsgType::PinnedSummary,
                                 net::encodePinnedSummary,
                                 protocol_.spoGatherDeadlineMs},
                                up, stats.spoRetries, stats);

    // A tree may only be re-budgeted from a complete second-pass view:
    // any missing pinned summary aborts the tree before a single budget
    // goes out, so it keeps its first-pass budgets wholesale.
    std::map<std::size_t, std::map<topo::NodeId, ctrl::NodeMetrics>> views;
    for (const auto &[t, nodes] : affected) {
        auto view = lastTreeMetrics_[t];
        bool complete = true;
        for (const topo::NodeId node : nodes) {
            const auto got = fresh.find({t, node});
            if (got == fresh.end()) {
                complete = false;
                break;
            }
            view[node] = got->second.metrics;
        }
        if (complete)
            views[t] = std::move(view);
        else
            fall_back(t, 1.0);
    }

    const std::size_t spo_gather_retries =
        stats.spoRetries - spo_retries_entry;
    if (tracer_) {
        tracer_->num(spo_gather_span, "attempted",
                     static_cast<double>(affected.size()));
        tracer_->num(spo_gather_span, "gather_ok",
                     static_cast<double>(views.size()));
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

    // ---------------- SPO budget: second-pass budgets, buffered by the
    // racks so an incomplete tree can roll back without ever mixing the
    // passes.
    std::map<std::size_t, std::vector<net::BudgetMsg>> grants;
    std::vector<net::BudgetMsg> down;
    for (const auto &[t, view] : views) {
        grants[t] = split(t, view, root_budgets[t]);
        down.insert(down.end(), grants[t].begin(), grants[t].end());
    }
    stats.spoBudgetMessages += down.size();
    const auto buffered = exchange(wire,
                                   {net::MsgType::SpoBudget,
                                    net::encodeSpoBudget,
                                    protocol_.spoBudgetDeadlineMs},
                                   down, stats.spoRetries, stats);

    // Per-tree atomic commit: every edge applies its second-pass
    // budget, or none does and the buffers are discarded.
    for (auto &[t, view] : views) {
        const auto &tree_grants = grants[t];
        const bool complete = std::all_of(
            tree_grants.begin(), tree_grants.end(),
            [&](const net::BudgetMsg &g) {
                return buffered.count(edgeOf(g)) != 0;
            });
        if (!complete) {
            fall_back(t, 2.0);
            continue;
        }
        for (const net::BudgetMsg &g : tree_grants) {
            const EdgeKey edge = edgeOf(g);
            racks_[edgeOwner_.at(edge)].applyBudget(
                edge.first, edge.second, buffered.at(edge).budget);
        }
        lastTreeMetrics_[t] = std::move(view);
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
    record(before, stats);
    return committed;
}

Watts
DistributedControlPlane::leafBudget(const topo::ServerSupplyRef &ref) const
{
    const auto &edge = edgeOfLeaf(ref);
    return racks_[edgeOwner_.at(edge)].leafBudget(edge.first, ref);
}

} // namespace capmaestro::core
