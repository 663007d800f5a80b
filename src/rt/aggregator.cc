#include "rt/aggregator.hh"

#include <cmath>
#include <string>

#include "util/logging.hh"

namespace capmaestro::rt {

AggregatorRole::AggregatorRole(
    const topo::PowerSystem &system, const core::TreePlan &plan,
    std::uint32_t endpoint, ctrl::TreePolicy policy,
    const std::map<std::pair<std::size_t, topo::NodeId>, Watts>
        &nominal_floor,
    const net::ProtocolConfig &protocol,
    std::vector<Watts> root_budgets)
    : system_(system), endpoint_(endpoint),
      rootBudgets_(std::move(root_budgets)),
      staleAgeCapPeriods_(protocol.staleAgeCapPeriods)
{
    const core::TreePlan::Worker &me = plan.workers.at(endpoint);
    if (me.isLeaf())
        util::fatal("rt: endpoint %u is a leaf worker, not an "
                    "aggregator",
                    endpoint);
    root_ = me.isRoot();
    stations_ = me.stations;
    for (const std::uint32_t c : me.children) {
        children_.insert(c);
        if (c < plan.leafWorkers)
            leafChildren_.insert(c);
        for (const auto &[tree, node] : plan.workers[c].stations)
            childOfStation_[{tree, node}] = c;
    }

    awaited_ = childOfStation_.size();

    // Per child station: the summed nominal floor of the edges beneath
    // it — what the subtree unilaterally enforces when budgets stop
    // flowing to it, and therefore what it enters the merge as while
    // the station is excluded.
    for (const auto &[key, floor] : nominal_floor) {
        const auto [tree, edge] = key;
        topo::NodeId node = edge;
        while (node != topo::kNoNode) {
            const auto owner = childOfStation_.find({tree, node});
            if (owner != childOfStation_.end()) {
                stationFloor_[{tree, node}] += floor;
                break;
            }
            node = system_.tree(tree).node(node).parent;
        }
    }

    if (root_) {
        std::vector<std::set<topo::NodeId>> boundaries =
            plan.boundariesOf(endpoint);
        frag_ = std::make_unique<core::RoomWorker>(
            system_, std::move(boundaries), policy);
        if (rootBudgets_.size() != system_.trees().size()) {
            util::fatal("rt: root worker needs %zu root budgets, got "
                        "%zu",
                        system_.trees().size(), rootBudgets_.size());
        }
    } else {
        frag_ = std::make_unique<core::RoomWorker>(
            system_, plan.topsOf(endpoint), plan.boundariesOf(endpoint),
            policy);
    }
}

std::string
AggregatorRole::stationSubject(std::size_t tree, topo::NodeId node) const
{
    return system_.tree(tree).name() + "."
           + system_.tree(tree).node(node).name;
}

void
AggregatorRole::setChildViews(std::map<std::uint32_t, ChildView> views)
{
    views_ = std::move(views);
    awaited_ = 0;
    for (const auto &[key, child] : childOfStation_) {
        (void)key;
        const auto view = views_.find(child);
        if (view == views_.end() || view->second.awaited)
            ++awaited_;
    }
}

void
AggregatorRole::beginEpoch(std::uint32_t epoch)
{
    epoch_ = epoch;
    fresh_.clear();
    received_.clear();
    stationHealth_.clear();
    boundary_.assign(system_.trees().size(), {});
    excluded_.assign(system_.trees().size(), {});
    applied_.assign(system_.trees().size(), {});
}

bool
AggregatorRole::noteUpFrame(const net::Frame &frame,
                            RuntimeStats &stats)
{
    if (frame.epoch != epoch_ || !children_.count(frame.sender)) {
        ++stats.orphanFrames;
        return false;
    }
    switch (frame.type) {
    case net::MsgType::Checkpoint:
        // A leaf child's plant checkpoint: the owner's Supervisor
        // stores it.
        return true;
    case net::MsgType::Metrics:
    case net::MsgType::Summary: {
        const bool from_leaf = leafChildren_.count(frame.sender) != 0;
        if (from_leaf != (frame.type == net::MsgType::Metrics)) {
            ++stats.orphanFrames;
            return false;
        }
        const std::pair<std::size_t, topo::NodeId> key{
            frame.metrics.tree,
            static_cast<topo::NodeId>(frame.metrics.edgeNode)};
        const auto owner = childOfStation_.find(key);
        if (owner == childOfStation_.end()
            || owner->second != frame.sender) {
            ++stats.orphanFrames;
            return false;
        }
        if (!frame.metrics.metrics.finite()) {
            ++stats.corruptFrames;
            return false;
        }
        fresh_[key] = frame.metrics.metrics;
        return true;
    }
    default:
        ++stats.orphanFrames;
        return false;
    }
}

bool
AggregatorRole::upComplete() const
{
    return fresh_.size() >= awaited_;
}

std::vector<std::uint32_t>
AggregatorRole::silentChildren() const
{
    std::set<std::uint32_t> heard;
    for (const auto &[key, metrics] : fresh_) {
        (void)metrics;
        const auto owner = childOfStation_.find(key);
        if (owner != childOfStation_.end())
            heard.insert(owner->second);
    }
    std::vector<std::uint32_t> silent;
    for (const std::uint32_t child : children_) {
        if (!heard.count(child))
            silent.push_back(child);
    }
    return silent;
}

std::vector<net::MetricsMsg>
AggregatorRole::closeGather(RuntimeStats &stats, core::EventLog &events)
{
    const auto floorOnly = [this](const auto &key) {
        excluded_[key.first].insert(key.second);
        boundary_[key.first][key.second] = ctrl::NodeMetrics::floorOnly(
            stationFloor_[key]); // 0 W: no edge beneath
    };
    for (const auto &[key, child] : childOfStation_) {
        const auto [tree, node] = key;
        const auto view = views_.find(child);
        const ChildView seen =
            view != views_.end() ? view->second : ChildView{};
        if (!seen.member) {
            // Excluded by design, not by degradation: no ladder, no
            // events, only the floor covering the unit's clamp.
            if (!seen.released)
                floorOnly(key);
            continue;
        }
        const auto got = fresh_.find(key);
        if (got != fresh_.end() && seen.trusted) {
            boundary_[tree][node] = got->second;
            cache_[key] = {got->second, epoch_, true};
            stationHealth_[key] = telemetry::UnitHealth::Live;
            continue;
        }
        const auto cached = cache_.find(key);
        const bool valid = cached != cache_.end() && cached->second.valid;
        const std::uint32_t age = valid ? epoch_ - cached->second.epoch : 0;
        const bool stale_ok =
            valid && age <= static_cast<std::uint32_t>(staleAgeCapPeriods_);
        stationHealth_[key] = stale_ok ? telemetry::UnitHealth::Stale
                                       : telemetry::UnitHealth::Lost;
        ++(stale_ok ? stats.staleReuses : stats.metricsLost);
        events.record(static_cast<Seconds>(epoch_),
                      stale_ok ? core::EventKind::StaleMetricsReused
                               : core::EventKind::MetricsLost,
                      stationSubject(tree, node), static_cast<double>(age));
        // No usable metrics (untrusted child, or the cache ran dry):
        // the station's subtree is on its own this period, so it
        // enters the boundary as its floor (see the class comment).
        if (stale_ok && seen.trusted)
            boundary_[tree][node] = cached->second.metrics;
        else
            floorOnly(key);
    }

    std::vector<net::MetricsMsg> out;
    if (root_)
        return out; // the root consumes the boundary in computeDown()
    for (const auto &[tree, top] : stations_) {
        net::MetricsMsg msg;
        msg.tree = static_cast<std::uint16_t>(tree);
        msg.edgeNode = static_cast<std::uint32_t>(top);
        msg.metrics = frag_->gatherTop(tree, boundary_[tree]);
        out.push_back(std::move(msg));
    }
    return out;
}

bool
AggregatorRole::noteDownFrame(const net::Frame &frame,
                              std::uint16_t parent_sender,
                              RuntimeStats &stats)
{
    if (root_ || frame.epoch != epoch_
        || frame.type != net::MsgType::SubBudget
        || frame.sender != parent_sender) {
        ++stats.orphanFrames;
        return false;
    }
    const std::size_t tree = frame.budget.tree;
    const auto node = static_cast<topo::NodeId>(frame.budget.edgeNode);
    const auto mine = stations_.find(tree);
    if (mine == stations_.end() || mine->second != node) {
        ++stats.orphanFrames;
        return false;
    }
    // A non-finite or negative grant would poison every child's split.
    const Watts watts = frame.budget.budget;
    if (!std::isfinite(watts) || watts < 0.0) {
        ++stats.corruptFrames;
        return false;
    }
    if (received_.emplace(tree, watts).second)
        ++stats.subBudgetsApplied;
    return true;
}

bool
AggregatorRole::downComplete() const
{
    return root_ || received_.size() >= stations_.size();
}

std::vector<AggregatorRole::DownMsg>
AggregatorRole::computeDown(RuntimeStats &stats)
{
    std::vector<DownMsg> out;
    for (const auto &[tree, top] : stations_) {
        (void)top;
        std::map<topo::NodeId, Watts> &applied = applied_[tree];
        if (root_) {
            applied = frag_->iterate(tree, boundary_[tree],
                                     rootBudgets_[tree]);
        } else {
            const auto sub = received_.find(tree);
            if (sub == received_.end()) {
                // Silence flows down: every station beneath rides its
                // Pcap_min default, which is exactly what this
                // fragment enters its parent's merge as next period if
                // the stall persists.
                ++stats.subBudgetsMissed;
                continue;
            }
            applied = frag_->budgetDown(tree, sub->second);
        }
        for (auto &[node, watts] : applied) {
            const auto owner = childOfStation_.find({tree, node});
            if (owner == childOfStation_.end())
                continue;
            // An excluded station gets no grant: its subtree rides its
            // floor, which is what the station applies.
            if (excluded_[tree].count(node)) {
                watts = stationFloor_[{tree, node}];
                continue;
            }
            if (!boundary_[tree].count(node))
                continue;
            DownMsg down;
            down.child = owner->second;
            down.leafChild = leafChildren_.count(owner->second) != 0;
            down.msg.tree = static_cast<std::uint16_t>(tree);
            down.msg.edgeNode = static_cast<std::uint32_t>(node);
            down.msg.budget = watts;
            out.push_back(down);
        }
    }
    return out;
}

} // namespace capmaestro::rt
