#include "rt/aggregator.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>

#include "util/logging.hh"

namespace capmaestro::rt {

namespace {

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

} // namespace

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
    std::map<std::pair<std::size_t, topo::NodeId>, std::uint32_t> owners;
    for (const std::uint32_t c : me.children) {
        children_.insert(c);
        if (c < plan.leafWorkers)
            leafChildren_.insert(c);
        for (const auto &[tree, node] : plan.workers[c].stations)
            owners[{tree, node}] = c;
    }
    for (const auto &[key, child] : owners) {
        childStations_.push_back({key.first, key.second, child});
        Slot slot;
        slot.leafChild = leafChildren_.count(child) != 0;
        slot.childIndex = static_cast<std::uint32_t>(
            std::distance(children_.begin(), children_.find(child)));
        slots_.push_back(std::move(slot));
    }
    awaited_ = slots_.size();

    // Per child station: the summed nominal floor of the edges beneath
    // it — what the subtree unilaterally enforces when budgets stop
    // flowing to it, and therefore what it enters the merge as while
    // the station is excluded. Only the station's own subtree is
    // walked, and its edges are added in ascending node order.
    std::vector<topo::NodeId> stack;
    std::vector<std::pair<topo::NodeId, Watts>> edges;
    for (ChildStation &st : childStations_) {
        const topo::PowerTree &tree = system_.tree(st.tree);
        edges.clear();
        stack.assign(1, st.node);
        while (!stack.empty()) {
            const topo::NodeId node = stack.back();
            stack.pop_back();
            const auto floor = nominal_floor.find({st.tree, node});
            if (floor != nominal_floor.end())
                edges.emplace_back(node, floor->second);
            for (const topo::NodeId c : tree.node(node).children) {
                if (tree.node(c).kind != topo::NodeKind::SupplyPort)
                    stack.push_back(c);
            }
        }
        std::sort(edges.begin(), edges.end());
        for (const auto &[edge, floor] : edges)
            st.floor += floor;
    }

    if (root_ && rootBudgets_.size() != system_.trees().size()) {
        util::fatal("rt: root worker needs %zu root budgets, got %zu",
                    system_.trees().size(), rootBudgets_.size());
    }
    frag_ = std::make_unique<core::RoomWorker>(
        system_, plan.topsOf(endpoint), plan.boundariesOf(endpoint),
        policy);

    // The fragment's boundary is exactly the child stations
    // (core::TreePlan::boundariesOf()), so every slot gets its index.
    const std::size_t trees = system_.trees().size();
    boundarySlots_.resize(trees);
    applied_.resize(trees);
    for (const auto &[tree, top] : stations_) {
        (void)top;
        const std::vector<topo::NodeId> &boundary = frag_->boundary(tree);
        for (std::size_t i = 0; i < boundary.size(); ++i) {
            const std::size_t slot = slotOf(tree, boundary[i]);
            boundarySlots_[tree].push_back(slot);
            if (slot != kNoSlot)
                slots_[slot].boundaryIndex = static_cast<std::uint32_t>(i);
        }
        applied_[tree].assign(boundary.size(), 0.0);
    }
    received_.assign(trees, 0);
    receivedWatts_.assign(trees, 0.0);
    split_.assign(trees, 0);
}

std::size_t
AggregatorRole::slotOf(std::size_t tree, topo::NodeId node) const
{
    const auto it = std::lower_bound(
        childStations_.begin(), childStations_.end(),
        std::make_pair(tree, node),
        [](const ChildStation &st, const std::pair<std::size_t,
                                                   topo::NodeId> &key) {
            return std::make_pair(st.tree, st.node) < key;
        });
    if (it == childStations_.end() || it->tree != tree || it->node != node)
        return kNoSlot;
    return static_cast<std::size_t>(it - childStations_.begin());
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
    for (const ChildStation &st : childStations_) {
        const auto view = views_.find(st.child);
        if (view == views_.end() || view->second.awaited)
            ++awaited_;
    }
}

void
AggregatorRole::beginEpoch(std::uint32_t epoch)
{
    epoch_ = epoch;
    freshCount_ = 0;
    for (std::size_t k = 0; k < slots_.size(); ++k) {
        Slot &slot = slots_[k];
        slot.isFresh = false;
        slot.excluded = false;
        slot.inBoundary = false;
        childStations_[k].gathered = false;
    }
    std::fill(received_.begin(), received_.end(), 0);
    receivedCount_ = 0;
    std::fill(split_.begin(), split_.end(), 0);
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
        const std::size_t k =
            slotOf(frame.metrics.tree,
                   static_cast<topo::NodeId>(frame.metrics.edgeNode));
        if (k == kNoSlot || childStations_[k].child != frame.sender) {
            ++stats.orphanFrames;
            return false;
        }
        if (!frame.metrics.metrics.finite()) {
            ++stats.corruptFrames;
            return false;
        }
        Slot &slot = slots_[k];
        slot.fresh = frame.metrics.metrics;
        if (!slot.isFresh) {
            slot.isFresh = true;
            ++freshCount_;
        }
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
    return freshCount_ >= awaited_;
}

const std::vector<std::uint32_t> &
AggregatorRole::silentChildren()
{
    heard_.assign(children_.size(), 0);
    for (const Slot &slot : slots_) {
        if (slot.isFresh)
            heard_[slot.childIndex] = 1;
    }
    silent_.clear();
    std::size_t i = 0;
    for (const std::uint32_t child : children_) {
        if (!heard_[i++])
            silent_.push_back(child);
    }
    return silent_;
}

std::optional<telemetry::UnitHealth>
AggregatorRole::stationHealth(std::size_t tree, topo::NodeId node) const
{
    const std::size_t k = slotOf(tree, node);
    if (k == kNoSlot || !childStations_[k].gathered)
        return std::nullopt;
    return childStations_[k].health;
}

std::map<topo::NodeId, Watts>
AggregatorRole::applied(std::size_t tree) const
{
    std::map<topo::NodeId, Watts> out;
    if (!split_.at(tree))
        return out;
    const std::vector<topo::NodeId> &boundary = frag_->boundary(tree);
    for (std::size_t i = 0; i < boundary.size(); ++i)
        out.emplace(boundary[i], applied_[tree][i]);
    return out;
}

const std::vector<net::MetricsMsg> &
AggregatorRole::closeGather(RuntimeStats &stats, core::EventLog &events)
{
    for (std::size_t k = 0; k < slots_.size(); ++k) {
        Slot &slot = slots_[k];
        ChildStation &st = childStations_[k];
        ctrl::NodeMetrics &boundary =
            frag_->boundaryMetrics(st.tree, slot.boundaryIndex);
        const auto floorOnly = [&] {
            slot.excluded = true;
            slot.inBoundary = true;
            boundary.setFloorOnly(st.floor); // 0 W: no edge beneath
        };
        const auto view = views_.find(st.child);
        const ChildView seen =
            view != views_.end() ? view->second : ChildView{};
        if (!seen.member) {
            // Excluded by design, not by degradation: no ladder, no
            // events, only the floor covering the unit's clamp.
            if (!seen.released)
                floorOnly();
            else
                boundary.clear(); // draws nothing: not in the merge
            continue;
        }
        st.gathered = true;
        if (slot.isFresh && seen.trusted) {
            slot.inBoundary = true;
            boundary = slot.fresh;
            slot.cached = slot.fresh;
            slot.cachedEpoch = epoch_;
            slot.cacheValid = true;
            st.health = telemetry::UnitHealth::Live;
            continue;
        }
        const bool valid = slot.cacheValid;
        const std::uint32_t age = valid ? epoch_ - slot.cachedEpoch : 0;
        const bool stale_ok =
            valid && age <= static_cast<std::uint32_t>(staleAgeCapPeriods_);
        st.health = stale_ok ? telemetry::UnitHealth::Stale
                             : telemetry::UnitHealth::Lost;
        ++(stale_ok ? stats.staleReuses : stats.metricsLost);
        events.record(static_cast<Seconds>(epoch_),
                      stale_ok ? core::EventKind::StaleMetricsReused
                               : core::EventKind::MetricsLost,
                      stationSubject(st.tree, st.node),
                      static_cast<double>(age));
        // No usable metrics (untrusted child, or the cache ran dry):
        // the station's subtree is on its own this period, so it
        // enters the boundary as its floor (see the class comment).
        if (stale_ok && seen.trusted) {
            slot.inBoundary = true;
            boundary = slot.cached;
        } else {
            floorOnly();
        }
    }

    summaries_.resize(root_ ? 0 : stations_.size());
    if (root_)
        return summaries_; // the root merges in computeDown()
    std::size_t i = 0;
    for (const auto &[tree, top] : stations_) {
        net::MetricsMsg &msg = summaries_[i++];
        msg.tree = static_cast<std::uint16_t>(tree);
        msg.edgeNode = static_cast<std::uint32_t>(top);
        msg.metrics = frag_->gather(tree);
    }
    return summaries_;
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
    if (!received_[tree]) {
        received_[tree] = 1;
        receivedWatts_[tree] = watts;
        ++receivedCount_;
        ++stats.subBudgetsApplied;
    }
    return true;
}

bool
AggregatorRole::downComplete() const
{
    return root_ || receivedCount_ >= stations_.size();
}

const std::vector<AggregatorRole::DownMsg> &
AggregatorRole::computeDown(RuntimeStats &stats)
{
    downs_.clear();
    for (const auto &[tree, top] : stations_) {
        (void)top;
        const std::vector<Watts> *split = nullptr;
        if (root_) {
            frag_->gather(tree);
            split = &frag_->split(tree, rootBudgets_[tree]);
        } else {
            if (!received_[tree]) {
                // Silence flows down: every station beneath rides its
                // Pcap_min default, which is exactly what this
                // fragment enters its parent's merge as next period if
                // the stall persists.
                ++stats.subBudgetsMissed;
                continue;
            }
            split = &frag_->split(tree, receivedWatts_[tree]);
        }
        std::vector<Watts> &applied = applied_[tree];
        applied.assign(split->begin(), split->end());
        split_[tree] = 1;
        const std::vector<std::size_t> &owners = boundarySlots_[tree];
        for (std::size_t i = 0; i < applied.size(); ++i) {
            const std::size_t k = owners[i];
            if (k == kNoSlot)
                continue;
            const Slot &slot = slots_[k];
            // An excluded station gets no grant: its subtree rides its
            // floor, which is what the station applies.
            if (slot.excluded) {
                applied[i] = childStations_[k].floor;
                continue;
            }
            if (!slot.inBoundary)
                continue;
            DownMsg &down = downs_.emplace_back();
            down.child = childStations_[k].child;
            down.leafChild = slot.leafChild;
            down.msg.tree = static_cast<std::uint16_t>(tree);
            down.msg.edgeNode =
                static_cast<std::uint32_t>(childStations_[k].node);
            down.msg.budget = applied[i];
        }
    }
    return downs_;
}

} // namespace capmaestro::rt
