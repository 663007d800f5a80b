#include "rt/membership_plane.hh"

#include <algorithm>

#include "util/logging.hh"

namespace capmaestro::rt {

MembershipPlane::MembershipPlane(const core::TreePlan &plan,
                                 std::vector<Endpoint> locals,
                                 const config::MembershipConfig &boot,
                                 int fail_after, RuntimeStats &stats,
                                 core::EventLog &events, Observability &obs)
    : plan_(plan), locals_(std::move(locals)),
      root_(std::binary_search(locals_.begin(), locals_.end(),
                               plan.rootEndpoint())),
      failAfter_(fail_after), stats_(stats), events_(events), obs_(obs),
      table_(membership::MembershipTable::allLive(plan.workers.size()))
{
    // Every process reads the same peer table: a slot not yet deployed
    // starts outside each table, so no parent supervises it before a
    // broadcast shows it Joining. The root holds its joiners out too
    // until it announces them.
    for (const std::uint32_t ep : boot.absent)
        markAbsent(ep);
    if (root_) {
        for (const std::uint32_t ep : boot.join)
            markAbsent(ep);
    }
    obs_.publishMembership(table_);
}

void
MembershipPlane::changed()
{
    changed_ = true;
    obs_.publishMembership(table_);
}

std::uint32_t
MembershipPlane::acked(std::uint16_t endpoint) const
{
    if (std::binary_search(locals_.begin(), locals_.end(), endpoint))
        return table_.generation();
    const auto it = acks_.find(endpoint);
    return it == acks_.end() ? 0 : it->second;
}

bool
MembershipPlane::announce(std::uint32_t endpoint, bool join)
{
    if (!root_)
        util::fatal("rt: membership announcements need the root's process");
    const auto ep = static_cast<std::uint16_t>(endpoint);
    if (endpoint >= plan_.workers.size() || endpoint == plan_.rootEndpoint()
        || !(join ? table_.beginJoin(ep) : table_.beginDrain(ep)))
        return false;
    // Acks recorded so far belong to a previous incarnation of the
    // slot; the joiner must ack its own announcement.
    if (join)
        acks_.erase(ep);
    announced_[ep] = epoch_;
    changed();
    events_.record(static_cast<Seconds>(epoch_),
                   join ? core::EventKind::MembershipJoinBegan
                        : core::EventKind::MembershipDrainBegan,
                   "worker" + std::to_string(endpoint),
                   static_cast<double>(table_.generation()));
    return true;
}

bool
MembershipPlane::book(const net::Frame &frame)
{
    const net::MembershipAckMsg &ack = frame.membershipAck;
    if (ack.endpoint != frame.sender)
        return false;
    std::uint32_t &gen = acks_[ack.endpoint];
    gen = std::max(gen, ack.generation);
    return true;
}

bool
MembershipPlane::released(std::uint32_t endpoint) const
{
    const auto ep = static_cast<std::uint16_t>(endpoint);
    if (!root_ || state(ep) != membership::UnitState::Left)
        return false;
    // Never deployed: nothing ever drew this floor.
    const std::uint32_t since = table_.sinceGeneration(ep);
    return since == 0 || acked(ep) >= since;
}

std::vector<MembershipPlane::Endpoint>
MembershipPlane::targets(std::uint32_t epoch) const
{
    // Generation 1 is the static deployment: nothing is ever sent.
    std::vector<Endpoint> out;
    if (!root_ || table_.generation() <= 1)
        return out;
    const auto every =
        static_cast<std::uint32_t>(std::max(1, failAfter_ - 1));
    const bool refresh = epoch % every == 0;
    for (Endpoint ep = 0; ep < plan_.workers.size(); ++ep) {
        const auto unit = static_cast<std::uint16_t>(ep);
        if (!std::binary_search(locals_.begin(), locals_.end(), ep)
            && !released(unit)
            && (refresh || acked(unit) < table_.generation()))
            out.push_back(ep);
    }
    return out;
}

void
MembershipPlane::markAbsent(std::uint32_t endpoint)
{
    if (stats_.periodsRun > 0)
        util::fatal("rt: markAbsent() is pre-run configuration; use "
                    "beginDrain() online");
    if (endpoint >= plan_.workers.size()
        || (root_ && endpoint == plan_.rootEndpoint()))
        util::fatal("rt: cannot mark endpoint %u absent", endpoint);
    table_.markAbsent(static_cast<std::uint16_t>(endpoint));
    changed();
}

void
MembershipPlane::beginShadow()
{
    if (root_)
        util::fatal("rt: beginShadow() is for a process without the root");
    if (stats_.periodsRun > 0)
        util::fatal("rt: beginShadow() must precede the first period");
    // Any snapshot at or ahead of generation 1 is adopted.
    table_ = membership::MembershipTable();
    changed();
}

bool
MembershipPlane::adopt(const net::MembershipDeltaMsg &msg)
{
    if (!table_.applyDelta(msg))
        return false;
    ++stats_.membershipDeltasApplied;
    changed();
    return true;
}

void
MembershipPlane::openGather(AggregatorRole &agg,
                            const Supervisor *liveness) const
{
    if (!changed_ && liveness == nullptr)
        return; // every child at the default view
    std::map<std::uint32_t, AggregatorRole::ChildView> views;
    if (changed_) {
        for (const std::uint32_t child : agg.children()) {
            if (!plan_.workers[child].isLeaf())
                continue;
            AggregatorRole::ChildView &view = views[child];
            // Children committed out send nothing; everyone else
            // (Joining and Draining units in their shadow periods
            // included) is waited for.
            view.awaited = state(child) != membership::UnitState::Left;
            view.member = state(child) == membership::UnitState::Live;
            view.released = released(child);
        }
    }
    agg.setChildViews(liveness ? liveness->views(std::move(views))
                               : std::move(views));
}

void
MembershipPlane::closeGather(AggregatorRole &agg, std::uint32_t epoch,
                             const Supervisor *liveness)
{
    if (agg.isRoot()) {
        // Phase two of the adopt protocol. Drains commit on the ack
        // alone: the floor stays counted until the Left generation is
        // acked too (released()).
        epoch_ = epoch;
        for (auto it = announced_.begin(); it != announced_.end();) {
            const auto [ep, announced_at] = *it;
            const bool ready =
                acked(ep) >= table_.sinceGeneration(ep)
                && (table_.state(ep) == membership::UnitState::Draining
                    || epoch >= announced_at + kShadowPeriodsMin);
            if (!ready || !table_.commit(ep)) {
                ++it;
                continue;
            }
            it = announced_.erase(it);
            ++stats_.membershipCommits;
            changed();
            events_.record(static_cast<Seconds>(epoch),
                           core::EventKind::MembershipCommitted,
                           "worker" + std::to_string(ep),
                           static_cast<double>(table_.generation()));
        }
    }
    openGather(agg, liveness);
}

} // namespace capmaestro::rt
