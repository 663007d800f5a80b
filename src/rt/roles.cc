#include "rt/roles.hh"

#include <algorithm>

#include "policy/policy.hh"
#include "rt/plant.hh"
#include "util/logging.hh"

namespace capmaestro::rt {

namespace {

/** The worker plan of @p scenario cut at @p peers' levels (fatal when
 *  there is no power system or the peer table does not match it). */
core::TreePlan
planOf(const config::LoadedScenario &scenario,
       const config::WorkerPeers &peers)
{
    if (!scenario.system)
        util::fatal("rt: scenario has no power system");
    core::TreePlan plan =
        core::TreePlan::build(*scenario.system, peers.aggLevels);
    if (peers.peers.size() != plan.workers.size()) {
        util::fatal("rt: peer table has %zu endpoints; the worker plan "
                    "needs %zu (%zu leaves + %zu aggregators + root)",
                    peers.peers.size(), plan.workers.size(),
                    plan.leafWorkers,
                    plan.workers.size() - plan.leafWorkers - 1);
    }
    return plan;
}

} // namespace

RoleTable::RoleTable(config::LoadedScenario &scenario,
                     const config::WorkerPeers &peers,
                     std::vector<Endpoint> locals, std::uint64_t seed,
                     RuntimeStats &stats, core::EventLog &events,
                     Observability &obs)
    : scenario_(scenario), stats_(stats), events_(events), obs_(obs),
      plan_(planOf(scenario, peers)), locals_(std::move(locals)),
      membership_(plan_, locals_, peers.membership,
                  scenario.service.protocol.heartbeatFailAfter, stats,
                  events, obs)
{
    const topo::PowerSystem &system = *scenario.system;
    // Before the leaves move the server specs into their plants: the
    // floors are read straight from the config so every process
    // agrees bit for bit.
    const auto nominal_floor = nominalEdgeFloors(system, scenario);
    const auto policy = policy::treePolicy(scenario.service.policy);
    index_.assign(plan_.workers.size(), RoleRef{});
    // Plan endpoints ascend by tier, so ascending locals put a hosted
    // child's aggregator before its hosted parent's.
    std::vector<Endpoint> leaf_eps;
    for (const Endpoint ep : locals_) {
        if (ep >= plan_.workers.size()) {
            util::fatal("rt: endpoint %u out of range (plan has %zu "
                        "workers)",
                        ep, plan_.workers.size());
        }
        const core::TreePlan::Worker &w = plan_.workers[ep];
        if (w.isLeaf()) {
            leaf_eps.push_back(ep);
            continue;
        }
        index_[ep] = {RoleRef::Kind::Aggregator,
                      static_cast<std::uint32_t>(aggs_.size())};
        aggs_.push_back(Aggregator{
            AggregatorRole(system, plan_, ep, policy, nominal_floor,
                           scenario.service.protocol,
                           w.isRoot() ? scenario.rootBudgets
                                      : std::vector<Watts>{}),
            ep, w.tier, "w" + std::to_string(ep)});
    }
    for (LeafRole &leaf :
         buildLeaves(scenario, leaf_eps, nominal_floor, seed)) {
        index_[leaf.endpoint()] = {
            RoleRef::Kind::Leaf, static_cast<std::uint32_t>(leaves_.size())};
        leaves_.push_back(Leaf{std::move(leaf)});
    }
    // One lossless period: a Metrics frame per leaf edge, a Summary per
    // aggregator station and a Budget or SubBudget per child station.
    for (const Leaf &leaf : leaves_)
        spareCap_ += leaf.role.edges().size();
    for (const Aggregator &agg : aggs_) {
        spareCap_ +=
            agg.role.stations().size() + agg.role.childStations().size();
    }
}

std::vector<std::uint8_t>
RoleTable::buffer()
{
    if (spare_.empty())
        return {};
    std::vector<std::uint8_t> bytes = std::move(spare_.back());
    spare_.pop_back();
    return bytes;
}

void
RoleTable::recycle(std::vector<std::uint8_t> &&bytes)
{
    if (bytes.capacity() != 0 && spare_.size() < spareCap_)
        spare_.push_back(std::move(bytes));
}

RoleTable::Send &
RoleTable::send(Endpoint from, Endpoint to, Sends &out)
{
    Send &send = out.emplace_back();
    send.from = from;
    send.to = to;
    send.bytes = buffer();
    return send;
}

void
RoleTable::setWireVersion(std::uint8_t v)
{
    if (v != net::kWireVersion && v != net::kWireCompatVersion) {
        util::fatal("rt: wire version %u is neither current (%u) nor "
                    "compat (%u)",
                    v, net::kWireVersion, net::kWireCompatVersion);
    }
    wireVersion_ = v;
}

net::FrameMeta
RoleTable::stamp(Endpoint from, std::uint32_t epoch)
{
    net::FrameMeta meta(senderOf(from), epoch, seq_++);
    meta.wireVersion = wireVersion_;
    obs_.stamp(meta, static_cast<std::uint8_t>(plan_.workers[from].tier));
    return meta;
}

void
RoleTable::frameMetrics(Leaf &leaf, std::uint32_t epoch, Sends &out)
{
    const Endpoint ep = leaf.role.endpoint();
    if (membership_.left(ep))
        return; // committed out: it reports nothing
    for (const net::MetricsMsg &msg : leaf.role.metrics()) {
        net::encodeMetrics(stamp(ep, epoch), msg,
                           send(ep, plan_.workers[ep].parent, out).bytes);
    }
}

void
RoleTable::frameSummaries(const Aggregator &agg,
                          const std::vector<net::MetricsMsg> &summaries,
                          std::uint32_t epoch, Sends &out)
{
    for (const net::MetricsMsg &msg : summaries) {
        net::encodeSummary(
            stamp(agg.ep, epoch), msg,
            send(agg.ep, plan_.workers[agg.ep].parent, out).bytes);
        ++stats_.summariesSent;
    }
}

void
RoleTable::frameDown(Aggregator &agg, std::uint32_t epoch, Sends &out)
{
    const auto &downs = agg.role.computeDown(stats_);
    obs_.auditSplit(epoch, *scenario_.system, agg.name, agg.role);
    for (const AggregatorRole::DownMsg &down : downs) {
        const net::FrameMeta meta = stamp(agg.ep, epoch);
        std::vector<std::uint8_t> &bytes = send(agg.ep, down.child, out).bytes;
        if (down.leafChild)
            net::encodeBudget(meta, down.msg, bytes);
        else
            net::encodeSubBudget(meta, down.msg, bytes);
    }
}

void
RoleTable::frameMembership(std::uint32_t epoch, Sends &out)
{
    // A compat-stamped root cannot announce; upgrade first.
    if (wireVersion_ != net::kWireVersion)
        return;
    const auto targets = membership_.targets(epoch);
    if (targets.empty())
        return;
    const net::MembershipDeltaMsg delta = membership_.table().toDelta();
    const Endpoint root = plan_.rootEndpoint();
    for (const Endpoint to : targets) {
        out.push_back({root, to,
                       net::encodeMembershipDelta(stamp(root, epoch),
                                                  delta)});
        ++stats_.membershipDeltasSent;
    }
}

void
RoleTable::closeLeaf(Leaf &leaf)
{
    leaf.role.close(membership_.state(leaf.role.endpoint()), stats_,
                    events_);
}

void
RoleTable::frameHeartbeat(Endpoint from, Endpoint to, std::uint32_t epoch,
                          Sends &out)
{
    net::encodeHeartbeat(stamp(from, epoch), send(from, to, out).bytes);
}

RoleTable::Routed
RoleTable::receive(Endpoint to, const std::vector<std::uint8_t> &bytes,
                   std::uint32_t epoch, Sends &out)
{
    if (!net::decodeFrame(bytes, frame_)) {
        ++stats_.corruptFrames;
        return Routed::Corrupt;
    }
    if (obs_.on()) {
        obs_.recordHop(frame_,
                       static_cast<std::uint8_t>(plan_.workers[to].tier));
    }
    return route(to, frame_, epoch, out);
}

RoleTable::Routed
RoleTable::route(Endpoint to, const net::Frame &frame, std::uint32_t epoch,
                 Sends &out)
{
    if (frame.type == net::MsgType::MembershipDelta)
        return adopt(to, frame, epoch, out);
    if (frame.type == net::MsgType::MembershipAck) {
        // Acks are addressed to the root, which books them.
        if (to == plan_.rootEndpoint() && membership_.book(frame))
            return Routed::Membership;
        ++stats_.orphanFrames;
        return Routed::Orphan;
    }
    const RoleRef ref = index_[to];
    const core::TreePlan::Worker &self = plan_.workers[to];
    const bool from_parent =
        !self.isRoot() && frame.sender == senderOf(self.parent);
    // A parent pings the children it closed a gather without, so a role
    // whose parent has moved on can close early instead of riding its
    // deadlines. Only the parent can end a role's period this way.
    if (frame.type == net::MsgType::Heartbeat && from_parent
        && ref.kind != RoleRef::Kind::None) {
        std::uint32_t &beacon = ref.kind == RoleRef::Kind::Leaf
                                    ? leaves_[ref.slot].beaconEpoch
                                    : aggs_[ref.slot].beaconEpoch;
        beacon = std::max(beacon, frame.epoch);
        return Routed::Beacon;
    }
    if (frame.epoch > epoch)
        return Routed::Later;
    switch (ref.kind) {
    case RoleRef::Kind::Leaf:
        return leaves_[ref.slot].role.noteDownFrame(
                   frame, stats_, events_, senderOf(self.parent))
                   ? Routed::Rehome
                   : Routed::Leaf;
    case RoleRef::Kind::Aggregator: {
        AggregatorRole &agg = aggs_[ref.slot].role;
        if (frame.type != net::MsgType::SubBudget) {
            agg.noteUpFrame(frame, stats_);
            return Routed::Up;
        }
        agg.noteDownFrame(frame, senderOf(self.parent), stats_);
        return Routed::Down;
    }
    case RoleRef::Kind::None:
        break;
    }
    ++stats_.orphanFrames;
    return Routed::Orphan;
}

RoleTable::Routed
RoleTable::adopt(Endpoint to, const net::Frame &frame, std::uint32_t epoch,
                 Sends &out)
{
    // Only the root announces, and the root owns the table.
    if (frame.sender != net::kRoomSender || to == plan_.rootEndpoint()) {
        ++stats_.orphanFrames;
        return Routed::Orphan;
    }
    const bool adopted = membership_.adopt(frame.membershipDelta);
    // Ack even a stale or idempotent re-broadcast: a lost ack is what
    // keeps the root re-sending. A compat-stamped worker cannot encode
    // membership frames; the root keeps broadcasting to it until the
    // rolling upgrade flips the version.
    if (wireVersion_ == net::kWireVersion) {
        net::MembershipAckMsg ack;
        ack.generation = membership_.generation();
        ack.endpoint = static_cast<std::uint16_t>(to);
        ack.state = static_cast<net::WireUnitState>(membership_.state(to));
        out.push_back({to, plan_.rootEndpoint(),
                       net::encodeMembershipAck(stamp(to, epoch), ack)});
        ++stats_.membershipAcksSent;
    }
    return adopted ? Routed::Adopted : Routed::Membership;
}

} // namespace capmaestro::rt
