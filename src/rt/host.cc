#include "rt/host.hh"

#include <algorithm>

#include "policy/policy.hh"
#include "util/logging.hh"

namespace capmaestro::rt {

namespace {

/** Receive-poll granularity inside a period, milliseconds. */
constexpr double kPollSliceMs = 2.0;

/** Next-epoch frames held back before the host drops the excess. */
constexpr std::size_t kHoldbackCap = 65536;

} // namespace

WorkerHost::WorkerHost(config::LoadedScenario scenario,
                       config::WorkerPeers peers, std::uint32_t process,
                       std::uint64_t seed)
    : scenario_(std::move(scenario)), peers_(std::move(peers)),
      process_(process)
{
    init(seed);

    net::UdpConfig udp;
    udp.peers = peers_.peers;
    udp.local = locals_;
    // An aggregator's fan-in arrives as one burst per period; size the
    // sockets so a full burst (plus one held-back epoch) fits while
    // this process is descheduled on a loaded box.
    udp.bufferBytes = 4 << 20;
    ownedTransport_ = std::make_unique<net::UdpTransport>(std::move(udp));
    transport_ = ownedTransport_.get();
}

WorkerHost::WorkerHost(config::LoadedScenario scenario,
                       config::WorkerPeers peers, std::uint32_t process,
                       std::uint64_t seed, net::Transport &transport)
    : scenario_(std::move(scenario)), peers_(std::move(peers)),
      process_(process), transport_(&transport)
{
    init(seed);
}

WorkerHost::~WorkerHost() = default;

net::FrameMeta
WorkerHost::stampMeta(std::uint16_t sender, std::uint32_t epoch,
                      std::uint32_t tier)
{
    net::FrameMeta meta(sender, epoch, seq_++);
    meta.wireVersion = wireVersion_;
    obs_.stamp(meta, static_cast<std::uint8_t>(tier));
    return meta;
}

void
WorkerHost::setTelemetry(telemetry::Registry *registry,
                         telemetry::PeriodTracer *tracer)
{
    const telemetry::Labels base{
        {"process", std::to_string(process_)}};
    obs_.attach(registry, tracer, *transport_, ownedTransport_ != nullptr,
                base, /*aggregating=*/true);
    obs_.mirrorGauges("capmaestro_host_stat");
    obs_.mirrorCounter(&RuntimeStats::periodsRun,
                       "capmaestro_host_periods_total",
                       "Control periods completed by this host process");
    obs_.mirrorCounter(&RuntimeStats::catchUpPeriods,
                       "capmaestro_host_catch_up_periods_total",
                       "Periods closed early to rejoin the fleet epoch");
    if (!registry)
        return;
    // Hosted-endpoint census per tier, so a scraper sees the layout.
    std::map<std::uint32_t, std::size_t> perTier;
    for (const net::Transport::Endpoint ep : locals_)
        ++perTier[plan_.workers[ep].tier];
    for (const auto &[tier, count] : perTier) {
        telemetry::Labels ls = base;
        ls.emplace_back("tier", std::to_string(tier));
        registry
            ->gauge("capmaestro_host_endpoints", std::move(ls),
                    "Endpoints hosted by this process, per tier")
            .set(static_cast<double>(count));
    }
}

std::uint16_t
WorkerHost::serveHttp(std::uint16_t port)
{
    return obs_.serveHttp(port, [this] { return healthJson(); });
}

util::Json
WorkerHost::healthJson() const
{
    util::Json::Object out =
        obs_.health(membership_, lastEpoch_, /*aggregating=*/true);
    out.emplace("process", util::Json(static_cast<double>(process_)));
    out.emplace("endpoints",
                util::Json(static_cast<double>(locals_.size())));
    out.emplace("leaves",
                util::Json(static_cast<double>(leaves_.size())));
    out.emplace("aggregators",
                util::Json(static_cast<double>(aggs_.size())));
    return util::Json(std::move(out));
}

void
WorkerHost::init(std::uint64_t seed)
{
    if (!scenario_.system)
        util::fatal("rt: scenario has no power system");
    const auto &system = *scenario_.system;
    plan_ = core::TreePlan::build(system, peers_.aggLevels);
    if (peers_.peers.size() != plan_.workers.size()) {
        util::fatal("rt: peer table has %zu endpoints; the worker plan "
                    "needs %zu",
                    peers_.peers.size(), plan_.workers.size());
    }
    if (process_ >= peers_.processCount()) {
        util::fatal("rt: host process %u out of range (peer table "
                    "implies %u processes)",
                    process_, peers_.processCount());
    }
    locals_ = peers_.endpointsOf(process_);
    if (locals_.empty())
        util::fatal("rt: process %u hosts no endpoints", process_);

    // Every deployment boots with the static table (all Live at
    // generation 1); a broadcast from an elastic root supersedes it.
    membership_ = membership::MembershipTable::allLive(
        plan_.workers.size());

    nominalFloor_ = nominalEdgeFloors(system, scenario_);
    const auto partition =
        core::DistributedControlPlane::partitionEdges(system);
    const auto policy = policy::treePolicy(scenario_.service.policy);

    std::map<std::size_t, std::map<std::size_t, topo::NodeId>> want;
    roles_.assign(plan_.workers.size(), RoleRef{});
    for (const net::Transport::Endpoint ep : locals_) {
        const core::TreePlan::Worker &w = plan_.workers[ep];
        if (w.isLeaf()) {
            LeafRole leaf;
            leaf.ep = ep;
            leaf.parent = w.parent;
            leaf.edges = partition[ep];
            leaf.rack =
                std::make_unique<core::RackWorker>(system, policy);
            for (const auto &[tree, node] : leaf.edges)
                leaf.rack->addEdge(tree, node);
            roles_[ep] = {RoleRef::Kind::Leaf,
                          static_cast<std::uint32_t>(leaves_.size())};
            leaves_.push_back(std::move(leaf));
            want[ep] = partition[ep];
        } else {
            AggRole role;
            role.ep = ep;
            role.tier = w.tier;
            // The root has no parent; point it at itself so the field
            // is never an out-of-range endpoint.
            role.parent = w.isRoot() ? ep : w.parent;
            role.agg = std::make_unique<AggregatorRole>(
                system, plan_, ep, policy, nominalFloor_,
                scenario_.service.protocol,
                w.isRoot() ? scenario_.rootBudgets
                           : std::vector<Watts>{});
            aggs_.push_back(std::move(role));
        }
    }
    auto plants = buildPlants(scenario_, system, want, seed);
    for (LeafRole &leaf : leaves_)
        leaf.plants = std::move(plants[leaf.ep]);

    // Ascending tier order: within one drain pass a hosted child
    // closes (and sends) before its hosted parent checks completeness.
    std::stable_sort(aggs_.begin(), aggs_.end(),
                     [](const AggRole &a, const AggRole &b) {
                         return a.tier < b.tier;
                     });
    for (std::size_t i = 0; i < aggs_.size(); ++i)
        roles_[aggs_[i].ep] = {RoleRef::Kind::Agg,
                               static_cast<std::uint32_t>(i)};
}

void
WorkerHost::post(net::Transport::Endpoint from, net::Transport::Endpoint to,
                 std::vector<std::uint8_t> bytes)
{
    if (roles_[to].kind != RoleRef::Kind::None) {
        ++stats_.coHostedFrames;
        stats_.coHostedBytes += bytes.size();
        inbox_.push_back({to, std::move(bytes)});
        return;
    }
    transport_->send(from, to, std::move(bytes));
}

void
WorkerHost::leafApplyBudget(LeafRole &leaf, const net::Frame &frame)
{
    const std::size_t tree = frame.budget.tree;
    const auto node = static_cast<topo::NodeId>(frame.budget.edgeNode);
    const auto mine = leaf.edges.find(tree);
    if (mine == leaf.edges.end() || mine->second != node) {
        ++stats_.orphanFrames;
        return;
    }
    if (leaf.applied.count({tree, node}))
        return; // duplicate delivery
    const Watts granted =
        membershipClamp(leaf.ep, tree, node, frame.budget.budget);
    leaf.rack->applyBudget(tree, node, granted);
    lastEdgeBudgets_[{tree, node}] = granted;
    leaf.applied.insert({tree, node});
    ++stats_.budgetsApplied;
}

void
WorkerHost::dispatch(net::Transport::Endpoint to,
                     const net::Frame &frame, std::uint32_t epoch)
{
    if (frame.epoch > maxSeenEpoch_)
        maxSeenEpoch_ = frame.epoch;
    if (obs_.on()) {
        obs_.recordHop(frame,
                       static_cast<std::uint8_t>(plan_.workers[to].tier));
    }
    // The membership plane is epoch-free (the table generation is its
    // clock), so its frames bypass holdback and every epoch check.
    // Host mode is replica-only: deltas are adopted and acked; acks
    // have no consumer here (elasticity is driven by a WorkerRuntime
    // deep-root, never a hosted root — see host.hh).
    if (frame.type == net::MsgType::MembershipDelta) {
        adoptMembership(to, frame, epoch);
        return;
    }
    if (frame.type == net::MsgType::MembershipAck) {
        ++stats_.orphanFrames;
        return;
    }
    const RoleRef ref = roles_[to];
    // Heartbeats are pure epoch beacons: a parent pings the children
    // it closed a gather without, so a worker whose parent has moved
    // on — one lost frame, or a whole process behind the fleet —
    // can close out early instead of riding deadlines. The header has
    // been consumed; there is nothing to route or hold.
    if (frame.type == net::MsgType::Heartbeat) {
        if (ref.kind == RoleRef::Kind::Leaf) {
            auto &ep = leaves_[ref.slot].beaconEpoch;
            ep = std::max(ep, frame.epoch);
        } else if (ref.kind == RoleRef::Kind::Agg) {
            auto &ep = aggs_[ref.slot].beaconEpoch;
            ep = std::max(ep, frame.epoch);
        }
        return;
    }
    // A finished neighbor can already be one epoch ahead; its frames
    // are re-dispatched when this host enters that epoch.
    if (frame.epoch > epoch) {
        if (holdback_.size() < kHoldbackCap)
            holdback_.push_back({to, frame});
        else
            ++stats_.orphanFrames;
        return;
    }
    switch (ref.kind) {
    case RoleRef::Kind::Leaf:
        if (frame.epoch != epoch
            || frame.type != net::MsgType::Budget) {
            ++stats_.orphanFrames;
            return;
        }
        leafApplyBudget(leaves_[ref.slot], frame);
        return;
    case RoleRef::Kind::Agg: {
        AggRole &role = aggs_[ref.slot];
        const std::uint16_t parent_sender =
            role.parent == plan_.rootEndpoint()
                ? net::kRoomSender
                : static_cast<std::uint16_t>(role.parent);
        if (frame.type == net::MsgType::SubBudget)
            role.agg->noteDownFrame(frame, parent_sender, stats_);
        else
            role.agg->noteUpFrame(frame, stats_);
        return;
    }
    case RoleRef::Kind::None:
        break;
    }
    ++stats_.orphanFrames;
}

void
WorkerHost::setWireVersion(std::uint8_t v)
{
    if (v != net::kWireVersion && v != net::kWireCompatVersion) {
        util::fatal("host: wire version %u is neither current (%u) nor "
                    "compat (%u)",
                    v, net::kWireVersion, net::kWireCompatVersion);
    }
    wireVersion_ = v;
}

void
WorkerHost::adoptMembership(net::Transport::Endpoint to,
                            const net::Frame &frame, std::uint32_t epoch)
{
    if (frame.sender != net::kRoomSender) {
        ++stats_.orphanFrames;
        return;
    }
    if (membership_.applyDelta(frame.membershipDelta)) {
        ++stats_.membershipDeltasApplied;
        events_.record(static_cast<Seconds>(epoch),
                       core::EventKind::MembershipAdopted,
                       "process." + std::to_string(process_),
                       static_cast<double>(membership_.generation()));
    }
    // Ack even a stale or idempotent re-broadcast: the ack is what
    // stops the root's per-period re-send. A compat-stamped host
    // cannot encode membership frames; the root keeps broadcasting to
    // it until the rolling upgrade flips the version.
    if (wireVersion_ != net::kWireVersion)
        return;
    const auto me = static_cast<std::uint16_t>(to);
    net::MembershipAckMsg ack;
    ack.generation = membership_.generation();
    ack.endpoint = me;
    ack.state = static_cast<net::WireUnitState>(membership_.state(me));
    post(to, plan_.rootEndpoint(),
         net::encodeMembershipAck(
             stampMeta(me, epoch, plan_.workers[to].tier), ack));
    ++stats_.membershipAcksSent;
}

Watts
WorkerHost::membershipClamp(net::Transport::Endpoint ep,
                            std::size_t tree, topo::NodeId node,
                            Watts watts) const
{
    switch (membership_.state(static_cast<std::uint16_t>(ep))) {
    case membership::UnitState::Live:
        return watts;
    case membership::UnitState::Left:
        // The root released (or will release) this unit's floor on the
        // strength of its Left ack; drawing anything would overdraw.
        return 0.0;
    default:
        // Joining/Draining shadow: the unit's nominal floor is
        // reserved root-side, so the floor is all it may draw.
        return std::min(watts, nominalFloor_.at({tree, node}));
    }
}

void
WorkerHost::closeLeaf(LeafRole &leaf, std::uint32_t epoch)
{
    const auto &system = *scenario_.system;
    for (const auto &[tree, node] : leaf.edges) {
        if (leaf.applied.count({tree, node}))
            continue;
        const Watts fallback = membershipClamp(
            leaf.ep, tree, node,
            std::min(leaf.rack->defaultBudget(tree, node),
                     nominalFloor_.at({tree, node})));
        leaf.rack->applyBudget(tree, node, fallback);
        lastEdgeBudgets_[{tree, node}] = fallback;
        ++stats_.defaultBudgets;
        events_.record(static_cast<Seconds>(epoch),
                       core::EventKind::DefaultBudgetApplied,
                       system.tree(tree).name() + "."
                           + system.tree(tree).node(node).name,
                       fallback);
    }
    if (!membership_.isLive(static_cast<std::uint16_t>(leaf.ep)))
        ++stats_.shadowPeriods;
    applyPlantBudgets(leaf.plants, *leaf.rack);
    leaf.done = true;
}

void
WorkerHost::aggSendUp(AggRole &role, std::uint32_t epoch)
{
    role.upDone = true;
    // Epoch beacon: ping every child that stayed silent through this
    // gather so a process lagging behind the fleet epoch can detect
    // the gap and fast-forward. Free of charge on a lossless run —
    // a complete gather has no silent children.
    for (const std::uint32_t child : role.agg->silentChildren()) {
        post(role.ep, static_cast<net::Transport::Endpoint>(child),
             net::encodeHeartbeat(
                 stampMeta(static_cast<std::uint16_t>(role.ep), epoch,
                           role.tier)));
    }
    const auto summaries = role.agg->closeGather(stats_, events_);
    obs_.reportChildren(*role.agg, epoch);
    if (telemetry::PeriodTracer *tracer = obs_.tracer()) {
        tracer->end(role.gatherSpan);
        role.downSpan = tracer->begin("down");
        tracer->num(role.downSpan, "tier", static_cast<double>(role.tier));
        tracer->num(role.downSpan, "worker", static_cast<double>(role.ep));
    }
    if (role.agg->isRoot()) {
        // The root's down half follows immediately: its inputs are the
        // boundary it just closed.
        aggSendDown(role, epoch);
        return;
    }
    for (const auto &msg : summaries) {
        post(role.ep, role.parent,
             net::encodeSummary(
                 stampMeta(static_cast<std::uint16_t>(role.ep), epoch,
                           role.tier),
                 msg));
        ++stats_.summariesSent;
    }
}

void
WorkerHost::aggSendDown(AggRole &role, std::uint32_t epoch)
{
    role.downDone = true;
    const std::uint16_t sender =
        role.agg->isRoot() ? net::kRoomSender
                           : static_cast<std::uint16_t>(role.ep);
    const auto downs = role.agg->computeDown(stats_);
    if (obs_.on()) {
        obs_.auditSplit(epoch, *scenario_.system,
                        "w" + std::to_string(role.ep), *role.agg, downs);
    }
    for (const AggregatorRole::DownMsg &down : downs) {
        const auto meta = stampMeta(sender, epoch, role.tier);
        auto bytes = down.leafChild
                         ? net::encodeBudget(meta, down.msg)
                         : net::encodeSubBudget(meta, down.msg);
        post(role.ep, static_cast<net::Transport::Endpoint>(down.child),
             std::move(bytes));
    }
    if (telemetry::PeriodTracer *tracer = obs_.tracer()) {
        tracer->end(role.downSpan);
        role.downSpan = telemetry::PeriodTracer::kNoSpan;
    }
}

void
WorkerHost::runPeriod(std::uint32_t epoch)
{
    const auto &proto = scenario_.service.protocol;
    net::Transport &tp = *transport_;
    const double start = tp.nowMs();
    const double tiers = static_cast<double>(plan_.tiers());
    const double gather_all_end =
        start + (tiers - 1.0) * proto.gatherDeadlineMs;
    const double leaf_close =
        gather_all_end + (tiers - 1.0) * proto.budgetDeadlineMs;
    const auto gather_close = [&](std::uint32_t tier) {
        return start
               + static_cast<double>(tier) * proto.gatherDeadlineMs;
    };
    const auto down_close = [&](std::uint32_t tier) {
        return gather_all_end
               + (tiers - 1.0 - static_cast<double>(tier))
                     * proto.budgetDeadlineMs;
    };

    telemetry::PeriodTracer *tracer = obs_.tracer();
    obs_.beginPeriod(epoch, simNow_, "host" + std::to_string(process_));
    if (tracer)
        tracer->periodNum("process", static_cast<double>(process_));

    // ---- reset the per-epoch role state before any frame (including
    // a held-back one) can land.
    for (AggRole &role : aggs_) {
        role.agg->beginEpoch(epoch);
        role.upDone = false;
        role.downDone = false;
        role.gatherSpan = telemetry::PeriodTracer::kNoSpan;
        role.downSpan = telemetry::PeriodTracer::kNoSpan;
        if (tracer) {
            role.gatherSpan = tracer->begin("gather");
            tracer->num(role.gatherSpan, "tier",
                        static_cast<double>(role.tier));
            tracer->num(role.gatherSpan, "worker",
                        static_cast<double>(role.ep));
        }
    }
    for (LeafRole &leaf : leaves_) {
        leaf.applied.clear();
        leaf.done = false;
    }
    leafSpan_ = telemetry::PeriodTracer::kNoSpan;
    if (tracer && !leaves_.empty()) {
        leafSpan_ = tracer->begin("leaf_budget_wait");
        tracer->num(leafSpan_, "leaves",
                    static_cast<double>(leaves_.size()));
    }

    // ---- plants + upstream metrics for every hosted leaf. Host mode
    // streams no checkpoints: deep plans have no re-homing consumer.
    Seconds advanced = simNow_;
    for (LeafRole &leaf : leaves_) {
        Seconds now = simNow_;
        advancePlants(leaf.plants, scenario_.service.controlPeriod,
                      now);
        advanced = now;
        net::CheckpointMsg unused;
        closePlantPeriods(leaf.plants, *scenario_.system, *leaf.rack,
                          unused);
        for (const auto &[tree, node] : leaf.edges) {
            net::MetricsMsg msg;
            msg.tree = static_cast<std::uint16_t>(tree);
            msg.edgeNode = static_cast<std::uint32_t>(node);
            msg.metrics = leaf.rack->computeMetrics(tree, node);
            post(leaf.ep, leaf.parent,
                 net::encodeMetrics(
                     stampMeta(static_cast<std::uint16_t>(leaf.ep),
                               epoch, 0),
                     msg));
        }
    }
    simNow_ = advanced;

    // ---- replay frames held back for this epoch.
    std::vector<HeldFrame> keep;
    for (HeldFrame &held : holdback_) {
        if (held.frame.epoch == epoch)
            dispatch(held.to, held.frame, epoch);
        else if (held.frame.epoch > epoch)
            keep.push_back(std::move(held));
        else
            ++stats_.orphanFrames;
    }
    holdback_ = std::move(keep);

    // ---- the event loop: one pass takes the in-memory inbox, then one
    // transport drain, and services every hosted role; each role
    // advances on completeness, with the tier-staggered §4.5 deadline
    // cascade as the degraded-mode timeout. Frames a pass posts to
    // co-hosted roles wait in inbox_ for the next pass.
    for (;;) {
        batch_.clear();
        batch_.swap(inbox_);
        for (auto &delivery : tp.drain(locals_))
            batch_.push_back(std::move(delivery));
        bool progressed = !batch_.empty();
        for (const auto &delivery : batch_) {
            const auto frame = net::decodeFrame(delivery.frame);
            if (!frame) {
                ++stats_.corruptFrames;
                continue;
            }
            dispatch(delivery.to, *frame, epoch);
        }
        const double now = tp.nowMs();
        // Lagging detection: lossless pipelining runs at most one
        // epoch ahead, so any frame from epoch+2 proves the fleet
        // already degraded past this whole host — close the period
        // immediately with the usual fallbacks and burn forward
        // instead of riding deadlines ever further behind. A parent
        // beacon at or past the current epoch does the same for the
        // one role it targets: the beacon and the budget are mutually
        // exclusive per epoch (the parent sends one or the other at
        // gather close), so this role's phases are already closed
        // upstream and waiting longer buys nothing — closing now puts
        // its next-epoch frames ahead of the parent, where holdback
        // replays them fresh and the chase converges.
        const bool lagging = maxSeenEpoch_ > epoch + 1;
        bool all_done = true;
        for (AggRole &role : aggs_) {
            const bool expired = lagging || role.beaconEpoch >= epoch;
            if (!role.upDone
                && (role.agg->upComplete() || expired
                    || now >= gather_close(role.tier))) {
                aggSendUp(role, epoch);
                progressed = true;
            }
            if (role.upDone && !role.downDone
                && (role.agg->downComplete() || expired
                    || now >= down_close(role.tier))) {
                aggSendDown(role, epoch);
                progressed = true;
            }
            all_done = all_done && role.upDone && role.downDone;
        }
        bool leaves_done = true;
        for (LeafRole &leaf : leaves_) {
            if (!leaf.done
                && (leaf.applied.size() == leaf.edges.size() || lagging
                    || leaf.beaconEpoch >= epoch || now >= leaf_close))
                closeLeaf(leaf, epoch);
            all_done = all_done && leaf.done;
            leaves_done = leaves_done && leaf.done;
        }
        if (leaves_done
            && leafSpan_ != telemetry::PeriodTracer::kNoSpan) {
            tracer->end(leafSpan_);
            leafSpan_ = telemetry::PeriodTracer::kNoSpan;
        }
        obs_.poll();
        if (all_done) {
            if (lagging) {
                ++stats_.catchUpPeriods;
                if (tracer)
                    tracer->periodNum("catchUp", 1.0);
            }
            break;
        }
        // Sleep only after a pass that changed nothing: a phase it
        // closed may have posted to the inbox, and the frames it
        // delivered may have more right behind them.
        if (progressed)
            continue;
        const double remaining = leaf_close - tp.nowMs();
        tp.advanceBy(remaining > 0.0
                         ? std::min(remaining, kPollSliceMs)
                         : kPollSliceMs);
    }

    lastEpoch_ = epoch;
    ++stats_.periodsRun;
    obs_.publishStats();
    obs_.endPeriod();
}

std::size_t
WorkerHost::runPeriods(std::size_t max_periods)
{
    std::size_t done = 0;
    while (done < max_periods
           && !stop_.load(std::memory_order_relaxed)) {
        runPeriod(lastEpoch_ + 1);
        ++done;
    }
    return done;
}

} // namespace capmaestro::rt
