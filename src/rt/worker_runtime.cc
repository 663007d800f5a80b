#include "rt/worker_runtime.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "net/wire.hh"
#include "policy/policy.hh"
#include "util/logging.hh"

namespace capmaestro::rt {

namespace {

/** Stop-flag poll granularity while waiting for a period boundary. */
constexpr std::uint64_t kSleepSliceMs = 25;

/** Receive-poll granularity inside a protocol phase, milliseconds. */
constexpr double kPollSliceMs = 2.0;

/**
 * Lockstep pacing: longest a collect loop waits (transport-clock ms)
 * for frames that may never come. Virtual (instant) on SimTransport;
 * a real bounded sleep on UdpTransport. Generous against loopback
 * latency, short enough that a chaos script with losses still runs in
 * test time.
 */
constexpr double kLockstepWaitMs = 150.0;

/** Minimum shadow periods between a join announcement and its commit:
 *  one full broadcast/ack round trip plus one settled period, so the
 *  unit demonstrably holds the clamp before its first real grant. */
constexpr std::uint32_t kShadowPeriodsMin = 2;

/** This runtime's capmaestro_rt_* and membership counters, each the
 *  mirror of one RuntimeStats field. */
struct CounterSpec
{
    std::size_t RuntimeStats::*field;
    const char *name;
    const char *help;
};
constexpr CounterSpec kCounters[] = {
    {&RuntimeStats::periodsRun, "capmaestro_rt_periods_total",
     "Control periods completed by this worker"},
    {&RuntimeStats::checkpointsSent, "capmaestro_rt_checkpoints_sent_total",
     "Plant-state checkpoints sent upstream"},
    {&RuntimeStats::rehomesSent, "capmaestro_rt_rehomes_sent_total",
     "Rehome frames sent to re-homing racks"},
    {&RuntimeStats::rehomesApplied, "capmaestro_rt_rehomes_applied_total",
     "Rehome checkpoints replayed into the local plant"},
    {&RuntimeStats::rehomesDeclined, "capmaestro_rt_rehomes_declined_total",
     "Rehome frames declined (local state already intact)"},
    {&RuntimeStats::clampedPeriods, "capmaestro_rt_clamped_periods_total",
     "Periods ridden on the Pcap_min clamp after a replay"},
    {&RuntimeStats::failovers, "capmaestro_rt_failovers_total",
     "Rack workers declared dead by heartbeat silence"},
    {&RuntimeStats::restartsDetected, "capmaestro_rt_restarts_detected_total",
     "Dead or reincarnated rack instances detected"},
    {&RuntimeStats::rehomed, "capmaestro_rt_rehomed_total",
     "Racks promoted back to Live after a checkpoint ack"},
    {&RuntimeStats::defaultBudgets, "capmaestro_rt_default_budgets_total",
     "Edges that fell back to the Pcap_min default budget"},
    {&RuntimeStats::membershipDeltasSent,
     "capmaestro_membership_deltas_sent_total",
     "Membership snapshots broadcast by the root"},
    {&RuntimeStats::membershipAcksSent,
     "capmaestro_membership_acks_sent_total",
     "Membership generations acked back to the root"},
    {&RuntimeStats::membershipCommits, "capmaestro_membership_commits_total",
     "Two-phase membership transitions committed (root view)"},
    {&RuntimeStats::shadowPeriods,
     "capmaestro_membership_shadow_periods_total",
     "Periods ridden on the Pcap_min clamp while Joining/Draining"},
};

} // namespace

WorkerRuntime::WorkerRuntime(config::LoadedScenario scenario,
                             config::WorkerPeers peers,
                             std::uint32_t role, std::uint64_t seed)
    : scenario_(std::move(scenario)), peers_(std::move(peers)),
      role_(role),
      roles_(scenario_, peers_, {role}, seed, stats_, events_, obs_)
{
    init();

    net::UdpConfig udp;
    udp.peers = peers_.peers;
    udp.local.push_back(role_);
    ownedTransport_ = std::make_unique<net::UdpTransport>(std::move(udp));
    transport_ = ownedTransport_.get();
}

WorkerRuntime::WorkerRuntime(config::LoadedScenario scenario,
                             config::WorkerPeers peers,
                             std::uint32_t role, std::uint64_t seed,
                             net::Transport &transport, Pacing pacing)
    : scenario_(std::move(scenario)), peers_(std::move(peers)),
      role_(role), pacing_(pacing), transport_(&transport),
      roles_(scenario_, peers_, {role}, seed, stats_, events_, obs_)
{
    init();
}

void
WorkerRuntime::init()
{
    if (pacing_ == Pacing::Wall) {
        // Lockstep runtimes have no wall-clock schedule: the harness
        // owns the epochs, so the origin/deadline checks do not apply.
        if (peers_.originMs == 0) {
            util::fatal(
                "rt: peers.originMs must be set (shared epoch origin)");
        }
        const auto &proto = scenario_.service.protocol;
        // One gather + one budget window per tier hop: the tier-k
        // receiver's gather closes at start + k x gather, and the leaf
        // budget deadline sits a symmetric cascade later.
        const auto hops = static_cast<double>(plan().tiers() - 1);
        if (peers_.periodMs
            <= hops * (proto.gatherDeadlineMs + proto.budgetDeadlineMs)) {
            util::fatal("rt: periodMs %.0f must exceed the %u-tier "
                        "gather+budget cascade (%.0f ms)",
                        peers_.periodMs, plan().tiers(),
                        hops * (proto.gatherDeadlineMs
                                + proto.budgetDeadlineMs));
        }
        if (epochAt(static_cast<std::uint64_t>(unixNowMs())) > 1000000) {
            util::fatal("rt: peers.originMs is too far in the past; "
                        "regenerate the peer table");
        }
    }
    // Audits name this worker as its telemetry labels do.
    if (!roles_.aggregators().empty())
        aggSlot().name = roleName();
    // The root keeps liveness, checkpoints and re-homing for its leaf
    // children: every rack at depth 2, none in a balanced deep plan.
    if (isRoom()) {
        for (const std::uint32_t child : agg().children()) {
            if (child < rackCount())
                rackHealth_[child] = RackHealth{};
        }
    }
}

WorkerRuntime::~WorkerRuntime() = default;

std::string
WorkerRuntime::roleName() const
{
    if (isRoom())
        return "room";
    if (isAggregator())
        return "agg" + std::to_string(role_);
    return "rack" + std::to_string(role_);
}

std::uint32_t
WorkerRuntime::epochAt(std::uint64_t unix_ms) const
{
    if (unix_ms < peers_.originMs)
        return 0;
    return static_cast<std::uint32_t>(
               static_cast<double>(unix_ms - peers_.originMs)
               / peers_.periodMs)
           + 1;
}

bool
WorkerRuntime::sleepUntil(std::uint64_t unix_ms)
{
    for (;;) {
        if (stop_.load(std::memory_order_relaxed))
            return false;
        // Scrapes are answered from the idle slice between period
        // windows — the bulk of a wall-paced daemon's time.
        obs_.poll();
        const auto now = static_cast<std::uint64_t>(unixNowMs());
        if (now >= unix_ms)
            return true;
        const std::uint64_t wait =
            std::min<std::uint64_t>(unix_ms - now, kSleepSliceMs);
        std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    }
}

std::size_t
WorkerRuntime::runPeriods(std::size_t max_periods)
{
    if (pacing_ != Pacing::Wall) {
        util::fatal("rt: runPeriods() needs Wall pacing; lockstep "
                    "runtimes are driven via step*()");
    }
    std::size_t done = 0;
    while (done < max_periods
           && !stop_.load(std::memory_order_relaxed)) {
        if (reload_.exchange(false, std::memory_order_relaxed)
            && reloadHandler_) {
            reloadHandler_();
        }
        // The next epoch that has not yet begun; its window start is
        // the shared wall-clock boundary every process sleeps to.
        const std::uint32_t epoch =
            epochAt(static_cast<std::uint64_t>(unixNowMs())) + 1;
        const std::uint64_t start =
            peers_.originMs
            + static_cast<std::uint64_t>(
                  static_cast<double>(epoch - 1) * peers_.periodMs);
        if (!sleepUntil(start))
            break;
        // Wall mode owns its period traces (lockstep harnesses drive
        // the tracer themselves).
        obs_.beginPeriod(epoch,
                         roles_.leaves().empty()
                             ? 0.0
                             : static_cast<double>(
                                   leafSlot().role.simNow()),
                         roleName());
        if (role_ < rackCount())
            runRackPeriod(epoch);
        else
            runAggregatorPeriod(epoch);
        finishPeriod(epoch);
        ++done;
    }
    return done;
}

void
WorkerRuntime::finishPeriod(std::uint32_t epoch)
{
    lastEpoch_ = epoch;
    ++stats_.periodsRun;
    obs_.publishStats();
    obs_.endPeriod();
}

// ===================================================================
// Observability plane
// ===================================================================

std::uint16_t
WorkerRuntime::serveHttp(std::uint16_t port)
{
    return obs_.serveHttp(port, [this] { return healthJson(); });
}

util::Json
WorkerRuntime::healthJson() const
{
    util::Json::Object out =
        obs_.health(roles_.membership(), lastEpoch_,
                    !roles_.aggregators().empty(),
                    static_cast<std::uint16_t>(role_));
    out.emplace("role", util::Json(roleName()));
    out.emplace("tier", util::Json(static_cast<double>(
                            plan().workers[role_].tier)));
    return util::Json(std::move(out));
}

// ===================================================================
// Send and receive
// ===================================================================

void
WorkerRuntime::sendAll(const Sends &batch)
{
    for (const RoleTable::Send &send : batch)
        transport_->send(send.from, send.to, send.bytes);
}

void
WorkerRuntime::retransmit(const Sends &batch, double sent_at, double until)
{
    const auto &proto = scenario_.service.protocol;
    for (int attempt = 1; attempt < proto.maxAttempts; ++attempt) {
        const double next = sent_at + attempt * proto.retryTimeoutMs;
        if (next >= until)
            break;
        transport_->advanceTo(next);
        sendAll(batch);
        stats_.retries += batch.size();
    }
}

void
WorkerRuntime::collect(std::uint32_t epoch, Until until, double close)
{
    net::Transport &tp = *transport_;
    Sends acks;
    for (;;) {
        bool rehome = false;
        for (const auto &bytes : tp.poll(role_)) {
            switch (roles_.receive(role_, bytes, epoch, acks)) {
            case Routed::Rehome:
                rehome = true;
                break;
            case Routed::Up:
                noteRackFrame(roles_.frame(), epoch);
                break;
            case Routed::Adopted:
                events_.record(static_cast<Seconds>(roles_.frame().epoch),
                               core::EventKind::MembershipAdopted,
                               roleName(),
                               static_cast<double>(
                                   roles_.membership().generation()));
                // Committed out: this period applies zero watts (see
                // LeafRole::close), the ack is the promise, and a
                // wall-paced daemon exits so the supervisor can
                // retire it.
                if (membershipLeft() && pacing_ == Pacing::Wall)
                    requestStop();
                break;
            case Routed::Ack:
                noteMembershipAck(roles_.frame());
                break;
            case Routed::Later:
                ++stats_.orphanFrames; // no holdback in these pacings
                break;
            default:
                break;
            }
            sendAll(acks);
            acks.clear();
        }
        const bool done =
            until == Until::Gather       ? agg().upComplete()
            : until == Until::SubBudgets ? agg().downComplete()
                                         : leafSlot().role.complete();
        if (done || (rehome && until == Until::BudgetsOrRehome))
            break;
        const double remaining = close - tp.nowMs();
        if (remaining <= 0.0)
            break;
        tp.advanceBy(std::min(remaining, kPollSliceMs));
    }
}

// ===================================================================
// Rack phases
// ===================================================================

WorkerRuntime::Sends
WorkerRuntime::rackUpstreamFrames(std::uint32_t epoch)
{
    RoleTable::Leaf &leaf = leafSlot();
    const net::CheckpointMsg checkpoint = leaf.role.advance(epoch);
    Sends up;
    up.push_back({role_, parentEp(),
                  net::encodeHeartbeat(roles_.stamp(role_, epoch))});
    roles_.frameMetrics(leaf, epoch, up);
    up.push_back({role_, parentEp(),
                  net::encodeCheckpoint(roles_.stamp(role_, epoch),
                                        checkpoint)});
    ++stats_.checkpointsSent;
    return up;
}

void
WorkerRuntime::runRackPeriod(std::uint32_t epoch)
{
    // ---- upstream: heartbeat + one metrics frame per edge + the
    // plant-state checkpoint, with blind bounded retransmission. In a
    // deep plan the retransmit window runs to the parent tier's gather
    // close, and the budget deadline sits at the end of the full
    // down-cascade; with 2 tiers both degenerate to the flat schedule.
    const Cascade cascade{scenario_.service.protocol, plan().tiers(),
                          transport_->nowMs()};
    const auto up = rackUpstreamFrames(epoch);
    sendAll(up);
    retransmit(up, cascade.start,
               cascade.gatherClose(plan().workers[parentEp()].tier));

    // ---- downstream: collect budgets (or a Rehome) until the
    // deadline; a budget's arrival is the implicit end of this edge's
    // exchange.
    collect(epoch, Until::Budgets, cascade.downClose(0));
    roles_.closeLeaf(leafSlot());
}

void
WorkerRuntime::stepUpstream(std::uint32_t epoch)
{
    if (pacing_ != Pacing::Lockstep || role_ >= rackCount())
        util::fatal("rt: stepUpstream() needs a lockstep rack runtime");
    // Single-shot sends: lockstep has no deadline schedule to pace
    // retransmissions against, and a chaos harness wants injected loss
    // to actually cost a frame.
    sendAll(rackUpstreamFrames(epoch));
}

void
WorkerRuntime::stepDownstream(std::uint32_t epoch)
{
    if (pacing_ != Pacing::Lockstep || role_ >= rackCount())
        util::fatal("rt: stepDownstream() needs a lockstep rack runtime");
    // A Rehome ends the period: the room withholds budgets from a
    // re-homing rack, so there is nothing further to wait for.
    collect(epoch, Until::BudgetsOrRehome,
            transport_->nowMs() + kLockstepWaitMs);
    roles_.closeLeaf(leafSlot());
    finishPeriod(epoch);
}

// ===================================================================
// Aggregator and root phases
// ===================================================================

void
WorkerRuntime::noteRackFrame(const net::Frame &frame, std::uint32_t epoch)
{
    const auto it = rackHealth_.find(frame.sender);
    if (it == rackHealth_.end() || frame.epoch != epoch)
        return; // not a leaf child of the root, or a stray epoch
    const std::uint32_t rack = frame.sender;
    RackHealth &h = it->second;
    heard_.insert(rack);
    const auto ms =
        roles_.membership().state(static_cast<std::uint16_t>(rack));
    // A restarted process begins again at sequence 0. A regression no
    // larger than one upstream batch (heartbeat + one metrics frame
    // per edge + checkpoint) is normal: the rack's blind bounded
    // retransmission re-sends the whole batch with the *same*
    // sequence numbers, and reordered duplicates from an earlier send
    // sit at most a batch below the newest frame. Only a regression
    // deeper than the batch means a new instance — caught even when
    // the restart fit inside one epoch window and no heartbeat was
    // ever missed. (A restart after a single period is below the
    // detection threshold; it is picked up one period later once the
    // old instance's higher sequence numbers dominate.)
    const auto batch =
        static_cast<std::uint32_t>(plan().workers[rack].stations.size())
        + 2;
    if (ms == membership::UnitState::Joining
        || ms == membership::UnitState::Left) {
        // Shadow traffic: seen, but outside the liveness contract.
        // Drop the sequence baseline so the commit starts a fresh
        // instance view instead of mis-reading the joiner's early
        // frames as a restart.
        h.seqSeen = false;
    } else if (!h.seqSeen) {
        h.seqSeen = true;
        h.maxSeq = frame.seq;
    } else if (frame.seq + batch < h.maxSeq) {
        if (h.state == RackState::Live)
            beginRehoming(rack, epoch);
        h.maxSeq = frame.seq;
    } else {
        h.maxSeq = std::max(h.maxSeq, frame.seq);
    }
    if (frame.type == net::MsgType::Checkpoint) {
        h.lastAckEpoch =
            std::max(h.lastAckEpoch, frame.checkpoint.rehomeAckEpoch);
        checkpoints_[rack] = frame.checkpoint;
        ++stats_.checkpointsStored;
        persistCheckpoint(rack);
    }
}

void
WorkerRuntime::beginRehoming(std::uint32_t rack, std::uint32_t epoch)
{
    RackHealth &h = rackHealth_.at(rack);
    h.state = RackState::Rehoming;
    h.missed = 0;
    h.rehomeEpoch = 0;
    // Acks recorded so far came from the dead instance; the new one
    // must ack a Rehome sent this round.
    h.lastAckEpoch = 0;
    ++stats_.restartsDetected;
    events_.record(static_cast<Seconds>(epoch),
                   core::EventKind::WorkerRestartDetected,
                   "worker" + std::to_string(rack),
                   static_cast<double>(epoch));
}

void
WorkerRuntime::rackLiveness(std::uint32_t epoch)
{
    const auto &proto = scenario_.service.protocol;
    const auto fail = [&](std::uint32_t r, RackHealth &h) {
        h.state = RackState::Dead;
        ++stats_.failovers;
        events_.record(static_cast<Seconds>(epoch),
                       core::EventKind::WorkerFailover,
                       "worker" + std::to_string(r), -1.0);
    };
    for (auto &[r, h] : rackHealth_) {
        const auto ms =
            roles_.membership().state(static_cast<std::uint16_t>(r));
        if (ms == membership::UnitState::Joining
            || ms == membership::UnitState::Left) {
            // Held in reset: a joiner is not yet a liveness subject
            // (its silence must not burn failover credit before the
            // commit) and a Left unit never will be again.
            h.missed = 0;
            continue;
        }
        const bool heard = heard_.count(r) != 0;
        switch (h.state) {
        case RackState::Live:
            if (heard)
                h.missed = 0;
            else if (++h.missed >= proto.heartbeatFailAfter)
                fail(r, h);
            break;
        case RackState::Dead:
            // Any frame means a (restarted) instance is back.
            if (heard)
                beginRehoming(r, epoch);
            break;
        case RackState::Rehoming:
            if (h.rehomeEpoch > 0
                && h.lastAckEpoch >= h.rehomeEpoch) {
                h.state = RackState::Live;
                h.missed = 0;
                h.rehomeEpoch = 0;
                ++stats_.rehomed;
                events_.record(static_cast<Seconds>(epoch),
                               core::EventKind::WorkerRehomed,
                               "worker" + std::to_string(r),
                               static_cast<double>(epoch));
            } else if (heard) {
                h.missed = 0;
            } else if (++h.missed >= proto.heartbeatFailAfter) {
                fail(r, h);
            }
            break;
        }
    }
    gauges_.deadRacks.set(static_cast<double>(std::count_if(
        rackHealth_.begin(), rackHealth_.end(), [](const auto &rack) {
            return rack.second.state != RackState::Live;
        })));
}

void
WorkerRuntime::refreshChildViews()
{
    // Only the root's leaf children get a view: liveness and membership
    // are rack-level ideas (a Left rack applies zero watts). Aggregator
    // children keep the default, as interior tiers do for every child.
    if (rackHealth_.empty())
        return;
    std::map<std::uint32_t, AggregatorRole::ChildView> views;
    for (const auto &[child, health] : rackHealth_) {
        const auto ep = static_cast<std::uint16_t>(child);
        AggregatorRole::ChildView &view = views[child];
        // Dead children send nothing; neither do children committed
        // out of the membership. Everyone else (re-homing racks, whose
        // plants run on default budgets, and Joining/Draining units in
        // their shadow periods) is waited for.
        view.awaited =
            health.state != RackState::Dead
            && roles_.membership().state(ep) != membership::UnitState::Left;
        // Fresh metrics are trusted only from a Live instance: a
        // reincarnated one's fresh-plant numbers would poison the
        // allocation, and its liveness must not be double-counted as
        // both the dead instance (stale) and the new one (fresh).
        view.trusted = health.state == RackState::Live;
        view.member = roles_.membership().isLive(ep);
        view.released = membershipFloorReleased(ep);
    }
    agg().setChildViews(std::move(views));
}

void
WorkerRuntime::aggBeginEpoch(std::uint32_t epoch)
{
    agg().beginEpoch(epoch);
    if (isRoom()) {
        heard_.clear();
        refreshChildViews();
    }
}

WorkerRuntime::Sends
WorkerRuntime::aggCloseGather(std::uint32_t epoch)
{
    std::map<std::uint32_t, telemetry::UnitHealth> overrides;
    if (isRoom()) {
        // The root's own bookkeeping between gather and close: rack
        // liveness from this gather, the membership commit gate, then
        // the child view both imply.
        rackLiveness(epoch);
        membershipTick(epoch);
        refreshChildViews();
        for (const auto &[rack, h] : rackHealth_) {
            if (h.state == RackState::Dead)
                overrides[rack] = telemetry::UnitHealth::Lost;
            else if (h.state == RackState::Rehoming)
                overrides[rack] = telemetry::UnitHealth::Rehoming;
        }
    }
    const auto summaries = agg().closeGather(stats_, events_);
    obs_.reportChildren(agg(), epoch, overrides);
    Sends up;
    if (isRoom())
        return up;
    up.push_back({role_, parentEp(),
                  net::encodeHeartbeat(roles_.stamp(role_, epoch))});
    roles_.frameSummaries(aggSlot(), summaries, epoch, up);
    return up;
}

WorkerRuntime::Sends
WorkerRuntime::aggDownFrames(std::uint32_t epoch)
{
    Sends down;
    roles_.frameDown(aggSlot(), epoch, down);
    if (isRoom())
        appendRehomeFrames(epoch, down);
    return down;
}

void
WorkerRuntime::appendRehomeFrames(std::uint32_t epoch, Sends &down)
{
    // Replay the stored checkpoint into the new instance. An empty
    // checkpoint (none ever stored) still completes the handshake —
    // the rack simply keeps its fresh plant. Shadow units get no
    // replay until committed.
    for (auto &[rack, h] : rackHealth_) {
        if (h.state != RackState::Rehoming || !heard_.count(rack)
            || !roles_.membership().isLive(static_cast<std::uint16_t>(rack)))
            continue;
        const auto stored = checkpoints_.find(rack);
        down.push_back({role_, rack,
                        net::encodeRehome(roles_.stamp(role_, epoch),
                                          stored != checkpoints_.end()
                                              ? stored->second
                                              : net::CheckpointMsg{})});
        if (h.rehomeEpoch == 0)
            h.rehomeEpoch = epoch;
        ++stats_.rehomesSent;
    }
}

void
WorkerRuntime::runAggregatorPeriod(std::uint32_t epoch)
{
    net::Transport &tp = *transport_;
    // With two tiers the cascade is the flat schedule: the root
    // gathers for one window and retransmits budgets until the
    // leaves' budget deadline.
    const Cascade cascade{scenario_.service.protocol, plan().tiers(),
                          tp.nowMs()};
    const std::uint32_t tier = plan().workers[role_].tier;

    aggBeginEpoch(epoch);
    collect(epoch, Until::Gather, cascade.gatherClose(tier));
    const auto up = aggCloseGather(epoch);

    if (!isRoom()) {
        // ---- forward this subtree's summaries, blind bounded
        // retransmission until the parent's gather closes.
        const double sent_at = tp.nowMs();
        sendAll(up);
        retransmit(up, sent_at,
                   cascade.gatherClose(plan().workers[parentEp()].tier));

        // ---- collect SubBudgets until this tier's down deadline.
        collect(epoch, Until::SubBudgets, cascade.downClose(tier));
    }

    // ---- split down, blind bounded retransmission until the direct
    // children's own down deadline (their tier is ours minus one).
    const auto down = aggDownFrames(epoch);
    const double down_start = tp.nowMs();
    sendAll(down);
    // Membership snapshots ride the same down window, single-shot per
    // period (ack-gated: a lost broadcast is repaired next period).
    if (isRoom())
        broadcastMembership(epoch);
    retransmit(down, down_start, cascade.downClose(tier - 1));
}

void
WorkerRuntime::stepRoom(std::uint32_t epoch)
{
    if (pacing_ != Pacing::Lockstep || !isRoom())
        util::fatal("rt: stepRoom() needs the lockstep room runtime");
    telemetry::PeriodTracer *tracer = obs_.tracer();
    const auto span = tracer ? tracer->begin("rt.room")
                             : telemetry::PeriodTracer::kNoSpan;
    if (tracer)
        tracer->num(span, "epoch", static_cast<double>(epoch));
    // One step covers both halves: by the lockstep driving order every
    // child has already stepped up, and will step down after.
    aggBeginEpoch(epoch);
    collect(epoch, Until::Gather, transport_->nowMs() + kLockstepWaitMs);
    aggCloseGather(epoch);
    sendAll(aggDownFrames(epoch));
    broadcastMembership(epoch);
    if (tracer)
        tracer->end(span);
    finishPeriod(epoch);
}

void
WorkerRuntime::stepAggregatorUp(std::uint32_t epoch)
{
    if (pacing_ != Pacing::Lockstep || !isAggregator()) {
        util::fatal(
            "rt: stepAggregatorUp() needs a lockstep aggregator");
    }
    aggBeginEpoch(epoch);
    collect(epoch, Until::Gather, transport_->nowMs() + kLockstepWaitMs);
    // Single-shot sends, mirroring stepUpstream(): injected loss in a
    // chaos script must actually cost the frame.
    sendAll(aggCloseGather(epoch));
}

void
WorkerRuntime::stepAggregatorDown(std::uint32_t epoch)
{
    if (pacing_ != Pacing::Lockstep || !isAggregator()) {
        util::fatal(
            "rt: stepAggregatorDown() needs a lockstep aggregator");
    }
    collect(epoch, Until::SubBudgets, transport_->nowMs() + kLockstepWaitMs);
    sendAll(aggDownFrames(epoch));
    finishPeriod(epoch);
}

// ===================================================================
// Membership / elasticity plane
// ===================================================================

bool
WorkerRuntime::membershipBeginJoin(std::uint32_t endpoint)
{
    if (!isRoom())
        util::fatal("rt: membershipBeginJoin() needs the root runtime");
    if (endpoint >= plan().workers.size() || endpoint == role_)
        return false;
    const auto ep = static_cast<std::uint16_t>(endpoint);
    if (!roles_.membership().beginJoin(ep))
        return false;
    // Acks recorded so far belong to a previous incarnation of the
    // slot; the joiner must ack its own announcement.
    memberAckGen_.erase(ep);
    joinAnnounceEpoch_[ep] = lastEpoch_;
    if (const auto h = rackHealth_.find(endpoint); h != rackHealth_.end())
        h->second = RackHealth{};
    events_.record(static_cast<Seconds>(lastEpoch_),
                   core::EventKind::MembershipJoinBegan,
                   "worker" + std::to_string(endpoint),
                   static_cast<double>(roles_.membership().generation()));
    return true;
}

bool
WorkerRuntime::membershipBeginDrain(std::uint32_t endpoint)
{
    if (!isRoom())
        util::fatal("rt: membershipBeginDrain() needs the root runtime");
    if (endpoint >= plan().workers.size() || endpoint == role_)
        return false;
    if (!roles_.membership().beginDrain(static_cast<std::uint16_t>(endpoint)))
        return false;
    events_.record(static_cast<Seconds>(lastEpoch_),
                   core::EventKind::MembershipDrainBegan,
                   "worker" + std::to_string(endpoint),
                   static_cast<double>(roles_.membership().generation()));
    return true;
}

void
WorkerRuntime::membershipMarkAbsent(std::uint32_t endpoint)
{
    if (!isRoom())
        util::fatal("rt: membershipMarkAbsent() needs the root runtime");
    if (stats_.periodsRun > 0)
        util::fatal("rt: membershipMarkAbsent() is pre-run "
                    "configuration; use membershipBeginDrain() online");
    if (endpoint >= plan().workers.size() || endpoint == role_)
        util::fatal("rt: cannot mark endpoint %u absent", endpoint);
    roles_.membership().markAbsent(static_cast<std::uint16_t>(endpoint));
}

void
WorkerRuntime::beginShadow()
{
    if (isRoom())
        util::fatal("rt: beginShadow() is for non-root workers");
    if (stats_.periodsRun > 0)
        util::fatal("rt: beginShadow() must precede the first period");
    // Empty replica: this worker treats itself as a non-member (the
    // Pcap_min clamp every period) until a root broadcast shows it
    // Live. Any snapshot at or ahead of generation 1 is adopted.
    roles_.membership() = membership::MembershipTable();
}

bool
WorkerRuntime::membershipLeft() const
{
    const auto me = static_cast<std::uint16_t>(role_);
    return !isRoom()
           && roles_.membership().state(me) == membership::UnitState::Left
           && roles_.membership().sinceGeneration(me) > 0;
}

bool
WorkerRuntime::membershipFloorReleased(std::uint16_t endpoint) const
{
    if (roles_.membership().state(endpoint) != membership::UnitState::Left)
        return false;
    const std::uint32_t since = roles_.membership().sinceGeneration(endpoint);
    if (since == 0)
        return true; // never deployed: nothing ever drew this floor
    const auto it = memberAckGen_.find(endpoint);
    return it != memberAckGen_.end() && it->second >= since;
}

bool
WorkerRuntime::membershipBroadcastTarget(std::uint16_t endpoint) const
{
    // A unit that was never deployed, or whose leave is acked, is gone.
    if (endpoint == role_ || membershipFloorReleased(endpoint))
        return false;
    const auto it = memberAckGen_.find(endpoint);
    return it == memberAckGen_.end()
           || it->second < roles_.membership().generation();
}

void
WorkerRuntime::broadcastMembership(std::uint32_t epoch)
{
    // Generation 1 is the static deployment: the machinery stays idle
    // — no frames, no sequence numbers — so a run that never touches
    // membership is bit-identical to a pre-elasticity build.
    if (roles_.membership().generation() <= 1)
        return;
    if (roles_.wireVersion() != net::kWireVersion)
        return; // a compat-stamped root cannot announce; upgrade first
    const net::MembershipDeltaMsg delta = roles_.membership().toDelta();
    for (std::size_t ep = 0; ep < plan().workers.size(); ++ep) {
        if (!membershipBroadcastTarget(static_cast<std::uint16_t>(ep)))
            continue;
        transport_->send(
            role_, static_cast<net::Transport::Endpoint>(ep),
            net::encodeMembershipDelta(
                roles_.stamp(role_, epoch), delta));
        ++stats_.membershipDeltasSent;
    }
}

void
WorkerRuntime::membershipTick(std::uint32_t epoch)
{
    // Phase two of the adopt protocol: commit every transition whose
    // gate is satisfied. Joins additionally hold the minimum shadow
    // window so the unit demonstrably rides the clamp before its first
    // real grant; drains commit on the ack alone (the floor stays
    // counted until the *Left* generation is acked, checked by
    // membershipFloorReleased()).
    std::vector<std::uint16_t> ready;
    for (const auto &[ep, entry] : roles_.membership().entries()) {
        const auto acked = memberAckGen_.find(ep);
        const bool ackCurrent = acked != memberAckGen_.end()
                                && acked->second >= entry.sinceGeneration;
        if (!ackCurrent)
            continue;
        if (entry.state == membership::UnitState::Joining) {
            const auto announce = joinAnnounceEpoch_.find(ep);
            if (announce == joinAnnounceEpoch_.end()
                || epoch >= announce->second + kShadowPeriodsMin)
                ready.push_back(ep);
        } else if (entry.state == membership::UnitState::Draining) {
            ready.push_back(ep);
        }
    }
    for (const std::uint16_t ep : ready) {
        if (!roles_.membership().commit(ep))
            continue;
        ++stats_.membershipCommits;
        events_.record(static_cast<Seconds>(epoch),
                       core::EventKind::MembershipCommitted,
                       "worker" + std::to_string(ep),
                       static_cast<double>(roles_.membership().generation()));
        if (roles_.membership().isLive(ep)) {
            joinAnnounceEpoch_.erase(ep);
            // Fresh liveness ledger: the adopted unit starts Live with
            // a clean sequence baseline and zero failover credit.
            if (const auto h = rackHealth_.find(ep); h != rackHealth_.end())
                h->second = RackHealth{};
        }
    }
    const membership::MembershipTable &table = roles_.membership();
    gauges_.membershipGen.set(static_cast<double>(table.generation()));
    gauges_.membershipPending.set(static_cast<double>(
        table.countOf(membership::UnitState::Joining)
        + table.countOf(membership::UnitState::Draining)));
}

void
WorkerRuntime::noteMembershipAck(const net::Frame &frame)
{
    const net::MembershipAckMsg &ack = frame.membershipAck;
    if (ack.endpoint != frame.sender) {
        ++stats_.orphanFrames;
        return;
    }
    std::uint32_t &gen = memberAckGen_[ack.endpoint];
    gen = std::max(gen, ack.generation);
}

// ===================================================================
// Accessors, telemetry, persistence
// ===================================================================

std::vector<Watts>
WorkerRuntime::lastServerBudgets(std::size_t server_id) const
{
    for (const RoleTable::Leaf &leaf : roles_.leaves()) {
        for (const Plant &plant : leaf.role.plants()) {
            if (plant.serverId == server_id)
                return plant.lastBudgets;
        }
    }
    return {};
}

std::map<std::pair<std::size_t, topo::NodeId>, Watts>
WorkerRuntime::lastEdgeBudgets() const
{
    std::map<std::pair<std::size_t, topo::NodeId>, Watts> out;
    if (stats_.periodsRun == 0)
        return out;
    for (const RoleTable::Leaf &leaf : roles_.leaves()) {
        for (const LeafRole::Edge &edge : leaf.role.edges())
            out[{edge.tree, edge.node}] = edge.budget;
    }
    return out;
}

RackState
WorkerRuntime::rackState(std::size_t r) const
{
    const auto h = rackHealth_.find(static_cast<std::uint32_t>(r));
    if (h == rackHealth_.end())
        util::fatal("rt: rackState() needs the root runtime and one of "
                    "its leaf children");
    return h->second.state;
}

void
WorkerRuntime::setTelemetry(telemetry::Registry *registry,
                            telemetry::PeriodTracer *tracer)
{
    const telemetry::Labels ls{
        {"role", roleName()},
        {"tier", std::to_string(plan().workers[role_].tier)}};
    obs_.attach(registry, tracer, *transport_, ownedTransport_ != nullptr,
                ls, !roles_.aggregators().empty());
    for (const CounterSpec &spec : kCounters)
        obs_.mirrorCounter(spec.field, spec.name, spec.help);
    gauges_ = {};
    if (!registry)
        return;
    gauges_.deadRacks = registry->gauge(
        "capmaestro_rt_degraded_racks", ls,
        "Racks currently Dead or Rehoming (room view)");
    gauges_.membershipGen = registry->gauge(
        "capmaestro_membership_generation", ls,
        "Current membership table generation");
    gauges_.membershipPending = registry->gauge(
        "capmaestro_membership_pending_units", ls,
        "Units with an uncommitted transition (Joining or Draining)");
}

std::string
WorkerRuntime::checkpointPath(std::size_t rack) const
{
    return stateDir_ + "/rack" + std::to_string(rack) + ".ckpt";
}

void
WorkerRuntime::setStateDir(const std::string &dir)
{
    if (!isRoom())
        util::fatal("rt: setStateDir() needs the room runtime");
    stateDir_ = dir;
    loadPersistedCheckpoints();
}

void
WorkerRuntime::persistCheckpoint(std::size_t rack)
{
    if (stateDir_.empty())
        return;
    // The on-disk format is simply the encoded Checkpoint frame: it
    // reuses the codec's CRC and version checks, so a torn or stale
    // file is rejected on load exactly like a corrupt frame.
    const auto bytes = net::encodeCheckpoint(
        {static_cast<std::uint16_t>(rack), lastEpoch_, 0},
        checkpoints_.at(rack));
    const std::string path = checkpointPath(rack);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            util::warn("rt: cannot write checkpoint %s", tmp.c_str());
            return;
        }
        os.write(reinterpret_cast<const char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        util::warn("rt: cannot install checkpoint %s", path.c_str());
}

void
WorkerRuntime::loadPersistedCheckpoints()
{
    for (const auto &[r, health] : rackHealth_) {
        (void)health;
        std::ifstream is(checkpointPath(r), std::ios::binary);
        if (!is)
            continue;
        std::vector<std::uint8_t> bytes(
            (std::istreambuf_iterator<char>(is)),
            std::istreambuf_iterator<char>());
        const auto frame = net::decodeFrame(bytes);
        if (!frame || frame->type != net::MsgType::Checkpoint) {
            util::warn("rt: ignoring corrupt checkpoint for rack %u", r);
            continue;
        }
        checkpoints_[r] = frame->checkpoint;
    }
}

} // namespace capmaestro::rt
