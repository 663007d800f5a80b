#include "rt/worker_runtime.hh"

#include <algorithm>
#include <chrono>
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
     "Leaf children declared dead after heartbeatFailAfter silent "
     "periods"},
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
    : Engine(std::move(scenario), peers, {role}, seed, nullptr), role_(role)
{
    init();
}

WorkerRuntime::WorkerRuntime(config::LoadedScenario scenario,
                             config::WorkerPeers peers,
                             std::uint32_t role, std::uint64_t seed,
                             net::Transport &transport, Pacing pacing)
    : Engine(std::move(scenario), peers, {role}, seed, &transport),
      role_(role), pacing_(pacing)
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
    if (isLeaf())
        return;
    // Audits name this worker as its telemetry labels do.
    aggSlot().name = roleName();
    const bool leaf_children = std::any_of(
        agg().children().begin(), agg().children().end(),
        [this](std::uint32_t child) { return child < rackCount(); });
    if (leaf_children) {
        supervisor_.emplace(plan(), role_,
                            scenario_.service.protocol.heartbeatFailAfter);
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
        obs_.beginPeriod(epoch, roles_.simNow(), roleName());
        runPeriod(epoch);
        finishPeriod(epoch);
        ++done;
    }
    return done;
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
        obs_.health(roles_.membership().table(), lastEpoch_,
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
                if (supervisor_) {
                    supervisor_->noteFrame(roles_.frame(), epoch,
                                           roles_.membership().table(),
                                           stats_, events_);
                }
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
                if (roles_.membership().left(role_)
                    && pacing_ == Pacing::Wall)
                    requestStop();
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
        const bool done = until == Until::Gather ? agg().upComplete()
                          : isLeaf() ? rehome || leafSlot().role.complete()
                                     : agg().downComplete();
        if (done)
            break;
        const double remaining = close - tp.nowMs();
        if (remaining <= 0.0)
            break;
        tp.advanceBy(std::min(remaining, kPollSliceMs));
    }
}

// ===================================================================
// The two halves of a period
// ===================================================================

WorkerRuntime::Sends
WorkerRuntime::upFrames(std::uint32_t epoch, double close)
{
    Sends up;
    if (isLeaf()) {
        RoleTable::Leaf &leaf = leafSlot();
        leaf.role.advance(epoch);
        roles_.frameMetrics(leaf, epoch, up);
        // The parent's Supervisor stores it (rt/supervisor.hh).
        up.push_back({role_, parentEp(),
                      net::encodeCheckpoint(roles_.stamp(role_, epoch),
                                            leaf.role.checkpoint())});
        ++stats_.checkpointsSent;
        return up;
    }
    agg().beginEpoch(epoch);
    if (supervisor_)
        supervisor_->beginEpoch();
    roles_.membership().openGather(agg(), supervisor());
    collect(epoch, Until::Gather, close);
    return aggCloseGather(epoch);
}

WorkerRuntime::Sends
WorkerRuntime::aggCloseGather(std::uint32_t epoch)
{
    // Liveness from this gather, then the root's commit gate and the
    // child view both imply.
    if (supervisor_)
        supervisor_->closeGather(epoch, roles_.membership().table(), stats_,
                                 events_);
    roles_.membership().closeGather(agg(), epoch, supervisor());
    std::map<std::uint32_t, telemetry::UnitHealth> overrides;
    if (supervisor_) {
        overrides = supervisor_->overrides();
        deadRacks_.set(static_cast<double>(overrides.size()));
    }
    const auto &summaries = agg().closeGather(stats_, events_);
    obs_.reportChildren(agg(), epoch, overrides);
    Sends up;
    if (!isRoom())
        roles_.frameSummaries(aggSlot(), summaries, epoch, up);
    return up;
}

WorkerRuntime::Sends
WorkerRuntime::aggDownFrames(std::uint32_t epoch)
{
    Sends down;
    roles_.frameDown(aggSlot(), epoch, down);
    if (!supervisor_)
        return down;
    for (const Supervisor::Rehome &rehome :
         supervisor_->rehomes(epoch, roles_.membership().table(), stats_)) {
        down.push_back({role_, rehome.child,
                        net::encodeRehome(roles_.stamp(role_, epoch),
                                          rehome.checkpoint)});
    }
    return down;
}

void
WorkerRuntime::runPeriod(std::uint32_t epoch)
{
    net::Transport &tp = *transport_;
    // With two tiers the cascade is the flat schedule: the root gathers
    // for one window and retransmits budgets until the leaves' budget
    // deadline.
    const Cascade cascade{scenario_.service.protocol, plan().tiers(),
                          tp.nowMs()};
    const std::uint32_t tier = plan().workers[role_].tier;

    // ---- up: blind bounded retransmission until the parent's gather
    // closes (the root sends nothing up).
    const auto up = upFrames(epoch, cascade.gatherClose(tier));
    if (!isRoom()) {
        const double sent_at = tp.nowMs();
        sendAll(up);
        retransmit(up, sent_at,
                   cascade.gatherClose(plan().workers[parentEp()].tier));
    }

    // ---- down: collect until this tier's down deadline (a budget's
    // arrival is the implicit end of that edge's exchange); an
    // aggregator's split then goes out with blind bounded
    // retransmission until its children's own down deadline.
    const auto down = downHalf(epoch, cascade.downClose(tier));
    if (!isLeaf())
        retransmit(down, tp.nowMs(), cascade.downClose(tier - 1));
}

WorkerRuntime::Sends
WorkerRuntime::downHalf(std::uint32_t epoch, double close)
{
    if (!isRoom())
        collect(epoch, Until::Down, close);
    if (isLeaf()) {
        roles_.closeLeaf(leafSlot());
        return {};
    }
    const auto down = aggDownFrames(epoch);
    sendAll(down);
    // Membership snapshots ride the same down window, single-shot per
    // period (ack-gated: a lost broadcast is repaired next period).
    Sends snapshots;
    roles_.frameMembership(epoch, snapshots);
    sendAll(snapshots);
    return down;
}

void
WorkerRuntime::stepUp(std::uint32_t epoch)
{
    if (pacing_ != Pacing::Lockstep)
        util::fatal("rt: stepUp() needs a lockstep runtime");
    telemetry::PeriodTracer *tracer = obs_.tracer();
    if (isRoom() && tracer) {
        roomSpan_ = tracer->begin("rt.room");
        tracer->num(roomSpan_, "epoch", static_cast<double>(epoch));
    }
    // Single-shot sends: lockstep has no deadline schedule to pace
    // retransmissions against, and a chaos harness wants injected loss
    // to actually cost a frame.
    sendAll(upFrames(epoch, transport_->nowMs() + kLockstepWaitMs));
}

void
WorkerRuntime::stepDown(std::uint32_t epoch)
{
    if (pacing_ != Pacing::Lockstep)
        util::fatal("rt: stepDown() needs a lockstep runtime");
    downHalf(epoch, transport_->nowMs() + kLockstepWaitMs);
    if (isRoom() && obs_.tracer())
        obs_.tracer()->end(roomSpan_);
    finishPeriod(epoch);
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
    deadRacks_ = registry ? registry->gauge(
                                "capmaestro_rt_degraded_racks", ls,
                                "Leaf children currently Dead or Rehoming "
                                "(supervisor view)")
                          : telemetry::Gauge{};
}

void
WorkerRuntime::setStateDir(const std::string &dir)
{
    if (!supervisor_)
        util::fatal("rt: a state directory needs a worker with leaf "
                    "children");
    supervisor_->setStateDir(dir);
}

} // namespace capmaestro::rt
