#include "rt/worker_runtime.hh"

#include <algorithm>

#include "net/wire.hh"
#include "policy/policy.hh"
#include "util/logging.hh"

namespace capmaestro::rt {

namespace {

/** Receive-poll granularity inside a protocol phase, milliseconds. */
constexpr double kPollSliceMs = 2.0;

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
                             net::Transport &transport)
    : Engine(std::move(scenario), peers, {role}, seed, &transport),
      role_(role)
{
    init();
}

void
WorkerRuntime::init()
{
    if (peers_.originMs == 0)
        util::fatal("rt: peers.originMs must be set (shared epoch origin)");
    originMs_ = static_cast<double>(peers_.originMs);
    // One gather + one budget window per tier hop: the tier-k receiver's
    // gather closes at start + k x gather, and the leaf budget deadline
    // sits a symmetric cascade later.
    const double span =
        Cascade{scenario_.service.protocol, plan().tiers(), 0.0}.span();
    if (peers_.periodMs <= span) {
        util::fatal("rt: periodMs %.0f must exceed the %u-tier "
                    "gather+budget cascade (%.0f ms)",
                    peers_.periodMs, plan().tiers(), span);
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

void
WorkerRuntime::mapClock()
{
    // An owned UDP clock counts from its socket setup; the peer table's
    // origin is wall-clock time. One reading maps one onto the other.
    if (!ownedTransport_)
        return;
    const double wall = unixNowMs();
    originMs_ = transport_->nowMs() + static_cast<double>(peers_.originMs)
                - wall;
    if (epochAt(transport_->nowMs()) > 1000000) {
        util::fatal("rt: peers.originMs is too far in the past; "
                    "regenerate the peer table");
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
WorkerRuntime::epochAt(double ms) const
{
    if (ms < originMs_)
        return 0;
    return static_cast<std::uint32_t>((ms - originMs_) / peers_.periodMs)
           + 1;
}

double
WorkerRuntime::windowStart(std::uint32_t epoch) const
{
    return originMs_ + static_cast<double>(epoch - 1) * peers_.periodMs;
}

// ===================================================================
// Observability plane
// ===================================================================

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
// The period
// ===================================================================

void
WorkerRuntime::sendAll(const Sends &batch)
{
    for (const RoleTable::Send &send : batch)
        transport_->send(send.from, send.to, send.bytes);
}

void
WorkerRuntime::sendWithRetry(Sends batch, double now, double until)
{
    sendAll(batch);
    resends_.push_back({std::move(batch), now, 1, until});
}

double
WorkerRuntime::advance(double now)
{
    if (phase_ == Phase::Idle) {
        if (stop_.load(std::memory_order_relaxed))
            return kNever;
        // The first epoch is the first window not yet begun; a period
        // that starts late runs the epoch whose window holds now.
        if (epoch_ == 0) {
            epoch_ = epochAt(now);
            if (epoch_ == 0 || windowStart(epoch_) < now)
                ++epoch_;
        }
        if (now < windowStart(epoch_))
            return windowStart(epoch_);
        begin(std::max(epoch_, epochAt(now)), now);
    }

    const Cascade cascade = this->cascade();
    const std::uint32_t tier = plan().workers[role_].tier;
    const std::uint32_t parent_tier =
        isRoom() ? tier : plan().workers[parentEp()].tier;
    if (phase_ == Phase::Gather || phase_ == Phase::Down) {
        const bool rehome = receive();
        if (phase_ == Phase::Gather
            && (agg().upComplete() || now >= cascade.gatherClose(tier))) {
            // Blind bounded retransmission until the parent's gather
            // closes (the root sends nothing up).
            Sends up = aggCloseGather();
            if (!isRoom()) {
                sendWithRetry(std::move(up), now,
                              cascade.gatherClose(parent_tier));
            }
            phase_ = Phase::Down;
        }
        // A budget's arrival is the implicit end of that edge's
        // exchange; the root collects nothing.
        if (phase_ == Phase::Down
            && (isRoom()
                || (isLeaf() ? rehome || leafSlot().role.complete()
                             : agg().downComplete())
                || now >= cascade.downClose(tier))) {
            closeDown(now);
            phase_ = Phase::Tail;
        }
    }
    const auto &proto = scenario_.service.protocol;
    double wake = kNever;
    for (Resend &resend : resends_) {
        for (;;) {
            const double next = resend.sentAt + resend.sends
                                                    * proto.retryTimeoutMs;
            if (resend.sends >= proto.maxAttempts || next >= resend.until)
                break;
            if (next > now) {
                wake = std::min(wake, next);
                break;
            }
            sendAll(resend.batch);
            stats_.retries += resend.batch.size();
            ++resend.sends;
        }
    }

    if (phase_ != Phase::Tail) {
        const double close = phase_ == Phase::Gather
                                 ? cascade.gatherClose(tier)
                                 : cascade.downClose(tier);
        return std::min({wake, now + kPollSliceMs, close});
    }
    if (wake != kNever)
        return wake;
    // The period ends with its last retransmission; one that overran
    // its window skips to the next window not yet begun.
    resends_.clear();
    phase_ = Phase::Idle;
    finishPeriod(epoch_);
    epoch_ = epochAt(now) + 1;
    return stop_.load(std::memory_order_relaxed) ? kNever
                                                 : windowStart(epoch_);
}

void
WorkerRuntime::begin(std::uint32_t epoch, double now)
{
    openPeriod(epoch, now, roleName());
    if (!isLeaf()) {
        agg().beginEpoch(epoch);
        if (supervisor_)
            supervisor_->beginEpoch();
        roles_.membership().openGather(agg(), supervisor());
        phase_ = Phase::Gather;
        return;
    }
    RoleTable::Leaf &leaf = leafSlot();
    leaf.role.advance(epoch);
    Sends up;
    roles_.frameMetrics(leaf, epoch, up);
    // The parent's Supervisor stores it (rt/supervisor.hh).
    up.push_back({role_, parentEp(),
                  net::encodeCheckpoint(roles_.stamp(role_, epoch),
                                        leaf.role.checkpoint())});
    ++stats_.checkpointsSent;
    sendWithRetry(std::move(up), now,
                  cascade().gatherClose(plan().workers[parentEp()].tier));
    phase_ = Phase::Down;
}

bool
WorkerRuntime::receive()
{
    Sends acks;
    bool rehome = false;
    for (const auto &bytes : transport_->poll(role_)) {
        switch (roles_.receive(role_, bytes, epoch_, acks)) {
        case Routed::Rehome:
            rehome = true;
            break;
        case Routed::Up:
            if (supervisor_) {
                supervisor_->noteFrame(roles_.frame(), epoch_,
                                       roles_.membership().table(), stats_,
                                       events_);
            }
            break;
        case Routed::Adopted:
            events_.record(static_cast<Seconds>(roles_.frame().epoch),
                           core::EventKind::MembershipAdopted, roleName(),
                           static_cast<double>(
                               roles_.membership().generation()));
            // A leaf committed out: this period applies zero watts (see
            // LeafRole::close), the ack is the promise, and the worker
            // exits once the period closes so the supervisor can retire
            // it. Membership is a rack-level idea: an aggregator keeps
            // running.
            if (isLeaf() && roles_.membership().left(role_))
                requestStop();
            break;
        case Routed::Later:
            ++stats_.orphanFrames; // no holdback in this engine
            break;
        default:
            break;
        }
        sendAll(acks);
        acks.clear();
    }
    return rehome;
}

WorkerRuntime::Sends
WorkerRuntime::aggCloseGather()
{
    // Liveness from this gather, then the root's commit gate and the
    // child view both imply.
    if (supervisor_)
        supervisor_->closeGather(epoch_, roles_.membership().table(), stats_,
                                 events_);
    roles_.membership().closeGather(agg(), epoch_, supervisor());
    std::map<std::uint32_t, telemetry::UnitHealth> overrides;
    if (supervisor_) {
        overrides = supervisor_->overrides();
        deadRacks_.set(static_cast<double>(overrides.size()));
    }
    const auto &summaries = agg().closeGather(stats_, events_);
    obs_.reportChildren(agg(), epoch_, overrides);
    Sends up;
    if (!isRoom())
        roles_.frameSummaries(aggSlot(), summaries, epoch_, up);
    return up;
}

void
WorkerRuntime::closeDown(double now)
{
    if (isLeaf()) {
        roles_.closeLeaf(leafSlot());
        return;
    }
    Sends down;
    roles_.frameDown(aggSlot(), epoch_, down);
    if (supervisor_) {
        for (const Supervisor::Rehome &rehome : supervisor_->rehomes(
                 epoch_, roles_.membership().table(), stats_)) {
            down.push_back({role_, rehome.child,
                            net::encodeRehome(roles_.stamp(role_, epoch_),
                                              rehome.checkpoint)});
        }
    }
    const std::uint32_t tier = plan().workers[role_].tier;
    sendWithRetry(std::move(down), now, cascade().downClose(tier - 1));
    // Membership snapshots ride the same down window, single-shot per
    // period (ack-gated: a lost broadcast is repaired next period).
    Sends snapshots;
    roles_.frameMembership(epoch_, snapshots);
    sendAll(snapshots);
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
