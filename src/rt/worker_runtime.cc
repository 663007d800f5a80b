#include "rt/worker_runtime.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "net/wire.hh"
#include "policy/policy.hh"
#include "util/logging.hh"
#include "util/random.hh"

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
      role_(role)
{
    init(seed);

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
      role_(role), pacing_(pacing), transport_(&transport)
{
    init(seed);
}

void
WorkerRuntime::init(std::uint64_t seed)
{
    if (!scenario_.system)
        util::fatal("rt: scenario has no power system");
    plan_ = core::TreePlan::build(*scenario_.system, peers_.aggLevels);
    rackCount_ = plan_.leafWorkers;
    if (role_ >= plan_.workers.size()) {
        util::fatal("rt: role %u out of range (plan has %zu workers)",
                    role_, plan_.workers.size());
    }
    if (peers_.peers.size() != plan_.workers.size()) {
        util::fatal("rt: peer table has %zu endpoints; the worker plan "
                    "needs %zu (%zu leaves + %zu aggregators + root)",
                    peers_.peers.size(), plan_.workers.size(),
                    plan_.leafWorkers,
                    plan_.workers.size() - plan_.leafWorkers - 1);
    }
    if (!isRoom())
        parentEp_ = plan_.workers[role_].parent;
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
        const auto hops = static_cast<double>(plan_.tiers() - 1);
        if (peers_.periodMs
            <= hops * (proto.gatherDeadlineMs + proto.budgetDeadlineMs)) {
            util::fatal("rt: periodMs %.0f must exceed the %u-tier "
                        "gather+budget cascade (%.0f ms)",
                        peers_.periodMs, plan_.tiers(),
                        hops * (proto.gatherDeadlineMs
                                + proto.budgetDeadlineMs));
        }
        if (epochAt(static_cast<std::uint64_t>(unixNowMs())) > 1000000) {
            util::fatal("rt: peers.originMs is too far in the past; "
                        "regenerate the peer table");
        }
    }

    // Before buildRack moves the server specs into the plants: the
    // floors are read straight from the config so every process agrees
    // bit for bit.
    computeNominalFloors();

    membership_ = membership::MembershipTable::allLive(
        plan_.workers.size());

    if (role_ < rackCount_)
        buildRack(seed);
    else
        buildAggregator();
}

void
WorkerRuntime::computeNominalFloors()
{
    nominalFloor_ = nominalEdgeFloors(*scenario_.system, scenario_);
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

void
WorkerRuntime::buildRack(std::uint64_t seed)
{
    const auto &system = *scenario_.system;
    const auto partition =
        core::DistributedControlPlane::partitionEdges(system);
    const auto policy = policy::treePolicy(scenario_.service.policy);

    rack_ = std::make_unique<core::RackWorker>(system, policy);
    myEdges_ = partition[role_];
    for (const auto &[tree, node] : myEdges_)
        rack_->addEdge(tree, node);

    std::map<std::size_t, std::map<std::size_t, topo::NodeId>> want;
    want[role_] = myEdges_;
    auto built = buildPlants(scenario_, system, want, seed);
    plants_ = std::move(built[role_]);
}

void
WorkerRuntime::buildAggregator()
{
    agg_ = std::make_unique<AggregatorRole>(
        *scenario_.system, plan_, role_,
        policy::treePolicy(scenario_.service.policy), nominalFloor_,
        scenario_.service.protocol,
        isRoom() ? scenario_.rootBudgets : std::vector<Watts>{});
    // The root keeps liveness, checkpoints and re-homing for its leaf
    // children: every rack at depth 2, none in a balanced deep plan.
    if (isRoom()) {
        for (const std::uint32_t child : agg_->children()) {
            if (child < rackCount_)
                rackHealth_[child] = RackHealth{};
        }
    }
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
        obs_.beginPeriod(epoch, static_cast<double>(simNow_),
                         roleName());
        if (role_ < rackCount_)
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

net::FrameMeta
WorkerRuntime::stampMeta(std::uint16_t sender, std::uint32_t epoch)
{
    net::FrameMeta meta(sender, epoch, seq_++);
    meta.wireVersion = wireVersion_;
    obs_.stamp(meta, traceTier());
    return meta;
}

std::uint16_t
WorkerRuntime::serveHttp(std::uint16_t port)
{
    return obs_.serveHttp(port, [this] { return healthJson(); });
}

util::Json
WorkerRuntime::healthJson() const
{
    util::Json::Object out =
        obs_.health(membership_, lastEpoch_, agg_ != nullptr,
                    static_cast<std::uint16_t>(role_));
    out.emplace("role", util::Json(roleName()));
    out.emplace("tier", util::Json(static_cast<double>(traceTier())));
    return util::Json(std::move(out));
}

// ===================================================================
// Rack phases
// ===================================================================

void
WorkerRuntime::rackAdvancePlant(std::uint32_t)
{
    replayedThisPeriod_ = false;

    // One control period of 1 Hz sensing and actuation, then close the
    // controller periods, refresh the edge leaf inputs, and snapshot
    // the recoverable plant state into this period's checkpoint.
    advancePlants(plants_, scenario_.service.controlPeriod, simNow_);
    lastCheckpoint_ = net::CheckpointMsg{};
    lastCheckpoint_.simNow = static_cast<double>(simNow_);
    lastCheckpoint_.rehomeAckEpoch = rehomeAckEpoch_;
    closePlantPeriods(plants_, *scenario_.system, *rack_,
                      lastCheckpoint_);
}

std::vector<std::vector<std::uint8_t>>
WorkerRuntime::buildUpstreamFrames(std::uint32_t epoch)
{
    std::vector<std::vector<std::uint8_t>> up;
    const auto me = static_cast<std::uint16_t>(role_);
    up.push_back(net::encodeHeartbeat(stampMeta(me, epoch)));
    for (const auto &[tree, node] : myEdges_) {
        net::MetricsMsg msg;
        msg.tree = static_cast<std::uint16_t>(tree);
        msg.edgeNode = static_cast<std::uint32_t>(node);
        msg.metrics = rack_->computeMetrics(tree, node);
        up.push_back(net::encodeMetrics(stampMeta(me, epoch), msg));
    }
    lastCheckpoint_.rehomeAckEpoch = rehomeAckEpoch_;
    up.push_back(
        net::encodeCheckpoint(stampMeta(me, epoch), lastCheckpoint_));
    ++stats_.checkpointsSent;
    return up;
}

bool
WorkerRuntime::processDownFrame(
    const net::Frame &frame, std::uint32_t epoch,
    std::set<std::pair<std::size_t, topo::NodeId>> &applied)
{
    // The membership plane is epoch-free — the generation is its clock
    // — so snapshots straddling a period boundary still land.
    if (frame.type == net::MsgType::MembershipDelta) {
        adoptMembershipDelta(frame);
        return false;
    }
    if (frame.type == net::MsgType::MembershipAck) {
        ++stats_.orphanFrames; // acks flow to the root, not to racks
        return false;
    }
    if (frame.epoch != epoch) {
        ++stats_.orphanFrames;
        return false;
    }
    if (frame.type == net::MsgType::Rehome) {
        if (frame.sender != net::kRoomSender) {
            ++stats_.orphanFrames;
            return false;
        }
        // The room retransmits the Rehome like any downstream frame;
        // one replay (or decline) per epoch is the whole handshake.
        if (rehomeAckEpoch_ == epoch)
            return true;
        // An intact instance that merely rode out a partition has
        // newer state than the room's checkpoint of it: decline the
        // replay but still ack, so the room stops re-sending. Only a
        // young instance (restarted less than a failure-detection
        // window ago) accepts.
        if (stats_.periodsRun
            >= static_cast<std::size_t>(
                   scenario_.service.protocol.heartbeatFailAfter)) {
            rehomeAckEpoch_ = epoch;
            ++stats_.rehomesDeclined;
            events_.record(static_cast<Seconds>(epoch),
                           core::EventKind::RehomeDeclined,
                           "worker" + std::to_string(role_),
                           static_cast<double>(epoch));
        } else {
            replayCheckpoint(frame.checkpoint, epoch);
        }
        return true;
    }
    if (frame.type != net::MsgType::Budget) {
        ++stats_.orphanFrames;
        return false;
    }
    const std::size_t tree = frame.budget.tree;
    const auto node = static_cast<topo::NodeId>(frame.budget.edgeNode);
    const auto mine = myEdges_.find(tree);
    if (mine == myEdges_.end() || mine->second != node) {
        ++stats_.orphanFrames;
        return false;
    }
    if (applied.count({tree, node}))
        return false; // duplicate delivery
    rack_->applyBudget(tree, node, frame.budget.budget);
    lastEdgeBudgets_[{tree, node}] = frame.budget.budget;
    applied.insert({tree, node});
    ++stats_.budgetsApplied;
    return false;
}

void
WorkerRuntime::replayCheckpoint(const net::CheckpointMsg &msg,
                                std::uint32_t epoch)
{
    for (const net::CheckpointServer &rec : msg.servers) {
        Plant *plant = nullptr;
        for (Plant &p : plants_) {
            if (p.serverId == rec.serverId) {
                plant = &p;
                break;
            }
        }
        if (!plant)
            continue; // not homed here (partition changed?) — skip

        ctrl::CappingControllerState state;
        state.integratorDc = rec.integratorDc;
        state.integratorPrimed = rec.integratorPrimed;
        state.report.demandEstimate = rec.demandEstimate;
        state.report.avgThrottle = rec.avgThrottle;
        state.report.supplyAvgAc.resize(rec.supplies.size());
        state.report.shares.resize(rec.supplies.size());
        std::size_t working = 0;
        for (std::size_t s = 0; s < rec.supplies.size(); ++s) {
            state.report.supplyAvgAc[s] = rec.supplies[s].avgAc;
            state.report.shares[s] = rec.supplies[s].share;
            if (rec.supplies[s].share > 0.0)
                ++working;
        }
        state.report.workingSupplies = working;
        plant->controller->restoreState(state);

        plant->lastBudgets.resize(plant->server->supplyCount(), 0.0);
        for (std::size_t s = 0;
             s < rec.supplies.size() && s < plant->lastBudgets.size();
             ++s) {
            plant->lastBudgets[s] = rec.supplies[s].lastBudget;
        }
    }
    // Never rewind the plant clock: a replay onto an instance that
    // already ran periods must not repeat workload history.
    simNow_ = std::max(simNow_,
                       static_cast<Seconds>(msg.simNow));
    rehomeAckEpoch_ = epoch;
    replayedThisPeriod_ = true;
    ++stats_.rehomesApplied;
    events_.record(static_cast<Seconds>(epoch),
                   core::EventKind::CheckpointReplayed,
                   "worker" + std::to_string(role_),
                   static_cast<double>(msg.servers.size()));
}

void
WorkerRuntime::finishRackPeriod(
    std::uint32_t epoch,
    const std::set<std::pair<std::size_t, topo::NodeId>> &applied)
{
    const auto &system = *scenario_.system;

    // ---- §4.5 default budgets for edges the room never reached.
    // Clamped to the config-nominal floor: the live defaultBudget is
    // built from measured shares, and sensor noise must not let a
    // unilateral fallback creep above the floor the parent reserves for
    // this edge when it stops budgeting us (see rt/aggregator.hh).
    for (const auto &[tree, node] : myEdges_) {
        if (applied.count({tree, node}))
            continue;
        const Watts fallback =
            std::min(rack_->defaultBudget(tree, node),
                     nominalFloor_.at({tree, node}));
        rack_->applyBudget(tree, node, fallback);
        lastEdgeBudgets_[{tree, node}] = fallback;
        ++stats_.defaultBudgets;
        events_.record(static_cast<Seconds>(epoch),
                       core::EventKind::DefaultBudgetApplied,
                       system.tree(tree).name() + "."
                           + system.tree(tree).node(node).name,
                       fallback);
    }

    // ---- post-replay / shadow clamp: until the room trusts fresh
    // metrics from this instance again (replay), or while this worker
    // is not a committed member (Joining/Draining shadow periods),
    // ride the conservative Pcap_min floor even if a stray budget
    // frame slipped through. A worker the root committed *out*
    // (Left) applies zero: the ack it sends for that snapshot is its
    // promise that no watts flow from this period on, which is what
    // lets the root release the reserved floor.
    const auto selfState =
        membership_.state(static_cast<std::uint16_t>(role_));
    const bool shadow = selfState != membership::UnitState::Live;
    if (replayedThisPeriod_ || shadow) {
        const bool left = selfState == membership::UnitState::Left;
        for (const auto &[tree, node] : myEdges_) {
            const Watts floor =
                left ? 0.0
                     : std::min(rack_->defaultBudget(tree, node),
                                nominalFloor_.at({tree, node}));
            const auto cur = lastEdgeBudgets_.find({tree, node});
            const Watts clamped =
                cur != lastEdgeBudgets_.end()
                    ? std::min(cur->second, floor)
                    : floor;
            rack_->applyBudget(tree, node, clamped);
            lastEdgeBudgets_[{tree, node}] = clamped;
        }
        if (shadow) {
            ++stats_.shadowPeriods;
        } else {
            ++stats_.clampedPeriods;
        }
    }

    // ---- per-server caps through the PI loops.
    applyPlantBudgets(plants_, *rack_);
}

void
WorkerRuntime::runRackPeriod(std::uint32_t epoch)
{
    const auto &proto = scenario_.service.protocol;
    net::Transport &tp = *transport_;

    rackAdvancePlant(epoch);

    // ---- upstream: heartbeat + one metrics frame per edge + the
    // plant-state checkpoint, with blind bounded retransmission (no
    // ACK channel exists; the receiver dedups by map overwrite). In a
    // deep plan the retransmit window runs to the parent tier's gather
    // close, and the budget deadline sits at the end of the full
    // down-cascade; with 2 tiers both degenerate to the flat schedule.
    const double start = tp.nowMs();
    const auto tiers = static_cast<double>(plan_.tiers());
    const double gather_deadline =
        start
        + static_cast<double>(plan_.workers[parentEp_].tier)
              * proto.gatherDeadlineMs;
    const double budget_deadline =
        start
        + (tiers - 1.0)
              * (proto.gatherDeadlineMs + proto.budgetDeadlineMs);

    const auto up = buildUpstreamFrames(epoch);
    for (const auto &frame : up)
        tp.send(role_, parentEp_, frame);
    for (int attempt = 1; attempt < proto.maxAttempts; ++attempt) {
        const double next = start + attempt * proto.retryTimeoutMs;
        if (next >= gather_deadline)
            break;
        tp.advanceTo(next);
        for (const auto &frame : up) {
            tp.send(role_, parentEp_, frame);
            ++stats_.retries;
        }
    }

    // ---- downstream: collect budgets (or a Rehome) until the
    // deadline; a budget's arrival is the implicit end of this edge's
    // exchange.
    std::set<std::pair<std::size_t, topo::NodeId>> applied;
    for (;;) {
        for (const auto &bytes : tp.poll(role_)) {
            const auto frame = net::decodeFrame(bytes);
            if (!frame) {
                ++stats_.corruptFrames;
                continue;
            }
            obs_.recordHop(*frame, traceTier());
            processDownFrame(*frame, epoch, applied);
        }
        if (applied.size() == myEdges_.size())
            break;
        const double remaining = budget_deadline - tp.nowMs();
        if (remaining <= 0.0)
            break;
        tp.advanceBy(std::min(remaining, kPollSliceMs));
    }

    finishRackPeriod(epoch, applied);
}

void
WorkerRuntime::stepUpstream(std::uint32_t epoch)
{
    if (pacing_ != Pacing::Lockstep || role_ >= rackCount_)
        util::fatal("rt: stepUpstream() needs a lockstep rack runtime");
    rackAdvancePlant(epoch);
    // Single-shot sends: lockstep has no deadline schedule to pace
    // retransmissions against, and a chaos harness wants injected loss
    // to actually cost a frame.
    for (const auto &frame : buildUpstreamFrames(epoch))
        transport_->send(role_, parentEp_, frame);
}

void
WorkerRuntime::stepDownstream(std::uint32_t epoch)
{
    if (pacing_ != Pacing::Lockstep || role_ >= rackCount_)
        util::fatal("rt: stepDownstream() needs a lockstep rack runtime");
    net::Transport &tp = *transport_;
    std::set<std::pair<std::size_t, topo::NodeId>> applied;
    const double start = tp.nowMs();
    bool rehomed = false;
    for (;;) {
        for (const auto &bytes : tp.poll(role_)) {
            const auto frame = net::decodeFrame(bytes);
            if (!frame) {
                ++stats_.corruptFrames;
                continue;
            }
            obs_.recordHop(*frame, traceTier());
            rehomed |= processDownFrame(*frame, epoch, applied);
        }
        // A Rehome ends the period: the room withholds budgets from a
        // re-homing rack, so there is nothing further to wait for.
        if (rehomed || applied.size() == myEdges_.size())
            break;
        if (tp.nowMs() - start >= kLockstepWaitMs)
            break;
        tp.advanceBy(kPollSliceMs);
    }
    finishRackPeriod(epoch, applied);
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
    const auto ms = membership_.state(static_cast<std::uint16_t>(rack));
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
        static_cast<std::uint32_t>(plan_.workers[rack].stations.size())
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

std::size_t
WorkerRuntime::deadOrRehomingCount() const
{
    std::size_t n = 0;
    for (const auto &[rack, h] : rackHealth_) {
        (void)rack;
        if (h.state != RackState::Live)
            ++n;
    }
    return n;
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
            membership_.state(static_cast<std::uint16_t>(r));
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
    gauges_.deadRacks.set(static_cast<double>(deadOrRehomingCount()));
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
            && membership_.state(ep) != membership::UnitState::Left;
        // Fresh metrics are trusted only from a Live instance: a
        // reincarnated one's fresh-plant numbers would poison the
        // allocation, and its liveness must not be double-counted as
        // both the dead instance (stale) and the new one (fresh).
        view.trusted = health.state == RackState::Live;
        view.member = membership_.isLive(ep);
        view.released = membershipFloorReleased(ep);
    }
    agg_->setChildViews(std::move(views));
}

void
WorkerRuntime::aggBeginEpoch(std::uint32_t epoch)
{
    agg_->beginEpoch(epoch);
    if (isRoom()) {
        heard_.clear();
        refreshChildViews();
    }
}

void
WorkerRuntime::aggDrainOnce(std::uint32_t epoch, bool down_phase)
{
    const std::uint16_t parent_sender =
        parentEp_ == plan_.rootEndpoint()
            ? net::kRoomSender
            : static_cast<std::uint16_t>(parentEp_);
    for (const auto &bytes : transport_->poll(role_)) {
        const auto frame = net::decodeFrame(bytes);
        if (!frame) {
            ++stats_.corruptFrames;
            continue;
        }
        obs_.recordHop(*frame, traceTier());
        // Membership frames never reach the aggregator state machine:
        // the replica plane is epoch-free and root-addressed.
        if (frame->type == net::MsgType::MembershipDelta) {
            adoptMembershipDelta(*frame);
            continue;
        }
        if (frame->type == net::MsgType::MembershipAck) {
            noteMembershipAck(*frame);
            continue;
        }
        // Late child retransmissions during the down phase are still
        // absorbed (and deduped) by the gather side rather than counted
        // as orphans; the boundary for this epoch is already closed.
        if (down_phase && frame->type == net::MsgType::SubBudget) {
            agg_->noteDownFrame(*frame, parent_sender, stats_);
        } else {
            noteRackFrame(*frame, epoch);
            agg_->noteUpFrame(*frame, stats_);
        }
    }
}

void
WorkerRuntime::aggCollect(std::uint32_t epoch, bool down_phase,
                          double close)
{
    net::Transport &tp = *transport_;
    for (;;) {
        aggDrainOnce(epoch, down_phase);
        if (down_phase ? agg_->downComplete() : agg_->upComplete())
            break;
        const double remaining = close - tp.nowMs();
        if (remaining <= 0.0)
            break;
        tp.advanceBy(std::min(remaining, kPollSliceMs));
    }
}

std::vector<net::MetricsMsg>
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
    auto summaries = agg_->closeGather(stats_, events_);
    obs_.reportChildren(*agg_, epoch, overrides);
    return summaries;
}

std::vector<std::vector<std::uint8_t>>
WorkerRuntime::encodeUpFrames(
    std::uint32_t epoch, const std::vector<net::MetricsMsg> &summaries)
{
    std::vector<std::vector<std::uint8_t>> up;
    const auto me = static_cast<std::uint16_t>(role_);
    up.push_back(net::encodeHeartbeat(stampMeta(me, epoch)));
    for (const auto &msg : summaries) {
        up.push_back(net::encodeSummary(stampMeta(me, epoch), msg));
        ++stats_.summariesSent;
    }
    return up;
}

std::vector<std::pair<net::Transport::Endpoint, std::vector<std::uint8_t>>>
WorkerRuntime::encodeDownFrames(
    std::uint32_t epoch,
    const std::vector<AggregatorRole::DownMsg> &downs)
{
    const std::uint16_t sender =
        isRoom() ? net::kRoomSender
                 : static_cast<std::uint16_t>(role_);
    if (obs_.on())
        obs_.auditSplit(epoch, *scenario_.system, roleName(), *agg_, downs);
    std::vector<
        std::pair<net::Transport::Endpoint, std::vector<std::uint8_t>>>
        out;
    for (const AggregatorRole::DownMsg &down : downs) {
        auto bytes =
            down.leafChild
                ? net::encodeBudget(stampMeta(sender, epoch), down.msg)
                : net::encodeSubBudget(stampMeta(sender, epoch),
                                       down.msg);
        out.emplace_back(
            static_cast<net::Transport::Endpoint>(down.child),
            std::move(bytes));
    }
    return out;
}

void
WorkerRuntime::appendRehomeFrames(
    std::uint32_t epoch,
    std::vector<std::pair<net::Transport::Endpoint,
                          std::vector<std::uint8_t>>> &down)
{
    // Replay the stored checkpoint into the new instance. An empty
    // checkpoint (none ever stored) still completes the handshake —
    // the rack simply keeps its fresh plant. Shadow units get no
    // replay until committed.
    for (auto &[rack, h] : rackHealth_) {
        if (h.state != RackState::Rehoming || !heard_.count(rack)
            || !membership_.isLive(static_cast<std::uint16_t>(rack)))
            continue;
        const auto stored = checkpoints_.find(rack);
        down.emplace_back(
            static_cast<net::Transport::Endpoint>(rack),
            net::encodeRehome(stampMeta(net::kRoomSender, epoch),
                              stored != checkpoints_.end()
                                  ? stored->second
                                  : net::CheckpointMsg{}));
        if (h.rehomeEpoch == 0)
            h.rehomeEpoch = epoch;
        ++stats_.rehomesSent;
    }
}

void
WorkerRuntime::runAggregatorPeriod(std::uint32_t epoch)
{
    const auto &proto = scenario_.service.protocol;
    net::Transport &tp = *transport_;
    const double start = tp.nowMs();
    const auto tiers = static_cast<double>(plan_.tiers());
    const auto my_tier =
        static_cast<double>(plan_.workers[role_].tier);
    // Tier-staggered §4.5 schedule: the tier-k receiver's gather
    // closes at start + k x gather; SubBudgets cascade back down one
    // budget window per hop after every gather has closed. With two
    // tiers this is the flat schedule: the root gathers for one
    // window and retransmits budgets until the leaves' budget
    // deadline.
    const double gather_close =
        start + my_tier * proto.gatherDeadlineMs;
    const double gather_all_end =
        start + (tiers - 1.0) * proto.gatherDeadlineMs;

    aggBeginEpoch(epoch);
    aggCollect(epoch, /*down_phase=*/false, gather_close);
    const auto summaries = aggCloseGather(epoch);

    if (!isRoom()) {
        // ---- forward this subtree's summaries, blind bounded
        // retransmission until the parent's gather closes.
        const double parent_close =
            start
            + static_cast<double>(plan_.workers[parentEp_].tier)
                  * proto.gatherDeadlineMs;
        const auto up = encodeUpFrames(epoch, summaries);
        const double sent_at = tp.nowMs();
        for (const auto &frame : up)
            tp.send(role_, parentEp_, frame);
        for (int attempt = 1; attempt < proto.maxAttempts; ++attempt) {
            const double next = sent_at + attempt * proto.retryTimeoutMs;
            if (next >= parent_close)
                break;
            tp.advanceTo(next);
            for (const auto &frame : up) {
                tp.send(role_, parentEp_, frame);
                ++stats_.retries;
            }
        }

        // ---- collect SubBudgets until this tier's down deadline.
        aggCollect(epoch, /*down_phase=*/true,
                   gather_all_end
                       + (tiers - 1.0 - my_tier) * proto.budgetDeadlineMs);
    }

    // ---- split down, blind bounded retransmission until the direct
    // children's own down deadline (their tier is ours minus one).
    auto downs = encodeDownFrames(epoch, agg_->computeDown(stats_));
    if (isRoom())
        appendRehomeFrames(epoch, downs);
    const double child_close =
        gather_all_end + (tiers - my_tier) * proto.budgetDeadlineMs;
    const double down_start = tp.nowMs();
    for (const auto &[child, frame] : downs)
        tp.send(role_, child, frame);
    // Membership snapshots ride the same down window, single-shot per
    // period (ack-gated: a lost broadcast is repaired next period).
    if (isRoom())
        broadcastMembership(epoch);
    for (int attempt = 1; attempt < proto.maxAttempts; ++attempt) {
        const double next = down_start + attempt * proto.retryTimeoutMs;
        if (next >= child_close)
            break;
        tp.advanceTo(next);
        for (const auto &[child, frame] : downs) {
            tp.send(role_, child, frame);
            ++stats_.retries;
        }
    }
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
    net::Transport &tp = *transport_;
    aggBeginEpoch(epoch);
    aggCollect(epoch, /*down_phase=*/false, tp.nowMs() + kLockstepWaitMs);
    aggCloseGather(epoch);
    auto downs = encodeDownFrames(epoch, agg_->computeDown(stats_));
    appendRehomeFrames(epoch, downs);
    for (const auto &[child, frame] : downs)
        tp.send(role_, child, frame);
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
    net::Transport &tp = *transport_;
    aggBeginEpoch(epoch);
    aggCollect(epoch, /*down_phase=*/false, tp.nowMs() + kLockstepWaitMs);
    // Single-shot sends, mirroring stepUpstream(): injected loss in a
    // chaos script must actually cost the frame.
    for (const auto &frame : encodeUpFrames(epoch, aggCloseGather(epoch)))
        tp.send(role_, parentEp_, frame);
}

void
WorkerRuntime::stepAggregatorDown(std::uint32_t epoch)
{
    if (pacing_ != Pacing::Lockstep || !isAggregator()) {
        util::fatal(
            "rt: stepAggregatorDown() needs a lockstep aggregator");
    }
    net::Transport &tp = *transport_;
    aggCollect(epoch, /*down_phase=*/true, tp.nowMs() + kLockstepWaitMs);
    for (const auto &[child, frame] :
         encodeDownFrames(epoch, agg_->computeDown(stats_)))
        tp.send(role_, child, frame);
    finishPeriod(epoch);
}

// ===================================================================
// Membership / elasticity plane
// ===================================================================

void
WorkerRuntime::setWireVersion(std::uint8_t version)
{
    if (version != net::kWireVersion
        && version != net::kWireCompatVersion) {
        util::fatal("rt: unsupported wire version %u",
                    static_cast<unsigned>(version));
    }
    wireVersion_ = version;
}

bool
WorkerRuntime::membershipBeginJoin(std::uint32_t endpoint)
{
    if (!isRoom())
        util::fatal("rt: membershipBeginJoin() needs the root runtime");
    if (endpoint >= plan_.workers.size() || endpoint == role_)
        return false;
    const auto ep = static_cast<std::uint16_t>(endpoint);
    if (!membership_.beginJoin(ep))
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
                   static_cast<double>(membership_.generation()));
    return true;
}

bool
WorkerRuntime::membershipBeginDrain(std::uint32_t endpoint)
{
    if (!isRoom())
        util::fatal("rt: membershipBeginDrain() needs the root runtime");
    if (endpoint >= plan_.workers.size() || endpoint == role_)
        return false;
    if (!membership_.beginDrain(static_cast<std::uint16_t>(endpoint)))
        return false;
    events_.record(static_cast<Seconds>(lastEpoch_),
                   core::EventKind::MembershipDrainBegan,
                   "worker" + std::to_string(endpoint),
                   static_cast<double>(membership_.generation()));
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
    if (endpoint >= plan_.workers.size() || endpoint == role_)
        util::fatal("rt: cannot mark endpoint %u absent", endpoint);
    membership_.markAbsent(static_cast<std::uint16_t>(endpoint));
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
    membership_ = membership::MembershipTable();
}

bool
WorkerRuntime::membershipLeft() const
{
    const auto me = static_cast<std::uint16_t>(role_);
    return !isRoom()
           && membership_.state(me) == membership::UnitState::Left
           && membership_.sinceGeneration(me) > 0;
}

bool
WorkerRuntime::membershipFloorReleased(std::uint16_t endpoint) const
{
    if (membership_.state(endpoint) != membership::UnitState::Left)
        return false;
    const std::uint32_t since = membership_.sinceGeneration(endpoint);
    if (since == 0)
        return true; // never deployed: nothing ever drew this floor
    const auto it = memberAckGen_.find(endpoint);
    return it != memberAckGen_.end() && it->second >= since;
}

bool
WorkerRuntime::membershipBroadcastTarget(std::uint16_t endpoint) const
{
    if (endpoint == role_)
        return false;
    if (membership_.state(endpoint) == membership::UnitState::Left) {
        const std::uint32_t since =
            membership_.sinceGeneration(endpoint);
        if (since == 0)
            return false; // never deployed: nobody is listening
        const auto acked = memberAckGen_.find(endpoint);
        if (acked != memberAckGen_.end() && acked->second >= since)
            return false; // leave acked: the unit is gone
    }
    const auto it = memberAckGen_.find(endpoint);
    return it == memberAckGen_.end()
           || it->second < membership_.generation();
}

void
WorkerRuntime::broadcastMembership(std::uint32_t epoch)
{
    // Generation 1 is the static deployment: the machinery stays idle
    // — no frames, no sequence numbers — so a run that never touches
    // membership is bit-identical to a pre-elasticity build.
    if (membership_.generation() <= 1)
        return;
    if (wireVersion_ != net::kWireVersion)
        return; // a compat-stamped root cannot announce; upgrade first
    const net::MembershipDeltaMsg delta = membership_.toDelta();
    for (std::size_t ep = 0; ep < plan_.workers.size(); ++ep) {
        if (!membershipBroadcastTarget(static_cast<std::uint16_t>(ep)))
            continue;
        transport_->send(
            role_, static_cast<net::Transport::Endpoint>(ep),
            net::encodeMembershipDelta(
                stampMeta(net::kRoomSender, epoch), delta));
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
    // reserved until the *Left* generation is acked, checked by
    // membershipFloorReleased()).
    std::vector<std::uint16_t> ready;
    for (const auto &[ep, entry] : membership_.entries()) {
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
        if (!membership_.commit(ep))
            continue;
        ++stats_.membershipCommits;
        events_.record(static_cast<Seconds>(epoch),
                       core::EventKind::MembershipCommitted,
                       "worker" + std::to_string(ep),
                       static_cast<double>(membership_.generation()));
        if (membership_.isLive(ep)) {
            joinAnnounceEpoch_.erase(ep);
            // Fresh liveness ledger: the adopted unit starts Live with
            // a clean sequence baseline and zero failover credit.
            if (const auto h = rackHealth_.find(ep); h != rackHealth_.end())
                h->second = RackHealth{};
        }
    }
    gauges_.membershipGen.set(static_cast<double>(membership_.generation()));
    gauges_.membershipPending.set(static_cast<double>(
        membership_.countOf(membership::UnitState::Joining)
        + membership_.countOf(membership::UnitState::Draining)));

    // Context for the safety auditor: how many units the reserved
    // floors cover for elasticity (shadow) reasons this period.
    std::uint64_t shadowed = 0;
    for (const auto &[ep, entry] : membership_.entries()) {
        if (entry.state == membership::UnitState::Joining
            || entry.state == membership::UnitState::Draining
            || (entry.state == membership::UnitState::Left
                && !membershipFloorReleased(ep)))
            ++shadowed;
    }
    obs_.auditor().noteShadowUnits(shadowed);
}

void
WorkerRuntime::adoptMembershipDelta(const net::Frame &frame)
{
    if (isRoom()) {
        ++stats_.orphanFrames; // the root owns the table
        return;
    }
    if (frame.sender != net::kRoomSender) {
        ++stats_.orphanFrames; // only the root announces membership
        return;
    }
    if (membership_.applyDelta(frame.membershipDelta)) {
        ++stats_.membershipDeltasApplied;
        events_.record(static_cast<Seconds>(frame.epoch),
                       core::EventKind::MembershipAdopted, roleName(),
                       static_cast<double>(membership_.generation()));
        // Committed out: this period applies zero watts (see
        // finishRackPeriod), the ack below is the promise, and a
        // wall-paced daemon exits so the supervisor can retire it.
        if (membershipLeft() && pacing_ == Pacing::Wall)
            requestStop();
    }
    // Ack even the idempotent re-broadcast: a lost ack is what keeps
    // the root re-sending in the first place.
    sendMembershipAck(frame.epoch);
}

void
WorkerRuntime::sendMembershipAck(std::uint32_t epoch)
{
    if (wireVersion_ != net::kWireVersion)
        return; // compat-stamped workers cannot speak membership; the
                // root keeps broadcasting until this unit is upgraded
    const auto me = static_cast<std::uint16_t>(role_);
    net::MembershipAckMsg ack;
    ack.generation = membership_.generation();
    ack.endpoint = me;
    ack.state =
        static_cast<net::WireUnitState>(membership_.state(me));
    transport_->send(
        role_,
        static_cast<net::Transport::Endpoint>(plan_.rootEndpoint()),
        net::encodeMembershipAck(stampMeta(me, epoch), ack));
    ++stats_.membershipAcksSent;
}

void
WorkerRuntime::noteMembershipAck(const net::Frame &frame)
{
    if (!isRoom()) {
        ++stats_.orphanFrames; // acks are addressed to the root
        return;
    }
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
    for (const Plant &plant : plants_) {
        if (plant.serverId == server_id)
            return plant.lastBudgets;
    }
    return {};
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
        {"tier", std::to_string(plan_.workers[role_].tier)}};
    obs_.attach(registry, tracer, *transport_, ownedTransport_ != nullptr,
                ls, agg_ != nullptr);
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
