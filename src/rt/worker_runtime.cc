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
    else if (isRoom() && plan_.tiers() == 2)
        buildRoom();
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
}

void
WorkerRuntime::buildRoom()
{
    const auto &system = *scenario_.system;
    const auto partition =
        core::DistributedControlPlane::partitionEdges(system);
    std::vector<std::set<topo::NodeId>> edge_nodes(
        system.trees().size());
    for (std::size_t r = 0; r < partition.size(); ++r) {
        for (const auto &[tree, node] : partition[r]) {
            edge_nodes[tree].insert(node);
            edgeOwner_[{tree, node}] = r;
        }
    }
    room_ = std::make_unique<core::RoomWorker>(
        system, std::move(edge_nodes),
        policy::treePolicy(scenario_.service.policy));
    rackHealth_.assign(rackCount_, RackHealth{});
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
        else if (room_)
            runRoomPeriod(epoch);
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
        obs_.health(membership_, lastEpoch_, room_ || agg_,
                    static_cast<std::uint16_t>(role_));
    out.emplace("role", util::Json(roleName()));
    out.emplace("tier",
                util::Json(room_ ? -1.0
                                 : static_cast<double>(
                                       plan_.workers[role_].tier)));
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
    // unilateral fallback creep above the floor the room reserves for
    // this edge when it stops budgeting us (see roomComputeAndSend).
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
// Room phases
// ===================================================================

void
WorkerRuntime::noteRackFrame(std::size_t rack, std::uint32_t seq,
                             std::uint32_t epoch)
{
    heard_.insert(rack);
    RackHealth &h = rackHealth_[rack];
    const auto ms = membership_.state(static_cast<std::uint16_t>(rack));
    if (ms == membership::UnitState::Joining
        || ms == membership::UnitState::Left) {
        // Shadow traffic: seen, but outside the liveness contract.
        // Drop the sequence baseline so the commit starts a fresh
        // instance view instead of mis-reading the joiner's early
        // frames as a restart.
        h.seqSeen = false;
        return;
    }
    if (!h.seqSeen) {
        h.seqSeen = true;
        h.maxSeq = seq;
        return;
    }
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
    if (seq + rackBatchSize(rack) < h.maxSeq) {
        if (h.state == RackState::Live)
            beginRehoming(rack, epoch);
        h.maxSeq = seq;
        return;
    }
    h.maxSeq = std::max(h.maxSeq, seq);
}

std::uint32_t
WorkerRuntime::rackBatchSize(std::size_t rack) const
{
    std::uint32_t edges = 0;
    for (const auto &[key, owner] : edgeOwner_) {
        if (owner == rack)
            ++edges;
    }
    return edges + 2;
}

void
WorkerRuntime::beginRehoming(std::size_t rack, std::uint32_t epoch)
{
    RackHealth &h = rackHealth_[rack];
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
    for (const RackHealth &h : rackHealth_) {
        if (h.state != RackState::Live)
            ++n;
    }
    return n;
}

void
WorkerRuntime::roomGather(std::uint32_t epoch, bool paced)
{
    const auto &proto = scenario_.service.protocol;
    net::Transport &tp = *transport_;
    heard_.clear();
    fresh_.clear();

    // Dead racks send nothing; neither do racks committed out of the
    // membership (Left). Everyone else (including re-homing racks,
    // whose plants run on default budgets, and Joining/Draining racks
    // in their shadow periods) is expected.
    std::size_t expected = 0;
    for (const auto &[key, rack] : edgeOwner_) {
        if (rackHealth_[rack].state == RackState::Dead)
            continue;
        if (membership_.state(static_cast<std::uint16_t>(rack))
            == membership::UnitState::Left)
            continue;
        ++expected;
    }

    const double start = tp.nowMs();
    const double gather_deadline = start + proto.gatherDeadlineMs;
    for (;;) {
        for (const auto &bytes : tp.poll(role_)) {
            const auto frame = net::decodeFrame(bytes);
            if (!frame) {
                ++stats_.corruptFrames;
                continue;
            }
            // Membership frames ride ahead of the epoch check: the
            // generation, not the epoch, orders that plane.
            if (frame->type == net::MsgType::MembershipAck) {
                noteMembershipAck(*frame);
                continue;
            }
            if (frame->type == net::MsgType::MembershipDelta) {
                ++stats_.orphanFrames; // the root owns the table
                continue;
            }
            if (frame->epoch != epoch) {
                ++stats_.orphanFrames;
                continue;
            }
            obs_.recordHop(*frame, traceTier());
            if (frame->sender < rackCount_)
                noteRackFrame(frame->sender, frame->seq, epoch);
            if (frame->type == net::MsgType::Metrics) {
                fresh_[{frame->metrics.tree,
                        static_cast<topo::NodeId>(
                            frame->metrics.edgeNode)}] =
                    frame->metrics.metrics;
            } else if (frame->type == net::MsgType::Checkpoint
                       && frame->sender < rackCount_) {
                RackHealth &h = rackHealth_[frame->sender];
                h.lastAckEpoch = std::max(
                    h.lastAckEpoch, frame->checkpoint.rehomeAckEpoch);
                checkpoints_[frame->sender] = frame->checkpoint;
                ++stats_.checkpointsStored;
                persistCheckpoint(frame->sender);
            }
        }
        if (fresh_.size() >= expected)
            break;
        const double now = tp.nowMs();
        if (paced) {
            if (now >= gather_deadline)
                break;
            tp.advanceBy(std::min(gather_deadline - now, kPollSliceMs));
        } else {
            if (now - start >= kLockstepWaitMs)
                break;
            tp.advanceBy(kPollSliceMs);
        }
    }
}

void
WorkerRuntime::roomLiveness(std::uint32_t epoch)
{
    const auto &proto = scenario_.service.protocol;
    for (std::size_t r = 0; r < rackCount_; ++r) {
        RackHealth &h = rackHealth_[r];
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
            if (heard) {
                h.missed = 0;
            } else if (++h.missed >= proto.heartbeatFailAfter) {
                h.state = RackState::Dead;
                ++stats_.failovers;
                events_.record(static_cast<Seconds>(epoch),
                               core::EventKind::WorkerFailover,
                               "worker" + std::to_string(r), -1.0);
            }
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
            } else if (!heard) {
                if (++h.missed >= proto.heartbeatFailAfter) {
                    h.state = RackState::Dead;
                    ++stats_.failovers;
                    events_.record(static_cast<Seconds>(epoch),
                                   core::EventKind::WorkerFailover,
                                   "worker" + std::to_string(r), -1.0);
                }
            } else {
                h.missed = 0;
            }
            break;
        }
        // ---- fleet rollup: the liveness ladder as operational health.
        // A Live rack that went unheard this period is riding the stale
        // cache — visibly degraded even before the failover threshold.
        if (obs_.on()) {
            using telemetry::UnitHealth;
            const UnitHealth uh =
                h.state == RackState::Dead       ? UnitHealth::Lost
                : h.state == RackState::Rehoming ? UnitHealth::Rehoming
                : heard                          ? UnitHealth::Live
                                                 : UnitHealth::Stale;
            obs_.fleetHealth().report("rack" + std::to_string(r), uh,
                                      epoch);
        }
    }
    gauges_.deadRacks.set(static_cast<double>(deadOrRehomingCount()));
}

void
WorkerRuntime::roomComputeAndSend(std::uint32_t epoch, bool paced)
{
    const auto &system = *scenario_.system;
    const auto &proto = scenario_.service.protocol;
    net::Transport &tp = *transport_;

    // ---- assemble per-tree edge metrics with the §4.5 stale cache.
    // Fresh metrics are trusted only from racks the room considers
    // Live: a reincarnated instance's fresh-plant numbers would poison
    // the allocation, and its liveness must not be double-counted as
    // both the dead instance (stale) and the new one (fresh) within
    // the same epoch window.
    // A non-Live rack's edges are excluded from the allocation
    // entirely (their nominal floor is reserved out of the tree budget
    // below instead), but they still ride the stale -> lost event
    // accounting so the degradation is visible in the audit trail.
    std::vector<std::map<topo::NodeId, ctrl::NodeMetrics>> tree_metrics(
        system.trees().size());
    std::vector<Watts> reserved(system.trees().size(), 0.0);
    for (const auto &[key, rack] : edgeOwner_) {
        const auto [tree, node] = key;
        // A rack outside the committed membership (Joining, Draining,
        // or Left) is excluded from allocation *by design*, not by
        // degradation: no stale/lost events, just the conservative
        // floor reservation that covers its unilateral clamp — unless
        // the unit acked its Left commit (or was never deployed), in
        // which case no watts flow there and nothing is reserved.
        if (!membership_.isLive(static_cast<std::uint16_t>(rack))) {
            if (!membershipFloorReleased(
                    static_cast<std::uint16_t>(rack)))
                reserved[tree] += nominalFloor_.at(key);
            continue;
        }
        const bool trusted =
            rackHealth_[rack].state == RackState::Live;
        const auto got = fresh_.find(key);
        if (got != fresh_.end() && trusted) {
            tree_metrics[tree][node] = got->second;
            metricCache_[key] = {got->second, epoch, true};
            continue;
        }
        const std::string subject =
            system.tree(tree).name() + "."
            + system.tree(tree).node(node).name;
        const auto cached = metricCache_.find(key);
        const std::uint32_t age =
            cached != metricCache_.end() && cached->second.valid
                ? epoch - cached->second.epoch
                : 0;
        const bool stale_ok =
            cached != metricCache_.end() && cached->second.valid
            && age <= static_cast<std::uint32_t>(
                   proto.staleAgeCapPeriods);
        if (stale_ok) {
            if (trusted)
                tree_metrics[tree][node] = cached->second.metrics;
            ++stats_.staleReuses;
            events_.record(static_cast<Seconds>(epoch),
                           core::EventKind::StaleMetricsReused, subject,
                           static_cast<double>(age));
        } else {
            ++stats_.metricsLost;
            events_.record(static_cast<Seconds>(epoch),
                           core::EventKind::MetricsLost, subject,
                           static_cast<double>(age));
        }
        // No allocation will be computed for this edge — either its
        // rack is untrusted (dead, partitioned, or replaying) or even
        // the stale cache ran dry. The rack rides its unilateral
        // Pcap_min fallback in both cases, so its nominal floor comes
        // out of the tree budget before the Live edges divide it.
        if (!trusted || !stale_ok)
            reserved[tree] += nominalFloor_.at(key);
    }

    // ---- upper-tree compute + downstream budgets, blind bounded
    // retransmission (racks dedup by the applied set). Dead and
    // re-homing racks get no budgets: their edges ride the Pcap_min
    // defaults until the room trusts their metrics again.
    struct PendingDown
    {
        std::size_t rack;
        std::vector<std::uint8_t> frame;
    };
    std::vector<PendingDown> pending;
    std::vector<Watts> committed(system.trees().size(), 0.0);
    for (std::size_t t = 0; t < system.trees().size(); ++t) {
        // Reserve the nominal Pcap_min floor of every edge the room is
        // not budgeting this period: that rack may be riding exactly
        // that fallback right now (killed-but-enforcing, partitioned,
        // or replaying a checkpoint), and the sum of its unilateral
        // floor plus what we hand the Live edges must never exceed the
        // tree's supply budget.
        const Watts usable = std::max(
            0.0, scenario_.rootBudgets[t] - reserved[t]);
        const auto edge_budgets =
            room_->iterate(t, tree_metrics[t], usable);
        for (const auto &[node, budget] : edge_budgets) {
            const std::size_t rack = edgeOwner_.at({t, node});
            if (rackHealth_[rack].state != RackState::Live
                || !membership_.isLive(
                       static_cast<std::uint16_t>(rack)))
                continue;
            net::BudgetMsg msg;
            msg.tree = static_cast<std::uint16_t>(t);
            msg.edgeNode = static_cast<std::uint32_t>(node);
            msg.budget = budget;
            committed[t] += budget;
            pending.push_back(
                {rack, net::encodeBudget(
                           stampMeta(net::kRoomSender, epoch), msg)});
        }
    }

    // ---- online §4.5 audit: what flowed down plus the reserved
    // floors must never exceed the tree's supply budget. The allocator
    // enforces this by construction; the auditor re-checks the
    // committed numbers so a bookkeeping regression surfaces as a
    // counter, not a breaker overdraw.
    if (obs_.on()) {
        for (std::size_t t = 0; t < system.trees().size(); ++t) {
            obs_.audit(epoch, system.tree(t).name() + "@room",
                       scenario_.rootBudgets[t], committed[t],
                       reserved[t]);
        }
    }

    // ---- Rehome frames for re-homing racks heard this epoch: replay
    // the stored checkpoint into the new instance. An empty checkpoint
    // (none ever stored) still completes the handshake — the rack
    // simply keeps its fresh plant.
    for (std::size_t r = 0; r < rackCount_; ++r) {
        RackHealth &h = rackHealth_[r];
        if (h.state != RackState::Rehoming || !heard_.count(r))
            continue;
        if (!membership_.isLive(static_cast<std::uint16_t>(r)))
            continue; // shadow units get no replay until committed
        const auto stored = checkpoints_.find(r);
        const net::CheckpointMsg msg = stored != checkpoints_.end()
                                           ? stored->second
                                           : net::CheckpointMsg{};
        pending.push_back(
            {r, net::encodeRehome(stampMeta(net::kRoomSender, epoch),
                                  msg)});
        if (h.rehomeEpoch == 0)
            h.rehomeEpoch = epoch;
        ++stats_.rehomesSent;
    }

    // ---- membership snapshots ride the same down window, single-shot
    // per period (ack-gated: a lost broadcast is repaired next period).
    broadcastMembership(epoch);

    const double budget_start = tp.nowMs();
    const double budget_deadline =
        budget_start + proto.budgetDeadlineMs;
    for (const PendingDown &down : pending) {
        tp.send(role_, static_cast<net::Transport::Endpoint>(down.rack),
                down.frame);
    }
    if (!paced)
        return;
    for (int attempt = 1; attempt < proto.maxAttempts; ++attempt) {
        const double next =
            budget_start + attempt * proto.retryTimeoutMs;
        if (next >= budget_deadline)
            break;
        tp.advanceTo(next);
        for (const PendingDown &down : pending) {
            tp.send(role_,
                    static_cast<net::Transport::Endpoint>(down.rack),
                    down.frame);
            ++stats_.retries;
        }
    }
}

void
WorkerRuntime::runRoomPeriod(std::uint32_t epoch)
{
    roomGather(epoch, /*paced=*/true);
    roomLiveness(epoch);
    membershipTick(epoch);
    roomComputeAndSend(epoch, /*paced=*/true);
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
    if (agg_) {
        // Deep root: one step covers both halves — by the lockstep
        // driving order every aggregator below has already stepped up,
        // and will step down after.
        net::Transport &tp = *transport_;
        agg_->beginEpoch(epoch);
        const double start = tp.nowMs();
        for (;;) {
            aggDrainOnce(/*down_phase=*/false);
            if (agg_->upComplete())
                break;
            if (tp.nowMs() - start >= kLockstepWaitMs)
                break;
            tp.advanceBy(kPollSliceMs);
        }
        agg_->closeGather(stats_, events_);
        obs_.reportChildren(*agg_, epoch);
        membershipTick(epoch);
        for (const auto &[child, frame] :
             encodeDownFrames(epoch, agg_->computeDown(stats_))) {
            tp.send(role_, child, frame);
        }
        broadcastMembership(epoch);
    } else {
        roomGather(epoch, /*paced=*/false);
        roomLiveness(epoch);
        membershipTick(epoch);
        roomComputeAndSend(epoch, /*paced=*/false);
        if (tracer) {
            tracer->num(span, "freshEdges",
                        static_cast<double>(fresh_.size()));
            tracer->num(span, "degradedRacks",
                        static_cast<double>(deadOrRehomingCount()));
            std::string states;
            for (const RackHealth &h : rackHealth_) {
                states += h.state == RackState::Live
                              ? 'L'
                              : (h.state == RackState::Dead ? 'D' : 'R');
            }
            tracer->str(span, "rackStates", std::move(states));
        }
    }
    if (tracer)
        tracer->end(span);
    finishPeriod(epoch);
}

// ===================================================================
// Aggregator phases (deep plans)
// ===================================================================

void
WorkerRuntime::aggDrainOnce(bool down_phase)
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
        if (down_phase && frame->type == net::MsgType::SubBudget)
            agg_->noteDownFrame(*frame, parent_sender, stats_);
        else
            agg_->noteUpFrame(*frame, stats_);
    }
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
    // tiers this is exactly the flat room schedule.
    const double gather_close =
        start + my_tier * proto.gatherDeadlineMs;
    const double gather_all_end =
        start + (tiers - 1.0) * proto.gatherDeadlineMs;

    agg_->beginEpoch(epoch);
    for (;;) {
        aggDrainOnce(/*down_phase=*/false);
        if (agg_->upComplete())
            break;
        const double remaining = gather_close - tp.nowMs();
        if (remaining <= 0.0)
            break;
        tp.advanceBy(std::min(remaining, kPollSliceMs));
    }
    const auto summaries = agg_->closeGather(stats_, events_);
    obs_.reportChildren(*agg_, epoch);
    if (isRoom())
        membershipTick(epoch);

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
        const double down_close =
            gather_all_end
            + (tiers - 1.0 - my_tier) * proto.budgetDeadlineMs;
        for (;;) {
            aggDrainOnce(/*down_phase=*/true);
            if (agg_->downComplete())
                break;
            const double remaining = down_close - tp.nowMs();
            if (remaining <= 0.0)
                break;
            tp.advanceBy(std::min(remaining, kPollSliceMs));
        }
    }

    // ---- split down, blind bounded retransmission until the direct
    // children's own down deadline (their tier is ours minus one).
    const auto downs =
        encodeDownFrames(epoch, agg_->computeDown(stats_));
    const double child_close =
        gather_all_end + (tiers - my_tier) * proto.budgetDeadlineMs;
    const double down_start = tp.nowMs();
    if (isRoom())
        broadcastMembership(epoch);
    for (const auto &[child, frame] : downs)
        tp.send(role_, child, frame);
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
WorkerRuntime::stepAggregatorUp(std::uint32_t epoch)
{
    if (pacing_ != Pacing::Lockstep || !isAggregator()) {
        util::fatal(
            "rt: stepAggregatorUp() needs a lockstep aggregator");
    }
    net::Transport &tp = *transport_;
    agg_->beginEpoch(epoch);
    const double start = tp.nowMs();
    for (;;) {
        aggDrainOnce(/*down_phase=*/false);
        if (agg_->upComplete())
            break;
        if (tp.nowMs() - start >= kLockstepWaitMs)
            break;
        tp.advanceBy(kPollSliceMs);
    }
    // Single-shot sends, mirroring stepUpstream(): injected loss in a
    // chaos script must actually cost the frame.
    for (const auto &frame :
         encodeUpFrames(epoch, agg_->closeGather(stats_, events_)))
        tp.send(role_, parentEp_, frame);
    obs_.reportChildren(*agg_, epoch);
}

void
WorkerRuntime::stepAggregatorDown(std::uint32_t epoch)
{
    if (pacing_ != Pacing::Lockstep || !isAggregator()) {
        util::fatal(
            "rt: stepAggregatorDown() needs a lockstep aggregator");
    }
    net::Transport &tp = *transport_;
    const double start = tp.nowMs();
    for (;;) {
        aggDrainOnce(/*down_phase=*/true);
        if (agg_->downComplete())
            break;
        if (tp.nowMs() - start >= kLockstepWaitMs)
            break;
        tp.advanceBy(kPollSliceMs);
    }
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
    if (endpoint < rackHealth_.size())
        rackHealth_[endpoint] = RackHealth{};
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
            if (ep < rackHealth_.size())
                rackHealth_[ep] = RackHealth{};
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
    if (!isRoom() || r >= rackHealth_.size())
        util::fatal("rt: rackState() needs the room runtime");
    return rackHealth_[r].state;
}

void
WorkerRuntime::setTelemetry(telemetry::Registry *registry,
                            telemetry::PeriodTracer *tracer)
{
    const telemetry::Labels ls{
        {"role", roleName()},
        {"tier", std::to_string(plan_.workers[role_].tier)}};
    obs_.attach(registry, tracer, *transport_, ownedTransport_ != nullptr,
                ls, room_ || agg_);
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
    for (std::size_t r = 0; r < rackCount_; ++r) {
        std::ifstream is(checkpointPath(r), std::ios::binary);
        if (!is)
            continue;
        std::vector<std::uint8_t> bytes(
            (std::istreambuf_iterator<char>(is)),
            std::istreambuf_iterator<char>());
        const auto frame = net::decodeFrame(bytes);
        if (!frame || frame->type != net::MsgType::Checkpoint) {
            util::warn("rt: ignoring corrupt checkpoint for rack %zu",
                       r);
            continue;
        }
        checkpoints_[r] = frame->checkpoint;
    }
}

} // namespace capmaestro::rt
