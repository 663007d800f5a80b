/**
 * @file
 * Process-level worker runtime (the deployment shape of paper §5): one
 * rack or room worker's half of the §4.5 control protocol, driven by
 * wall-clock deadlines over a real transport instead of by the
 * in-process DistributedControlPlane loop.
 *
 * A deployment runs rackWorkerCount() rack processes (endpoints
 * 0..N-1) plus one room process (endpoint N), all sharing one peer
 * table (config::WorkerPeers). Control periods are anchored to the
 * table's wall-clock origin: period (epoch) e owns the real-time
 * window [originMs + (e-1)*periodMs, originMs + e*periodMs), so every
 * process independently agrees on the current epoch from its own clock
 * (NTP-grade agreement is enough; the per-phase deadlines and the
 * epoch field on every frame absorb skew).
 *
 * Within its window each period runs the two §4.5 phases:
 *
 *   rack:  a LeafRole (rt/leaf.hh), as every WorkerHost leaf is:
 *          advance the plant, send heartbeat + per-edge metrics + the
 *          plant-state Checkpoint (blind bounded retransmission — a
 *          real rack cannot see the room's receive state, so it
 *          re-sends on a timer up to maxAttempts), then collect
 *          Budget and Rehome frames until the budget deadline and
 *          close the period with the leaf's §4.5 ladder (Pcap_min
 *          defaults, the replay and shadow clamps, the PI loops).
 *   room:  the plan's root, an AggregatorRole like every deeper root:
 *          collect metrics until the gather deadline, run the §4.5
 *          stale -> lost -> floor ladder and the upper-tree
 *          controllers, then send per-edge budgets with the same blind
 *          bounded retransmission.
 *
 * Failover: every rack streams a compact checkpoint of its
 * recoverable plant state — per-server capping-integrator value, SPO
 * pin flags, and last-period summaries — to its parent each period.
 * The root keeps the latest checkpoint per leaf child (optionally
 * persisted under a state directory for supervisor restarts) and runs
 * a per-rack liveness state machine over its leaf children — every
 * rack at depth 2, none in a balanced deep plan:
 *
 *   Live ──(heartbeatFailAfter missed)──> Dead: WorkerFailover, the
 *        rack's edges ride the stale -> lost degradation, budgets stop
 *        flowing to it.
 *   Dead ──(any frame heard)──> Rehoming. A *reincarnated* instance is
 *        also detected from a Live rack by sequence-number regression
 *        (a restarted process begins again at seq 0), so a worker
 *        restarted within the same epoch window transitions straight
 *        to Rehoming — its fresh-plant metrics are never trusted, and
 *        its liveness is never double-counted against the stale
 *        accounting of the instance that died.
 *   Rehoming: the root withholds budgets (the rack rides its Pcap_min
 *        defaults — the clamp §4.5 requires until fresh metrics exist)
 *        and sends the stored checkpoint as a Rehome frame each period
 *        the rack is heard. The rack replays it (restoring integrator
 *        state, r-hat, summaries, and the plant clock) and acks via
 *        the rehomeAckEpoch field of its next Checkpoint; an intact
 *        instance that merely rode out a partition declines the replay
 *        instead (its own state is newer) and acks likewise.
 *   Rehoming ──(ack at/after the rehome epoch)──> Live: WorkerRehomed,
 *        fresh metrics trusted again, budgets resume. Recovery is
 *        bounded: detection takes at most heartbeatFailAfter periods,
 *        replay + ack two more, so a supervisor restart re-joins
 *        within heartbeatFailAfter + restart delay + 2 periods.
 *
 * Liveness and membership reach the allocation through one input: the
 * root's per-epoch view of its leaf children
 * (AggregatorRole::setChildViews). A Dead or Left rack is not waited
 * for; a non-Live instance is untrusted (its metrics are neither used
 * nor cached, it enters as its floor); a rack outside the committed
 * membership skips the ladder and keeps its floor counted until its
 * departure is acked. Aggregator children get no view: one that is
 * absent or drained still runs, and so do the racks below it.
 *
 * The §4.4 SPO round is still skipped here (it needs fleet-wide
 * stranded-power detection); the checkpoint carries the pin flags for
 * format completeness.
 *
 * Pacing: Wall mode (daemons, runPeriods()) sleeps to window
 * boundaries and paces phases with transport deadlines. Lockstep mode
 * (chaos harness) hands the schedule to the caller: stepUpstream() on
 * every rack, then stepRoom(), then stepDownstream() on every rack,
 * one explicit epoch at a time over any injected Transport — this is
 * what makes kill/restart/partition scripts deterministic.
 *
 * Deep trees: when the peer table carries aggLevels, the deployment is
 * a core::TreePlan — leaf workers 0..N-1, interior aggregator workers,
 * and the root at the last endpoint. Leaves speak the same protocol
 * but to their plan parent; aggregators (AggregatorRole) merge child
 * summaries up and split SubBudgets down; the root runs the top
 * fragment. Wall pacing staggers the deadlines by tier so a tier-k
 * receiver's gather closes at window start + k x gatherDeadlineMs and
 * budgets cascade back down symmetrically — with no aggLevels this
 * degenerates to the 2-level schedule above. Every hop runs the same
 * stale -> floor ladder; interior aggregators are stateless and run
 * no liveness (see rt/aggregator.hh for the recovery contract).
 *
 * Roles, stamping, framing and routing are the rt::RoleTable's
 * (rt/roles.hh), the one send/receive path WorkerHost runs too. The
 * runtime keeps what differs: Wall and Lockstep pacing, blind
 * retransmission, the Heartbeat and Checkpoint in its upstream batch,
 * and the root's supervision (liveness, the checkpoint store, Rehome,
 * the membership table and its ack book, the child views). A frame the
 * table hands back from a later epoch is an orphan here: these pacings
 * keep no holdback.
 *
 * Every degraded decision lands in the runtime's EventLog with the
 * epoch as its timestamp, mirroring ClosedLoopSim's audit trail.
 * Observability is the shared rt::Observability (rt/observe.hh), the
 * same plane a WorkerHost owns; the runtime adds only its
 * capmaestro_rt_* and membership series, the root's rack-liveness
 * override of the fleet rollup, and the rt.room span.
 */

#ifndef CAPMAESTRO_RT_WORKER_RUNTIME_HH
#define CAPMAESTRO_RT_WORKER_RUNTIME_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "config/loader.hh"
#include "core/events.hh"
#include "core/tree_plan.hh"
#include "membership/table.hh"
#include "net/udp_transport.hh"
#include "net/wire.hh"
#include "rt/aggregator.hh"
#include "rt/observe.hh"
#include "rt/roles.hh"
#include "rt/stats.hh"
#include "util/json.hh"

namespace capmaestro::rt {

/**
 * One worker process's runtime: plant + protocol state machine.
 * Construct with role 0..N-1 for a rack worker or role N for the room
 * (N = DistributedControlPlane::rackWorkerCountFor on the scenario's
 * power system).
 */
class WorkerRuntime
{
  public:
    /**
     * Wall-paced runtime over an internally owned UdpTransport (the
     * daemon shape).
     *
     * @param scenario  loaded scenario (ownership taken; every worker
     *                  process loads the same file)
     * @param peers     shared peer table (ports, periodMs, originMs)
     * @param role      endpoint: rack index, or rack count for the room
     * @param seed      sensor-noise seed (must match across processes
     *                  only in that each process forks its own servers'
     *                  streams from it)
     */
    WorkerRuntime(config::LoadedScenario scenario,
                  config::WorkerPeers peers, std::uint32_t role,
                  std::uint64_t seed = 1);

    /**
     * Runtime over an injected transport (not owned; must outlive the
     * runtime). Lockstep pacing skips every wall-clock validation —
     * the harness owns the epoch schedule.
     */
    WorkerRuntime(config::LoadedScenario scenario,
                  config::WorkerPeers peers, std::uint32_t role,
                  std::uint64_t seed, net::Transport &transport,
                  Pacing pacing);

    ~WorkerRuntime();

    WorkerRuntime(const WorkerRuntime &) = delete;
    WorkerRuntime &operator=(const WorkerRuntime &) = delete;

    /** True when this runtime drives the room (tree-root) worker. */
    bool isRoom() const { return role_ == plan().rootEndpoint(); }

    /** True when this runtime drives an interior aggregator worker. */
    bool isAggregator() const
    {
        return role_ >= rackCount() && !isRoom();
    }

    /** Leaf (rack) workers in the deployment; aggregators and the root
     *  occupy the endpoints above them (see core::TreePlan). */
    std::size_t rackCount() const { return plan().leafWorkers; }

    /** "room", "aggN", or "rackN" — log labels. */
    std::string roleName() const;

    /** The worker layout this deployment runs. */
    const core::TreePlan &plan() const { return roles_.plan(); }

    /**
     * Wall pacing only: run up to @p max_periods control periods, each
     * aligned to its wall-clock window, until requestStop(). Returns
     * periods run.
     */
    std::size_t runPeriods(std::size_t max_periods);

    // ---- Lockstep pacing: the caller drives one epoch as
    // stepUpstream() on every live rack, stepRoom(), then
    // stepDownstream() on every live rack.

    /** Rack, lockstep: advance the plant and send the upstream batch
     *  (heartbeat + metrics + checkpoint) once, without pacing. */
    void stepUpstream(std::uint32_t epoch);

    /** Room, lockstep: gather, run liveness/failover, compute and send
     *  budgets (+ Rehome frames) once. */
    void stepRoom(std::uint32_t epoch);

    /** Rack, lockstep: collect budgets/Rehome, apply defaults and
     *  per-server caps. */
    void stepDownstream(std::uint32_t epoch);

    // ---- Lockstep pacing, deep plans: one epoch is stepUpstream() on
    // every leaf, stepAggregatorUp() tier by tier ascending, stepRoom(),
    // stepAggregatorDown() tier by tier descending, stepDownstream() on
    // every leaf.

    /** Aggregator, lockstep: gather child summaries, merge, and send
     *  this worker's Summary frames (+ heartbeat) to its parent. */
    void stepAggregatorUp(std::uint32_t epoch);

    /** Aggregator, lockstep: collect SubBudgets from the parent, split,
     *  and send Budget/SubBudget frames to the children. */
    void stepAggregatorDown(std::uint32_t epoch);

    /**
     * Ask the period loop to exit at the next check (async-signal-safe:
     * only stores an atomic flag — wire it to SIGTERM in a daemon).
     */
    void requestStop() { stop_.store(true, std::memory_order_relaxed); }

    /** Protocol accounting so far. */
    const RuntimeStats &stats() const { return stats_; }

    /** Degraded-mode decisions (timestamps are epochs). */
    const core::EventLog &eventLog() const { return events_; }

    /** The transport this runtime speaks over. */
    net::Transport &transport() { return *transport_; }

    /**
     * The internally owned UDP transport (e.g., to rewire ephemeral
     * ports in tests), or nullptr when a transport was injected.
     */
    net::UdpTransport *udp() { return ownedTransport_.get(); }

    /** Epoch of the most recently completed period (0 before any). */
    std::uint32_t lastEpoch() const { return lastEpoch_; }

    /**
     * Rack only: per-supply AC budgets applied to server @p server_id
     * in the last period (empty before the first period or when the
     * server is not homed on this rack).
     */
    std::vector<Watts> lastServerBudgets(std::size_t server_id) const;

    /** Rack only: (tree, edge) -> AC budget applied last period
     *  (empty before the first period). */
    std::map<std::pair<std::size_t, topo::NodeId>, Watts>
    lastEdgeBudgets() const;

    /** Root only: liveness state of leaf child @p r (a rack that
     *  reports to the root; fatal otherwise). */
    RackState rackState(std::size_t r) const;

    // ---- membership / elasticity plane (see membership/table.hh).
    // The root owns the table: begin*/markAbsent mutate it, the commit
    // gate runs inside the period loop, and deltas are broadcast until
    // every affected unit acked the current generation. Non-root
    // workers hold a replica updated by MembershipDelta frames. A
    // static all-Live table keeps the whole plane idle — no frames, no
    // sequence numbers, no behavioral difference from pre-elasticity
    // builds.

    /** This worker's membership replica (the root's is the truth). */
    const membership::MembershipTable &membership() const
    {
        return roles_.membership();
    }

    /** Local membership generation. */
    std::uint32_t membershipGeneration() const
    {
        return roles_.membership().generation();
    }

    /**
     * Root only: announce @p endpoint as Joining (phase one of the
     * two-phase adopt). The unit runs shadow periods — metrics up,
     * grants clamped to the Pcap_min floor, floor counted — until the
     * commit gate (current-generation ack + the minimum shadow window)
     * promotes it to Live. Returns true when the table changed.
     */
    bool membershipBeginJoin(std::uint32_t endpoint);

    /** Root only: announce @p endpoint as Draining (reverse handshake;
     *  floor stays counted until the unit acks the Left commit). */
    bool membershipBeginDrain(std::uint32_t endpoint);

    /**
     * Root only, before the first period: mark @p endpoint as not yet
     * deployed (Left, since generation 0 — no floor is counted and no
     * broadcast targets it). The endpoint keeps its slot in the peer
     * table; membershipBeginJoin() brings it in later.
     */
    void membershipMarkAbsent(std::uint32_t endpoint);

    /**
     * Non-root, before the first period: boot in shadow mode. The
     * local replica starts empty, so this worker treats itself as not
     * yet a member — every period rides the Pcap_min clamp — until a
     * root broadcast shows it Live. This is how a freshly provisioned
     * worker joins without ever applying an uncommitted budget.
     */
    void beginShadow();

    /** Non-root: the root committed this worker out of the deployment
     *  (replica shows self Left). The supervisor can retire it. */
    bool membershipLeft() const;

    /**
     * Frame-header version this worker stamps on outgoing frames —
     * kWireVersion by default; kWireCompatVersion simulates the older
     * half of a rolling upgrade (decode always accepts both). A
     * compat-stamped worker cannot speak the membership plane (those
     * types are v6-only): the root just keeps broadcasting until the
     * unit is upgraded, so upgrade-then-join is the supported order.
     */
    void setWireVersion(std::uint8_t version)
    {
        roles_.setWireVersion(version);
    }

    /** Current outgoing frame-header version. */
    std::uint8_t wireVersion() const { return roles_.wireVersion(); }

    /**
     * Ask the period loop to re-run the reload handler before the next
     * period (async-signal-safe: only stores a flag — wire it to
     * SIGHUP in a daemon). No-op without a handler.
     */
    void requestReload() { reload_.store(true, std::memory_order_relaxed); }

    /** Handler invoked from the period loop after requestReload() —
     *  e.g. re-read peers.json and apply membership join/drain. */
    void setReloadHandler(std::function<void()> handler)
    {
        reloadHandler_ = std::move(handler);
    }

    /**
     * Attach a metrics registry and (optionally) a period tracer;
     * nullptr detaches. Everything is labeled {role=rackN|aggN|room,
     * tier=K}: the shared plane's series (hop latency, transport, and
     * on aggregating roles fleet health and the safety auditor; see
     * rt/observe.hh) and this runtime's capmaestro_rt_* and membership
     * counters. With telemetry attached, outgoing frames carry the v5
     * trace context and incoming stamped frames feed per-hop latency
     * histograms — both purely observational (see net/wire.hh:
     * allocations stay bit-identical either way).
     */
    void setTelemetry(telemetry::Registry *registry,
                      telemetry::PeriodTracer *tracer = nullptr);

    /**
     * Open the scrape endpoint on 127.0.0.1:@p port (0 = ephemeral):
     * /metrics (Prometheus text), /healthz (JSON), /tracez (last
     * period traces). Serviced from the runtime's own pacing loop — no
     * threads. Returns the bound port, or 0 when the bind failed.
     */
    std::uint16_t serveHttp(std::uint16_t port);

    /** Bound scrape port (0 when serveHttp() was never called). */
    std::uint16_t httpPort() const { return obs_.httpPort(); }

    /** The /healthz document (valid any time). */
    util::Json healthJson() const;

    /** Per-child health rollup (empty on rack roles). */
    const telemetry::FleetHealthRegistry &fleetHealth() const
    {
        return obs_.fleetHealth();
    }

    /** Online budget-conservation auditor (room and aggregators). */
    const telemetry::SafetyAuditor &safetyAuditor() const
    {
        return obs_.auditor();
    }

    /**
     * Room only: persist the latest checkpoint per rack under
     * @p dir (one file per rack, atomically replaced), and load any
     * checkpoints a previous room instance left there — how a
     * supervisor-restarted room can still re-home racks that died
     * while it was down.
     */
    void setStateDir(const std::string &dir);

  private:
    /** Root's per-rack liveness and re-homing bookkeeping. */
    struct RackHealth
    {
        RackState state = RackState::Live;
        int missed = 0;
        /** Highest sequence number seen from the current instance. */
        std::uint32_t maxSeq = 0;
        bool seqSeen = false;
        /** Latest rehomeAckEpoch reported by the rack's checkpoints. */
        std::uint32_t lastAckEpoch = 0;
        /** Epoch the current re-homing round's first Rehome was sent
         *  (0 = none yet this round). */
        std::uint32_t rehomeEpoch = 0;
    };

    using Routed = RoleTable::Routed;
    using Sends = RoleTable::Sends;

    /** What a collect() loop waits for. */
    enum class Until : std::uint8_t
    {
        /** Leaf: every edge budgeted. */
        Budgets,
        /** Leaf: every edge budgeted, or a Rehome from the root. */
        BudgetsOrRehome,
        /** Aggregator: every awaited child station fresh. */
        Gather,
        /** Aggregator: every SubBudget received. */
        SubBudgets,
    };

    /** Shared ctor body: validate the pacing schedule and set up the
     *  root's liveness book. */
    void init();

    std::uint32_t epochAt(std::uint64_t unix_ms) const;
    /** Sleep until @p unix_ms, checking stop_; false when stopped. */
    bool sleepUntil(std::uint64_t unix_ms);

    RoleTable::Leaf &leafSlot() { return roles_.leaves().front(); }
    RoleTable::Aggregator &aggSlot() { return roles_.aggregators().front(); }
    AggregatorRole &agg() { return aggSlot().role; }
    /** The plan parent (leaf and aggregator roles). */
    std::uint32_t parentEp() const { return plan().workers[role_].parent; }

    /** Send every frame of @p batch once (copied: it may be resent). */
    void sendAll(const Sends &batch);
    /** Blind bounded retransmission of @p batch, first sent at
     *  @p sent_at: every retryTimeoutMs up to maxAttempts sends, while
     *  before @p until (no ACK channel exists; receivers dedup). */
    void retransmit(const Sends &batch, double sent_at, double until);
    /** Receive into the RoleTable until @p until holds or the
     *  transport clock reaches @p close; act on what it hands back. */
    void collect(std::uint32_t epoch, Until until, double close);

    void runRackPeriod(std::uint32_t epoch);
    /** Wall pacing: one aggregator/root period (gather up, forward,
     *  collect SubBudgets, split down) on the tier-staggered deadline
     *  schedule. */
    void runAggregatorPeriod(std::uint32_t epoch);

    /** Advance the leaf and frame its upstream batch: heartbeat, one
     *  metrics frame per edge, the checkpoint. */
    Sends rackUpstreamFrames(std::uint32_t epoch);
    /** Open @p epoch's gather (the root also resets what it heard and
     *  refreshes the child view). */
    void aggBeginEpoch(std::uint32_t epoch);
    /** Close the gather (the root first runs rack liveness and the
     *  membership commit gate and sets the child view they imply),
     *  roll the outcome up into fleet health, and frame the heartbeat
     *  and Summaries for the parent (none at the root). */
    Sends aggCloseGather(std::uint32_t epoch);
    /** The split as Budget/SubBudget frames, plus the root's Rehomes. */
    Sends aggDownFrames(std::uint32_t epoch);

    // ---- root: liveness and re-homing of its leaf children
    /** Note one received frame for rack liveness: restart detection
     *  by sequence regression, and the rack's streamed checkpoint.
     *  No-op unless the sender is a leaf child of the root. */
    void noteRackFrame(const net::Frame &frame, std::uint32_t epoch);
    void beginRehoming(std::uint32_t rack, std::uint32_t epoch);
    void rackLiveness(std::uint32_t epoch);
    /** Hand agg_ the view of the leaf children that liveness and
     *  membership imply now (no-op without leaf children). */
    void refreshChildViews();
    /** Append a Rehome per re-homing rack heard this epoch to the
     *  down frames. */
    void appendRehomeFrames(std::uint32_t epoch, Sends &down);
    void persistCheckpoint(std::size_t rack);
    void loadPersistedCheckpoints();
    std::string checkpointPath(std::size_t rack) const;

    // ---- membership plane helpers (epoch-free: the generation is the
    // membership clock; frames are accepted regardless of their epoch)
    /** Root: the unit is Left and either acked that state or was never
     *  deployed — its nominal floor is no longer counted. */
    bool membershipFloorReleased(std::uint16_t endpoint) const;
    /** Root: @p endpoint still needs the current snapshot. */
    bool membershipBroadcastTarget(std::uint16_t endpoint) const;
    /** Root: send the snapshot to every un-acked unit (single-shot per
     *  period; loss is repaired by the next period's broadcast). */
    void broadcastMembership(std::uint32_t epoch);
    /** Root: run the two-phase commit gate and refresh the gauges. */
    void membershipTick(std::uint32_t epoch);
    /** Root: fold one MembershipAck into the ack book. */
    void noteMembershipAck(const net::Frame &frame);

    void finishPeriod(std::uint32_t epoch);

    config::LoadedScenario scenario_;
    config::WorkerPeers peers_;
    std::uint32_t role_ = 0;
    Pacing pacing_ = Pacing::Wall;
    std::unique_ptr<net::UdpTransport> ownedTransport_;
    net::Transport *transport_ = nullptr;
    std::atomic<bool> stop_{false};
    std::atomic<bool> reload_{false};
    std::function<void()> reloadHandler_;

    // -------- membership plane (the table or replica is the
    // RoleTable's)
    /** Root: highest generation each endpoint has acked. */
    std::map<std::uint16_t, std::uint32_t> memberAckGen_;
    /** Root: epoch each pending join was announced at (shadow window
     *  start for the commit gate). */
    std::map<std::uint16_t, std::uint32_t> joinAnnounceEpoch_;
    RuntimeStats stats_;
    core::EventLog events_;
    std::uint32_t lastEpoch_ = 0;

    // -------- root state
    /** Root: liveness per leaf child (empty elsewhere). */
    std::map<std::uint32_t, RackHealth> rackHealth_;
    /** Root: latest checkpoint per leaf child. */
    std::map<std::size_t, net::CheckpointMsg> checkpoints_;
    /** Root: leaf children heard this epoch. */
    std::set<std::uint32_t> heard_;
    std::string stateDir_;

    // -------- observability (inert until setTelemetry())
    Observability obs_{stats_, events_};
    /** Gauges beyond the RuntimeStats counter mirrors (null-safe
     *  no-op handles while detached). */
    struct Gauges
    {
        telemetry::Gauge deadRacks;
        telemetry::Gauge membershipGen;
        telemetry::Gauge membershipPending;
    } gauges_;

    /** This worker's role and the send/receive path (last: it refers
     *  to the scenario, stats, events and observability above). */
    RoleTable roles_;
};

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_WORKER_RUNTIME_HH
