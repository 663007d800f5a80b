/**
 * @file
 * Process-level worker runtime (the deployment shape of paper §5): one
 * worker's half of the §4.5 control protocol, driven by wall-clock
 * deadlines over a real transport instead of by the in-process
 * DistributedControlPlane loop.
 *
 * A deployment is a core::TreePlan: leaf (rack) workers 0..N-1, any
 * interior aggregator workers, and the root at the last endpoint, all
 * sharing one peer table (config::WorkerPeers). Control periods are
 * anchored to the table's wall-clock origin: period (epoch) e owns the
 * real-time window [originMs + (e-1)*periodMs, originMs + e*periodMs),
 * so every process agrees on the current epoch from its own clock
 * (NTP-grade agreement is enough; the per-phase deadlines and the
 * epoch field on every frame absorb skew).
 *
 * Each period has an up half and a down half:
 *
 *   leaf:        a LeafRole (rt/leaf.hh), as every WorkerHost leaf is.
 *                Up: advance the plant, send one Metrics frame per
 *                edge and the plant-state Checkpoint. Down: collect
 *                Budgets until the budget deadline or a Rehome, and
 *                close the period with the leaf's §4.5 ladder.
 *   aggregator:  an AggregatorRole, the root included. Up: gather the
 *                children's Metrics or Summaries until the gather
 *                deadline, run the stale -> lost -> floor ladder, and
 *                forward the fragment's Summaries (the root keeps its
 *                boundary). Down: collect the parent's SubBudgets
 *                (the root computes from its root budgets), split
 *                them, and send Budget/SubBudget frames.
 *
 * Sends use blind bounded retransmission: a sender cannot see its
 * receiver's state, so it re-sends on a timer up to maxAttempts and
 * receivers keep the first copy.
 *
 * Supervision: an aggregating worker with leaf children owns an
 * rt::Supervisor (rt/supervisor.hh) for them, at any tier — per-child
 * liveness, restart detection by sequence regression, the checkpoint
 * store (persisted under --state-dir) and Rehome emission. Liveness
 * reaches the allocation through one input, the aggregator's per-epoch
 * child view (AggregatorRole::setChildViews). Recovery is bounded:
 * detection takes at most heartbeatFailAfter periods, replay and ack
 * two more.
 *
 * Membership: the root owns the table (membership/table.hh), its ack
 * book and the two-phase commit gate, and broadcasts each new
 * generation until every affected unit acks it. Every other worker
 * holds a replica; a non-root supervisor reads it and never releases
 * a departed unit's floor (only the root's ack book can).
 *
 * Pacing: Wall mode (daemons, runPeriods()) sleeps to window
 * boundaries and runs a tier-staggered deadline cascade (rt::Cascade):
 * a tier-k receiver's gather closes at window start + k x
 * gatherDeadlineMs, and budgets cascade back down symmetrically.
 * Lockstep mode (chaos harness) hands the schedule to the caller:
 * stepUp() on every worker in ascending endpoint order, then stepDown()
 * tier by tier descending, one explicit epoch at a time over any injected
 * Transport, with single-shot sends, so kill/restart/partition scripts
 * are deterministic.
 *
 * Roles, stamping, framing and routing are the rt::RoleTable's
 * (rt/roles.hh), the one send/receive path WorkerHost runs too. The
 * runtime keeps what differs: the two pacings, retransmission, its
 * supervisor and the root's membership plane. A frame the table hands
 * back from a later epoch is an orphan here: these pacings keep no
 * holdback.
 *
 * Every degraded decision lands in the runtime's EventLog with the
 * epoch as its timestamp, mirroring ClosedLoopSim's audit trail.
 * Observability is the shared rt::Observability (rt/observe.hh), the
 * same plane a WorkerHost owns; the runtime adds only its
 * capmaestro_rt_* and membership series, its supervisor's liveness
 * override of the fleet rollup, and the root's rt.room span.
 */

#ifndef CAPMAESTRO_RT_WORKER_RUNTIME_HH
#define CAPMAESTRO_RT_WORKER_RUNTIME_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
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
#include "rt/supervisor.hh"
#include "util/json.hh"

namespace capmaestro::rt {

/**
 * One worker process's runtime: its role, pacing and retransmission,
 * its supervisor, and (root) the membership plane. Construct with any
 * endpoint of the plan: 0..N-1 for a leaf, the root last.
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
     * @param role      plan endpoint (leaf, aggregator or root)
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

    // ---- Lockstep pacing: the caller drives one epoch as stepUp() on
    // every live worker in ascending endpoint order (leaves, then the
    // aggregators tier by tier, then the root), then stepDown() tier by
    // tier descending. Every send is single-shot.

    /** Lockstep up half: a leaf advances its plant and sends its
     *  Metrics and Checkpoint; an aggregator gathers, closes the
     *  gather and forwards its Summaries (the root keeps them). */
    void stepUp(std::uint32_t epoch);

    /** Lockstep down half: a leaf collects its Budgets (or a Rehome)
     *  and closes its period; an aggregator collects its SubBudgets
     *  (not the root) and sends its split, its Rehomes and (root) the
     *  membership broadcast. */
    void stepDown(std::uint32_t epoch);

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

    /** This worker's supervisor of its leaf children, or nullptr when
     *  it has none. */
    const Supervisor *supervisor() const
    {
        return supervisor_ ? &*supervisor_ : nullptr;
    }

    // ---- membership / elasticity plane (see membership/table.hh).
    // The root owns the table: begin* mutate it, the commit gate runs
    // inside the period loop, and deltas are broadcast until every
    // affected unit acked the current generation. Non-root workers
    // hold a replica, marked absent alike at boot and updated by
    // MembershipDelta frames. A static all-Live table keeps the whole
    // plane idle — no frames, no sequence numbers, no behavioral
    // difference from pre-elasticity builds.

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
     * Before the first period: mark @p endpoint as not yet deployed
     * (Left, since generation 0). At the root no floor is counted and
     * no broadcast targets it; membershipBeginJoin() brings it in
     * later. A replica marked alike (construction does so for the
     * peer table's "absent" list) keeps a supervising parent from
     * declaring the slot dead before a broadcast shows it Joining.
     * The endpoint keeps its slot in the peer table.
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
     * Supervising workers only (supervisor() != nullptr; fatal
     * otherwise): persist the latest checkpoint per leaf child under
     * @p dir and load those a previous instance left there, so a
     * restarted parent can still re-home children that died while it
     * was down (Supervisor::setStateDir).
     */
    void setStateDir(const std::string &dir);

  private:
    using Routed = RoleTable::Routed;
    using Sends = RoleTable::Sends;

    /** What a collect() loop waits for. */
    enum class Until : std::uint8_t
    {
        /** Aggregator: every awaited child station fresh. */
        Gather,
        /** Aggregator: every SubBudget received. Leaf: every edge
         *  budgeted, or a Rehome (its parent withholds budgets from a
         *  re-homing child). */
        Down,
    };

    /** Shared ctor body: validate the pacing schedule and build the
     *  supervisor. */
    void init();

    std::uint32_t epochAt(std::uint64_t unix_ms) const;
    /** Sleep until @p unix_ms, checking stop_; false when stopped. */
    bool sleepUntil(std::uint64_t unix_ms);

    bool isLeaf() const { return role_ < rackCount(); }
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

    /** Wall pacing: one period on the tier-staggered deadline
     *  schedule. */
    void runPeriod(std::uint32_t epoch);

    /** The up half until its sends: a leaf advances and frames its
     *  Metrics and Checkpoint; an aggregator opens the epoch (and its
     *  supervisor's child view), gathers until @p close and frames its
     *  Summaries (none at the root). */
    Sends upFrames(std::uint32_t epoch, double close);
    /** The down half: collect until @p close (not the root); then a
     *  leaf closes its period, and an aggregator sends its split, its
     *  Rehomes and (root) the membership broadcast, which it returns
     *  for retransmission. */
    Sends downHalf(std::uint32_t epoch, double close);
    /** Close the gather (the supervisor's liveness and the root's
     *  commit gate first, then the child view they imply), roll the
     *  outcome up into fleet health, and frame the Summaries. */
    Sends aggCloseGather(std::uint32_t epoch);
    /** The split as Budget/SubBudget frames, plus the Rehomes the
     *  supervisor owes. */
    Sends aggDownFrames(std::uint32_t epoch);
    /** Hand agg() the view its supervisor and membership imply now. */
    void refreshChildViews();

    // ---- membership plane helpers (epoch-free: the generation is the
    // membership clock; frames are accepted regardless of their epoch)
    /** Root: announce @p endpoint Joining (@p join) or Draining. */
    bool announce(std::uint32_t endpoint, bool join);
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

    /** Supervision of this worker's leaf children (none: empty). */
    std::optional<Supervisor> supervisor_;
    /** Root, lockstep: the rt.room span from stepUp() to stepDown(). */
    telemetry::PeriodTracer::SpanId roomSpan_ =
        telemetry::PeriodTracer::kNoSpan;

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
