/**
 * @file
 * Process-level worker runtime (the deployment shape of paper §5): one
 * worker's half of the §4.5 control protocol, driven by wall-clock
 * deadlines over a real transport. Where core::DistributedControlPlane
 * runs a whole 2-level plane in one loop, each runtime runs one role
 * (rt::LeafRole or rt::AggregatorRole) of a plan of any depth.
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
 * Membership is the RoleTable's rt::MembershipPlane
 * (rt/membership_plane.hh), as in every WorkerHost: the root's table
 * of record, its ack book, commit gate and broadcast, a replica
 * elsewhere, and the child views membership implies. The runtime runs
 * the gate at the root's gather close, sends the broadcast once after
 * the root's split, and overlays its supervisor's liveness on the
 * views; callers drive membership() directly.
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
 * (rt/roles.hh), the one send/receive path WorkerHost runs too, and
 * what both engines own and show is their rt::Engine base
 * (rt/engine.hh). The runtime keeps what differs: the two pacings,
 * retransmission and its supervisor. A frame the table hands
 * back from a later epoch is an orphan here: these pacings keep no
 * holdback.
 *
 * Every degraded decision lands in the runtime's EventLog with the
 * epoch as its timestamp, mirroring ClosedLoopSim's audit trail.
 * Observability is the shared rt::Observability (rt/observe.hh), the
 * same plane a WorkerHost owns; the runtime adds only its
 * capmaestro_rt_* and membership counters, its supervisor's liveness
 * override of the fleet rollup, and the root's rt.room span.
 */

#ifndef CAPMAESTRO_RT_WORKER_RUNTIME_HH
#define CAPMAESTRO_RT_WORKER_RUNTIME_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/loader.hh"
#include "core/events.hh"
#include "core/tree_plan.hh"
#include "net/wire.hh"
#include "rt/aggregator.hh"
#include "rt/engine.hh"
#include "rt/roles.hh"
#include "rt/stats.hh"
#include "rt/supervisor.hh"
#include "util/json.hh"

namespace capmaestro::rt {

/**
 * One worker process's runtime: its role, pacing and retransmission,
 * and its supervisor. Construct with any
 * endpoint of the plan: 0..N-1 for a leaf, the root last.
 */
class WorkerRuntime : public Engine
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

    /** True when this runtime drives the room (tree-root) worker. */
    bool isRoom() const { return role_ == plan().rootEndpoint(); }

    /** True when this runtime drives an interior aggregator worker. */
    bool isAggregator() const { return !isLeaf() && !isRoom(); }

    /** Leaf (rack) workers in the deployment; aggregators and the root
     *  occupy the endpoints above them (see core::TreePlan). */
    std::size_t rackCount() const { return plan().leafWorkers; }

    /** "room", "aggN", or "rackN" — log labels. */
    std::string roleName() const;

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
     * Rack only: per-supply AC budgets applied to server @p server_id
     * in the last period (empty before the first period or when the
     * server is not homed on this rack).
     */
    std::vector<Watts> lastServerBudgets(std::size_t server_id) const;

    /** This worker's supervisor of its leaf children, or nullptr when
     *  it has none. */
    const Supervisor *supervisor() const
    {
        return supervisor_ ? &*supervisor_ : nullptr;
    }

    /** The table's generation (1 = static deployment). */
    std::uint32_t membershipGeneration() const
    {
        return roles_.membership().generation();
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

    /** The /healthz document (valid any time). */
    util::Json healthJson() const;

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
     *  leaf closes its period, and an aggregator sends its split and
     *  its Rehomes, which it returns for retransmission, and (root) the
     *  membership broadcast once. */
    Sends downHalf(std::uint32_t epoch, double close);
    /** Close the gather (the supervisor's liveness, then the root's
     *  commit gate and the child view both imply), roll the outcome up
     *  into fleet health, and frame the Summaries. */
    Sends aggCloseGather(std::uint32_t epoch);
    /** The split as Budget/SubBudget frames, plus the Rehomes the
     *  supervisor owes. */
    Sends aggDownFrames(std::uint32_t epoch);

    std::uint32_t role_ = 0;
    Pacing pacing_ = Pacing::Wall;
    /** Supervision of this worker's leaf children (none: empty). */
    std::optional<Supervisor> supervisor_;
    /** Root, lockstep: the rt.room span from stepUp() to stepDown(). */
    telemetry::PeriodTracer::SpanId roomSpan_ =
        telemetry::PeriodTracer::kNoSpan;
    /** capmaestro_rt_degraded_racks (a no-op handle while
     *  detached). */
    telemetry::Gauge deadRacks_;
};

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_WORKER_RUNTIME_HH
