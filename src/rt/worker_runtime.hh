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
 * The period: window starts come from one mapping of the peer table's
 * originMs onto the transport clock (runPeriods() maps an owned UDP
 * clock from the wall clock; an injected transport's clock is read as
 * the table's own). advance() waits for the window start, then runs
 * the phases of one resumable period on the tier-staggered deadline
 * cascade (rt::Cascade), anchored where the period began: a tier-k
 * receiver's gather closes at start + k x gatherDeadlineMs, and
 * budgets cascade back down symmetrically. A phase closes on
 * completeness or on its deadline, receives are polled every
 * kPollSliceMs, and a period that overran its window skips to the
 * next one not yet begun. The daemon paces it on real time and
 * rt::LockstepDeployment on virtual time, so every chaos test runs
 * the schedule the daemons run.
 *
 * Roles, stamping, framing and routing are the rt::RoleTable's
 * (rt/roles.hh), the one send/receive path WorkerHost runs too, and
 * what both engines own and show is their rt::Engine base
 * (rt/engine.hh). The runtime keeps what differs: its period,
 * retransmission and its supervisor. A frame the table hands back
 * from a later epoch is an orphan here: the runtime keeps no holdback.
 * A unit committed Left stops once that period closes.
 *
 * Every degraded decision lands in the runtime's EventLog with the
 * epoch as its timestamp, mirroring ClosedLoopSim's audit trail.
 * Observability is the shared rt::Observability (rt/observe.hh), the
 * same plane a WorkerHost owns; the runtime adds only its
 * capmaestro_rt_* and membership counters and its supervisor's
 * liveness override of the fleet rollup.
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
 * One worker process's runtime: its role, period and retransmission,
 * and its supervisor. Construct with any
 * endpoint of the plan: 0..N-1 for a leaf, the root last.
 */
class WorkerRuntime : public Engine
{
  public:
    /**
     * Runtime over an internally owned UdpTransport (the daemon
     * shape).
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
     * runtime), whose clock reads the peer table's originMs at epoch
     * 1's window start.
     */
    WorkerRuntime(config::LoadedScenario scenario,
                  config::WorkerPeers peers, std::uint32_t role,
                  std::uint64_t seed, net::Transport &transport);

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

    double advance(double now) override;

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

    /** /healthz document (role, tier, epoch, stats, membership; fleet
     *  and safety on aggregating roles). */
    util::Json healthJson() const override;

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

    /** Where the open period stands. */
    enum class Phase : std::uint8_t
    {
        /** Between periods: waiting for the next window start. */
        Idle,
        /** Aggregator: gathering until every awaited child station is
         *  fresh or the gather deadline. */
        Gather,
        /** Collecting until the down deadline: an aggregator every
         *  SubBudget (the root none), a leaf every edge's Budget or a
         *  Rehome (its parent withholds budgets from a re-homing
         *  child). */
        Down,
        /** Phases closed; the period ends with its last
         *  retransmission. */
        Tail,
    };

    /** A batch under blind bounded retransmission: re-sent every
     *  retryTimeoutMs after @p sentAt, up to maxAttempts sends, while
     *  before @p until (no ACK channel exists; receivers dedup). */
    struct Resend
    {
        Sends batch;
        double sentAt = 0.0;
        int sends = 1;
        double until = 0.0;
    };

    /** Validate the schedule and build the supervisor. */
    void init();
    void mapClock() override;

    /** Epoch whose window holds transport-clock time @p ms (0 before
     *  epoch 1). */
    std::uint32_t epochAt(double ms) const;
    /** Transport-clock start of epoch @p epoch's window. */
    double windowStart(std::uint32_t epoch) const;

    bool isLeaf() const { return role_ < rackCount(); }
    RoleTable::Leaf &leafSlot() { return roles_.leaves().front(); }
    RoleTable::Aggregator &aggSlot() { return roles_.aggregators().front(); }
    AggregatorRole &agg() { return aggSlot().role; }
    /** The plan parent (leaf and aggregator roles). */
    std::uint32_t parentEp() const { return plan().workers[role_].parent; }

    /** Send every frame of @p batch once (copied: it may be resent). */
    void sendAll(const Sends &batch);
    /** Send @p batch at @p now and retransmit it until @p until. */
    void sendWithRetry(Sends batch, double now, double until);
    /** Open @p epoch at @p now: a leaf advances and sends its Metrics
     *  and Checkpoint; an aggregator opens the epoch (and its
     *  supervisor's child view) and gathers. */
    void begin(std::uint32_t epoch, double now);
    /** Take every due frame into the RoleTable and act on what it hands
     *  back; true when a leaf took a Rehome. */
    bool receive();
    /** Close the gather (the supervisor's liveness, then the root's
     *  commit gate and the child view both imply), roll the outcome up
     *  into fleet health, and frame the Summaries. */
    Sends aggCloseGather();
    /** Close the down phase: a leaf closes its period; an aggregator
     *  sends its split and its Rehomes, retransmitted until its
     *  children's down deadline, and (root) the membership broadcast
     *  once. */
    void closeDown(double now);

    std::uint32_t role_ = 0;
    /** Supervision of this worker's leaf children (none: empty). */
    std::optional<Supervisor> supervisor_;
    /** Transport-clock start of epoch 1's window. */
    double originMs_ = 0.0;
    Phase phase_ = Phase::Idle;
    /** The open period's batches under retransmission. */
    std::vector<Resend> resends_;
    /** capmaestro_rt_degraded_racks (a no-op handle while
     *  detached). */
    telemetry::Gauge deadRacks_;
};

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_WORKER_RUNTIME_HH
