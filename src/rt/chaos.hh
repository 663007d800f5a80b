/**
 * @file
 * Deterministic chaos harness for the multi-process worker runtime: a
 * discrete-event simulation of a whole deployment.
 *
 * A LockstepDeployment holds one rt::Engine per process inside one
 * process, all speaking through a single shared Transport wrapped in a
 * ChaosTransport: a WorkerRuntime per plan endpoint (every rack, any
 * aggregators, the root), or WorkerHosts placed by a processOf map.
 * Every engine runs the period the daemons run (Engine::advance(): the
 * tier-staggered rt::Cascade deadlines, retransmission, holdback,
 * catch-up). Each step runs the engine with the earliest wake time,
 * ties in ascending process order, after moving the transport clock to
 * it; on SimTransport that is an instant jump, so a run is a pure
 * function of its inputs. Scripted faults apply at epoch starts:
 *
 *   Kill      — destroy a unit's engine (the process dies mid-flight;
 *               whatever frames it queued stay in the network)
 *   Restart   — construct a fresh engine for the unit (sequence
 *               numbers restart at zero, plant state is lost — exactly
 *               what the checkpoint/Rehome machinery must repair)
 *   Partition — block one endpoint pair symmetrically
 *   Heal      — clear every partition
 *   Stall     — step a unit not at all for a while, as CPU load or a
 *               descheduled process does; its frames queue meanwhile
 *
 * The script comes from a ChaosScheduler: either explicit at() calls
 * or a seeded random kill/restart schedule. Nothing in the harness
 * draws randomness outside the scheduler's Rng, so a given
 * (scenario, backend, faults, seed, script) tuple replays the same
 * epoch-by-epoch trace — on the Sim backend, bit-for-bit (the run log
 * records every applied edge budget as its raw IEEE-754 pattern).
 *
 * Both Transport backends are supported: SimTransport (virtual clock,
 * seeded loss/reorder/duplication — fully deterministic) and a single
 * shared UdpTransport in loopback mode (real sockets, the real kernel
 * and the real clock; deterministic in behavior-level properties, not
 * bits). The period is the scenario's deadline cascade plus one gather
 * window.
 *
 * Once every live unit has closed an epoch (a stalled one does not
 * hold it back), the harness audits the §4.5 safety claim with
 * topo::overloads() from each tree's root budget: no station, edge or
 * interior, may carry more than its derated limit, nor a tree more
 * than its root budget — even while racks are dead, stalled,
 * re-homing, or partitioned. A killed rack counts at its nominal
 * floors. It also tracks recovery time (a rack's Restart to its Live
 * promotion by its parent's supervisor, at any tier) so tests can bound
 * re-homing latency in periods.
 */

#ifndef CAPMAESTRO_RT_CHAOS_HH
#define CAPMAESTRO_RT_CHAOS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/chaos_transport.hh"
#include "net/transport.hh"
#include "net/udp_transport.hh"
#include "rt/host.hh"
#include "rt/worker_runtime.hh"
#include "telemetry/registry.hh"
#include "util/random.hh"

namespace capmaestro::rt {

/**
 * One scripted fault or elasticity action, applied at the start of its
 * epoch: a runtime deployment's window start, or once a host
 * deployment's live units have all closed the epoch before. A unit is
 * a plan endpoint in a runtime deployment and a process in a host
 * deployment. Beyond the fault kinds, the scheduler scripts the
 * membership plane (runtime deployments):
 *
 *   Join      — start the rack runtime for a slot scripted absent via
 *               scriptJoiner() and announce it Joining at the root;
 *               the two-phase adopt (shadow periods, ack, commit) then
 *               runs inside the protocol itself
 *   Drain     — announce a Live rack Draining at the root; once the
 *               rack acks its committed Left state the harness reaps
 *               the runtime (the process exits)
 *   Upgrade   — flip the worker's stamped wire version to the current
 *               one (a rolling upgrade step at a period boundary; the
 *               restart-with-new-binary path is Kill + Restart, which
 *               preserves the slot's scripted version)
 */
struct ChaosEvent
{
    enum class Kind { Kill, Restart, Partition, Heal, Join, Drain,
                      Upgrade, Stall };

    std::uint32_t epoch = 0;
    Kind kind = Kind::Kill;
    /** Unit (Kill/Restart/Upgrade/Stall), rack (Join/Drain), or first
     *  endpoint (Partition). */
    std::uint32_t a = 0;
    /** Second endpoint (Partition), or how long the unit is not
     *  stepped, in transport-clock ms from its epoch's start (Stall). */
    std::uint32_t b = 0;
};

/**
 * Builds a fault script. All randomness in a seeded schedule comes
 * from the scheduler's own Rng, drawn in a fixed order, so equal
 * seeds give equal scripts.
 */
class ChaosScheduler
{
  public:
    explicit ChaosScheduler(std::uint64_t seed) : rng_(seed) {}

    /** Schedule one explicit event. */
    void at(std::uint32_t epoch, ChaosEvent::Kind kind,
            std::uint32_t a = 0, std::uint32_t b = 0);

    /**
     * Append @p kills seeded kill/restart pairs over racks
     * [0, rack_count): each kill lands at a random epoch in
     * [first_epoch, last_epoch], its restart @p down_periods later.
     * Kills of the same rack are spaced far enough apart that the
     * previous re-homing handshake can finish first (so recovery-time
     * accounting stays well-defined).
     */
    void randomKillRestarts(std::size_t rack_count,
                            std::uint32_t first_epoch,
                            std::uint32_t last_epoch,
                            std::size_t kills,
                            std::uint32_t down_periods);

    /** Events scheduled for @p epoch, in scheduling order. */
    std::vector<ChaosEvent> eventsAt(std::uint32_t epoch) const;

    /** Every scheduled event. */
    const std::vector<ChaosEvent> &events() const { return events_; }

  private:
    util::Rng rng_;
    std::vector<ChaosEvent> events_;
};

/** Which Transport backend carries the deployment's frames. */
enum class ChaosBackend { Sim, Udp };

/** What one run() observed. */
struct ChaosRunReport
{
    std::size_t epochsRun = 0;
    /** Stations found over their bound, summed over epochs (0 on a
     *  correct protocol). */
    std::size_t violations = 0;
    /** Stations the online auditors of every unit (killed ones
     *  included) found over their bound during the run, read from the
     *  shared registry: the same predicate per fragment from its grant
     *  (0 on a correct protocol). */
    std::size_t onlineViolations = 0;
    /** Human-readable description of the first violation, if any. */
    std::string firstViolation;
    /** Completed Restart -> Live promotions observed. */
    std::size_t recoveries = 0;
    /** Worst observed recovery latency, in control periods. */
    std::uint32_t maxRecoveryPeriods = 0;
    /** Restarts whose promotion had not completed by the end. */
    std::size_t unrecovered = 0;
    /** Drained racks reaped after acking their committed Left state. */
    std::size_t drained = 0;
    /**
     * One deterministic line per epoch: states, applied edge budgets
     * as raw IEEE-754 bit patterns, and the failover counters summed
     * over the live units.
     * Bit-identical across same-seed runs on the Sim backend.
     */
    std::vector<std::string> log;
};

/** A whole worker deployment in one process, one engine per process,
 *  stepped in transport-clock order. */
class LockstepDeployment
{
  public:
    /**
     * @param scenario_json  scenario document (parsed once per engine
     *                       construction, so restarts get fresh plants)
     * @param backend        Sim (deterministic faults) or Udp (real
     *                       loopback sockets)
     * @param sim_faults     fault model for the Sim backend (ignored
     *                       for Udp); keep the seed fixed for
     *                       reproducible runs
     * @param seed           sensor-noise seed shared by every worker
     * @param agg_levels     aggregation levels of the worker plan
     *                       (empty = the classic 2-level deployment);
     *                       deep plans add interior aggregators, and
     *                       Kill/Restart events may target them
     * @param process_of     empty: one WorkerRuntime per plan endpoint;
     *                       otherwise the peer table's processOf (absent
     *                       endpoints in process 0), one WorkerHost per
     *                       process
     */
    LockstepDeployment(std::string scenario_json, ChaosBackend backend,
                       net::TransportConfig sim_faults,
                       std::uint64_t seed,
                       std::vector<std::uint32_t> agg_levels = {},
                       std::map<std::uint32_t, std::uint32_t> process_of =
                           {});

    ~LockstepDeployment();

    /** The fault script (seeded from the deployment seed). */
    ChaosScheduler &chaos() { return chaos_; }

    /**
     * Script rack @p rack as a late joiner: its runtime is not
     * constructed and every unit marks the slot absent (the root
     * counts no floor and sends no broadcast; its parent supervises
     * nothing there). A Join event later brings it in
     * through the two-phase adopt. Pre-run configuration of a runtime
     * deployment only.
     */
    void scriptJoiner(std::uint32_t rack);

    /**
     * Stamp unit @p unit's frames with wire version @p version
     * (kWireVersion or kWireCompatVersion) — the not-yet-upgraded
     * worker of a rolling upgrade. Applies to the live engine and
     * sticks across Kill/Restart; an Upgrade event flips the unit
     * back to the current version.
     */
    void setWorkerWireVersion(std::uint32_t unit, std::uint8_t version);

    /**
     * Run until every live unit has closed @p epochs more epochs,
     * applying scheduled faults at their epoch starts and auditing
     * safety after every epoch. Reports what was observed since the
     * previous run() (runUntil() steps included).
     */
    ChaosRunReport run(std::uint32_t epochs);

    /**
     * Step every engine due before transport-clock time @p ms, then move
     * the clock to @p ms: a test can slip a frame in at a chosen time.
     */
    void runUntil(double ms);

    /** Transport-clock start of epoch @p epoch's window (a runtime
     *  deployment's schedule; a host deployment free-runs). */
    double epochStartMs(std::uint32_t epoch) const;

    /** Rack runtimes in the deployment. */
    std::size_t rackCount() const { return plan_.leafWorkers; }

    /** The engine of unit @p unit, or nullptr while killed (or not yet
     *  joined, or drained). */
    Engine *engine(std::uint32_t unit) { return units_.at(unit).engine.get(); }

    /** The runtime at plan endpoint @p endpoint, or nullptr while
     *  killed (or not yet joined, or drained), and in a host
     *  deployment. */
    WorkerRuntime *unit(std::uint32_t endpoint);

    /** The room (root) runtime of a runtime deployment; never
     *  killed. */
    WorkerRuntime &room();

    /** Rack runtime @p r, or nullptr while killed. */
    WorkerRuntime *rack(std::size_t r)
    {
        return unit(static_cast<std::uint32_t>(r));
    }

    /** Liveness of rack @p r as its parent's supervisor sees it, or
     *  nullopt when its parent supervises nothing or is killed. */
    std::optional<RackState> rackState(std::size_t r) const;

    /** The worker layout the deployment runs. */
    const core::TreePlan &plan() const { return plan_; }

    /** The partition-capable wrapper every frame passes through. */
    net::ChaosTransport &net() { return *chaosNet_; }

    /** Shared metrics registry all engines report into. */
    telemetry::Registry &registry() { return registry_; }

  private:
    /** One process: its engine and when it must run next. */
    struct Unit
    {
        std::unique_ptr<Engine> engine;
        double wake = 0.0;
        /** A Stall holds the unit until this transport-clock time. */
        double stallUntil = 0.0;
    };

    config::LoadedScenario makeScenario() const;
    /** Construct unit @p unit's engine, due now. */
    void start(std::uint32_t unit);
    /** The unit running plan endpoint @p ep. */
    std::uint32_t unitOf(std::uint32_t ep) const;
    /** The engine running plan endpoint @p ep (nullptr while its unit
     *  is killed). */
    Engine *engineOf(std::uint32_t ep) const
    {
        return units_[unitOf(ep)].engine.get();
    }
    /** Step engines in wake order until epoch @p target is audited or
     *  the next wake is past @p until. */
    void stepUntil(std::uint32_t target, double until);
    void apply(const ChaosEvent &event, std::uint32_t epoch);
    /** Every live, unstalled unit has closed @p epoch. */
    bool closed(std::uint32_t epoch) const;
    /** Reap, track recovery, audit and log epoch @p epoch. */
    void closeEpoch(std::uint32_t epoch);
    /** Audit this epoch's applied watts: one line per station over
     *  its bound (empty when safe). */
    std::vector<std::string> auditSafety() const;
    std::string logLine(std::uint32_t epoch) const;
    /** Safety violations the online auditors counted so far. */
    std::size_t onlineViolations() const;

    std::string scenarioJson_;
    ChaosBackend backend_;
    std::uint64_t seed_;
    /** Harness's own copy of the topology (limits, root budgets). */
    config::LoadedScenario scenario_;
    std::vector<std::uint32_t> aggLevels_;
    core::TreePlan plan_;
    config::WorkerPeers peers_;
    /** WorkerHosts placed by peers_.processOf (else WorkerRuntimes). */
    bool hosts_ = false;

    std::unique_ptr<net::Transport> inner_;
    std::unique_ptr<net::ChaosTransport> chaosNet_;
    telemetry::Registry registry_;

    /** Every unit: plan endpoints (the root last) or processes. */
    std::vector<Unit> units_;

    ChaosScheduler chaos_;
    /** The first epoch not yet audited. */
    std::uint32_t nextEpoch_ = 1;
    /** The last epoch whose faults were applied. */
    std::uint32_t faultsApplied_ = 0;
    /** What the audits found since the last run() returned. */
    ChaosRunReport report_;
    /** onlineViolations() when the last run() returned. */
    std::size_t onlineMark_ = 0;
    /** (tree, edge) -> nominal Pcap_min floor (nominalEdgeFloors). */
    std::map<std::pair<std::size_t, topo::NodeId>, Watts> floors_;
    /** Racks killed and not restarted: they ride their floors. */
    std::set<std::size_t> killed_;
    /** Rack -> epoch of its pending Restart (recovery tracking). */
    std::map<std::size_t, std::uint32_t> pendingRecovery_;
    /** Unit -> stamped wire version (absent = current). */
    std::map<std::uint32_t, std::uint8_t> wireVersionOf_;
};

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_CHAOS_HH
