/**
 * @file
 * CapMaestroService: the control-plane facade (paper §5).
 *
 * The service owns the distributed controller state for one data center:
 * one capping controller per attached server and one FleetAllocator over
 * the power system's control trees. A deployment drives it on two cadences:
 *
 *   - senseTick()        every second: capping controllers read sensors
 *   - runControlPeriod() every control period (default 8 s): controllers
 *     close their periods, leaf metrics flow into the trees, the global
 *     priority-aware algorithm (plus optional SPO) computes budgets, and
 *     the PI loops push new DC caps to the node managers
 *
 * Root budgets per tree are owned by the caller (they encode contractual
 * terms and failover policy); refreshRootBudgets() recomputes the default
 * split, which doubles a surviving feed's share when the other fails.
 */

#ifndef CAPMAESTRO_CORE_SERVICE_HH
#define CAPMAESTRO_CORE_SERVICE_HH

#include <memory>
#include <vector>

#include "control/allocator.hh"
#include "control/capping_controller.hh"
#include "core/distributed.hh"
#include "net/protocol.hh"
#include "net/transport.hh"
#include "net/udp_transport.hh"
#include "policy/policy.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace.hh"
#include "topology/power_system.hh"

namespace capmaestro::core {

/** Service configuration. */
struct ServiceConfig
{
    /** Control period in seconds (paper: 8 s). */
    Seconds controlPeriod = 8;
    /** Power-capping policy. */
    policy::PolicyKind policy = policy::PolicyKind::GlobalPriority;
    /** Run the stranded-power optimization after each allocation. */
    bool enableSpo = true;
    /** Minimum per-supply stranded watts for SPO to act. */
    Watts spoThreshold = 1.0;
    /** Total allocation passes for SPO (2 = the paper's one re-run). */
    int spoPasses = 2;
    /** Per-server controller tunables. */
    ctrl::CappingControllerConfig capping;
    /**
     * Adaptive feed balancing: instead of splitting each phase's
     * contractual budget evenly across live feeds, re-split it every
     * control period proportionally to the demand reported on each
     * feed. This reclaims contractual headroom that a static split
     * strands when supply failures skew load toward one feed (the
     * even split is the paper's configuration; balancing is an
     * extension enabled here).
     * Requires totalPerPhaseBudget > 0.
     */
    bool adaptiveFeedBalance = false;
    /** Contractual budget per phase used by adaptive balancing. */
    Watts totalPerPhaseBudget = 0.0;
    /**
     * Emergency fast path: when a breaker is observed above its
     * continuous limit, run an immediate out-of-cycle control period
     * instead of waiting for the next scheduled one. Shortens the
     * worst-case reaction from (period + actuation) to roughly
     * (sensing + actuation); ablated in bench_ablation A3.
     */
    bool emergencyFastPath = false;
    /** Minimum spacing between emergency periods (sensor warm-up). */
    Seconds emergencyMinSpacing = 2;
    /**
     * Run the control exchange over the simulated message plane: the
     * rack/room workers of the DistributedControlPlane exchange encoded
     * frames (net/wire) through a SimTransport under the §4.5
     * fault-tolerant protocol instead of the in-process FleetAllocator
     * tree walk. The §4.4 stranded-power optimization runs as a second
     * gather/budget round-trip over the same transport. With a lossless
     * zero-latency transport the budgets — including the SPO second
     * pass — are bit-identical to the monolithic path.
     */
    bool useMessagePlane = false;
    /** Which Transport backend carries message-plane frames. */
    enum class TransportBackend {
        /** Deterministic in-process queues, virtual time. */
        Sim,
        /** Real non-blocking UDP sockets, wall-clock time. */
        Udp,
    };
    /**
     * Backend selection (message-plane mode only). Udp binds every
     * endpoint in this process (loopback mode); the protocol's deadline
     * schedule then paces each control period in real wall time.
     */
    TransportBackend transportBackend = TransportBackend::Sim;
    /** Transport fault model (Sim backend only). */
    net::TransportConfig transport;
    /**
     * Socket layout (Udp backend only). Left empty, the service builds
     * a single-process loopback layout with ephemeral ports covering
     * every rack worker plus the room.
     */
    net::UdpConfig udp;
    /** §4.5 protocol tunables (message-plane mode only). */
    net::ProtocolConfig protocol;
};

/** Aggregate per-period statistics for observability. */
struct PeriodStats
{
    /** Allocation outcome of the last control period. */
    ctrl::FleetAllocation allocation;
    /** Sum of per-supply budgets applied, by tree. */
    std::vector<Watts> budgetByTree;
    /** Total estimated demand across the fleet (AC). */
    Watts totalDemandEstimate = 0.0;
    /** Number of control periods run so far. */
    std::size_t periodsRun = 0;
    /** Message accounting + degraded decisions (message-plane mode). */
    MessageStats messages;
};

/** The CapMaestro control-plane service. */
class CapMaestroService
{
  public:
    /**
     * @param system  power system (not owned; must outlive the service)
     * @param config  service tunables
     */
    CapMaestroService(topo::PowerSystem &system, ServiceConfig config = {});

    /**
     * Message-plane mode over @p transport (not owned; must outlive the
     * service) instead of the backend @p config names: a seam for tests
     * that script faults with a decorator such as net::ChaosTransport.
     */
    CapMaestroService(topo::PowerSystem &system, ServiceConfig config,
                      net::Transport &transport);

    /**
     * Attach a server's devices. Servers must be attached in id order
     * (the first call attaches server 0, the next server 1, ...), matching
     * the ServerSupplyRef ids used when building the topology.
     * All references must outlive the service.
     */
    void attachServer(dev::ServerModel &server, dev::NodeManager &nm,
                      dev::SensorEmulator &sensors);

    /** Number of attached servers. */
    std::size_t serverCount() const { return servers_.size(); }

    /**
     * Set the root budget for every tree explicitly (indexed like
     * system.trees()).
     */
    void setRootBudgets(std::vector<Watts> budgets);

    /**
     * Recompute the default root-budget split from @p total_per_phase:
     * each phase's budget is divided evenly among the *live* feeds, so a
     * feed failure automatically routes the full phase budget to the
     * survivor (the N+N sizing rule of §2.1).
     */
    void refreshRootBudgets(Watts total_per_phase);

    /** Current root budgets. */
    const std::vector<Watts> &rootBudgets() const { return rootBudgets_; }

    /** 1 Hz sensing: every capping controller samples its sensors. */
    void senseTick();

    /**
     * Run one full control period: close controller periods, gather and
     * budget across every live tree, run SPO, apply per-supply budgets
     * through the PI loops. Returns the period's stats.
     */
    const PeriodStats &runControlPeriod();

    /** Stats from the most recent control period. */
    const PeriodStats &lastStats() const { return stats_; }

    /** Access a capping controller by server id. */
    ctrl::CappingController &controller(std::size_t server_id);

    /** The allocator (e.g., for reading interior node budgets). */
    const ctrl::FleetAllocator &allocator() const { return *allocator_; }

    /** The message plane, or nullptr outside message-plane mode. */
    DistributedControlPlane *plane() { return plane_.get(); }

    /** The message-plane transport, or nullptr outside that mode. */
    net::Transport *transport() { return transport_; }

    /** Service configuration. */
    const ServiceConfig &config() const { return config_; }

    /**
     * Enable (or, with nullptrs, disable) telemetry across the whole
     * control plane: the service's own period metrics plus every
     * attached capping controller, the allocator, the message plane,
     * and the transport. Servers attached after this call are wired
     * automatically. Registration happens here, once — the
     * per-period instrumentation is plain slot writes, and with
     * telemetry disabled the control path performs no telemetry work
     * at all.
     */
    void enableTelemetry(telemetry::Registry *registry,
                         telemetry::PeriodTracer *tracer);

  private:
    struct AttachedServer
    {
        dev::ServerModel *server;
        dev::NodeManager *nm;
        std::unique_ptr<ctrl::CappingController> controller;
    };

    /** Demand-proportional per-phase budget re-split (extension). */
    void rebalanceRootBudgets(
        const std::vector<ctrl::ServerAllocInput> &inputs);

    /** Run the message plane over @p transport. */
    void startPlane(net::Transport &transport);

    /** One allocation over the message plane (§4.5 protocol). */
    void runPlanePeriod(const std::vector<ctrl::ServerAllocInput> &inputs);

    topo::PowerSystem &system_;
    ServiceConfig config_;
    std::unique_ptr<ctrl::FleetAllocator> allocator_;
    /** The transport built from the config (none when injected). */
    std::unique_ptr<net::Transport> ownedTransport_;
    net::Transport *transport_ = nullptr;
    std::unique_ptr<DistributedControlPlane> plane_;
    std::vector<AttachedServer> servers_;
    std::vector<Watts> rootBudgets_;
    PeriodStats stats_;

    /** Telemetry (null when disabled; handles cached at enable time). */
    telemetry::Registry *registry_ = nullptr;
    telemetry::PeriodTracer *tracer_ = nullptr;
    telemetry::HistogramMetric mPeriodWallMs_;
    telemetry::Counter mPeriods_;
    telemetry::Gauge mFleetDemand_;
    std::vector<telemetry::Gauge> mTreeBudget_;
};

} // namespace capmaestro::core

#endif // CAPMAESTRO_CORE_SERVICE_HH
