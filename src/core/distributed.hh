/**
 * @file
 * Distributed execution of the capping algorithm across worker VMs
 * (paper §5): rack-level workers own the edge (CDU-level) shifting
 * controllers and the capping controllers beneath them; a room-level
 * worker owns everything above (RPPs, transformers, contractual roots).
 *
 * The two tiers exchange encoded metric/budget frames (net/wire) over
 * any net::Transport, and the plane runs the §4.5 fault-tolerant
 * control-period protocol:
 *
 *   - bounded retransmission against per-phase deadlines,
 *   - stale-metric reuse (with an age cap) when an edge's metrics miss
 *     the gathering deadline, then no metrics at all (metrics lost):
 *     the edge enters the room's merge as its Pcap_min default and
 *     gets no budget,
 *   - conservative Pcap_min-level default budgets when a budget
 *     message is lost (or withheld).
 *
 * One exchange (distributed.cc) runs all four phases (gather, budget
 * and the two §4.4 SPO phases) with one set of receive checks: the
 * frame decodes, carries this epoch and the phase's type, comes from
 * the edge's owner, and its payload is finite.
 *
 * Under a lossless zero-latency transport the protocol sends every
 * summary and budget verbatim, so budgets are bit-identical to the
 * monolithic tree (proven by test). Degraded-mode decisions are
 * reported per iteration in MessageStats so callers (e.g.,
 * ClosedLoopSim) can log them. Deep plans, worker death and recovery
 * are the deployable runtime's concern (rt::WorkerHost and
 * rt::WorkerRuntime, whose aggregators run RoomWorker fragments cut at
 * core::TreePlan stations); this plane has no failover of its own.
 *
 * Partitioning rule: within each (feed, phase) tree, the i-th leaf-parent
 * node (in pre-order) belongs to rack worker i. Structurally parallel
 * trees — like the Table 4 center, where rack i's CDU is the i-th CDU of
 * every tree — therefore map each rack's controllers to one worker.
 */

#ifndef CAPMAESTRO_CORE_DISTRIBUTED_HH
#define CAPMAESTRO_CORE_DISTRIBUTED_HH

#include <map>
#include <set>
#include <vector>

#include "control/allocator.hh"
#include "control/control_tree.hh"
#include "control/metrics.hh"
#include "net/protocol.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace.hh"
#include "topology/power_system.hh"

namespace capmaestro::core {

/** A degraded-mode (§4.5) decision the protocol took. */
enum class DegradedKind {
    /** Metrics missed the deadline; a cached summary was reused. */
    StaleMetricsReused,
    /** Metrics missed the deadline and the cache was too old. */
    MetricsLost,
    /** A budget message was lost; the edge fell back to Pcap_min. */
    DefaultBudgetApplied,
    /**
     * A tree's §4.4 SPO round missed a deadline; the tree kept its
     * first-pass budgets wholesale (value: 1 = gather phase, 2 =
     * budget phase).
     */
    SpoFallback,
};

/** Name of a DegradedKind (event/log rendering). */
const char *degradedKindName(DegradedKind kind);

/** One degraded-mode decision. */
struct DegradedDecision
{
    DegradedKind kind = DegradedKind::StaleMetricsReused;
    /** Tree index. */
    std::size_t tree = 0;
    /** Edge node concerned (kNoNode for SpoFallback). */
    topo::NodeId node = topo::kNoNode;
    /** Rack worker concerned. */
    std::size_t rack = 0;
    /**
     * Kind-specific magnitude: stale age in periods, default budget in
     * watts, or the SPO phase that missed its deadline.
     */
    double value = 0.0;
};

/** Message-exchange accounting for one distributed iteration. */
struct MessageStats
{
    /** Rack -> room metric messages (logical, excluding retries). */
    std::size_t metricsMessages = 0;
    /** Room -> rack budget messages (logical, excluding retries). */
    std::size_t budgetMessages = 0;
    /** Total priority classes serialized upstream (payload proxy). */
    std::size_t metricClassesSent = 0;
    /** Retransmissions across both phases. */
    std::size_t retries = 0;
    /** Real encoded payload bytes submitted to the transport. */
    std::size_t bytesOnWire = 0;
    /** Edges that fell back to a cached metric summary. */
    std::size_t staleReuses = 0;
    /** Edges whose metrics were unusable (lost, cache expired). */
    std::size_t metricsLost = 0;
    /** Edges that applied the conservative Pcap_min default budget. */
    std::size_t defaultBudgets = 0;
    /** Frames discarded for carrying an old epoch (orphans). */
    std::size_t orphanFrames = 0;
    /** Frames that failed to decode (corruption). */
    std::size_t corruptFrames = 0;
    /** §4.4 SPO rounds run this period (0 when nothing was pinned). */
    std::size_t spoRounds = 0;
    /** Rack -> room pinned-summary messages (logical, no retries). */
    std::size_t spoSummaryMessages = 0;
    /** Room -> rack second-pass budget messages (logical, no retries). */
    std::size_t spoBudgetMessages = 0;
    /** Retransmissions across both SPO phases. */
    std::size_t spoRetries = 0;
    /** Trees that entered an SPO round (had at least one pin). */
    std::size_t spoTreesAttempted = 0;
    /** Trees whose SPO round-trip completed and committed atomically. */
    std::size_t spoCommittedTrees = 0;
    /** Trees that fell back wholesale to their first-pass budgets. */
    std::size_t spoFallbackTrees = 0;
    /** Encoded SPO bytes submitted to the transport (also in bytesOnWire). */
    std::size_t spoBytesOnWire = 0;
    /** Every degraded-mode decision, in the order it was taken. */
    std::vector<DegradedDecision> degraded;
};

/**
 * A rack-level worker: owns the edge (leaf-parent) shifting controllers
 * the partitioning rule gives it, at most one per tree, and the supply
 * leaves beneath them.
 */
class RackWorker
{
  public:
    /** One owned edge controller and its leaf state. */
    struct Edge
    {
        std::size_t tree = 0;
        topo::NodeId node = topo::kNoNode;
        /** Leaf refs in child order. */
        std::vector<topo::ServerSupplyRef> leaves;
        std::vector<ctrl::LeafInput> inputs;
        std::vector<ctrl::NodeMetrics> leafMetrics;
        std::vector<Watts> leafBudgets;
    };

    /**
     * @param system  power system (not owned)
     * @param policy  priority flags (same semantics as ControlTree)
     */
    RackWorker(const topo::PowerSystem &system, ctrl::TreePolicy policy);

    /** Take ownership of the edge controller at (@p tree, @p node). */
    void addEdge(std::size_t tree, topo::NodeId node);

    /** Owned edges. */
    const std::vector<Edge> &edges() const { return edges_; }

    /**
     * Set a supply leaf's metrics (must live under this worker). A
     * non-finite @p input is refused (false): the leaf keeps its last.
     */
    bool setLeafInput(std::size_t tree, const topo::ServerSupplyRef &ref,
                      const ctrl::LeafInput &input);

    /**
     * Compute the edge controller's upstream metrics for (@p tree,
     * @p node) into @p out, reusing its storage — the rack's half of
     * the metrics-gathering phase.
     */
    void computeMetrics(std::size_t tree, topo::NodeId node,
                        ctrl::NodeMetrics &out);

    /**
     * Accept the edge controller's budget and split it over the edge's
     * supply leaves (the rack's half of the budgeting phase).
     */
    void applyBudget(std::size_t tree, topo::NodeId node, Watts budget);

    /**
     * The §4.5 conservative fallback budget for an edge: the sum of
     * its live leaves' Pcap_min floors, clamped to the device limit.
     * Safe by construction — never exceeds what any feasible
     * allocation owes the edge.
     */
    Watts defaultBudget(std::size_t tree, topo::NodeId node) const;

    /** Budget of one supply leaf after applyBudget(). */
    Watts leafBudget(std::size_t tree,
                     const topo::ServerSupplyRef &ref) const;

  private:
    const topo::PowerSystem &system_;
    ctrl::TreePolicy policy_;
    std::vector<Edge> edges_;

    Edge &findEdge(std::size_t tree, topo::NodeId node);
    const Edge &findEdge(std::size_t tree, topo::NodeId node) const;
    void refreshLeafMetrics(Edge &edge);
};

/**
 * An upper-tier worker: runs the shifting controllers of one connected
 * tree fragment per tree, consuming metric messages from the stations
 * directly below the fragment and producing budget messages for them.
 * The room worker is the fragment from each tree root down to the edge
 * (leaf-parent) nodes; a deep plan's aggregator worker is the same
 * machinery cut at interior stations (core::TreePlan), gathering its
 * children's summaries into one summary for its own top station and
 * splitting its received budget back down. Because gatherMetrics /
 * budgetChildren are associative, chaining fragments over a lossless
 * exchange reproduces the monolithic recursion bit-exactly at any
 * depth. The worker addresses boundary stations by their topology node
 * id and is oblivious to which worker owns them — ownership is the
 * control plane's concern.
 */
class RoomWorker
{
  public:
    /**
     * Per tree, the fragment from the top station @p tops (kNoNode =
     * no fragment in that tree; the tree root for a room or root
     * worker, see core::TreePlan::topsOf()) down to @p boundaries.
     *
     * @param system      power system (not owned)
     * @param tops        per tree: the fragment's top station
     * @param boundaries  per tree: where the fragment cuts off (the
     *                    stations of the worker's children)
     * @param policy      priority flags
     */
    RoomWorker(const topo::PowerSystem &system,
               const std::vector<topo::NodeId> &tops,
               const std::vector<std::set<topo::NodeId>> &boundaries,
               ctrl::TreePolicy policy);

    /** Per tree: the boundary stations beneath the fragment top,
     *  ascending (empty for a tree without a fragment). */
    const std::vector<topo::NodeId> &boundary(std::size_t tree) const
    {
        return frags_.at(tree).boundary;
    }

    /**
     * The metrics of boundary station @p i of @p tree (an index into
     * boundary(@p tree)) that the next gather() reads. The caller
     * writes it in place; it keeps its value until written again.
     */
    ctrl::NodeMetrics &boundaryMetrics(std::size_t tree, std::size_t i);

    /**
     * Gather half of one iteration for @p tree: merge the boundary
     * metrics up to the fragment top and return the top's summary (the
     * message an aggregator forwards to its parent; valid until the
     * next gather() of @p tree). Interior summaries are kept for
     * split(). Allocates nothing once warm.
     */
    const ctrl::NodeMetrics &gather(std::size_t tree);

    /**
     * Budget half: split @p top_budget (the parent's grant for the
     * fragment top, clamped to the top's own limit) back down to the
     * boundary stations, using the summaries of the last gather() of
     * this tree. Returns the budget per boundary station, aligned with
     * boundary(@p tree) (valid until the next split() of @p tree).
     */
    const std::vector<Watts> &split(std::size_t tree, Watts top_budget);

  private:
    /** One tree's fragment, laid out once at construction. */
    struct Fragment
    {
        /** Fragment stations in breadth-first order from the top, so
         *  each interior station's children are contiguous. */
        struct Station
        {
            topo::NodeId node = topo::kNoNode;
            /** Interior: its children's first index and count. */
            std::uint32_t first = 0;
            std::uint32_t count = 0;
            /** A boundary station (its metrics are an input). */
            bool boundary = false;
        };
        bool present = false;
        std::vector<Station> stations;
        /** Per station: the boundary input, else its last summary. */
        std::vector<ctrl::NodeMetrics> metrics;
        /** Per station: its share of the last split. */
        std::vector<Watts> budgets;
        /** Boundary stations ascending, their station index, and the
         *  budget the last split gave each. */
        std::vector<topo::NodeId> boundary;
        std::vector<std::uint32_t> boundaryStation;
        std::vector<Watts> boundaryBudgets;
    };

    void layOut(std::size_t tree, topo::NodeId top,
                const std::set<topo::NodeId> &boundary);
    Fragment &fragment(std::size_t tree);

    const topo::PowerSystem &system_;
    ctrl::TreePolicy policy_;
    std::vector<Fragment> frags_;
    /** split()'s per-station working split, reused. */
    ctrl::BudgetSplit split_;
};

/**
 * The in-process control plane: builds the partition, routes messages,
 * and runs complete iterations of the 2-level §4.5 protocol (with the
 * §4.4 SPO round) over the given transport. On a lossless transport
 * budgets are bit-identical to a monolithic ControlTree with the same
 * policy. This is what ClosedLoopSim and CapMaestroService run.
 */
class DistributedControlPlane
{
  public:
    /**
     * Frames travel over @p transport (not owned; must outlive the
     * plane) under the §4.5 protocol @p protocol. Any Transport backend
     * works — SimTransport for deterministic simulation, UdpTransport
     * for real sockets (where advanceTo() paces the protocol's deadline
     * schedule in wall time). Deep message planes are the deployable
     * runtimes' (rt::WorkerHost, rt::WorkerRuntime).
     */
    DistributedControlPlane(const topo::PowerSystem &system,
                            ctrl::TreePolicy policy,
                            net::Transport &transport,
                            net::ProtocolConfig protocol = {});

    /** Number of rack workers discovered by the partitioning rule. */
    std::size_t rackWorkerCount() const { return racks_.size(); }

    /**
     * The partitioning rule, exposed for out-of-process runtimes
     * (src/rt) that must agree with the in-process plane on worker
     * membership: per rack worker, the (tree -> edge node) map of the
     * edges it initially owns.
     */
    static std::vector<std::map<std::size_t, topo::NodeId>>
    partitionEdges(const topo::PowerSystem &system);

    /** Rack workers the partitioning rule yields for @p system. */
    static std::size_t rackWorkerCountFor(const topo::PowerSystem &system);

    /** Set a supply leaf's metrics (routed to its rack worker); false
     *  when the rack refuses a non-finite @p input. */
    bool setLeafInput(const topo::ServerSupplyRef &ref,
                      const ctrl::LeafInput &input);

    /**
     * Run one full distributed iteration (gather + budget on every tree
     * whose feed is up) and return the message statistics.
     */
    MessageStats iterate(const std::vector<Watts> &root_budgets);

    /**
     * Run one §4.4 stranded-power round after iterate(): pin the given
     * supplies to their usable consumption, gather fresh summaries from
     * the affected edges, and re-budget every tree that holds a pin.
     * Non-pinned edges reuse their first-phase metrics (recomputing
     * them would be bit-identical — leaf inputs are unchanged), and
     * trees without pins are skipped entirely, so on a lossless
     * transport the result is bit-identical to the monolithic
     * FleetAllocator second pass.
     *
     * The round is atomic per tree: racks buffer second-pass budgets
     * without applying them, and at the SPO budget deadline each
     * attempted tree either commits (every edge applies its new
     * budget) or rolls back wholesale to its first-pass budgets —
     * never a mix of the two passes. Counters and degraded decisions
     * accumulate into @p stats.
     *
     * @return indices of the trees that committed second-pass budgets
     */
    std::set<std::size_t> iterateSpo(const std::vector<Watts> &root_budgets,
                                     const std::vector<ctrl::SpoPin> &pins,
                                     MessageStats &stats);

    /** Supply-leaf budget after iterate(). */
    Watts leafBudget(const topo::ServerSupplyRef &ref) const;

    /** Control-period counter. */
    std::uint32_t epoch() const { return epoch_; }

    /**
     * Attach telemetry (either pointer may be nullptr). The registry
     * receives one cumulative counter per exported MessageStats field
     * (the kPlaneCounters table) — MessageStats remains the
     * per-iteration snapshot view; the counters are its running sums.
     * The tracer receives phase spans (gather/budget,
     * spo.gather/spo.budget) for every iteration that
     * runs inside an open period. Instrumentation is pure observation:
     * it never changes what the protocol computes or transmits.
     */
    void setTelemetry(telemetry::Registry *registry,
                      telemetry::PeriodTracer *tracer);

  private:
    /** Room's cache of the last received metrics per edge. */
    struct CachedMetrics
    {
        ctrl::NodeMetrics metrics;
        std::uint32_t epoch = 0;
    };

    const topo::PowerSystem &system_;
    ctrl::TreePolicy policy_;
    std::vector<RackWorker> racks_;
    /** The root fragment: every tree from its root to its edges. */
    RoomWorker room_;
    /** (server, supply) -> (tree, edge node) of the edge above it. */
    std::map<std::pair<std::int32_t, std::int32_t>,
             std::pair<std::size_t, topo::NodeId>>
        leafEdge_;
    /** (tree, edge node) -> owning rack worker. */
    std::map<std::pair<std::size_t, topo::NodeId>, std::size_t>
        edgeOwner_;

    // -------- message-plane state
    net::Transport &transport_;
    net::ProtocolConfig protocol_;
    std::uint32_t epoch_ = 0;
    std::vector<std::uint32_t> rackSeq_;
    std::uint32_t roomSeq_ = 0;
    std::map<std::pair<std::size_t, topo::NodeId>, CachedMetrics>
        metricCache_;
    /**
     * Edge metrics the room used in the last iterate() (per tree), the
     * base the SPO round overlays pinned summaries onto. Never fed from
     * pinned summaries, and distinct from metricCache_ so the SPO round
     * cannot pollute the §4.5 stale-metric fallback.
     */
    std::vector<std::map<topo::NodeId, ctrl::NodeMetrics>>
        lastTreeMetrics_;

    // -------- telemetry (null when disabled; handles cached once)
    telemetry::Registry *registry_ = nullptr;
    telemetry::PeriodTracer *tracer_ = nullptr;
    /** One handle per kPlaneCounters entry (distributed.cc), in
     *  table order. */
    std::vector<telemetry::Counter> counters_;
    telemetry::Counter degradedCounter_;
    telemetry::Gauge epochGauge_;

    /** Add what @p after holds beyond @p before to the counters. */
    void record(const MessageStats &before, const MessageStats &after);

    /** The edge a supply leaf hangs from (panics on an unknown one). */
    const std::pair<std::size_t, topo::NodeId> &
    edgeOfLeaf(const topo::ServerSupplyRef &ref) const;
    /** The room's budgets for @p tree's edges in @p view; the others
     *  enter the merge as their Pcap_min floors and get none. */
    std::vector<net::BudgetMsg>
    split(std::size_t tree,
          const std::map<topo::NodeId, ctrl::NodeMetrics> &view,
          Watts root_budget);
    /** Affected edges per attempted tree (edges holding >= 1 pin). */
    std::map<std::size_t, std::set<topo::NodeId>>
    pinnedEdges(const std::vector<ctrl::SpoPin> &pins) const;
};

} // namespace capmaestro::core

#endif // CAPMAESTRO_CORE_DISTRIBUTED_HH
