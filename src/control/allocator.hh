/**
 * @file
 * Fleet-level budget allocation across all control trees, including the
 * stranded-power optimization (paper §4.4).
 *
 * The FleetAllocator runs the global priority-aware capping algorithm on
 * every live (feed, phase) control tree, derives each server's enforceable
 * total cap from its per-supply budgets (the most-constrained supply
 * binds), detects stranded power, and optionally re-runs the allocation
 * with stranded budgets released.
 *
 * It is used both by the large-scale capacity simulations (§6.4), which
 * feed it analytic demands, and by the closed-loop control plane, which
 * feeds it sensor-estimated demands.
 */

#ifndef CAPMAESTRO_CONTROL_ALLOCATOR_HH
#define CAPMAESTRO_CONTROL_ALLOCATOR_HH

#include <functional>
#include <memory>
#include <vector>

#include "control/control_tree.hh"
#include "telemetry/registry.hh"
#include "topology/power_system.hh"
#include "util/units.hh"

namespace capmaestro::ctrl {

/** Per-supply allocation input. */
struct SupplyAllocInput
{
    /** Share of total server AC load on this supply (sums to 1 if live). */
    Fraction share = 0.5;
    /** False when the supply itself has failed. */
    bool live = true;
};

/** Per-server allocation input (AC totals). */
struct ServerAllocInput
{
    Priority priority = 0;
    Watts capMin = 0.0;
    Watts capMax = 0.0;
    /** Uncapped demand at the current workload. */
    Watts demand = 0.0;
    std::vector<SupplyAllocInput> supplies;
};

/** Per-server allocation result. */
struct ServerAllocation
{
    /** Budget per supply (0 for dead supplies / dead feeds). */
    std::vector<Watts> supplyBudget;
    /**
     * Total AC cap the server can actually enforce: the most-constrained
     * supply binds, i.e. min over live supplies of budget / share,
     * clamped to [capMin, capMax].
     */
    Watts enforceableCapAc = 0.0;
    /** Effective demand (demand raised to at least capMin). */
    Watts effectiveDemand = 0.0;
    /** True when the cap bites (enforceableCapAc < effectiveDemand). */
    bool capped = false;
    /** Stranded power detected before SPO (sum over supplies). */
    Watts strandedBeforeSpo = 0.0;
};

/** Result of a full fleet allocation. */
struct FleetAllocation
{
    std::vector<ServerAllocation> servers;
    /** False when any tree could not cover its Pcap_min floors. */
    bool feasible = true;
    /** Number of allocation passes run (2 when SPO triggered). */
    int passes = 1;
    /** Total stranded power reclaimed by SPO across the fleet. */
    Watts strandedReclaimed = 0.0;
};

/**
 * Effective per-supply shares of one server given the live feeds:
 * dead supplies/feeds get zero and the survivors are renormalized.
 * Shared by the FleetAllocator and the distributed message plane so
 * both produce identical leaf inputs.
 */
std::vector<Fraction>
effectiveSupplyShares(const topo::PowerSystem &system,
                      const ServerAllocInput &server,
                      std::int32_t server_id);

/** effectiveSupplyShares() into @p shares, reusing its storage. */
void effectiveSupplyShares(const topo::PowerSystem &system,
                           const ServerAllocInput &server,
                           std::int32_t server_id,
                           std::vector<Fraction> &shares);

/**
 * The leaf input a capping controller reports for one supply carrying
 * share @p r of the server load (paper §4.3.1 level-1 formulas); a
 * non-positive share yields a dead leaf.
 */
LeafInput scaledLeafInput(const ServerAllocInput &server, Fraction r);

/** One §4.4 pinned supply: stranded power detected on a capped server. */
struct SpoPin
{
    /** Leaf to pin (server id + supply index). */
    topo::ServerSupplyRef ref{0, 0};
    /** Tree (indexed like PowerSystem::trees()) owning the leaf. */
    std::size_t tree = 0;
    /** Consumption the supply is pinned to: share x usable total. */
    Watts consumption = 0.0;
    /** Stranded watts the pin releases back to the pool. */
    Watts stranded = 0.0;
    /** Server priority, carried into the pinned leaf input. */
    Priority priority = 0;
};

/**
 * Detect stranded supplies (§4.4): on capped servers, any live supply
 * whose budget exceeds what the binding supply lets the server draw
 * (by more than @p spo_threshold watts) holds stranded power. Pins are
 * returned in deterministic order — servers ascending, supplies
 * ascending — so every consumer accumulates stranded sums in the same
 * float-op order. Shared by the monolithic FleetAllocator and the
 * distributed message plane so both pin identical leaves.
 */
std::vector<SpoPin>
detectStrandedSupplies(const topo::PowerSystem &system,
                       const std::vector<ServerAllocInput> &servers,
                       const std::vector<std::vector<Fraction>> &shares,
                       const FleetAllocation &current,
                       Watts spo_threshold);

/** The leaf input that pins a §4.4 supply to its usable consumption. */
LeafInput pinnedLeafInput(Priority priority, Watts consumption);

/**
 * Record fleet-allocation outcome metrics into @p registry (no-op when
 * nullptr): per-priority granted/denied watts, feasibility, pass count,
 * and SPO reclaimed watts. Shared by the monolithic FleetAllocator and
 * the distributed message plane so both modes export the same series.
 */
void recordAllocationTelemetry(telemetry::Registry *registry,
                               const std::vector<ServerAllocInput> &servers,
                               const FleetAllocation &alloc);

/**
 * Derive per-server enforceable caps from per-supply leaf budgets (the
 * most-constrained supply binds). @p budget_of returns the allocated
 * budget for a supply leaf given its tree index and reference; the
 * caller chooses whether budgets come from monolithic ControlTrees or
 * from the distributed plane.
 */
void deriveServerCapsFrom(
    const topo::PowerSystem &system,
    const std::vector<ServerAllocInput> &servers,
    const std::vector<std::vector<Fraction>> &shares,
    const std::function<Watts(std::size_t tree,
                              const topo::ServerSupplyRef &ref)>
        &budget_of,
    FleetAllocation &out);

/** Fleet-level allocator over a PowerSystem. */
class FleetAllocator
{
  public:
    /**
     * @param system  power system whose trees to control (not owned)
     * @param policy  priority-awareness flags for every tree
     */
    FleetAllocator(const topo::PowerSystem &system, TreePolicy policy);

    /**
     * Run the capping algorithm.
     *
     * @param servers       per-server inputs, indexed by server id matching
     *                      the ServerSupplyRefs in the power system
     * @param root_budgets  root budget per tree (indexed like
     *                      system.trees()); trees on failed feeds are
     *                      skipped regardless
     * @param enable_spo    run the stranded-power optimization second pass
     * @param spo_threshold minimum per-supply stranded watts to act on
     * @param max_passes    total allocation passes allowed: 2 is the
     *                      paper's design (one SPO re-run); higher values
     *                      iterate until no new stranded power appears,
     *                      catching cross-feed chains where reclaiming on
     *                      one feed shifts a server's binding supply and
     *                      strands budget elsewhere
     */
    FleetAllocation allocate(const std::vector<ServerAllocInput> &servers,
                             const std::vector<Watts> &root_budgets,
                             bool enable_spo = true,
                             Watts spo_threshold = 1.0,
                             int max_passes = 2);

    /** Access a control tree (e.g., to read interior node budgets). */
    const ControlTree &tree(std::size_t index) const;

    /** Number of trees. */
    std::size_t treeCount() const { return trees_.size(); }

    /**
     * Attach a metrics registry (nullptr detaches); allocate() then
     * records its outcome via recordAllocationTelemetry().
     */
    void setTelemetry(telemetry::Registry *registry)
    {
        registry_ = registry;
    }

  private:
    const topo::PowerSystem &system_;
    std::vector<std::unique_ptr<ControlTree>> trees_;
    telemetry::Registry *registry_ = nullptr;

    /** Effective per-supply shares for a server given live feeds. */
    std::vector<Fraction>
    effectiveShares(const ServerAllocInput &server,
                    std::int32_t server_id) const;

    void pushLeafInputs(const std::vector<ServerAllocInput> &servers,
                        const std::vector<std::vector<Fraction>> &shares);

    void runPass(const std::vector<Watts> &root_budgets,
                 FleetAllocation &out);

    void deriveServerCaps(const std::vector<ServerAllocInput> &servers,
                          const std::vector<std::vector<Fraction>> &shares,
                          FleetAllocation &out) const;
};

} // namespace capmaestro::ctrl

#endif // CAPMAESTRO_CONTROL_ALLOCATOR_HH
