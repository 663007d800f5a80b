/**
 * @file
 * Physical server model: utilization -> power, capping -> performance,
 * and load distribution across redundant power supplies.
 *
 * Power domains. Per-supply budgets and measurements are *AC* (what the
 * feed-side breakers see); the node-manager cap is *DC* (what the server's
 * internal power controller enforces). DC = efficiency x AC.
 *
 * Power curve. Uncapped ("demand") power follows the calibrated model of
 * Fan et al. (ISCA'07): P(u) = P_idle + (P_max - P_idle)(2u - u^1.4).
 *
 * Throughput under a cap. The paper observes power is linear-or-superlinear
 * in performance (§6.4); we use P = P_idle + (P_demand - P_idle) phi^gamma
 * with gamma ~ 2.7, which reproduces the paper's measured throughput ratios
 * (e.g., 314 W budget / 420 W demand -> 0.82 normalized throughput).
 */

#ifndef CAPMAESTRO_DEVICE_SERVER_HH
#define CAPMAESTRO_DEVICE_SERVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.hh"

namespace capmaestro::dev {

/** Fan et al. (ISCA'07) calibrated activity factor: 2u - u^1.4. */
double fanActivity(Fraction utilization);

/** Server power at @p utilization under the Fan et al. curve. */
Watts fanPower(Watts idle, Watts max, Fraction utilization);

/** Health state of one server power supply. */
enum class SupplyState {
    Ok,      ///< sharing load normally
    Failed,  ///< draws nothing; its share shifts to the survivors
    Standby, ///< hot-spare mode: intentionally idle at light load
};

/** Static configuration of one power supply. */
struct SupplySpec
{
    /**
     * Fraction of total server AC load this supply carries when all
     * supplies are working. Fractions across supplies must sum to ~1.
     * The paper (§3.1) observes intrinsic mismatches up to 65/35.
     */
    Fraction loadShare = 0.5;
    /** AC -> DC conversion efficiency in (0, 1] (flat default). */
    Fraction efficiency = 0.94;
    /**
     * Optional 80 Plus-style load-dependent efficiency: rated output
     * power plus efficiencies at 20 %, 50 %, and 100 % of rating
     * (linearly interpolated, flat outside). Enabled when
     * ratedPower > 0; the flat `efficiency` is used otherwise.
     * Real PSUs peak near half load and sag at the extremes; the PI
     * loop must absorb the resulting AC/DC conversion error.
     */
    Watts ratedPower = 0.0;
    Fraction efficiencyAt20 = 0.90;
    Fraction efficiencyAt50 = 0.94;
    Fraction efficiencyAt100 = 0.91;

    /** Efficiency at @p load_watts of output on this supply. */
    Fraction efficiencyAtLoad(Watts load_watts) const;
};

/** Static configuration of a server. */
struct ServerSpec
{
    std::string name;
    /** AC power at idle (0 % utilization), watts. */
    Watts idle = 160.0;
    /** Minimum enforceable AC cap (full throttle, max workload). */
    Watts capMin = 270.0;
    /** Maximum AC power (no throttle, max workload, max ambient). */
    Watts capMax = 490.0;
    /** Workload priority; higher is more important. */
    Priority priority = 0;
    /** Exponent of the power-vs-performance curve. */
    double gamma = 2.7;
    /** Per-supply configuration (one entry per supply). */
    std::vector<SupplySpec> supplies{{0.5, 0.94}, {0.5, 0.94}};
    /**
     * When true, a redundant supply drops to standby (draws nothing)
     * while total server AC load is below standbyThreshold (§3.1).
     */
    bool hotSpareEnabled = false;
    Watts standbyThreshold = 0.0;
};

/**
 * Dynamic server model.
 *
 * The model is advanced by the simulator: set the workload utilization and
 * the enforced AC cap, then read power, per-supply power, throughput, and
 * the throttle level. All "enforced cap" handling is instantaneous here;
 * actuation latency lives in NodeManager.
 */
class ServerModel
{
  public:
    explicit ServerModel(ServerSpec spec);

    /** Static configuration. */
    const ServerSpec &spec() const { return spec_; }

    /** Set CPU utilization in [0, 1]. */
    void setUtilization(Fraction u);

    /**
     * Change the server's workload priority at runtime (§7: job
     * schedulers communicate dynamic priorities to the power manager;
     * the next control period budgets accordingly).
     */
    void setPriority(Priority priority) { spec_.priority = priority; }

    /** Current utilization. */
    Fraction utilization() const { return utilization_; }

    /**
     * Set the enforced total AC cap. Pass kNoCap for uncapped.
     * Caps below the enforceable floor are clamped to the floor.
     */
    void setEnforcedCapAc(Watts cap);

    /** Sentinel meaning "no cap in force". */
    static constexpr Watts kNoCap = -1.0;

    /** Uncapped AC power demand at the current utilization. */
    Watts demandAc() const { return demandAc_; }

    /** Uncapped AC power demand at utilization @p u (Fan et al. curve). */
    Watts demandAcAt(Fraction u) const;

    /**
     * Lowest AC power reachable by throttling at the current utilization
     * (full throttle applied to the present workload).
     */
    Watts floorAc() const { return floorAc_; }

    /** Actual total AC power drawn right now (demand clipped by the cap). */
    Watts actualAc() const { return actualAc_; }

    /** Actual DC power drawn (actualAc x blended efficiency). */
    Watts actualDc() const;

    /** AC power drawn by supply @p s given states and load shares. */
    Watts supplyAc(std::size_t s) const;

    /**
     * Performance fraction phi in (0, 1]: 1 when uncapped; under a cap,
     * phi = ((P - idle) / (demand - idle))^(1/gamma).
     */
    Fraction performance() const;

    /** Node-manager style throttle level: 1 - performance, in [0, 1). */
    Fraction throttleLevel() const { return 1.0 - performance(); }

    /**
     * Normalized throughput: performance relative to the uncapped run of
     * the same workload. Equals performance() (phi is that ratio).
     */
    Fraction normalizedThroughput() const { return performance(); }

    /** Number of supplies. */
    std::size_t supplyCount() const { return spec_.supplies.size(); }

    /** Health state of supply @p s. */
    SupplyState supplyState(std::size_t s) const;

    /** Fail / restore / park a supply. Failing the last Ok supply
     *  wakes every Standby partner (a hot spare takes over). */
    void setSupplyState(std::size_t s, SupplyState state);

    /** Number of supplies currently in the Ok state (sharing load). */
    std::size_t workingSupplies() const;

    /**
     * Effective share of total AC load on supply @p s right now,
     * renormalized over working supplies (0 for failed/standby).
     */
    Fraction effectiveShare(std::size_t s) const;

    /** Mean AC->DC efficiency weighted by effective shares. */
    Fraction blendedEfficiency() const;

    /** Throttle fraction floor: performance at the capMin operating point. */
    Fraction minPerformance() const { return minPerformance_; }

  private:
    ServerSpec spec_;
    Fraction utilization_ = 0.0;
    Watts enforcedCapAc_ = kNoCap;
    std::vector<SupplyState> states_;

    // Derived power, cached: the plant reads it many times per change.
    // Every mutation of utilization_, enforcedCapAc_ or states_ must be
    // followed by refreshPower(), so the getters stay plain loads.
    Fraction minPerformance_ = 1.0;
    /** minPerformance_^gamma: the demand fraction left at full throttle. */
    double minPerformancePow_ = 1.0;
    Watts demandAc_ = 0.0;
    Watts floorAc_ = 0.0;
    Watts actualAc_ = 0.0;

    void validateSpec() const;
    /** Recompute demandAc_, floorAc_ and actualAc_ from the state. */
    void refreshPower();
    /** Re-evaluate hot-spare standby entry/exit from the current load. */
    void updateStandby();
};

} // namespace capmaestro::dev

#endif // CAPMAESTRO_DEVICE_SERVER_HH
