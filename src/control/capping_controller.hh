/**
 * @file
 * The per-server capping controller (paper §4.2, Figure 4).
 *
 * Closed loop, once per control period (default 8 s):
 *
 *   1. Average the 1 Hz sensor readings taken during the period.
 *   2. error_s = budget_s - measured_s for every working supply;
 *      e = min_s error_s            (most conservative correction)
 *   3. e_dc = e x k x M             (AC->DC via supply efficiency k,
 *                                    scaled by working-supply count M)
 *   4. integrator += e_dc; clip to [Pcap_min_dc, Pcap_max_dc];
 *      send to the node manager.
 *
 * The controller also produces the per-supply metrics (LeafInput) the
 * shifting controllers consume, using the measured load split r-hat and a
 * regression-based demand estimate (§5).
 */

#ifndef CAPMAESTRO_CONTROL_CAPPING_CONTROLLER_HH
#define CAPMAESTRO_CONTROL_CAPPING_CONTROLLER_HH

#include <vector>

#include "control/control_tree.hh"
#include "control/demand_estimator.hh"
#include "device/node_manager.hh"
#include "device/sensor.hh"
#include "device/server.hh"
#include "telemetry/registry.hh"
#include "util/units.hh"

namespace capmaestro::ctrl {

/** Tunables for the capping controller. */
struct CappingControllerConfig
{
    /** Loop gain multiplier on the integrator update (1.0 = paper). */
    double gain = 1.0;
    /** EWMA weight for the measured load-split estimate r-hat. */
    double shareSmoothing = 0.5;
    DemandEstimatorConfig estimator;
};

/** Per-control-period summary the controller reports upstream. */
struct ServerPeriodReport
{
    /** Average AC power per supply over the period. */
    std::vector<Watts> supplyAvgAc;
    /** Average throttle level over the period. */
    double avgThrottle = 0.0;
    /** Estimated uncapped AC demand (total server). */
    Watts demandEstimate = 0.0;
    /** Estimated load split r-hat per supply (sums to 1 over working). */
    std::vector<Fraction> shares;
    /** Number of working supplies M. */
    std::size_t workingSupplies = 0;
};

/**
 * Checkpointable cross-period state of a CappingController: everything
 * that must survive a process restart for the control loop to resume
 * where it left off (the period accumulators deliberately excluded —
 * they re-warm within one period).
 */
struct CappingControllerState
{
    /** Integrator value (the desired DC cap when primed). */
    Watts integratorDc = 0.0;
    bool integratorPrimed = false;
    /** Last closed period's report (shares re-seed the r-hat EWMA). */
    ServerPeriodReport report;
};

/** Closed-loop capping controller for one server. */
class CappingController
{
  public:
    /**
     * @param server  physical plant (not owned)
     * @param nm      actuator (not owned)
     * @param sensors sensor stack (not owned)
     * @param config  tunables
     */
    CappingController(const dev::ServerModel &server, dev::NodeManager &nm,
                      dev::SensorEmulator &sensors,
                      CappingControllerConfig config = {});

    /** Take one 1 Hz sensor sample; call every simulated second. */
    void senseTick();

    /**
     * Close a control period: average the period's samples, refresh the
     * demand estimate and the r-hat split, and return the report (the
     * same object lastReport() returns, rewritten in place). Resets the
     * period accumulators.
     */
    const ServerPeriodReport &closePeriod();

    /**
     * Produce the LeafInput for supply @p s from the latest report
     * (scaled by r-hat, per §4.3.1 level-1 formulas).
     */
    LeafInput leafInputFor(std::size_t s) const;

    /**
     * Apply new per-supply AC budgets: run the PI update and push the
     * resulting DC cap to the node manager.
     */
    void applyBudgets(const std::vector<Watts> &supply_budgets_ac);

    /** The controller's current DC cap integrator value. */
    Watts desiredDcCap() const { return integratorDc_; }

    /** Latest period report (valid after the first closePeriod()). */
    const ServerPeriodReport &lastReport() const { return report_; }

    /** Snapshot the cross-period state (for failover checkpoints). */
    CappingControllerState exportState() const;

    /**
     * Replay a checkpointed state: restores the integrator, re-seeds
     * the r-hat EWMA from the report's shares, and — when the
     * integrator was primed — re-actuates the DC cap immediately, so a
     * restarted server does not wait a full period uncapped.
     */
    void restoreState(const CappingControllerState &state);

    /** Server spec convenience accessor. */
    const dev::ServerSpec &spec() const { return server_.spec(); }

    /**
     * Attach a metrics registry (nullptr detaches). Registers the
     * per-server series once, labeled {server=<name>}; the per-period
     * updates are plain slot writes.
     */
    void setTelemetry(telemetry::Registry *registry);

  private:
    const dev::ServerModel &server_;
    dev::NodeManager &nm_;
    dev::SensorEmulator &sensors_;
    CappingControllerConfig config_;
    DemandEstimator estimator_;

    /** Period accumulators. */
    std::vector<double> supplyAcSum_;
    /** senseTick()'s reading, reused every tick. */
    dev::SensorReading reading_;
    double throttleSum_ = 0.0;
    std::size_t samples_ = 0;

    ServerPeriodReport report_;
    std::vector<Fraction> shareEwma_;
    Watts integratorDc_ = 0.0;
    bool integratorPrimed_ = false;

    /** Telemetry handles (null-safe no-ops when detached). */
    telemetry::Registry *registry_ = nullptr;
    telemetry::Gauge mErrorWatts_;
    telemetry::Gauge mThrottle_;
    telemetry::Gauge mDemandWatts_;
    telemetry::Gauge mDcCapWatts_;
    telemetry::Gauge mSettlePeriods_;
    telemetry::Counter mPeriods_;
    /** Consecutive periods with |min error| inside the settle band. */
    std::size_t settlePeriods_ = 0;
};

} // namespace capmaestro::ctrl

#endif // CAPMAESTRO_CONTROL_CAPPING_CONTROLLER_HH
