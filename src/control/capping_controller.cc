#include "control/capping_controller.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/numeric.hh"

namespace capmaestro::ctrl {

CappingController::CappingController(const dev::ServerModel &server,
                                     dev::NodeManager &nm,
                                     dev::SensorEmulator &sensors,
                                     CappingControllerConfig config)
    : server_(server), nm_(nm), sensors_(sensors), config_(config),
      estimator_([&] {
          DemandEstimatorConfig c = config.estimator;
          c.minEstimate = server.spec().idle;
          c.maxEstimate = server.spec().capMax;
          return c;
      }())
{
    const std::size_t n = server_.supplyCount();
    supplyAcSum_.assign(n, 0.0);
    shareEwma_.assign(n, 0.0);
    // Seed r-hat from the spec's nominal shares.
    for (std::size_t s = 0; s < n; ++s)
        shareEwma_[s] = server_.spec().supplies[s].loadShare;
}

void
CappingController::setTelemetry(telemetry::Registry *registry)
{
    registry_ = registry;
    if (registry_ == nullptr) {
        mErrorWatts_ = {};
        mThrottle_ = {};
        mDemandWatts_ = {};
        mDcCapWatts_ = {};
        mSettlePeriods_ = {};
        mPeriods_ = {};
        return;
    }
    const telemetry::Labels labels = {{"server", server_.spec().name}};
    mErrorWatts_ =
        registry_->gauge("capmaestro_server_error_watts", labels,
                         "Most conservative per-supply budget error");
    mThrottle_ = registry_->gauge("capmaestro_server_throttle", labels,
                                  "Average throttle level last period");
    mDemandWatts_ =
        registry_->gauge("capmaestro_server_demand_watts", labels,
                         "Estimated uncapped AC demand");
    mDcCapWatts_ = registry_->gauge("capmaestro_server_dc_cap_watts",
                                    labels, "Actuated DC cap");
    mSettlePeriods_ = registry_->gauge(
        "capmaestro_server_settle_periods", labels,
        "Consecutive periods with |error| inside the settle band");
    mPeriods_ =
        registry_->counter("capmaestro_server_periods_total", labels,
                           "Control periods actuated for this server");
}

void
CappingController::senseTick()
{
    sensors_.read(reading_);
    const dev::SensorReading &r = reading_;
    for (std::size_t s = 0; s < r.supplyAc.size(); ++s)
        supplyAcSum_[s] += r.supplyAc[s];
    throttleSum_ += r.throttleLevel;
    ++samples_;
    estimator_.addSample(r.throttleLevel, r.totalAc);
}

const ServerPeriodReport &
CappingController::closePeriod()
{
    if (samples_ == 0) {
        // Sensor dropout: raising the cap on zero information would be
        // unsafe (a dead meter would read as an idle server). Hold the
        // previous period's report so budgets and caps stay put.
        util::warn("capping controller %s: control period with no sensor "
                   "samples; holding last state",
                   server_.spec().name.c_str());
        return report_;
    }

    const std::size_t n = server_.supplyCount();
    ServerPeriodReport &rep = report_;
    rep.supplyAvgAc.assign(n, 0.0);
    rep.shares.assign(n, 0.0);

    double total = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
        rep.supplyAvgAc[s] = supplyAcSum_[s] / static_cast<double>(samples_);
        total += rep.supplyAvgAc[s];
    }
    rep.avgThrottle = throttleSum_ / static_cast<double>(samples_);
    rep.demandEstimate = estimator_.estimate();
    rep.workingSupplies = server_.workingSupplies();

    // Measured load split r-hat, EWMA-smoothed, zero for dead supplies.
    for (std::size_t s = 0; s < n; ++s) {
        Fraction measured;
        if (server_.supplyState(s) != dev::SupplyState::Ok) {
            measured = 0.0;
        } else if (total > 1e-6) {
            measured = rep.supplyAvgAc[s] / total;
        } else {
            measured = shareEwma_[s];
        }
        shareEwma_[s] = (1.0 - config_.shareSmoothing) * shareEwma_[s]
                        + config_.shareSmoothing * measured;
    }
    // Renormalize over working supplies so shares sum to exactly 1.
    double live_sum = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
        if (server_.supplyState(s) == dev::SupplyState::Ok)
            live_sum += shareEwma_[s];
    }
    for (std::size_t s = 0; s < n; ++s) {
        rep.shares[s] =
            (server_.supplyState(s) == dev::SupplyState::Ok
             && live_sum > 1e-9)
                ? shareEwma_[s] / live_sum
                : 0.0;
    }

    // Reset period accumulators.
    std::fill(supplyAcSum_.begin(), supplyAcSum_.end(), 0.0);
    throttleSum_ = 0.0;
    samples_ = 0;

    if (registry_ != nullptr) {
        mThrottle_.set(report_.avgThrottle);
        mDemandWatts_.set(report_.demandEstimate);
    }
    return report_;
}

CappingControllerState
CappingController::exportState() const
{
    CappingControllerState state;
    state.integratorDc = integratorDc_;
    state.integratorPrimed = integratorPrimed_;
    state.report = report_;
    return state;
}

void
CappingController::restoreState(const CappingControllerState &state)
{
    const dev::ServerSpec &spec = server_.spec();
    const std::size_t n = server_.supplyCount();

    report_ = state.report;
    report_.supplyAvgAc.resize(n, 0.0);
    report_.shares.resize(n, 0.0);
    // Re-seed r-hat from the checkpointed split; a pre-first-period
    // checkpoint carries all-zero shares, in which case the nominal
    // seed from construction stays in place.
    double share_sum = 0.0;
    for (const Fraction r : report_.shares)
        share_sum += r;
    if (share_sum > 1e-9)
        shareEwma_ = report_.shares;

    integratorPrimed_ = state.integratorPrimed;
    if (integratorPrimed_) {
        const double k = server_.blendedEfficiency();
        integratorDc_ = util::clamp(state.integratorDc,
                                    spec.capMin * k, spec.capMax * k);
        nm_.setDcCap(integratorDc_);
    } else {
        integratorDc_ = state.integratorDc;
    }
}

LeafInput
CappingController::leafInputFor(std::size_t s) const
{
    const dev::ServerSpec &spec = server_.spec();
    LeafInput leaf;
    const Fraction r =
        s < report_.shares.size() ? report_.shares[s] : 0.0;
    if (r <= 0.0) {
        leaf.live = false;
        return leaf;
    }
    const Watts demand_eff =
        std::max(report_.demandEstimate, spec.capMin);
    leaf.live = true;
    leaf.priority = spec.priority;
    leaf.capMin = r * spec.capMin;
    leaf.demand = r * std::min(demand_eff, spec.capMax);
    leaf.constraint = r * spec.capMax;
    return leaf;
}

void
CappingController::applyBudgets(const std::vector<Watts> &budgets_ac)
{
    const dev::ServerSpec &spec = server_.spec();
    const std::size_t n = server_.supplyCount();
    if (budgets_ac.size() != n) {
        util::panic("capping controller %s: %zu budgets for %zu supplies",
                    spec.name.c_str(), budgets_ac.size(), n);
    }

    // Step 1 (Fig. 4): per-supply error; keep the most conservative one.
    double min_error = topo::kUnlimited;
    std::size_t working = 0;
    for (std::size_t s = 0; s < n; ++s) {
        if (server_.supplyState(s) != dev::SupplyState::Ok)
            continue;
        ++working;
        const double measured =
            s < report_.supplyAvgAc.size() ? report_.supplyAvgAc[s] : 0.0;
        min_error = std::min(min_error, budgets_ac[s] - measured);
    }
    if (working == 0)
        return; // dark server: nothing to actuate

    // Step 2: scale AC error to the DC domain and to the whole server.
    const double k = server_.blendedEfficiency();
    const double e_dc =
        min_error * k * static_cast<double>(working) * config_.gain;

    // Step 3: integrate (the integrator stores the desired DC cap).
    const Watts cap_min_dc = spec.capMin * k;
    const Watts cap_max_dc = spec.capMax * k;
    if (!integratorPrimed_) {
        integratorDc_ = cap_max_dc;
        integratorPrimed_ = true;
    }
    integratorDc_ += e_dc;

    // Step 4: clip to the controllable range and actuate.
    integratorDc_ = util::clamp(integratorDc_, cap_min_dc, cap_max_dc);
    nm_.setDcCap(integratorDc_);

    if (registry_ != nullptr) {
        // "Settled" = the conservative error stayed within a small band;
        // count consecutive such periods as a convergence indicator.
        constexpr double kSettleBandWatts = 2.0;
        settlePeriods_ = std::abs(min_error) <= kSettleBandWatts
                             ? settlePeriods_ + 1
                             : 0;
        mErrorWatts_.set(min_error);
        mDcCapWatts_.set(integratorDc_);
        mSettlePeriods_.set(static_cast<double>(settlePeriods_));
        mPeriods_.inc();
    }
}

} // namespace capmaestro::ctrl
