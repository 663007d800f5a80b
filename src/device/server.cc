#include "device/server.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/numeric.hh"

namespace capmaestro::dev {

double
fanActivity(Fraction utilization)
{
    const double u = util::clamp(utilization, 0.0, 1.0);
    return 2.0 * u - std::pow(u, 1.4);
}

Watts
fanPower(Watts idle, Watts max, Fraction utilization)
{
    return idle + (max - idle) * fanActivity(utilization);
}

Fraction
SupplySpec::efficiencyAtLoad(Watts load_watts) const
{
    if (ratedPower <= 0.0)
        return efficiency;
    const double f = util::clamp(load_watts / ratedPower, 0.0, 1.2);
    if (f <= 0.2)
        return efficiencyAt20;
    if (f <= 0.5) {
        const double t = (f - 0.2) / 0.3;
        return efficiencyAt20 + t * (efficiencyAt50 - efficiencyAt20);
    }
    if (f <= 1.0) {
        const double t = (f - 0.5) / 0.5;
        return efficiencyAt50 + t * (efficiencyAt100 - efficiencyAt50);
    }
    return efficiencyAt100;
}

ServerModel::ServerModel(ServerSpec spec)
    : spec_(std::move(spec)),
      states_(spec_.supplies.size(), SupplyState::Ok)
{
    validateSpec();
    const double ratio =
        (spec_.capMin - spec_.idle) / (spec_.capMax - spec_.idle);
    minPerformance_ = std::pow(ratio, 1.0 / spec_.gamma);
    minPerformancePow_ = std::pow(minPerformance_, spec_.gamma);
    refreshPower();
}

void
ServerModel::validateSpec() const
{
    if (spec_.supplies.empty())
        util::fatal("server %s: needs at least one supply",
                    spec_.name.c_str());
    if (!(spec_.idle >= 0.0) || !(spec_.capMin > spec_.idle)
        || !(spec_.capMax > spec_.capMin)) {
        util::fatal("server %s: need 0 <= idle < capMin < capMax "
                    "(got %.1f/%.1f/%.1f)", spec_.name.c_str(), spec_.idle,
                    spec_.capMin, spec_.capMax);
    }
    if (spec_.gamma < 1.0)
        util::fatal("server %s: gamma must be >= 1", spec_.name.c_str());
    double share_sum = 0.0;
    for (const auto &s : spec_.supplies) {
        if (s.loadShare <= 0.0 || s.loadShare > 1.0)
            util::fatal("server %s: supply share outside (0,1]",
                        spec_.name.c_str());
        if (s.efficiency <= 0.0 || s.efficiency > 1.0)
            util::fatal("server %s: supply efficiency outside (0,1]",
                        spec_.name.c_str());
        if (s.ratedPower > 0.0) {
            for (const double e :
                 {s.efficiencyAt20, s.efficiencyAt50, s.efficiencyAt100}) {
                if (e <= 0.0 || e > 1.0) {
                    util::fatal("server %s: efficiency-curve point "
                                "outside (0,1]", spec_.name.c_str());
                }
            }
        }
        share_sum += s.loadShare;
    }
    if (!util::approxEqual(share_sum, 1.0, 1e-6))
        util::fatal("server %s: supply shares sum to %f, expected 1",
                    spec_.name.c_str(), share_sum);
}

void
ServerModel::setUtilization(Fraction u)
{
    utilization_ = util::clamp(u, 0.0, 1.0);
    refreshPower();
    updateStandby();
}

void
ServerModel::setEnforcedCapAc(Watts cap)
{
    enforcedCapAc_ = cap;
    refreshPower();
    updateStandby();
}

Watts
ServerModel::demandAcAt(Fraction u) const
{
    return fanPower(spec_.idle, spec_.capMax, u);
}

void
ServerModel::refreshPower()
{
    demandAc_ = demandAcAt(utilization_);
    floorAc_ = spec_.idle + (demandAc_ - spec_.idle) * minPerformancePow_;
    if (workingSupplies() == 0)
        actualAc_ = 0.0; // dark: no supply can deliver power
    else if (enforcedCapAc_ == kNoCap || enforcedCapAc_ >= demandAc_)
        actualAc_ = demandAc_;
    else
        actualAc_ = util::clamp(enforcedCapAc_, floorAc_, demandAc_);
}

Watts
ServerModel::actualDc() const
{
    return actualAc() * blendedEfficiency();
}

Fraction
ServerModel::performance() const
{
    if (workingSupplies() == 0)
        return 0.0; // dark server does no work
    const Watts demand = demandAc();
    const Watts actual = actualAc();
    if (actual >= demand - 1e-9)
        return 1.0;
    const double span = demand - spec_.idle;
    if (span <= 1e-9)
        return 1.0; // idle workload: capping costs nothing
    const double ratio = util::clamp((actual - spec_.idle) / span, 0.0, 1.0);
    return std::pow(ratio, 1.0 / spec_.gamma);
}

SupplyState
ServerModel::supplyState(std::size_t s) const
{
    if (s >= states_.size())
        util::panic("server %s: bad supply index %zu", spec_.name.c_str(),
                    s);
    return states_[s];
}

void
ServerModel::setSupplyState(std::size_t s, SupplyState state)
{
    if (s >= states_.size())
        util::panic("server %s: bad supply index %zu", spec_.name.c_str(),
                    s);
    states_[s] = state;
    refreshPower();
    std::size_t ok = 0;
    for (auto st : states_)
        ok += (st == SupplyState::Ok) ? 1 : 0;
    if (ok == 0)
        util::warn("server %s: no working supply; server is dark",
                   spec_.name.c_str());
}

std::size_t
ServerModel::workingSupplies() const
{
    std::size_t ok = 0;
    for (auto st : states_)
        ok += (st == SupplyState::Ok) ? 1 : 0;
    return ok;
}

Fraction
ServerModel::effectiveShare(std::size_t s) const
{
    if (s >= states_.size())
        util::panic("server %s: bad supply index %zu", spec_.name.c_str(),
                    s);
    if (states_[s] != SupplyState::Ok)
        return 0.0;
    double ok_sum = 0.0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
        if (states_[i] == SupplyState::Ok)
            ok_sum += spec_.supplies[i].loadShare;
    }
    if (ok_sum <= 0.0)
        return 0.0;
    return spec_.supplies[s].loadShare / ok_sum;
}

Watts
ServerModel::supplyAc(std::size_t s) const
{
    return actualAc() * effectiveShare(s);
}

Fraction
ServerModel::blendedEfficiency() const
{
    // Load-weighted mean over working supplies, each evaluated at the
    // load it currently carries (flat-efficiency supplies ignore load).
    double eff = 0.0, total = 0.0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
        const double share = effectiveShare(i);
        if (share <= 0.0)
            continue;
        eff += share * spec_.supplies[i].efficiencyAtLoad(supplyAc(i));
        total += share;
    }
    if (total <= 0.0)
        return spec_.supplies.front().efficiency;
    return eff / total;
}

void
ServerModel::updateStandby()
{
    if (!spec_.hotSpareEnabled || states_.size() < 2)
        return;

    // Compute load ignoring standby effects (total draw is share-invariant).
    const Watts load = actualAc();

    if (load < spec_.standbyThreshold) {
        // Park the smallest-share Ok supply if at least two are Ok.
        if (workingSupplies() >= 2) {
            std::size_t victim = states_.size();
            double min_share = 2.0;
            for (std::size_t i = 0; i < states_.size(); ++i) {
                if (states_[i] == SupplyState::Ok
                    && spec_.supplies[i].loadShare < min_share) {
                    min_share = spec_.supplies[i].loadShare;
                    victim = i;
                }
            }
            if (victim < states_.size())
                states_[victim] = SupplyState::Standby;
        }
    } else {
        // Wake any standby supplies.
        for (auto &st : states_) {
            if (st == SupplyState::Standby)
                st = SupplyState::Ok;
        }
    }
    // A wake can bring a dark server (no Ok supply) back to life.
    refreshPower();
}

} // namespace capmaestro::dev
