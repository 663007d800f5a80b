#include "telemetry/health.hh"

#include <algorithm>

namespace capmaestro::telemetry {

const char *
unitHealthName(UnitHealth health)
{
    switch (health) {
    case UnitHealth::Live:
        return "live";
    case UnitHealth::Stale:
        return "stale";
    case UnitHealth::Lost:
        return "lost";
    case UnitHealth::Rehoming:
        return "rehoming";
    }
    return "unknown";
}

void
FleetHealthRegistry::report(const std::string &name, UnitHealth health,
                            std::uint32_t epoch)
{
    Unit &unit = units_[name];
    unit.health = health;
    unit.lastEpoch = epoch;
    if (health == UnitHealth::Live)
        unit.lastLiveEpoch = epoch;
    else
        ++unit.degradedPeriods;
    publish();
}

std::size_t
FleetHealthRegistry::countOf(UnitHealth health) const
{
    return static_cast<std::size_t>(std::count_if(
        units_.begin(), units_.end(), [health](const auto &kv) {
            return kv.second.health == health;
        }));
}

double
FleetHealthRegistry::degradedFraction() const
{
    if (units_.empty())
        return 0.0;
    return 1.0
           - static_cast<double>(countOf(UnitHealth::Live))
                 / static_cast<double>(units_.size());
}

void
FleetHealthRegistry::setTelemetry(Registry *registry,
                                  const Labels &labels)
{
    liveGauge_ = {};
    staleGauge_ = {};
    lostGauge_ = {};
    rehomingGauge_ = {};
    degradedGauge_ = {};
    if (!registry)
        return;
    auto labeled = [&labels](const char *state) {
        Labels ls = labels;
        ls.emplace_back("state", state);
        return ls;
    };
    const std::string help =
        "Observed units per fleet health state";
    liveGauge_ =
        registry->gauge("capmaestro_fleet_units", labeled("live"), help);
    staleGauge_ = registry->gauge("capmaestro_fleet_units",
                                  labeled("stale"), help);
    lostGauge_ =
        registry->gauge("capmaestro_fleet_units", labeled("lost"), help);
    rehomingGauge_ = registry->gauge("capmaestro_fleet_units",
                                     labeled("rehoming"), help);
    degradedGauge_ = registry->gauge(
        "capmaestro_fleet_degraded_fraction", labels,
        "Fraction of observed units not in the live state");
    publish();
}

void
FleetHealthRegistry::publish()
{
    if (!degradedGauge_.valid())
        return;
    liveGauge_.set(static_cast<double>(countOf(UnitHealth::Live)));
    staleGauge_.set(static_cast<double>(countOf(UnitHealth::Stale)));
    lostGauge_.set(static_cast<double>(countOf(UnitHealth::Lost)));
    rehomingGauge_.set(
        static_cast<double>(countOf(UnitHealth::Rehoming)));
    degradedGauge_.set(degradedFraction());
}

util::Json
FleetHealthRegistry::toJson() const
{
    util::Json::Object counts;
    counts.emplace("live", util::Json(static_cast<double>(
                               countOf(UnitHealth::Live))));
    counts.emplace("stale", util::Json(static_cast<double>(
                                countOf(UnitHealth::Stale))));
    counts.emplace("lost", util::Json(static_cast<double>(
                               countOf(UnitHealth::Lost))));
    counts.emplace("rehoming", util::Json(static_cast<double>(
                                   countOf(UnitHealth::Rehoming))));

    util::Json::Object units;
    for (const auto &[name, unit] : units_) {
        util::Json::Object u;
        u.emplace("state",
                  util::Json(std::string(unitHealthName(unit.health))));
        u.emplace("lastEpoch", util::Json(static_cast<double>(
                                   unit.lastEpoch)));
        u.emplace("lastLiveEpoch", util::Json(static_cast<double>(
                                       unit.lastLiveEpoch)));
        u.emplace("degradedPeriods",
                  util::Json(static_cast<double>(unit.degradedPeriods)));
        units.emplace(name, util::Json(std::move(u)));
    }

    util::Json::Object out;
    out.emplace("unitCount",
                util::Json(static_cast<double>(units_.size())));
    out.emplace("counts", util::Json(std::move(counts)));
    out.emplace("degradedFraction", util::Json(degradedFraction()));
    out.emplace("units", util::Json(std::move(units)));
    return util::Json(std::move(out));
}

void
SafetyAuditor::setTelemetry(Registry *registry, const Labels &labels)
{
    auditsCounter_ = {};
    violationsCounter_ = {};
    if (!registry)
        return;
    auditsCounter_ = registry->counter(
        "capmaestro_safety_audits_total", labels,
        "Scopes (one fragment of one tree) checked per period: every "
        "station's load against min(derated limit, the scope's grant)");
    violationsCounter_ = registry->counter(
        "capmaestro_safety_violations_total", labels,
        "Stations whose load exceeded min(derated limit, the scope's "
        "grant) in a period");
}

void
SafetyAuditor::audit()
{
    ++auditCount_;
    auditsCounter_.inc();
}

void
SafetyAuditor::violation(std::uint32_t epoch, const std::string &subject,
                         double overdraw)
{
    ++violationCount_;
    violationsCounter_.inc();
    if (overdraw > worstOverdraw_) {
        worstOverdraw_ = overdraw;
        worstSubject_ = subject + "@epoch" + std::to_string(epoch);
    }
}

util::Json
SafetyAuditor::toJson() const
{
    util::Json::Object out;
    out.emplace("audits",
                util::Json(static_cast<double>(auditCount_)));
    out.emplace("violations",
                util::Json(static_cast<double>(violationCount_)));
    out.emplace("worstOverdrawWatts", util::Json(worstOverdraw_));
    if (!worstSubject_.empty())
        out.emplace("worstSubject", util::Json(worstSubject_));
    return util::Json(std::move(out));
}

} // namespace capmaestro::telemetry
