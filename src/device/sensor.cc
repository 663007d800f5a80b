#include "device/sensor.hh"

#include <cmath>

#include "util/numeric.hh"

namespace capmaestro::dev {

SensorEmulator::SensorEmulator(const ServerModel &server,
                               const NodeManager &nm, util::Rng rng,
                               SensorConfig config)
    : server_(server), nm_(nm), rng_(rng), config_(config)
{
}

Watts
SensorEmulator::quantize(Watts v) const
{
    if (config_.powerQuantum <= 0.0)
        return v;
    return std::round(v / config_.powerQuantum) * config_.powerQuantum;
}

SensorReading
SensorEmulator::read()
{
    SensorReading r;
    read(r);
    return r;
}

void
SensorEmulator::read(SensorReading &out)
{
    out.supplyAc.clear();
    out.totalAc = 0.0;
    for (std::size_t s = 0; s < server_.supplyCount(); ++s) {
        Watts v = server_.supplyAc(s);
        if (config_.powerNoiseStddev > 0.0)
            v += rng_.normal(0.0, config_.powerNoiseStddev);
        v = quantize(std::max(0.0, v));
        out.supplyAc.push_back(v);
        out.totalAc += v;
    }
    double t = nm_.throttleLevel();
    if (config_.throttleNoiseStddev > 0.0)
        t += rng_.normal(0.0, config_.throttleNoiseStddev);
    out.throttleLevel = util::clamp(t, 0.0, 1.0);
}

SensorReading
SensorEmulator::readTrue() const
{
    SensorReading r;
    r.supplyAc.reserve(server_.supplyCount());
    for (std::size_t s = 0; s < server_.supplyCount(); ++s) {
        const Watts v = server_.supplyAc(s);
        r.supplyAc.push_back(v);
        r.totalAc += v;
    }
    r.throttleLevel = nm_.throttleLevel();
    return r;
}

} // namespace capmaestro::dev
