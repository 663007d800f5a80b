/**
 * @file
 * IPMI-style sensor emulation: per-supply AC power monitors and the
 * node-manager throttle-level reading, with configurable noise and
 * quantization. The capping controller (paper §5) reads these at 1 Hz and
 * averages them per 8 s control period.
 */

#ifndef CAPMAESTRO_DEVICE_SENSOR_HH
#define CAPMAESTRO_DEVICE_SENSOR_HH

#include <vector>

#include "device/node_manager.hh"
#include "device/server.hh"
#include "util/random.hh"
#include "util/units.hh"

namespace capmaestro::dev {

/** Noise/quantization configuration for sensor readings. */
struct SensorConfig
{
    /** Std-dev of additive Gaussian noise on AC power readings (W). */
    Watts powerNoiseStddev = 1.0;
    /** Quantization step for power readings (W); 0 disables. */
    Watts powerQuantum = 1.0;
    /** Std-dev of noise on the throttle-level reading (fraction). */
    double throttleNoiseStddev = 0.002;
};

/** One snapshot of a server's sensors. */
struct SensorReading
{
    /** AC power per supply (W), indexed by supply. */
    std::vector<Watts> supplyAc;
    /** Total AC power (sum of supplies). */
    Watts totalAc = 0.0;
    /** Node-manager throttle level in [0, 1). */
    double throttleLevel = 0.0;
};

/** Emulated sensor stack for one server. */
class SensorEmulator
{
  public:
    /**
     * @param server   server under observation (not owned)
     * @param nm       node manager for throttle readings (not owned)
     * @param rng      noise stream (forked per server for determinism)
     * @param config   noise parameters
     */
    SensorEmulator(const ServerModel &server, const NodeManager &nm,
                   util::Rng rng, SensorConfig config = {});

    /** Take one noisy snapshot of all sensors. */
    SensorReading read();

    /** read() into @p out, reusing its storage. */
    void read(SensorReading &out);

    /** Noise-free snapshot (for oracle tests). */
    SensorReading readTrue() const;

  private:
    const ServerModel &server_;
    const NodeManager &nm_;
    util::Rng rng_;
    SensorConfig config_;

    Watts quantize(Watts v) const;
};

} // namespace capmaestro::dev

#endif // CAPMAESTRO_DEVICE_SENSOR_HH
