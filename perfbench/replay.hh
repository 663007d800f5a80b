/**
 * @file
 * Off-window replays that time one layer in isolation: the wire codec
 * over one measured period's captured frames, and the rt plant step
 * (sensing, estimation, PI actuation) over a set of leaf workers.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "config/loader.hh"

namespace perfbench {

/** Codec replay outcome. */
struct CodecTiming
{
    double decodeNsPerFrame = 0.0;
    double encodeNsPerFrame = 0.0;
    std::uint64_t frames = 0;
    /** Frames that failed to decode or re-encode bit-exactly. */
    std::uint64_t mismatches = 0;
};

/**
 * Time net::decodeFrame and the matching net::encode* call over
 * @p frames, repeated until about 200k frames have gone through each,
 * and check every frame survives decode + re-encode bit-exactly.
 */
CodecTiming replayCodec(const std::vector<std::vector<std::uint8_t>> &frames);

/**
 * Mean wall microseconds per control period of rt's plant step for the
 * leaf workers @p leaves of @p scenario: rt::buildPlants once, then per
 * period advancePlants, closePlantPeriods, the edge budgets of
 * @p budgets, and applyPlantBudgets — the plant half of a WorkerHost
 * period, without the wire.
 */
double replayPlants(
    capmaestro::config::LoadedScenario scenario,
    const std::vector<std::size_t> &leaves,
    const std::map<std::pair<std::size_t, capmaestro::topo::NodeId>,
                   capmaestro::Watts> &budgets,
    std::uint64_t seed, std::size_t periods);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
