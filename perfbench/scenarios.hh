/**
 * @file
 * The inputs of the benchmark's workloads, built in memory from the
 * run's seed: the synthetic depth-4 tree of deep-10k and the paper's
 * Table 4 center (sim::buildDataCenter) that table4-room and
 * feedfail-sim run. The seed draws server priorities, utilisations and
 * supply mismatches; the topology is fixed per workload.
 */

#ifndef PERFBENCH_SCENARIOS_HH
#define PERFBENCH_SCENARIOS_HH

#include <cstdint>
#include <vector>

#include "config/loader.hh"
#include "sim/datacenter.hh"

namespace perfbench {

/** Aggregation levels of the deep-10k plan (16 x 16 interior rows). */
const std::vector<std::uint32_t> &deepAggLevels();

/**
 * deep-10k: 10,240 leaves in a depth-4 tree (root, 16 x 16 interior
 * breakers, 40 rack breakers under each bottom aggregator), one
 * single-supply server per rack, one plant tick per period. The root
 * budget binds, so every period runs a real priority-aware split;
 * deadlines are generous because pacing is by completeness.
 */
capmaestro::config::LoadedScenario deepScenario(std::uint64_t seed);

/** Table 4 parameters: @p phases phases, @p per_phase servers per
 *  rack per phase, 30 % high priority, 10 % supply mismatch. */
capmaestro::sim::DataCenterParams table4Params(int phases, int per_phase);

/**
 * The Table 4 center of @p params with dual-supply servers and eight
 * plant ticks per period. Each server runs at @p utilisation, or at a
 * seeded level in [0.85, 1] when @p utilisation is negative. Root
 * budgets split each phase's usable contractual budget over the feeds.
 */
capmaestro::config::LoadedScenario
table4Scenario(std::uint64_t seed,
               const capmaestro::sim::DataCenterParams &params,
               double utilisation);

} // namespace perfbench

#endif // PERFBENCH_SCENARIOS_HH
