/**
 * @file
 * The local plant of a leaf (rack) worker: per-server device models,
 * sensing, workload replay, and the capping controller, plus the
 * period helpers that move state between the plant and the worker's
 * core::RackWorker edge controllers.
 *
 * One implementation of the plant build rules (sensor stream forking
 * in server-id order, split-server rejection) and the per-period
 * sequence (advance, close + leaf-input refresh with the nominal-floor
 * pinning, budget application through the PI loops). Within src/rt,
 * LeafRole (rt/leaf.hh) is the only caller: it runs every leaf of both
 * engines. The benchmark in perfbench/ replays the helpers directly to
 * time the plant layer, so their signatures stay as they are.
 */

#ifndef CAPMAESTRO_RT_PLANT_HH
#define CAPMAESTRO_RT_PLANT_HH

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "config/loader.hh"
#include "control/capping_controller.hh"
#include "core/distributed.hh"
#include "device/node_manager.hh"
#include "device/sensor.hh"
#include "device/server.hh"
#include "device/workload.hh"
#include "net/wire.hh"
#include "util/random.hh"

namespace capmaestro::rt {

/** One server whose plant lives in this process. */
struct Plant
{
    std::size_t serverId = 0;
    std::unique_ptr<dev::ServerModel> server;
    std::unique_ptr<dev::NodeManager> nm;
    std::unique_ptr<dev::SensorEmulator> sensors;
    std::unique_ptr<dev::Workload> workload;
    std::unique_ptr<ctrl::CappingController> controller;
    /** (tree, supply ref) leaves of this server, all on one worker. */
    std::vector<std::pair<std::size_t, topo::ServerSupplyRef>> leaves;
    std::vector<Watts> lastBudgets;
};

/**
 * Which leaf workers each server's supply leaves land on, under the
 * given partition. A server spanning more than one worker cannot have
 * its plant homed in a single process (build rejects it).
 */
std::map<std::size_t, std::set<std::size_t>>
serverWorkers(const topo::PowerSystem &system,
              const std::vector<std::map<std::size_t, topo::NodeId>>
                  &partition);

/**
 * Build the plants of every leaf worker in @p want, moving the server
 * specs and workloads out of @p scenario. The per-server sensor-noise
 * streams are forked from @p seed in server-id order over *all*
 * servers, so a server's stream is identical no matter which process
 * (or which multi-role host) ends up homing it. fatal()s on a server
 * split across workers or missing its workload.
 *
 * @param scenario  loaded scenario; server specs/workloads are consumed
 * @param system    the scenario's power system
 * @param want      leaf worker -> its (tree -> edge node) slice
 * @param seed      sensor-noise master seed (shared by every process)
 * @return worker -> plants homed on it (empty vectors for plantless
 *         workers in @p want)
 */
std::map<std::size_t, std::vector<Plant>>
buildPlants(config::LoadedScenario &scenario,
            const topo::PowerSystem &system,
            const std::map<std::size_t,
                           std::map<std::size_t, topo::NodeId>> &want,
            std::uint64_t seed);

/**
 * One control period of 1 Hz sensing and actuation for @p plants,
 * advancing @p sim_now by @p control_period seconds.
 */
void advancePlants(std::vector<Plant> &plants, Seconds control_period,
                   Seconds &sim_now);

/**
 * Close each plant's controller period, refresh the worker's edge leaf
 * inputs (with the config-nominal floor pinning §4.5 degraded-mode
 * budgeting relies on), and append each server's recoverable state to
 * @p checkpoint.
 */
void closePlantPeriods(std::vector<Plant> &plants,
                       const topo::PowerSystem &system,
                       core::RackWorker &rack,
                       net::CheckpointMsg &checkpoint);

/** Apply the worker's post-budget leaf caps through the PI loops. */
void applyPlantBudgets(std::vector<Plant> &plants,
                       core::RackWorker &rack);

/**
 * The config-nominal Pcap_min floor of every partition edge: sum over
 * the edge's supply leaves of server capMin x nominal load share,
 * clamped to the edge device limit. Derived purely from the scenario
 * file (call it before buildPlants() consumes the specs), so every
 * process computes bit-identical values — the contract that makes
 * degraded-mode budgeting safe at every hop: a leaf's unilateral
 * fallback never exceeds this floor, and whichever hop stops budgeting
 * a subtree reserves exactly the floors beneath it.
 */
std::map<std::pair<std::size_t, topo::NodeId>, Watts>
nominalEdgeFloors(const topo::PowerSystem &system,
                  const config::LoadedScenario &scenario);

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_PLANT_HH
