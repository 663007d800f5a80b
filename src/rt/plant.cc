#include "rt/plant.hh"

#include <algorithm>

#include "util/logging.hh"

namespace capmaestro::rt {

std::map<std::size_t, std::set<std::size_t>>
serverWorkers(const topo::PowerSystem &system,
              const std::vector<std::map<std::size_t, topo::NodeId>>
                  &partition)
{
    std::map<std::size_t, std::set<std::size_t>> out;
    for (std::size_t r = 0; r < partition.size(); ++r) {
        for (const auto &[tree, node] : partition[r]) {
            for (const topo::NodeId c :
                 system.tree(tree).node(node).children) {
                const auto &ref = *system.tree(tree).node(c).supplyRef;
                out[static_cast<std::size_t>(ref.server)].insert(r);
            }
        }
    }
    return out;
}

std::map<std::size_t, std::vector<Plant>>
buildPlants(config::LoadedScenario &scenario,
            const topo::PowerSystem &system,
            const std::map<std::size_t,
                           std::map<std::size_t, topo::NodeId>> &want,
            std::uint64_t seed)
{
    const auto partition =
        core::DistributedControlPlane::partitionEdges(system);
    const auto server_workers = serverWorkers(system, partition);

    std::map<std::size_t, std::vector<Plant>> out;
    for (const auto &[worker, edges] : want) {
        (void)edges;
        out[worker]; // plantless workers still get an (empty) entry
    }

    // Fork the per-server sensor-noise streams in server-id order so a
    // server's stream is the same no matter which process hosts it.
    util::Rng rng(seed);
    for (std::size_t sid = 0; sid < scenario.servers.size(); ++sid) {
        util::Rng server_rng = rng.fork();
        const auto workers = server_workers.find(sid);
        if (workers == server_workers.end())
            continue;
        if (workers->second.size() > 1) {
            util::fatal("rt: server %zu has supplies on %zu rack "
                        "workers; its plant cannot be homed in one "
                        "process",
                        sid, workers->second.size());
        }
        const std::size_t home = *workers->second.begin();
        const auto homed = want.find(home);
        if (homed == want.end())
            continue;

        Plant plant;
        plant.serverId = sid;
        plant.server = std::make_unique<dev::ServerModel>(
            std::move(scenario.servers[sid].spec));
        plant.nm = std::make_unique<dev::NodeManager>(*plant.server);
        plant.sensors = std::make_unique<dev::SensorEmulator>(
            *plant.server, *plant.nm, std::move(server_rng),
            dev::SensorConfig{});
        plant.workload = std::move(scenario.servers[sid].workload);
        if (!plant.workload)
            util::fatal("rt: server %zu has no workload", sid);
        plant.controller = std::make_unique<ctrl::CappingController>(
            *plant.server, *plant.nm, *plant.sensors,
            scenario.service.capping);
        for (const auto &[tree, node] : homed->second) {
            for (const topo::NodeId c :
                 system.tree(tree).node(node).children) {
                const auto &ref = *system.tree(tree).node(c).supplyRef;
                if (static_cast<std::size_t>(ref.server) == sid)
                    plant.leaves.emplace_back(tree, ref);
            }
        }
        plant.server->setUtilization(plant.workload->utilizationAt(0));
        out[home].push_back(std::move(plant));
    }
    return out;
}

void
advancePlants(std::vector<Plant> &plants, Seconds control_period,
              Seconds &sim_now)
{
    // Wall pacing is per period, not per tick: the protocol deadlines
    // are what consume the period's wall budget.
    for (Seconds tick = 0; tick < control_period; ++tick) {
        for (Plant &plant : plants) {
            plant.server->setUtilization(
                plant.workload->utilizationAt(sim_now));
        }
        for (Plant &plant : plants)
            plant.controller->senseTick();
        for (Plant &plant : plants)
            plant.nm->step(1.0);
        ++sim_now;
    }
}

namespace {

/** closePlantPeriods()'s per-server working storage, reused across
 *  servers and periods. */
struct CloseScratch
{
    ctrl::ServerAllocInput input;
    std::vector<Fraction> shares;
};

thread_local CloseScratch t_close;

} // namespace

void
closePlantPeriods(std::vector<Plant> &plants,
                  const topo::PowerSystem &system,
                  core::RackWorker &rack)
{
    ctrl::ServerAllocInput &in = t_close.input;
    std::vector<Fraction> &shares = t_close.shares;
    for (Plant &plant : plants) {
        const auto &report = plant.controller->closePeriod();
        const auto &spec = plant.server->spec();
        in.priority = spec.priority;
        in.capMin = spec.capMin;
        in.capMax = spec.capMax;
        in.demand = report.demandEstimate;
        in.supplies.resize(report.shares.size());
        for (std::size_t i = 0; i < report.shares.size(); ++i) {
            in.supplies[i].share = std::max(report.shares[i], 1e-9);
            in.supplies[i].live = report.shares[i] > 0.0;
        }
        ctrl::effectiveSupplyShares(
            system, in, static_cast<std::int32_t>(plant.serverId), shares);
        for (const auto &[tree, ref] : plant.leaves) {
            const auto sup = static_cast<std::size_t>(ref.supply);
            const Fraction r = sup < shares.size() ? shares[sup] : 0.0;
            auto leaf = ctrl::scaledLeafInput(in, r);
            // Pin the leaf floor to the config-nominal share while the
            // supply is live. Demand and constraint stay measured, but
            // the floor must not wobble with sensor noise: the §4.5
            // fallback and the floor a lost edge enters the merge as are both
            // defined on the nominal floor, and an allocation granted
            // from a noise-lowered measured floor could otherwise end
            // up a watt below the fallback the rack applies when the
            // budget frame is lost — breaking the supply-budget
            // invariant in a fully contended tree.
            if (leaf.live) {
                const Fraction nominal =
                    sup < spec.supplies.size()
                        ? spec.supplies[sup].loadShare
                        : 0.0;
                leaf.capMin = spec.capMin * nominal;
                leaf.demand = std::max(leaf.demand, leaf.capMin);
                leaf.constraint =
                    std::max(leaf.constraint, leaf.capMin);
            }
            rack.setLeafInput(tree, ref, leaf);
        }
    }
}

void
checkpointPlants(const std::vector<Plant> &plants,
                 net::CheckpointMsg &checkpoint)
{
    for (const Plant &plant : plants) {
        const auto state = plant.controller->exportState();
        const ctrl::ServerPeriodReport &report = state.report;
        net::CheckpointServer rec;
        rec.serverId = static_cast<std::uint32_t>(plant.serverId);
        rec.integratorPrimed = state.integratorPrimed;
        rec.spoPinned = false; // §4.4 SPO rounds are not run by rt yet
        rec.integratorDc = state.integratorDc;
        rec.demandEstimate = report.demandEstimate;
        rec.avgThrottle = report.avgThrottle;
        const std::size_t supplies = plant.server->supplyCount();
        rec.supplies.resize(supplies);
        for (std::size_t s = 0; s < supplies; ++s) {
            rec.supplies[s].lastBudget =
                s < plant.lastBudgets.size() ? plant.lastBudgets[s]
                                             : 0.0;
            rec.supplies[s].share =
                s < report.shares.size() ? report.shares[s] : 0.0;
            rec.supplies[s].avgAc = s < report.supplyAvgAc.size()
                                        ? report.supplyAvgAc[s]
                                        : 0.0;
        }
        checkpoint.servers.push_back(std::move(rec));
    }
}

void
closePlantPeriods(std::vector<Plant> &plants,
                  const topo::PowerSystem &system,
                  core::RackWorker &rack,
                  net::CheckpointMsg &checkpoint)
{
    closePlantPeriods(plants, system, rack);
    checkpointPlants(plants, checkpoint);
}

void
applyPlantBudgets(std::vector<Plant> &plants, core::RackWorker &rack)
{
    for (Plant &plant : plants) {
        // lastBudgets is rewritten in place: it is what the controller
        // applies and what the next checkpoint carries.
        std::vector<Watts> &budgets = plant.lastBudgets;
        budgets.assign(plant.server->supplyCount(), 0.0);
        for (const auto &[tree, ref] : plant.leaves) {
            const auto sup = static_cast<std::size_t>(ref.supply);
            if (sup < budgets.size())
                budgets[sup] = rack.leafBudget(tree, ref);
        }
        plant.controller->applyBudgets(budgets);
    }
}

std::map<std::pair<std::size_t, topo::NodeId>, Watts>
nominalEdgeFloors(const topo::PowerSystem &system,
                  const config::LoadedScenario &scenario)
{
    std::map<std::pair<std::size_t, topo::NodeId>, Watts> out;
    const auto partition =
        core::DistributedControlPlane::partitionEdges(system);
    for (const auto &edges : partition) {
        for (const auto &[tree, node] : edges) {
            Watts floor = 0.0;
            for (const topo::NodeId c :
                 system.tree(tree).node(node).children) {
                const auto &ref = *system.tree(tree).node(c).supplyRef;
                const auto sid = static_cast<std::size_t>(ref.server);
                const auto sup = static_cast<std::size_t>(ref.supply);
                const dev::ServerSpec &spec =
                    scenario.servers[sid].spec;
                const Fraction share =
                    sup < spec.supplies.size()
                        ? spec.supplies[sup].loadShare
                        : 0.0;
                floor += spec.capMin * share;
            }
            out[{tree, node}] = std::min(
                floor, system.tree(tree).node(node).limit());
        }
    }
    return out;
}

} // namespace capmaestro::rt
