#include "rt/leaf.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "policy/policy.hh"

namespace capmaestro::rt {

namespace {

/** Every double of @p msg is finite. */
bool
finiteCheckpoint(const net::CheckpointMsg &msg)
{
    bool finite = std::isfinite(msg.simNow);
    for (const net::CheckpointServer &rec : msg.servers) {
        finite = finite && std::isfinite(rec.integratorDc)
                 && std::isfinite(rec.demandEstimate)
                 && std::isfinite(rec.avgThrottle);
        for (const net::CheckpointSupply &s : rec.supplies) {
            finite = finite && std::isfinite(s.lastBudget)
                     && std::isfinite(s.share) && std::isfinite(s.avgAc);
        }
    }
    return finite;
}

/** Restore each homed server's controller state and last budgets from
 *  @p msg (servers not homed here are skipped). */
void
restorePlants(std::vector<Plant> &plants, const net::CheckpointMsg &msg)
{
    for (const net::CheckpointServer &rec : msg.servers) {
        const auto plant = std::find_if(
            plants.begin(), plants.end(),
            [&rec](const Plant &p) { return p.serverId == rec.serverId; });
        if (plant == plants.end())
            continue; // not homed here (partition changed?) — skip

        ctrl::CappingControllerState state;
        state.integratorDc = rec.integratorDc;
        state.integratorPrimed = rec.integratorPrimed;
        state.report.demandEstimate = rec.demandEstimate;
        state.report.avgThrottle = rec.avgThrottle;
        plant->lastBudgets.resize(plant->server->supplyCount(), 0.0);
        for (std::size_t s = 0; s < rec.supplies.size(); ++s) {
            state.report.supplyAvgAc.push_back(rec.supplies[s].avgAc);
            state.report.shares.push_back(rec.supplies[s].share);
            if (rec.supplies[s].share > 0.0)
                ++state.report.workingSupplies;
            if (s < plant->lastBudgets.size())
                plant->lastBudgets[s] = rec.supplies[s].lastBudget;
        }
        plant->controller->restoreState(state);
    }
}

} // namespace

LeafRole::LeafRole(
    const config::LoadedScenario &scenario, std::uint32_t endpoint,
    const std::map<std::size_t, topo::NodeId> &edges,
    const std::map<std::pair<std::size_t, topo::NodeId>, Watts>
        &nominal_floor,
    std::vector<Plant> plants)
    : system_(*scenario.system), service_(scenario.service),
      rack_(system_, policy::treePolicy(service_.policy)),
      endpoint_(endpoint), plants_(std::move(plants))
{
    for (const auto &[tree, node] : edges) {
        rack_.addEdge(tree, node);
        edges_.push_back({tree, node, nominal_floor.at({tree, node})});
    }
}

net::CheckpointMsg
LeafRole::advance(std::uint32_t epoch)
{
    epoch_ = epoch;
    replayed_ = false;
    for (Edge &edge : edges_)
        edge.budgeted = false;
    advancePlants(plants_, service_.controlPeriod, simNow_);
    net::CheckpointMsg checkpoint{static_cast<double>(simNow_),
                                  rehomeAckEpoch_, {}};
    closePlantPeriods(plants_, system_, rack_, checkpoint);
    return checkpoint;
}

std::vector<net::MetricsMsg>
LeafRole::metrics()
{
    std::vector<net::MetricsMsg> out;
    for (const Edge &e : edges_) {
        out.push_back({static_cast<std::uint16_t>(e.tree),
                       static_cast<std::uint32_t>(e.node),
                       rack_.computeMetrics(e.tree, e.node)});
    }
    return out;
}

bool
LeafRole::noteDownFrame(const net::Frame &frame, RuntimeStats &stats,
                        core::EventLog &events)
{
    const bool rehome = frame.type == net::MsgType::Rehome;
    const auto node = static_cast<topo::NodeId>(frame.budget.edgeNode);
    const auto edge = std::find_if(
        edges_.begin(), edges_.end(), [&](const Edge &e) {
            return frame.type == net::MsgType::Budget
                   && e.tree == frame.budget.tree && e.node == node;
        });
    // Another epoch, a Rehome not from the root, a Budget for an edge
    // this leaf does not own, or any other type.
    if (frame.epoch != epoch_
        || (rehome ? frame.sender != net::kRoomSender
                   : edge == edges_.end())) {
        ++stats.orphanFrames;
        return false;
    }
    if (rehome) {
        const net::CheckpointMsg &ckpt = frame.checkpoint;
        // The root retransmits the Rehome like any downstream frame;
        // one replay (or decline) per epoch is the whole handshake.
        if (rehomeAckEpoch_ == epoch_)
            return true;
        rehomeAckEpoch_ = epoch_;
        if (periodsClosed_ >= static_cast<std::size_t>(
                service_.protocol.heartbeatFailAfter)) {
            // An intact instance that merely rode out a partition has
            // newer state than the root's checkpoint of it: decline,
            // but ack so the root stops re-sending.
            ++stats.rehomesDeclined;
            events.record(static_cast<Seconds>(epoch_),
                          core::EventKind::RehomeDeclined,
                          "worker" + std::to_string(endpoint_),
                          static_cast<double>(epoch_));
        } else if (!finiteCheckpoint(ckpt)) {
            ++stats.corruptFrames;
        } else {
            restorePlants(plants_, ckpt);
            // Never rewind the plant clock: a replay onto an instance
            // that already ran periods must not repeat workload history.
            simNow_ = std::max(simNow_, static_cast<Seconds>(ckpt.simNow));
            replayed_ = true;
            ++stats.rehomesApplied;
            events.record(static_cast<Seconds>(epoch_),
                          core::EventKind::CheckpointReplayed,
                          "worker" + std::to_string(endpoint_),
                          static_cast<double>(ckpt.servers.size()));
        }
        return true;
    }
    const Watts watts = frame.budget.budget;
    if (!std::isfinite(watts) || watts < 0.0) {
        ++stats.corruptFrames;
    } else if (!edge->budgeted) { // a duplicate keeps the first copy
        edge->budget = watts;
        edge->budgeted = true;
        ++stats.budgetsApplied;
    }
    return false;
}

bool
LeafRole::complete() const
{
    return std::all_of(edges_.begin(), edges_.end(),
                       [](const Edge &e) { return e.budgeted; });
}

void
LeafRole::close(membership::UnitState self, RuntimeStats &stats,
                core::EventLog &events)
{
    const bool shadow = self != membership::UnitState::Live;
    const bool clamp = replayed_ || shadow;
    for (Edge &edge : edges_) {
        const Watts floor = std::min(
            rack_.defaultBudget(edge.tree, edge.node), edge.floor);
        if (!edge.budgeted) {
            edge.budget = floor;
            ++stats.defaultBudgets;
            const auto &tree = system_.tree(edge.tree);
            events.record(static_cast<Seconds>(epoch_),
                          core::EventKind::DefaultBudgetApplied,
                          tree.name() + "." + tree.node(edge.node).name,
                          floor);
        }
        if (clamp) {
            edge.budget = std::min(
                edge.budget,
                self == membership::UnitState::Left ? 0.0 : floor);
        }
        rack_.applyBudget(edge.tree, edge.node, edge.budget);
    }
    if (shadow)
        ++stats.shadowPeriods;
    else if (replayed_)
        ++stats.clampedPeriods;
    applyPlantBudgets(plants_, rack_);
    ++periodsClosed_;
}

std::vector<LeafRole>
buildLeaves(config::LoadedScenario &scenario,
            const std::vector<std::uint32_t> &endpoints,
            const std::map<std::pair<std::size_t, topo::NodeId>, Watts>
                &nominal_floor,
            std::uint64_t seed)
{
    const auto partition =
        core::DistributedControlPlane::partitionEdges(*scenario.system);
    std::map<std::size_t, std::map<std::size_t, topo::NodeId>> want;
    for (const std::uint32_t ep : endpoints)
        want[ep] = partition[ep];
    auto plants = buildPlants(scenario, *scenario.system, want, seed);
    std::vector<LeafRole> leaves;
    leaves.reserve(endpoints.size());
    for (const std::uint32_t ep : endpoints) {
        leaves.emplace_back(scenario, ep, partition[ep], nominal_floor,
                            std::move(plants[ep]));
    }
    return leaves;
}

} // namespace capmaestro::rt
