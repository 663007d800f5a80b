#include "control/allocator.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "util/logging.hh"
#include "util/numeric.hh"

namespace capmaestro::ctrl {

FleetAllocator::FleetAllocator(const topo::PowerSystem &system,
                               TreePolicy policy)
    : system_(system)
{
    trees_.reserve(system_.trees().size());
    for (const auto &t : system_.trees())
        trees_.push_back(std::make_unique<ControlTree>(*t, policy));
}

const ControlTree &
FleetAllocator::tree(std::size_t index) const
{
    if (index >= trees_.size())
        util::panic("FleetAllocator: bad tree index %zu", index);
    return *trees_[index];
}

std::vector<Fraction>
effectiveSupplyShares(const topo::PowerSystem &system,
                      const ServerAllocInput &server,
                      std::int32_t server_id)
{
    std::vector<Fraction> shares;
    effectiveSupplyShares(system, server, server_id, shares);
    return shares;
}

void
effectiveSupplyShares(const topo::PowerSystem &system,
                      const ServerAllocInput &server,
                      std::int32_t server_id, std::vector<Fraction> &shares)
{
    shares.assign(server.supplies.size(), 0.0);
    const auto fed = [&](std::size_t s) {
        return system.supplyFed(server_id, static_cast<std::int32_t>(s))
               && server.supplies[s].live;
    };

    double live_sum = 0.0;
    for (std::size_t s = 0; s < server.supplies.size(); ++s) {
        if (fed(s))
            live_sum += server.supplies[s].share;
    }
    if (live_sum <= 0.0)
        return; // server is dark

    for (std::size_t s = 0; s < server.supplies.size(); ++s) {
        if (fed(s))
            shares[s] = server.supplies[s].share / live_sum;
    }
}

LeafInput
scaledLeafInput(const ServerAllocInput &server, Fraction r)
{
    LeafInput leaf;
    if (r <= 0.0) {
        leaf.live = false;
        return leaf;
    }
    const Watts demand_eff = std::max(server.demand, server.capMin);
    leaf.live = true;
    leaf.priority = server.priority;
    leaf.capMin = r * server.capMin;
    leaf.demand = r * std::min(demand_eff, server.capMax);
    leaf.constraint = r * server.capMax;
    return leaf;
}

void
deriveServerCapsFrom(
    const topo::PowerSystem &system,
    const std::vector<ServerAllocInput> &servers,
    const std::vector<std::vector<Fraction>> &shares,
    const std::function<Watts(std::size_t tree,
                              const topo::ServerSupplyRef &ref)>
        &budget_of,
    FleetAllocation &out)
{
    out.servers.assign(servers.size(), ServerAllocation{});
    for (std::size_t i = 0; i < servers.size(); ++i) {
        const ServerAllocInput &in = servers[i];
        ServerAllocation &alloc = out.servers[i];
        alloc.supplyBudget.assign(in.supplies.size(), 0.0);
        alloc.effectiveDemand =
            util::clamp(std::max(in.demand, in.capMin), in.capMin,
                        in.capMax);

        const auto live_ports =
            system.livePortsOf(static_cast<std::int32_t>(i));
        Watts binding = topo::kUnlimited;
        bool any_live = false;
        for (const auto &[sup, loc] : live_ports) {
            const auto s = static_cast<std::size_t>(sup);
            const Fraction r = s < shares[i].size() ? shares[i][s] : 0.0;
            if (r <= 0.0)
                continue;
            const Watts budget = budget_of(
                loc.tree, {static_cast<std::int32_t>(i), sup});
            alloc.supplyBudget[s] = budget;
            binding = std::min(binding, budget / r);
            any_live = true;
        }

        if (!any_live) {
            alloc.enforceableCapAc = 0.0;
            alloc.capped = true;
            continue;
        }

        alloc.enforceableCapAc =
            util::clamp(binding, in.capMin, in.capMax);
        alloc.capped =
            alloc.enforceableCapAc < alloc.effectiveDemand - 1e-6;
    }
}

std::vector<SpoPin>
detectStrandedSupplies(const topo::PowerSystem &system,
                      const std::vector<ServerAllocInput> &servers,
                      const std::vector<std::vector<Fraction>> &shares,
                      const FleetAllocation &current,
                      Watts spo_threshold)
{
    std::vector<SpoPin> pins;
    for (std::size_t i = 0; i < servers.size(); ++i) {
        const ServerAllocation &alloc = current.servers[i];
        if (!alloc.capped)
            continue;
        const Watts usable_total =
            std::min(alloc.enforceableCapAc, alloc.effectiveDemand);
        for (std::size_t s = 0; s < alloc.supplyBudget.size(); ++s) {
            const Fraction r = shares[i][s];
            if (r <= 0.0)
                continue;
            const Watts consumption = r * usable_total;
            const Watts stranded = alloc.supplyBudget[s] - consumption;
            if (stranded <= spo_threshold)
                continue;
            const auto ports =
                system.livePortsOf(static_cast<std::int32_t>(i));
            const auto it = ports.find(static_cast<std::int32_t>(s));
            if (it == ports.end())
                continue; // unreachable: r > 0 implies a live port
            SpoPin pin;
            pin.ref = {static_cast<std::int32_t>(i),
                       static_cast<std::int32_t>(s)};
            pin.tree = it->second.tree;
            pin.consumption = consumption;
            pin.stranded = stranded;
            pin.priority = servers[i].priority;
            pins.push_back(pin);
        }
    }
    return pins;
}

void
recordAllocationTelemetry(telemetry::Registry *registry,
                          const std::vector<ServerAllocInput> &servers,
                          const FleetAllocation &alloc)
{
    if (registry == nullptr)
        return;

    // Aggregate grants and unmet demand by priority class.
    std::map<Priority, Watts> granted;
    std::map<Priority, Watts> denied;
    for (std::size_t i = 0; i < servers.size(); ++i) {
        const ServerAllocation &server = alloc.servers[i];
        granted[servers[i].priority] += server.enforceableCapAc;
        denied[servers[i].priority] += std::max(
            0.0, server.effectiveDemand - server.enforceableCapAc);
    }
    for (const auto &[priority, watts] : granted) {
        registry
            ->gauge("capmaestro_alloc_granted_watts",
                    {{"priority", std::to_string(priority)}},
                    "Enforceable AC cap granted, by priority class")
            .set(watts);
    }
    for (const auto &[priority, watts] : denied) {
        registry
            ->gauge("capmaestro_alloc_denied_watts",
                    {{"priority", std::to_string(priority)}},
                    "Demand above the granted cap, by priority class")
            .set(watts);
    }
    registry
        ->gauge("capmaestro_alloc_feasible", {},
                "1 when every tree covered its Pcap_min floors")
        .set(alloc.feasible ? 1.0 : 0.0);
    registry
        ->gauge("capmaestro_alloc_passes", {},
                "Allocation passes run last period (2+ = SPO re-run)")
        .set(static_cast<double>(alloc.passes));
    registry
        ->gauge("capmaestro_spo_reclaimed_watts", {},
                "Stranded watts reclaimed by SPO last period")
        .set(alloc.strandedReclaimed);
    registry
        ->counter("capmaestro_spo_reclaimed_watts_total", {},
                  "Cumulative stranded watts reclaimed by SPO")
        .inc(alloc.strandedReclaimed);
}

LeafInput
pinnedLeafInput(Priority priority, Watts consumption)
{
    LeafInput pinned;
    pinned.live = true;
    pinned.priority = priority;
    pinned.capMin = consumption;
    pinned.demand = consumption;
    pinned.constraint = consumption;
    return pinned;
}

std::vector<Fraction>
FleetAllocator::effectiveShares(const ServerAllocInput &server,
                                std::int32_t server_id) const
{
    return effectiveSupplyShares(system_, server, server_id);
}

void
FleetAllocator::pushLeafInputs(
    const std::vector<ServerAllocInput> &servers,
    const std::vector<std::vector<Fraction>> &shares)
{
    for (std::size_t t = 0; t < trees_.size(); ++t) {
        ControlTree &tree = *trees_[t];
        for (const auto &ref : tree.leafRefs()) {
            const auto sid = static_cast<std::size_t>(ref.server);
            if (sid >= servers.size()) {
                util::fatal("FleetAllocator: topology references server %d "
                            "but only %zu inputs given", ref.server,
                            servers.size());
            }
            const ServerAllocInput &in = servers[sid];
            const auto sup = static_cast<std::size_t>(ref.supply);
            const Fraction r =
                sup < shares[sid].size() ? shares[sid][sup] : 0.0;
            tree.setLeafInput(ref, scaledLeafInput(in, r));
        }
    }
}

void
FleetAllocator::runPass(const std::vector<Watts> &root_budgets,
                        FleetAllocation &out)
{
    for (std::size_t t = 0; t < trees_.size(); ++t) {
        if (system_.feedFailed(system_.tree(t).feed()))
            continue;
        trees_[t]->gather();
        const auto outcome = trees_[t]->allocate(root_budgets[t]);
        if (!outcome.feasible)
            out.feasible = false;
    }
}

void
FleetAllocator::deriveServerCaps(
    const std::vector<ServerAllocInput> &servers,
    const std::vector<std::vector<Fraction>> &shares,
    FleetAllocation &out) const
{
    deriveServerCapsFrom(
        system_, servers, shares,
        [this](std::size_t tree, const topo::ServerSupplyRef &ref) {
            return trees_[tree]->leafBudget(ref);
        },
        out);
}

FleetAllocation
FleetAllocator::allocate(const std::vector<ServerAllocInput> &servers,
                         const std::vector<Watts> &root_budgets,
                         bool enable_spo, Watts spo_threshold,
                         int max_passes)
{
    if (root_budgets.size() != trees_.size())
        util::fatal("FleetAllocator: %zu root budgets for %zu trees",
                    root_budgets.size(), trees_.size());
    if (max_passes < 1)
        util::fatal("FleetAllocator: max_passes must be >= 1");

    FleetAllocation out;

    std::vector<std::vector<Fraction>> shares(servers.size());
    for (std::size_t i = 0; i < servers.size(); ++i)
        shares[i] = effectiveShares(servers[i],
                                    static_cast<std::int32_t>(i));

    pushLeafInputs(servers, shares);
    runPass(root_budgets, out);
    deriveServerCaps(servers, shares, out);

    if (!enable_spo) {
        recordAllocationTelemetry(registry_, servers, out);
        return out;
    }

    // Stranded-power optimization: on capped servers, any live supply
    // whose budget exceeds what the binding supply lets the server draw
    // holds stranded power. Pin those supplies to their usable
    // consumption and re-run the allocation so the freed power reaches
    // capped servers. Reclaiming on one feed can shift another server's
    // binding supply and strand budget elsewhere, so iterate (up to
    // max_passes total) until no new stranded power appears; the paper's
    // configuration is exactly one re-run (max_passes = 2).
    std::vector<Watts> stranded_first_pass(servers.size(), 0.0);
    while (out.passes < max_passes) {
        const auto pins = detectStrandedSupplies(system_, servers, shares,
                                                 out, spo_threshold);
        for (const auto &pin : pins) {
            if (out.passes == 1)
                stranded_first_pass[static_cast<std::size_t>(
                    pin.ref.server)] += pin.stranded;
            out.strandedReclaimed += pin.stranded;
            // Pin this supply's next-pass metrics to consumption.
            trees_[pin.tree]->setLeafInput(
                pin.ref, pinnedLeafInput(pin.priority, pin.consumption));
        }
        if (pins.empty())
            break;

        runPass(root_budgets, out);
        deriveServerCaps(servers, shares, out);
        ++out.passes;
    }

    for (std::size_t i = 0; i < servers.size(); ++i)
        out.servers[i].strandedBeforeSpo = stranded_first_pass[i];
    recordAllocationTelemetry(registry_, servers, out);
    return out;
}

} // namespace capmaestro::ctrl
