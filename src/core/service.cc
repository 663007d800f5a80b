#include "core/service.hh"

#include <algorithm>
#include <chrono>
#include <map>

#include "util/logging.hh"

namespace capmaestro::core {

CapMaestroService::CapMaestroService(topo::PowerSystem &system,
                                     ServiceConfig config)
    : system_(system), config_(config),
      allocator_(std::make_unique<ctrl::FleetAllocator>(
          system, policy::treePolicy(config.policy))),
      rootBudgets_(system.trees().size(), 0.0)
{
    if (!config_.useMessagePlane)
        return;
    if (config_.transportBackend == ServiceConfig::TransportBackend::Udp) {
        net::UdpConfig udp = config_.udp;
        if (udp.local.empty()) {
            // Single-process loopback: every rack worker plus the room
            // gets a socket on an ephemeral 127.0.0.1 port.
            const auto racks =
                DistributedControlPlane::rackWorkerCountFor(system_);
            udp = net::UdpConfig::loopback(
                static_cast<std::uint32_t>(racks) + 1);
        }
        ownedTransport_ = std::make_unique<net::UdpTransport>(std::move(udp));
    } else {
        ownedTransport_ =
            std::make_unique<net::SimTransport>(config_.transport);
    }
    startPlane(*ownedTransport_);
}

CapMaestroService::CapMaestroService(topo::PowerSystem &system,
                                     ServiceConfig config,
                                     net::Transport &transport)
    : system_(system), config_(config),
      allocator_(std::make_unique<ctrl::FleetAllocator>(
          system, policy::treePolicy(config.policy))),
      rootBudgets_(system.trees().size(), 0.0)
{
    config_.useMessagePlane = true;
    startPlane(transport);
}

void
CapMaestroService::startPlane(net::Transport &transport)
{
    transport_ = &transport;
    plane_ = std::make_unique<DistributedControlPlane>(
        system_, policy::treePolicy(config_.policy), transport,
        config_.protocol);
}

void
CapMaestroService::attachServer(dev::ServerModel &server,
                                dev::NodeManager &nm,
                                dev::SensorEmulator &sensors)
{
    AttachedServer entry;
    entry.server = &server;
    entry.nm = &nm;
    entry.controller = std::make_unique<ctrl::CappingController>(
        server, nm, sensors, config_.capping);
    entry.controller->setTelemetry(registry_);
    servers_.push_back(std::move(entry));
}

void
CapMaestroService::enableTelemetry(telemetry::Registry *registry,
                                   telemetry::PeriodTracer *tracer)
{
    registry_ = registry;
    tracer_ = tracer;
    allocator_->setTelemetry(registry_);
    if (plane_)
        plane_->setTelemetry(registry_, tracer_);
    if (transport_)
        transport_->setTelemetry(registry_);
    for (auto &s : servers_)
        s.controller->setTelemetry(registry_);

    mTreeBudget_.clear();
    if (registry_ == nullptr) {
        mPeriodWallMs_ = {};
        mPeriods_ = {};
        mFleetDemand_ = {};
        return;
    }
    mPeriodWallMs_ = registry_->histogram(
        "capmaestro_period_wall_ms", 0.0, 50.0, 50, {},
        "Wall-clock time of one control period, milliseconds");
    mPeriods_ = registry_->counter("capmaestro_periods_total", {},
                                   "Control periods run");
    mFleetDemand_ =
        registry_->gauge("capmaestro_fleet_demand_watts", {},
                         "Total estimated uncapped AC demand");
    mTreeBudget_.reserve(system_.trees().size());
    for (const auto &tree : system_.trees()) {
        mTreeBudget_.push_back(registry_->gauge(
            "capmaestro_tree_budget_watts", {{"tree", tree->name()}},
            "Sum of per-supply budgets applied, by control tree"));
    }
}

void
CapMaestroService::setRootBudgets(std::vector<Watts> budgets)
{
    if (budgets.size() != system_.trees().size()) {
        util::fatal("CapMaestroService: %zu budgets for %zu trees",
                    budgets.size(), system_.trees().size());
    }
    rootBudgets_ = std::move(budgets);
}

void
CapMaestroService::refreshRootBudgets(Watts total_per_phase)
{
    const int live = system_.liveFeeds();
    if (live == 0) {
        std::fill(rootBudgets_.begin(), rootBudgets_.end(), 0.0);
        util::warn("CapMaestroService: no live feeds");
        return;
    }
    for (std::size_t t = 0; t < system_.trees().size(); ++t) {
        const auto &tree = system_.tree(t);
        rootBudgets_[t] = system_.feedFailed(tree.feed())
                              ? 0.0
                              : total_per_phase / live;
    }
}

void
CapMaestroService::senseTick()
{
    for (auto &s : servers_)
        s.controller->senseTick();
}

const PeriodStats &
CapMaestroService::runControlPeriod()
{
    const auto wall_start = registry_ != nullptr
                                ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
    if (tracer_)
        tracer_->beginPeriod(stats_.periodsRun);
    const auto close_span =
        tracer_ ? tracer_->begin("close") : telemetry::PeriodTracer::kNoSpan;

    // Phase 1: close controller periods and build the fleet inputs.
    std::vector<ctrl::ServerAllocInput> inputs;
    inputs.reserve(servers_.size());
    stats_.totalDemandEstimate = 0.0;
    for (auto &s : servers_) {
        const auto &report = s.controller->closePeriod();
        ctrl::ServerAllocInput in;
        const auto &spec = s.server->spec();
        in.priority = spec.priority;
        in.capMin = spec.capMin;
        in.capMax = spec.capMax;
        in.demand = report.demandEstimate;
        in.supplies.resize(report.shares.size());
        for (std::size_t i = 0; i < report.shares.size(); ++i) {
            in.supplies[i].share =
                std::max(report.shares[i], 1e-9);
            in.supplies[i].live = report.shares[i] > 0.0;
        }
        stats_.totalDemandEstimate += report.demandEstimate;
        inputs.push_back(std::move(in));
    }

    // Optional adaptive feed balancing: re-split each phase's
    // contractual budget across its live feeds in proportion to the
    // demand each feed carries this period.
    if (config_.adaptiveFeedBalance && config_.totalPerPhaseBudget > 0.0)
        rebalanceRootBudgets(inputs);

    if (tracer_) {
        tracer_->num(close_span, "servers",
                     static_cast<double>(servers_.size()));
        tracer_->end(close_span);
    }

    // Phase 2: global priority-aware allocation (+ SPO). In
    // message-plane mode the exchange runs over the transport instead.
    if (plane_) {
        runPlanePeriod(inputs);
    } else {
        const auto alloc_span =
            tracer_ ? tracer_->begin("allocate")
                    : telemetry::PeriodTracer::kNoSpan;
        stats_.allocation = allocator_->allocate(
            inputs, rootBudgets_, config_.enableSpo, config_.spoThreshold,
            config_.spoPasses);
        stats_.messages = MessageStats{};
        if (tracer_) {
            tracer_->num(alloc_span, "passes",
                         static_cast<double>(stats_.allocation.passes));
            tracer_->num(alloc_span, "feasible",
                         stats_.allocation.feasible ? 1.0 : 0.0);
            tracer_->num(alloc_span, "reclaimed_watts",
                         stats_.allocation.strandedReclaimed);
            tracer_->end(alloc_span);
        }
    }

    const auto apply_span =
        tracer_ ? tracer_->begin("apply") : telemetry::PeriodTracer::kNoSpan;

    // Phase 3: hand each server its per-supply budgets; the PI loop turns
    // them into a DC cap for the node manager.
    stats_.budgetByTree.assign(system_.trees().size(), 0.0);
    for (std::size_t i = 0; i < servers_.size(); ++i) {
        const auto &alloc = stats_.allocation.servers[i];
        servers_[i].controller->applyBudgets(alloc.supplyBudget);
        const auto ports =
            system_.livePortsOf(static_cast<std::int32_t>(i));
        for (const auto &[sup, loc] : ports) {
            stats_.budgetByTree[loc.tree] +=
                alloc.supplyBudget[static_cast<std::size_t>(sup)];
        }
    }
    ++stats_.periodsRun;

    if (tracer_)
        tracer_->end(apply_span);
    if (registry_ != nullptr) {
        mPeriods_.inc();
        mFleetDemand_.set(stats_.totalDemandEstimate);
        for (std::size_t t = 0; t < mTreeBudget_.size(); ++t)
            mTreeBudget_[t].set(stats_.budgetByTree[t]);
        const auto elapsed =
            std::chrono::steady_clock::now() - wall_start;
        mPeriodWallMs_.observe(
            std::chrono::duration<double, std::milli>(elapsed).count());
    }
    if (tracer_) {
        tracer_->periodNum("demand_watts", stats_.totalDemandEstimate);
        tracer_->periodNum("feasible",
                           stats_.allocation.feasible ? 1.0 : 0.0);
        tracer_->periodNum("passes",
                           static_cast<double>(stats_.allocation.passes));
        tracer_->periodNum("reclaimed_watts",
                           stats_.allocation.strandedReclaimed);
        tracer_->endPeriod();
    }
    return stats_;
}

void
CapMaestroService::runPlanePeriod(
    const std::vector<ctrl::ServerAllocInput> &inputs)
{
    // The leaf inputs are derived exactly as FleetAllocator derives them
    // (shared helpers), so under a lossless transport the plane's
    // budgets are bit-identical to the monolithic tree walk.
    std::vector<std::vector<Fraction>> shares(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        shares[i] = ctrl::effectiveSupplyShares(
            system_, inputs[i], static_cast<std::int32_t>(i));
    }
    for (const auto &tree : system_.trees()) {
        for (const auto &ref : tree->suppliesUnder(tree->root())) {
            const auto sid = static_cast<std::size_t>(ref.server);
            const auto sup = static_cast<std::size_t>(ref.supply);
            if (sid >= inputs.size()) {
                util::fatal("CapMaestroService: topology references "
                            "server %d but only %zu attached",
                            ref.server, inputs.size());
            }
            const Fraction r =
                sup < shares[sid].size() ? shares[sid][sup] : 0.0;
            plane_->setLeafInput(ref,
                                 ctrl::scaledLeafInput(inputs[sid], r));
        }
    }

    stats_.messages = plane_->iterate(rootBudgets_);

    const auto derive_caps = [&] {
        ctrl::deriveServerCapsFrom(
            system_, inputs, shares,
            [this](std::size_t, const topo::ServerSupplyRef &ref) {
                return plane_->leafBudget(ref);
            },
            stats_.allocation);
    };
    stats_.allocation = ctrl::FleetAllocation{};
    derive_caps();

    if (!config_.enableSpo) {
        ctrl::recordAllocationTelemetry(registry_, inputs,
                                        stats_.allocation);
        return;
    }

    // §4.4 stranded-power optimization over the message plane: detect
    // stranded supplies with the allocator's shared helper, run a second
    // gather/budget round-trip for the affected trees, and re-derive the
    // caps. Stranded power counts as reclaimed only on trees whose SPO
    // round committed; a tree that missed a deadline kept its first-pass
    // budgets and the plane reported the fallback.
    std::vector<Watts> stranded_first(inputs.size(), 0.0);
    while (stats_.allocation.passes < config_.spoPasses) {
        const auto pins = ctrl::detectStrandedSupplies(
            system_, inputs, shares, stats_.allocation,
            config_.spoThreshold);
        if (stats_.allocation.passes == 1) {
            for (const ctrl::SpoPin &pin : pins) {
                stranded_first[static_cast<std::size_t>(
                    pin.ref.server)] += pin.stranded;
            }
        }
        if (pins.empty())
            break;

        const auto committed =
            plane_->iterateSpo(rootBudgets_, pins, stats_.messages);
        for (const ctrl::SpoPin &pin : pins) {
            if (committed.count(pin.tree))
                stats_.allocation.strandedReclaimed += pin.stranded;
        }
        ++stats_.allocation.passes;
        derive_caps();
        if (committed.empty())
            break; // every tree fell back; re-detection would not move
    }
    for (std::size_t i = 0; i < inputs.size(); ++i)
        stats_.allocation.servers[i].strandedBeforeSpo = stranded_first[i];
    ctrl::recordAllocationTelemetry(registry_, inputs, stats_.allocation);
}

void
CapMaestroService::rebalanceRootBudgets(
    const std::vector<ctrl::ServerAllocInput> &inputs)
{
    // Per-tree demand proxy: each live supply requests its share of the
    // server's effective demand (never below the Pcap_min floor, which
    // every feed must be able to honor).
    std::vector<Watts> tree_demand(system_.trees().size(), 0.0);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const auto ports =
            system_.livePortsOf(static_cast<std::int32_t>(i));
        const auto &in = inputs[i];
        for (const auto &[sup, loc] : ports) {
            const auto s = static_cast<std::size_t>(sup);
            if (s >= in.supplies.size() || !in.supplies[s].live)
                continue;
            tree_demand[loc.tree] +=
                in.supplies[s].share * std::max(in.demand, in.capMin);
        }
    }

    // Group trees by phase; live trees share the phase budget in
    // proportion to demand (even split when nothing is drawn yet).
    std::map<int, std::vector<std::size_t>> by_phase;
    for (std::size_t t = 0; t < system_.trees().size(); ++t) {
        if (!system_.feedFailed(system_.tree(t).feed()))
            by_phase[system_.tree(t).phase()].push_back(t);
        else
            rootBudgets_[t] = 0.0;
    }
    for (const auto &[phase, trees] : by_phase) {
        Watts demand_sum = 0.0;
        for (const auto t : trees)
            demand_sum += tree_demand[t];
        for (const auto t : trees) {
            rootBudgets_[t] =
                demand_sum > 1e-6
                    ? config_.totalPerPhaseBudget * tree_demand[t]
                          / demand_sum
                    : config_.totalPerPhaseBudget
                          / static_cast<double>(trees.size());
        }
    }
}

ctrl::CappingController &
CapMaestroService::controller(std::size_t server_id)
{
    if (server_id >= servers_.size())
        util::panic("CapMaestroService: bad server id %zu", server_id);
    return *servers_[server_id].controller;
}

} // namespace capmaestro::core
