#include "sim/closed_loop.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"

namespace capmaestro::sim {

ClosedLoopSim::ClosedLoopSim(std::unique_ptr<topo::PowerSystem> system,
                             std::vector<ServerSetup> servers,
                             core::ServiceConfig config, std::uint64_t seed,
                             dev::SensorConfig sensor_config)
    : system_(std::move(system))
{
    if (!system_)
        util::fatal("ClosedLoopSim: null power system");
    service_ = std::make_unique<core::CapMaestroService>(*system_, config);
    buildPlant(std::move(servers), seed, sensor_config);
}

ClosedLoopSim::ClosedLoopSim(std::unique_ptr<topo::PowerSystem> system,
                             std::vector<ServerSetup> servers,
                             core::ServiceConfig config,
                             net::Transport &transport, std::uint64_t seed,
                             dev::SensorConfig sensor_config)
    : system_(std::move(system))
{
    if (!system_)
        util::fatal("ClosedLoopSim: null power system");
    service_ = std::make_unique<core::CapMaestroService>(*system_, config,
                                                         transport);
    buildPlant(std::move(servers), seed, sensor_config);
}

void
ClosedLoopSim::buildPlant(std::vector<ServerSetup> servers,
                          std::uint64_t seed,
                          const dev::SensorConfig &sensor_config)
{
    util::Rng rng(seed);
    plants_.reserve(servers.size());
    for (auto &setup : servers) {
        Plant plant;
        plant.server =
            std::make_unique<dev::ServerModel>(std::move(setup.spec));
        plant.nm = std::make_unique<dev::NodeManager>(*plant.server);
        plant.sensors = std::make_unique<dev::SensorEmulator>(
            *plant.server, *plant.nm, rng.fork(), sensor_config);
        plant.workload = std::move(setup.workload);
        if (!plant.workload)
            util::fatal("ClosedLoopSim: server without workload");
        service_->attachServer(*plant.server, *plant.nm, *plant.sensors);
        plants_.push_back(std::move(plant));
    }

    // One flat slot per server supply for the per-tick AC samples.
    supplyBase_.reserve(plants_.size());
    std::size_t supplies = 0;
    for (const auto &plant : plants_) {
        supplyBase_.push_back(supplies);
        supplies += plant.server->supplyCount();
    }
    supplyAc_.assign(supplies, 0.0);
    budgetSeries_.resize(plants_.size());

    // Arm a trip integrator on every rated non-leaf node.
    for (std::size_t t = 0; t < system_->trees().size(); ++t) {
        const auto &tree = system_->tree(t);
        tree.forEach([&](const topo::TopoNode &n) {
            if (n.kind == topo::NodeKind::SupplyPort
                || n.rating == topo::kUnlimited)
                return;
            auto &bw = breakers_.emplace_back(
                t, n.id, tree.name() + "." + n.name, n.rating);
            for (const auto &ref : tree.suppliesUnder(n.id)) {
                const auto id = static_cast<std::size_t>(ref.server);
                const auto supply = static_cast<std::size_t>(ref.supply);
                if (supply < plants_[id].server->supplyCount())
                    bw.supplies.push_back(supplyBase_[id] + supply);
            }
        });
    }

    // Initialize workloads at t=0.
    for (auto &plant : plants_)
        plant.server->setUtilization(plant.workload->utilizationAt(0));
}

void
ClosedLoopSim::setManualBudgets(std::size_t server_id,
                                std::vector<Watts> budgets)
{
    if (server_id >= plants_.size())
        util::panic("ClosedLoopSim: bad server id %zu", server_id);
    manualBudgets_[server_id] = std::move(budgets);
}

void
ClosedLoopSim::setRootBudgets(std::vector<Watts> budgets)
{
    service_->setRootBudgets(std::move(budgets));
}

void
ClosedLoopSim::at(Seconds t, std::function<void()> event)
{
    if (t < now_)
        util::fatal("ClosedLoopSim: event scheduled in the past");
    events_.emplace(t, std::move(event));
}

void
ClosedLoopSim::failFeedAt(Seconds t, int feed, Watts total_per_phase)
{
    at(t, [this, feed, total_per_phase] {
        events_log_.record(now_, core::EventKind::FeedFailed,
                           "feed" + std::to_string(feed));
        system_->failFeed(feed);
        for (auto &plant : plants_) {
            // Feed failure kills the corresponding supply on every
            // dual-corded server (supply index == feed by convention),
            // a parked hot spare included: it must not wake onto a dead
            // feed, and a server whose active supply dies wakes it.
            if (static_cast<std::size_t>(feed)
                    < plant.server->supplyCount()
                && plant.server->supplyState(
                       static_cast<std::size_t>(feed))
                       != dev::SupplyState::Failed) {
                plant.server->setSupplyState(
                    static_cast<std::size_t>(feed),
                    dev::SupplyState::Failed);
            }
        }
        service_->refreshRootBudgets(total_per_phase);
    });
}

void
ClosedLoopSim::failSupplyAt(Seconds t, std::size_t server_id,
                            std::size_t supply)
{
    if (server_id >= plants_.size())
        util::panic("ClosedLoopSim: bad server id %zu", server_id);
    at(t, [this, server_id, supply] {
        events_log_.record(now_, core::EventKind::SupplyFailed,
                           plants_[server_id].server->spec().name + ".ps"
                               + std::to_string(supply));
        plants_[server_id].server->setSupplyState(
            supply, dev::SupplyState::Failed);
    });
}

void
ClosedLoopSim::setPriorityAt(Seconds t, std::size_t server_id,
                             Priority priority)
{
    if (server_id >= plants_.size())
        util::panic("ClosedLoopSim: bad server id %zu", server_id);
    at(t, [this, server_id, priority] {
        plants_[server_id].server->setPriority(priority);
    });
}

void
ClosedLoopSim::utilityBlipAt(Seconds t, int feed, Seconds duration,
                             Seconds ups_holdup, Watts total_per_phase)
{
    at(t, [this, feed, duration, ups_holdup] {
        events_log_.record(now_, core::EventKind::UtilityDisturbance,
                           "feed" + std::to_string(feed),
                           static_cast<double>(duration));
        if (duration <= ups_holdup) {
            events_log_.record(now_, core::EventKind::UpsBridged,
                               "feed" + std::to_string(feed),
                               static_cast<double>(ups_holdup));
        }
    });
    if (duration <= ups_holdup)
        return; // fully bridged: servers never notice

    // The UPS carries the first ups_holdup seconds; then the feed is
    // genuinely down until the disturbance ends.
    failFeedAt(t + ups_holdup, feed, total_per_phase);
    at(t + duration, [this, feed, total_per_phase] {
        events_log_.record(now_, core::EventKind::FeedRestored,
                           "feed" + std::to_string(feed));
        system_->restoreFeed(feed);
        for (auto &plant : plants_) {
            if (static_cast<std::size_t>(feed)
                    < plant.server->supplyCount()
                && plant.server->supplyState(
                       static_cast<std::size_t>(feed))
                       == dev::SupplyState::Failed) {
                plant.server->setSupplyState(
                    static_cast<std::size_t>(feed), dev::SupplyState::Ok);
            }
        }
        service_->refreshRootBudgets(total_per_phase);
    });
}

void
ClosedLoopSim::attachTraffic(std::unique_ptr<TrafficDriver> driver)
{
    traffic_ = std::move(driver);
}

dev::ServerModel &
ClosedLoopSim::server(std::size_t id)
{
    if (id >= plants_.size())
        util::panic("ClosedLoopSim: bad server id %zu", id);
    return *plants_[id].server;
}

std::string
ClosedLoopSim::serverSeries(std::size_t id, const char *what)
{
    return "S" + std::to_string(id) + "." + what;
}

std::string
ClosedLoopSim::supplySeries(std::size_t id, std::size_t supply,
                            const char *what)
{
    return "S" + std::to_string(id) + ".ps" + std::to_string(supply) + "."
           + what;
}

void
ClosedLoopSim::sampleSupplyAc()
{
    for (std::size_t i = 0; i < plants_.size(); ++i) {
        const auto &server = *plants_[i].server;
        Watts *out = supplyAc_.data() + supplyBase_[i];
        for (std::size_t s = 0; s < server.supplyCount(); ++s)
            out[s] = server.supplyAc(s);
    }
}

Watts
ClosedLoopSim::nodeLoad(const BreakerWatch &bw) const
{
    Watts load = 0.0;
    if (system_->feedFailed(system_->tree(bw.tree).feed()))
        return 0.0;
    for (const std::size_t k : bw.supplies)
        load += supplyAc_[k];
    return load;
}

void
ClosedLoopSim::internStateSeries()
{
    serverSeries_.resize(plants_.size());
    for (std::size_t i = 0; i < plants_.size(); ++i) {
        auto &ids = serverSeries_[i];
        ids.power = recorder_.intern(serverSeries(i, "power"));
        ids.throughput = recorder_.intern(serverSeries(i, "throughput"));
        ids.dcCap = recorder_.intern(serverSeries(i, "dcCap"));
        ids.throttle = recorder_.intern(serverSeries(i, "throttle"));
        for (std::size_t s = 0; s < plants_[i].server->supplyCount(); ++s) {
            ids.supplyPower.push_back(
                recorder_.intern(supplySeries(i, s, "power")));
        }
    }
    for (auto &bw : breakers_)
        bw.series = recorder_.intern(bw.name + ".power");
}

stats::SeriesId
ClosedLoopSim::budgetSeries(std::size_t id, std::size_t supply)
{
    auto &ids = budgetSeries_[id];
    while (ids.size() <= supply) {
        ids.push_back(
            recorder_.intern(supplySeries(id, ids.size(), "budget")));
    }
    return ids[supply];
}

void
ClosedLoopSim::recordState()
{
    if (serverSeries_.empty())
        internStateSeries();
    for (std::size_t i = 0; i < plants_.size(); ++i) {
        const auto &plant = plants_[i];
        const auto &ids = serverSeries_[i];
        recorder_.record(ids.power, now_, plant.server->actualAc());
        recorder_.record(ids.throughput, now_,
                         plant.server->normalizedThroughput());
        recorder_.record(ids.dcCap, now_, plant.nm->appliedDcCap());
        recorder_.record(ids.throttle, now_,
                         plant.server->throttleLevel());
        const Watts *ac = supplyAc_.data() + supplyBase_[i];
        for (std::size_t s = 0; s < ids.supplyPower.size(); ++s)
            recorder_.record(ids.supplyPower[s], now_, ac[s]);
    }
    for (const auto &bw : breakers_)
        recorder_.record(bw.series, now_, bw.load);
}

void
ClosedLoopSim::enableTelemetry(telemetry::Registry *registry,
                               telemetry::PeriodTracer *tracer)
{
    tracer_ = tracer;
    service_->enableTelemetry(registry, tracer);
}

void
ClosedLoopSim::controlPeriodTick()
{
    if (tracer_)
        tracer_->noteSimTime(static_cast<double>(now_));
    // Job-derived priorities must land before the allocator reads them.
    if (traffic_)
        traffic_->controlPeriodBoundary(*this, now_);
    if (manualMode_) {
        for (std::size_t i = 0; i < plants_.size(); ++i) {
            auto &controller = service_->controller(i);
            controller.closePeriod();
            auto it = manualBudgets_.find(i);
            if (it != manualBudgets_.end())
                controller.applyBudgets(it->second);
        }
    } else {
        service_->runControlPeriod();
        const auto &alloc = service_->lastStats().allocation;
        if (!alloc.feasible) {
            events_log_.record(now_, core::EventKind::BudgetInfeasible,
                               "fleet");
        }
        if (alloc.strandedReclaimed > 1.0) {
            events_log_.record(now_, core::EventKind::SpoReclaimed,
                               "fleet", alloc.strandedReclaimed);
        }
        // Message-plane degraded-mode decisions (§4.5) become events so
        // operators can audit every fallback the protocol took.
        for (const auto &d : service_->lastStats().messages.degraded) {
            core::EventKind kind = core::EventKind::SpoFallback;
            switch (d.kind) {
              case core::DegradedKind::StaleMetricsReused:
                kind = core::EventKind::StaleMetricsReused;
                break;
              case core::DegradedKind::MetricsLost:
                kind = core::EventKind::MetricsLost;
                break;
              case core::DegradedKind::DefaultBudgetApplied:
                kind = core::EventKind::DefaultBudgetApplied;
                break;
              case core::DegradedKind::SpoFallback:
                kind = core::EventKind::SpoFallback;
                break;
            }
            // SPO fallback is tree-wide: no single edge node to name.
            std::string subject = system_->tree(d.tree).name();
            if (d.kind != core::DegradedKind::SpoFallback)
                subject += "." + system_->tree(d.tree).node(d.node).name;
            events_log_.record(now_, kind, std::move(subject), d.value);
        }
        for (std::size_t i = 0; i < plants_.size(); ++i) {
            const auto &budgets = alloc.servers[i].supplyBudget;
            for (std::size_t s = 0; s < budgets.size(); ++s)
                recorder_.record(budgetSeries(i, s), now_, budgets[s]);
        }
    }
    if (manualMode_) {
        for (const auto &[id, budgets] : manualBudgets_) {
            for (std::size_t s = 0; s < budgets.size(); ++s)
                recorder_.record(budgetSeries(id, s), now_, budgets[s]);
        }
    }
}

void
ClosedLoopSim::tick()
{
    // Fire due events.
    while (!events_.empty() && events_.begin()->first <= now_) {
        auto it = events_.begin();
        auto fn = std::move(it->second);
        events_.erase(it);
        fn();
    }

    // Workloads drive demand. With a traffic layer attached, the
    // per-server trace becomes the background level the driver may
    // overwrite with job-derived demand.
    if (traffic_) {
        trafficUtil_.resize(plants_.size());
        for (std::size_t i = 0; i < plants_.size(); ++i)
            trafficUtil_[i] = plants_[i].workload->utilizationAt(now_);
        traffic_->beginTick(*this, now_, trafficUtil_);
        for (std::size_t i = 0; i < plants_.size(); ++i)
            plants_[i].server->setUtilization(trafficUtil_[i]);
    } else {
        for (auto &plant : plants_)
            plant.server->setUtilization(plant.workload->utilizationAt(now_));
    }

    // 1 Hz sensing.
    service_->senseTick();

    // Control period boundary.
    const Seconds period = service_->config().controlPeriod;
    if (now_ > 0 && now_ % period == 0) {
        controlPeriodTick();
        lastControlPeriod_ = now_;
    } else if (service_->config().emergencyFastPath && !manualMode_
               && now_ - lastControlPeriod_
                      >= service_->config().emergencyMinSpacing) {
        // Emergency fast path: any rated node above its continuous
        // limit triggers an immediate out-of-cycle period.
        sampleSupplyAc();
        const bool over_limit = std::any_of(
            breakers_.begin(), breakers_.end(), [&](const BreakerWatch &bw) {
                return nodeLoad(bw)
                       > system_->tree(bw.tree).node(bw.node).limit();
            });
        if (over_limit) {
            events_log_.record(now_, core::EventKind::EmergencyPeriod,
                               "fleet");
            controlPeriodTick();
            lastControlPeriod_ = now_;
        }
    }

    // Actuation dynamics.
    for (auto &plant : plants_)
        plant.nm->step(1.0);

    // Jobs accrue progress at the post-actuation speed.
    if (traffic_)
        traffic_->endTick(*this, now_);

    // Breaker protection with overload-window event tracking. The
    // samples taken here are also the ones recordState() records.
    sampleSupplyAc();
    for (auto &bw : breakers_) {
        const Watts load = nodeLoad(bw);
        bw.load = load;
        const std::string &name = bw.name;
        const bool over = load > bw.integrator.rating();
        if (over && !bw.overloaded) {
            events_log_.record(now_, core::EventKind::BreakerOverloadBegan,
                               name, load);
        } else if (!over && bw.overloaded) {
            events_log_.record(now_,
                               core::EventKind::BreakerOverloadCleared,
                               name, load);
        }
        bw.overloaded = over;
        const bool was_tripped = bw.integrator.tripped();
        if (bw.integrator.advance(load, 1.0) && !was_tripped) {
            events_log_.record(now_, core::EventKind::BreakerTripped,
                               name, load);
            if (!anyTrip_) {
                anyTrip_ = true;
                util::warn("breaker %s tripped at t=%lld", name.c_str(),
                           static_cast<long long>(now_));
            }
        }
    }

    recordState();
    ++now_;
}

void
ClosedLoopSim::run(Seconds duration)
{
    for (Seconds i = 0; i < duration; ++i)
        tick();
}

} // namespace capmaestro::sim
