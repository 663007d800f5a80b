#include "rt/chaos.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "rt/plant.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace capmaestro::rt {

namespace {

/** Raw IEEE-754 pattern of a double, for bit-exact log lines. */
std::string
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

} // namespace

void
ChaosScheduler::at(std::uint32_t epoch, ChaosEvent::Kind kind,
                   std::uint32_t a, std::uint32_t b)
{
    events_.push_back({epoch, kind, a, b});
}

void
ChaosScheduler::randomKillRestarts(std::size_t rack_count,
                                   std::uint32_t first_epoch,
                                   std::uint32_t last_epoch,
                                   std::size_t kills,
                                   std::uint32_t down_periods)
{
    if (rack_count == 0 || last_epoch < first_epoch)
        util::fatal("chaos: empty kill schedule domain");
    // A rack must finish its previous re-homing handshake (restart,
    // replay, ack — plus slack for lost frames) before it may be
    // killed again, or recovery accounting loses its anchor.
    const std::uint32_t spacing = down_periods + 8;
    std::map<std::size_t, std::uint32_t> busy_until;
    for (std::size_t i = 0; i < kills; ++i) {
        const auto rack = static_cast<std::size_t>(rng_.uniformInt(
            0, static_cast<std::int64_t>(rack_count) - 1));
        auto epoch = static_cast<std::uint32_t>(rng_.uniformInt(
            first_epoch, last_epoch));
        const auto busy = busy_until.find(rack);
        if (busy != busy_until.end() && epoch < busy->second)
            epoch = busy->second;
        at(epoch, ChaosEvent::Kind::Kill, static_cast<std::uint32_t>(rack));
        at(epoch + down_periods, ChaosEvent::Kind::Restart,
           static_cast<std::uint32_t>(rack));
        busy_until[rack] = epoch + spacing;
    }
}

std::vector<ChaosEvent>
ChaosScheduler::eventsAt(std::uint32_t epoch) const
{
    std::vector<ChaosEvent> out;
    for (const ChaosEvent &event : events_) {
        if (event.epoch == epoch)
            out.push_back(event);
    }
    return out;
}

LockstepDeployment::LockstepDeployment(
    std::string scenario_json, ChaosBackend backend,
    net::TransportConfig sim_faults, std::uint64_t seed,
    std::vector<std::uint32_t> agg_levels,
    std::map<std::uint32_t, std::uint32_t> process_of)
    : scenarioJson_(std::move(scenario_json)), backend_(backend),
      seed_(seed), scenario_(makeScenario()),
      aggLevels_(std::move(agg_levels)), hosts_(!process_of.empty()),
      chaos_(seed)
{
    plan_ = core::TreePlan::build(*scenario_.system, aggLevels_);
    floors_ = nominalEdgeFloors(*scenario_.system, scenario_);
    const auto workers =
        static_cast<std::uint32_t>(plan_.workers.size());

    // The period is the deadline cascade plus one gather window.
    const auto &proto = scenario_.service.protocol;
    peers_.periodMs = std::ceil(Cascade{proto, plan_.tiers(), 0.0}.span()
                                + proto.gatherDeadlineMs);
    peers_.aggLevels = aggLevels_;
    peers_.processOf = std::move(process_of);
    for (std::uint32_t e = 0; e < workers; ++e)
        peers_.peers[e] = net::UdpPeer{"127.0.0.1", 0};

    if (backend_ == ChaosBackend::Sim) {
        inner_ = std::make_unique<net::SimTransport>(sim_faults);
    } else {
        // One shared socket set for the whole deployment: every
        // endpoint binds an ephemeral loopback port, and the shared
        // peer table resolves them — a restarted engine reuses the
        // endpoint's socket, so no re-advertising dance is needed.
        inner_ = std::make_unique<net::UdpTransport>(
            net::UdpConfig::loopback(workers));
    }
    chaosNet_ = std::make_unique<net::ChaosTransport>(
        *inner_,
        static_cast<net::Transport::Endpoint>(plan_.rootEndpoint()));
    // Epoch 1 begins one period after construction, on both clocks.
    peers_.originMs = static_cast<std::uint64_t>(
        std::floor(chaosNet_->nowMs()) + peers_.periodMs);

    units_.resize(hosts_ ? peers_.processCount() : workers);
    for (std::uint32_t u = 0; u < units_.size(); ++u)
        start(u);
}

LockstepDeployment::~LockstepDeployment() = default;

config::LoadedScenario
LockstepDeployment::makeScenario() const
{
    return config::loadScenario(util::parseJson(scenarioJson_));
}

void
LockstepDeployment::start(std::uint32_t unit)
{
    Unit &slot = units_.at(unit);
    if (hosts_) {
        auto host = std::make_unique<WorkerHost>(makeScenario(), peers_,
                                                 unit, seed_, *chaosNet_);
        host->setTelemetry(&registry_, nullptr);
        slot.engine = std::move(host);
    } else {
        auto runtime = std::make_unique<WorkerRuntime>(
            makeScenario(), peers_, unit, seed_, *chaosNet_);
        runtime->setTelemetry(&registry_);
        slot.engine = std::move(runtime);
    }
    slot.wake = chaosNet_->nowMs();
    const auto v = wireVersionOf_.find(unit);
    if (v != wireVersionOf_.end())
        slot.engine->setWireVersion(v->second);
}

std::uint32_t
LockstepDeployment::unitOf(std::uint32_t ep) const
{
    if (!hosts_)
        return ep;
    const auto found = peers_.processOf.find(ep);
    return found == peers_.processOf.end() ? 0 : found->second;
}

WorkerRuntime *
LockstepDeployment::unit(std::uint32_t endpoint)
{
    if (hosts_)
        return nullptr;
    return static_cast<WorkerRuntime *>(units_.at(endpoint).engine.get());
}

WorkerRuntime &
LockstepDeployment::room()
{
    if (hosts_)
        util::fatal("chaos: room() names a runtime deployment's root");
    return *unit(plan_.rootEndpoint());
}

double
LockstepDeployment::epochStartMs(std::uint32_t epoch) const
{
    return static_cast<double>(peers_.originMs)
           + static_cast<double>(epoch - 1) * peers_.periodMs;
}

void
LockstepDeployment::scriptJoiner(std::uint32_t rack)
{
    if (nextEpoch_ != 1 || faultsApplied_ != 0)
        util::fatal("chaos: scriptJoiner() must precede run()");
    if (hosts_ || rack >= rackCount())
        util::fatal("chaos: joiner %u is not a rack runtime", rack);
    units_[rack].engine.reset();
    // The peer table lists the slot absent: a runtime (re)started
    // later reads that at construction, the running ones mark it now.
    peers_.membership.absent.push_back(rack);
    for (Unit &unit : units_) {
        if (unit.engine)
            unit.engine->membership().markAbsent(rack);
    }
}

void
LockstepDeployment::setWorkerWireVersion(std::uint32_t unit,
                                         std::uint8_t version)
{
    wireVersionOf_[unit] = version;
    if (units_.at(unit).engine)
        units_[unit].engine->setWireVersion(version);
}

void
LockstepDeployment::apply(const ChaosEvent &event, std::uint32_t epoch)
{
    // The root's unit is never killed.
    const bool root = event.a == unitOf(plan_.rootEndpoint());
    switch (event.kind) {
    case ChaosEvent::Kind::Kill:
        if (root || event.a >= units_.size() || !units_[event.a].engine)
            break;
        for (std::uint32_t r = 0; r < rackCount(); ++r) {
            if (unitOf(r) == event.a)
                killed_.insert(r);
        }
        units_[event.a].engine.reset();
        break;
    case ChaosEvent::Kind::Restart:
        if (root || event.a >= units_.size() || units_[event.a].engine)
            break;
        start(event.a);
        for (std::uint32_t r = 0; r < rackCount(); ++r) {
            if (unitOf(r) != event.a)
                continue;
            killed_.erase(r);
            // Recovery latency is measured for racks whose parent
            // supervises them: the parent re-homes them.
            if (rackState(r))
                pendingRecovery_[r] = epoch;
        }
        break;
    case ChaosEvent::Kind::Partition:
        chaosNet_->setPartition(event.a, event.b, true);
        break;
    case ChaosEvent::Kind::Heal:
        chaosNet_->heal();
        break;
    case ChaosEvent::Kind::Join:
        if (!hosts_ && event.a < rackCount() && !units_[event.a].engine) {
            // The process boots shadowed (empty replica, clamped to
            // its floor) and the root announces it Joining; the
            // protocol's own broadcast/ack/commit takes it Live.
            std::erase(peers_.membership.absent, event.a);
            start(event.a);
            units_[event.a].engine->membership().beginShadow();
            engineOf(plan_.rootEndpoint())->membership().beginJoin(event.a);
        }
        break;
    case ChaosEvent::Kind::Drain:
        engineOf(plan_.rootEndpoint())->membership().beginDrain(event.a);
        break;
    case ChaosEvent::Kind::Upgrade:
        setWorkerWireVersion(event.a, net::kWireVersion);
        break;
    case ChaosEvent::Kind::Stall:
        units_.at(event.a).stallUntil =
            (hosts_ ? chaosNet_->nowMs() : epochStartMs(epoch)) + event.b;
        break;
    }
}

std::vector<std::string>
LockstepDeployment::auditSafety() const
{
    // What each edge applies: a live rack its last edge budgets, a
    // killed one (its servers on their own) its nominal floors, also
    // when killed mid-drain, whatever the root's table says; a drained
    // or never-joined slot draws nothing.
    const auto &system = *scenario_.system;
    std::vector<std::map<topo::NodeId, Watts>> applied(
        system.trees().size());
    for (std::uint32_t r = 0; r < rackCount(); ++r) {
        if (const Engine *engine = engineOf(r)) {
            for (const auto &[key, budget] : engine->lastEdgeBudgets(r))
                applied[key.first][key.second] = budget;
        } else if (killed_.count(r)) {
            for (const auto &[tree, node] : plan_.workers[r].stations)
                applied[tree][node] = floors_.at({tree, node});
        }
    }
    std::vector<std::string> out;
    for (std::size_t t = 0; t < applied.size(); ++t) {
        const topo::PowerTree &tree = system.tree(t);
        for (const topo::Overload &over :
             topo::overloads(tree, tree.root(), scenario_.rootBudgets[t],
                             applied[t])) {
            out.push_back(tree.name() + "." + tree.node(over.node).name
                          + " load " + std::to_string(over.load)
                          + " W over " + std::to_string(over.bound)
                          + " W");
        }
    }
    return out;
}

std::optional<RackState>
LockstepDeployment::rackState(std::size_t r) const
{
    const auto *parent = dynamic_cast<const WorkerRuntime *>(
        engineOf(plan_.workers.at(r).parent));
    if (parent == nullptr || parent->supervisor() == nullptr)
        return std::nullopt;
    return parent->supervisor()->state(static_cast<std::uint32_t>(r));
}

std::string
LockstepDeployment::logLine(std::uint32_t epoch) const
{
    const MembershipPlane &table =
        engineOf(plan_.rootEndpoint())->membership();
    std::string line = "e=" + std::to_string(epoch) + " st=";
    for (std::size_t r = 0; r < rackCount(); ++r) {
        if (!engineOf(static_cast<std::uint32_t>(r))) {
            line += 'K';
            continue;
        }
        // A rack outside Live in the root's table shows its membership
        // state (Joining J, Draining G, Left X), a member its liveness
        // as its parent's supervisor sees it (Live L, Dead D, Rehoming
        // R; a rack whose parent supervises nothing, or is killed, is
        // Live when it runs). On a static table every rack is a
        // member, so the line stays bit-identical to a pre-elasticity
        // run.
        const membership::UnitState member =
            table.state(static_cast<std::uint32_t>(r));
        line += member == membership::UnitState::Live
                    ? "LDR"[static_cast<int>(
                          rackState(r).value_or(RackState::Live))]
                    : "J-GX"[static_cast<int>(member)];
    }
    if (rackCount() < plan_.rootEndpoint()) {
        line += " ag=";
        for (std::uint32_t e = plan_.leafWorkers; e < plan_.rootEndpoint();
             ++e)
            line += engineOf(e) ? 'L' : 'K';
    }
    // Generation suffix only when the table ever moved, so static
    // runs keep their exact pre-elasticity log format.
    if (table.generation() > 1)
        line += " g=" + std::to_string(table.generation());
    // Supervision runs in every parent of leaves: sum the live units.
    const auto total = [this](std::size_t RuntimeStats::*field) {
        std::size_t sum = 0;
        for (const Unit &unit : units_)
            sum += unit.engine ? unit.engine->stats().*field : 0;
        return std::to_string(sum);
    };
    line += " fo=" + total(&RuntimeStats::failovers)
            + " rd=" + total(&RuntimeStats::restartsDetected)
            + " rh=" + total(&RuntimeStats::rehomed);
    for (std::uint32_t r = 0; r < rackCount(); ++r) {
        line += " | r" + std::to_string(r);
        const Engine *engine = engineOf(r);
        if (!engine) {
            line += " killed";
            continue;
        }
        const auto &system = *scenario_.system;
        for (const auto &[key, budget] : engine->lastEdgeBudgets(r)) {
            const auto [tree, node] = key;
            line += " " + system.tree(tree).name() + "."
                    + system.tree(tree).node(node).name + "="
                    + bitsOf(budget);
        }
    }
    return line;
}

std::size_t
LockstepDeployment::onlineViolations() const
{
    double total = 0.0;
    for (const auto &series : registry_.snapshot()) {
        if (series.name == "capmaestro_safety_violations_total")
            total += series.value;
    }
    return static_cast<std::size_t>(total);
}

bool
LockstepDeployment::closed(std::uint32_t epoch) const
{
    const double now = chaosNet_->nowMs();
    for (const Unit &unit : units_) {
        if (unit.engine && !unit.engine->stopped() && now >= unit.stallUntil
            && unit.engine->lastEpoch() < epoch)
            return false;
    }
    return true;
}

void
LockstepDeployment::closeEpoch(std::uint32_t epoch)
{
    ChaosRunReport &report = report_;
    // Reap drained racks: a runtime whose replica shows itself committed
    // Left has already sent the Left-generation ack and applied zero
    // watts, and it stopped — the process exits.
    for (std::uint32_t r = 0; r < rackCount() && !hosts_; ++r) {
        if (units_[r].engine && units_[r].engine->membership().left(r)) {
            units_[r].engine.reset();
            ++report.drained;
        }
    }

    for (auto it = pendingRecovery_.begin(); it != pendingRecovery_.end();) {
        if (engineOf(static_cast<std::uint32_t>(it->first))
            && rackState(it->first) == RackState::Live) {
            const std::uint32_t took = epoch - it->second + 1;
            report.maxRecoveryPeriods =
                std::max(report.maxRecoveryPeriods, took);
            ++report.recoveries;
            it = pendingRecovery_.erase(it);
        } else {
            ++it;
        }
    }

    const std::vector<std::string> over = auditSafety();
    report.violations += over.size();
    if (!over.empty() && report.firstViolation.empty()) {
        report.firstViolation =
            "epoch " + std::to_string(epoch) + ": " + over.front();
    }
    report.log.push_back(logLine(epoch));
    ++report.epochsRun;
}

void
LockstepDeployment::stepUntil(std::uint32_t target, double until)
{
    for (;;) {
        while (nextEpoch_ <= target && closed(nextEpoch_))
            closeEpoch(nextEpoch_++);
        if (nextEpoch_ > target)
            return;
        // A host deployment free-runs: an epoch starts once the one
        // before it closed everywhere.
        if (hosts_ && faultsApplied_ < nextEpoch_) {
            ++faultsApplied_;
            for (const ChaosEvent &event : chaos_.eventsAt(faultsApplied_))
                apply(event, faultsApplied_);
            continue;
        }
        // The engine due first, ties in ascending unit order; one that
        // closed the target epoch waits for the next run().
        std::size_t next = units_.size();
        double at = Engine::kNever;
        for (std::size_t u = 0; u < units_.size(); ++u) {
            const Unit &unit = units_[u];
            if (!unit.engine || unit.engine->stopped()
                || (!unit.engine->periodOpen()
                    && unit.engine->lastEpoch() >= target))
                continue;
            const double due = std::max(unit.wake, unit.stallUntil);
            if (due < at) {
                at = due;
                next = u;
            }
        }
        if (next == units_.size() || at >= until)
            return;
        // A runtime deployment's faults apply at their window start.
        if (!hosts_ && faultsApplied_ < target
            && epochStartMs(faultsApplied_ + 1) <= at) {
            ++faultsApplied_;
            for (const ChaosEvent &event : chaos_.eventsAt(faultsApplied_))
                apply(event, faultsApplied_);
            continue;
        }
        chaosNet_->advanceTo(at);
        Unit &unit = units_[next];
        unit.wake = unit.engine->advance(chaosNet_->nowMs());
    }
}

ChaosRunReport
LockstepDeployment::run(std::uint32_t epochs)
{
    stepUntil(nextEpoch_ + epochs - 1, Engine::kNever);
    ChaosRunReport report = std::move(report_);
    report_ = ChaosRunReport{};
    report.unrecovered = pendingRecovery_.size();
    const std::size_t online = onlineViolations();
    report.onlineViolations = online - onlineMark_;
    onlineMark_ = online;
    return report;
}

void
LockstepDeployment::runUntil(double ms)
{
    stepUntil(std::numeric_limits<std::uint32_t>::max(), ms);
    chaosNet_->advanceTo(ms);
}

} // namespace capmaestro::rt
