#include "rt/chaos.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

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
    std::vector<std::uint32_t> agg_levels)
    : scenarioJson_(std::move(scenario_json)), backend_(backend),
      seed_(seed), scenario_(makeScenario()),
      aggLevels_(std::move(agg_levels)), chaos_(seed)
{
    plan_ = core::TreePlan::build(*scenario_.system, aggLevels_);
    floors_ = nominalEdgeFloors(*scenario_.system, scenario_);
    const auto workers =
        static_cast<std::uint32_t>(plan_.workers.size());

    peers_.periodMs = 1000.0;
    peers_.originMs = 1; // unused in lockstep, but kept well-formed
    peers_.aggLevels = aggLevels_;
    for (std::uint32_t e = 0; e < workers; ++e)
        peers_.peers[e] = net::UdpPeer{"127.0.0.1", 0};

    if (backend_ == ChaosBackend::Sim) {
        inner_ = std::make_unique<net::SimTransport>(sim_faults);
    } else {
        // One shared socket set for the whole deployment: every
        // endpoint binds an ephemeral loopback port, and the shared
        // peer table resolves them — a restarted runtime reuses the
        // role's socket, so no re-advertising dance is needed.
        inner_ = std::make_unique<net::UdpTransport>(
            net::UdpConfig::loopback(workers));
    }
    chaosNet_ = std::make_unique<net::ChaosTransport>(
        *inner_,
        static_cast<net::Transport::Endpoint>(plan_.rootEndpoint()));

    for (std::uint32_t e = 0; e < workers; ++e)
        units_.push_back(makeRuntime(e));
}

LockstepDeployment::~LockstepDeployment() = default;

config::LoadedScenario
LockstepDeployment::makeScenario() const
{
    return config::loadScenario(util::parseJson(scenarioJson_));
}

std::unique_ptr<WorkerRuntime>
LockstepDeployment::makeRuntime(std::uint32_t role)
{
    auto runtime = std::make_unique<WorkerRuntime>(
        makeScenario(), peers_, role, seed_, *chaosNet_,
        Pacing::Lockstep);
    runtime->setTelemetry(&registry_);
    const auto v = wireVersionOf_.find(role);
    if (v != wireVersionOf_.end())
        runtime->setWireVersion(v->second);
    return runtime;
}

void
LockstepDeployment::scriptJoiner(std::uint32_t rack)
{
    if (nextEpoch_ != 1)
        util::fatal("chaos: scriptJoiner() must precede run()");
    if (rack >= rackCount())
        util::fatal("chaos: joiner %u is not a rack role", rack);
    units_[rack].reset();
    // The peer table lists the slot absent: a runtime (re)started
    // later reads that at construction, the running ones mark it now.
    peers_.membership.absent.push_back(rack);
    for (auto &unit : units_) {
        if (unit)
            unit->membership().markAbsent(rack);
    }
}

void
LockstepDeployment::setWorkerWireVersion(std::uint32_t role,
                                         std::uint8_t version)
{
    wireVersionOf_[role] = version;
    if (units_.at(role))
        units_[role]->setWireVersion(version);
}

void
LockstepDeployment::apply(const ChaosEvent &event, std::uint32_t epoch)
{
    switch (event.kind) {
    case ChaosEvent::Kind::Kill:
        if (event.a < rackCount() && units_[event.a])
            killed_.insert(event.a);
        if (event.a < plan_.rootEndpoint()) // the root is never killed
            units_[event.a].reset();
        break;
    case ChaosEvent::Kind::Restart:
        if (event.a >= plan_.rootEndpoint() || units_[event.a])
            break;
        killed_.erase(event.a);
        units_[event.a] = makeRuntime(event.a);
        // Recovery latency is measured for racks whose parent
        // supervises them: the parent re-homes them.
        if (event.a < rackCount() && rackState(event.a))
            pendingRecovery_[event.a] = epoch;
        break;
    case ChaosEvent::Kind::Partition:
        chaosNet_->setPartition(event.a, event.b, true);
        break;
    case ChaosEvent::Kind::Heal:
        chaosNet_->heal();
        break;
    case ChaosEvent::Kind::Join:
        if (event.a < rackCount() && !units_[event.a]) {
            // The process boots shadowed (empty replica, clamped to
            // its floor) and the root announces it Joining; the
            // protocol's own broadcast/ack/commit takes it Live.
            std::erase(peers_.membership.absent, event.a);
            units_[event.a] = makeRuntime(event.a);
            units_[event.a]->membership().beginShadow();
            room().membership().beginJoin(event.a);
        }
        break;
    case ChaosEvent::Kind::Drain:
        room().membership().beginDrain(event.a);
        break;
    case ChaosEvent::Kind::Upgrade:
        setWorkerWireVersion(event.a, net::kWireVersion);
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
    for (std::size_t r = 0; r < rackCount(); ++r) {
        if (units_[r]) {
            for (const auto &[key, budget] : units_[r]->lastEdgeBudgets())
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
    const WorkerRuntime *parent = units_.at(plan_.workers.at(r).parent).get();
    if (parent == nullptr || parent->supervisor() == nullptr)
        return std::nullopt;
    return parent->supervisor()->state(static_cast<std::uint32_t>(r));
}

std::string
LockstepDeployment::logLine(std::uint32_t epoch) const
{
    const WorkerRuntime &root = *units_.back();
    std::string line = "e=" + std::to_string(epoch) + " st=";
    for (std::size_t r = 0; r < rackCount(); ++r) {
        if (!units_[r]) {
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
            root.membership().state(static_cast<std::uint32_t>(r));
        line += member == membership::UnitState::Live
                    ? "LDR"[static_cast<int>(
                          rackState(r).value_or(RackState::Live))]
                    : "J-GX"[static_cast<int>(member)];
    }
    if (rackCount() < plan_.rootEndpoint()) {
        line += " ag=";
        for (std::size_t e = rackCount(); e < plan_.rootEndpoint(); ++e)
            line += units_[e] ? 'L' : 'K';
    }
    // Generation suffix only when the table ever moved, so static
    // runs keep their exact pre-elasticity log format.
    if (root.membership().generation() > 1)
        line += " g=" + std::to_string(root.membership().generation());
    // Supervision runs in every parent of leaves: sum the live units.
    const auto total = [this](std::size_t RuntimeStats::*field) {
        std::size_t sum = 0;
        for (const auto &unit : units_)
            sum += unit ? unit->stats().*field : 0;
        return std::to_string(sum);
    };
    line += " fo=" + total(&RuntimeStats::failovers)
            + " rd=" + total(&RuntimeStats::restartsDetected)
            + " rh=" + total(&RuntimeStats::rehomed);
    for (std::size_t r = 0; r < rackCount(); ++r) {
        line += " | r" + std::to_string(r);
        if (!units_[r]) {
            line += " killed";
            continue;
        }
        const auto &system = *scenario_.system;
        for (const auto &[key, budget] : units_[r]->lastEdgeBudgets()) {
            const auto [tree, node] = key;
            line += " " + system.tree(tree).name() + "."
                    + system.tree(tree).node(node).name + "="
                    + bitsOf(budget);
        }
    }
    return line;
}

ChaosRunReport
LockstepDeployment::run(std::uint32_t epochs)
{
    ChaosRunReport report;
    const auto online = [this] {
        double total = 0.0;
        for (const auto &series : registry_.snapshot()) {
            if (series.name == "capmaestro_safety_violations_total")
                total += series.value;
        }
        return static_cast<std::size_t>(total);
    };
    const std::size_t online_before = online();
    for (std::uint32_t i = 0; i < epochs; ++i) {
        const std::uint32_t epoch = nextEpoch_++;
        for (const ChaosEvent &event : chaos_.eventsAt(epoch))
            apply(event, epoch);

        // One lockstep period in tier order: metrics climb from the
        // leaves through the aggregators to the root (endpoint order
        // is tier order), budgets descend tier by tier. A killed
        // runtime simply stays silent; its parent rides the stale ->
        // floor ladder.
        for (auto &unit : units_) {
            if (unit)
                unit->stepUp(epoch);
        }
        for (std::size_t e = units_.size(); e-- > rackCount();) {
            if (units_[e])
                units_[e]->stepDown(epoch);
        }
        for (std::size_t r = 0; r < rackCount(); ++r) {
            if (units_[r])
                units_[r]->stepDown(epoch);
        }

        // Reap drained racks: a runtime whose replica shows itself
        // committed Left has already sent the Left-generation ack (the
        // adopt path acks before this step returns) and applies zero
        // watts — the process exits. Matches a Wall-paced worker's
        // requestStop() on the same condition.
        for (std::size_t r = 0; r < rackCount(); ++r) {
            if (units_[r] && units_[r]->membership().left(r)) {
                units_[r].reset();
                ++report.drained;
            }
        }

        for (auto it = pendingRecovery_.begin();
             it != pendingRecovery_.end();) {
            if (units_[it->first]
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
    report.unrecovered = pendingRecovery_.size();
    report.onlineViolations = online() - online_before;
    return report;
}

} // namespace capmaestro::rt
