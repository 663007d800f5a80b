#include "scenarios.hh"

#include <iterator>
#include <memory>
#include <string>

#include "device/workload.hh"
#include "sim/scenario.hh"
#include "util/random.hh"

namespace perfbench {

using namespace capmaestro;

namespace {

constexpr std::size_t kDeepLeaves = 10240;
constexpr std::size_t kDeepFanout[] = {16, 16};

/** Deadlines a lossless loopback never reaches: the hosts advance on
 *  completeness, so a fired deadline would be a fault, not pacing. */
constexpr double kGenerousDeadlineMs = 10000.0;

/** @p prefix followed by @p n, built by appending: GCC 12 warns
 *  spuriously (-Wrestrict) on "x" + std::to_string(n). */
std::string
numbered(const char *prefix, std::size_t n)
{
    std::string out(prefix);
    out += std::to_string(n);
    return out;
}

} // namespace

const std::vector<std::uint32_t> &
deepAggLevels()
{
    static const std::vector<std::uint32_t> levels{1, 2};
    return levels;
}

config::LoadedScenario
deepScenario(std::uint64_t seed)
{
    config::LoadedScenario out;
    out.system = std::make_unique<topo::PowerSystem>(1);

    auto tree = std::make_unique<topo::PowerTree>(0, 0, "F0");
    const auto leaves = static_cast<double>(kDeepLeaves);
    const auto root = tree->makeRoot(topo::NodeKind::Breaker, "root",
                                     leaves * 500.0);
    std::vector<topo::NodeId> frontier{root};
    std::size_t rows = 1;
    for (std::size_t level = 0; level < std::size(kDeepFanout); ++level) {
        rows *= kDeepFanout[level];
        const Watts rating = leaves * 500.0 / static_cast<double>(rows);
        std::vector<topo::NodeId> next;
        for (const auto parent : frontier) {
            for (std::size_t c = 0; c < kDeepFanout[level]; ++c) {
                next.push_back(tree->addChild(
                    parent, topo::NodeKind::Breaker,
                    numbered("i", level) + "_"
                        + std::to_string(next.size()),
                    rating));
            }
        }
        frontier = std::move(next);
    }
    const std::size_t per_row = kDeepLeaves / frontier.size();
    std::size_t sid = 0;
    for (const auto row : frontier) {
        for (std::size_t r = 0; r < per_row; ++r, ++sid) {
            const auto edge = tree->addChild(
                row, topo::NodeKind::Breaker,
                numbered("rack", sid), 600.0);
            tree->addSupplyPort(edge, numbered("s", sid),
                                {static_cast<std::int32_t>(sid), 0});
        }
    }
    out.system->addTree(std::move(tree));

    util::Rng rng(seed);
    out.servers.reserve(kDeepLeaves);
    for (std::size_t s = 0; s < kDeepLeaves; ++s) {
        sim::ServerSetup setup;
        const Priority priority = rng.chance(1.0 / 3.0) ? 1 : 0;
        setup.spec = sim::testbedServerSpec(numbered("S", s),
                                            priority, 1.0, 1);
        setup.workload =
            std::make_unique<dev::ConstantWorkload>(rng.uniform(0.5, 0.9));
        out.servers.push_back(std::move(setup));
    }

    out.service.controlPeriod = 1;
    out.service.policy = policy::PolicyKind::GlobalPriority;
    out.service.enableSpo = false;
    out.service.protocol.gatherDeadlineMs = kGenerousDeadlineMs;
    out.service.protocol.budgetDeadlineMs = kGenerousDeadlineMs;
    out.rootBudgets = {leaves * 330.0};
    out.totalPerPhase = out.rootBudgets[0];
    return out;
}

sim::DataCenterParams
table4Params(int phases, int per_phase)
{
    sim::DataCenterParams params;
    params.phases = phases;
    params.serversPerRackPerPhase = per_phase;
    params.highPriorityFraction = 0.3;
    params.supplyMismatch = 0.1;
    return params;
}

config::LoadedScenario
table4Scenario(std::uint64_t seed, const sim::DataCenterParams &params,
               double utilisation)
{
    auto dc = sim::buildDataCenter(params);
    config::LoadedScenario out;
    util::Rng rng(seed);
    out.servers.reserve(dc.servers.size());
    for (std::size_t i = 0; i < dc.servers.size(); ++i) {
        const Priority priority =
            rng.chance(params.highPriorityFraction) ? 1 : 0;
        const double mismatch =
            rng.uniform(-params.supplyMismatch, params.supplyMismatch);
        const double u =
            utilisation >= 0.0 ? utilisation : rng.uniform(0.85, 1.0);
        sim::ServerSetup setup;
        setup.spec = sim::testbedServerSpec(numbered("s", i),
                                            priority, 0.5 + mismatch);
        setup.workload = std::make_unique<dev::ConstantWorkload>(u);
        out.servers.push_back(std::move(setup));
    }
    out.system = std::move(dc.system);

    out.service.controlPeriod = 8;
    out.service.policy = policy::PolicyKind::GlobalPriority;
    out.service.protocol.gatherDeadlineMs = kGenerousDeadlineMs;
    out.service.protocol.budgetDeadlineMs = kGenerousDeadlineMs;
    out.rootBudgets.assign(out.system->trees().size(),
                           params.usableBudgetPerPhase() / params.feeds);
    out.totalPerPhase = params.usableBudgetPerPhase();
    return out;
}

} // namespace perfbench
