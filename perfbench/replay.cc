#include "replay.hh"

#include <algorithm>
#include <memory>

#include "bench.hh"
#include "core/distributed.hh"
#include "net/wire.hh"
#include "policy/policy.hh"
#include "rt/plant.hh"

namespace perfbench {

using namespace capmaestro;

namespace {

/** Frames pushed through each codec direction per replay. */
constexpr std::size_t kReplayFrames = 200000;

/** Keeps the replay loops' results observable. */
volatile std::uint64_t g_sink = 0;

std::vector<std::uint8_t>
reencode(const net::Frame &f)
{
    net::FrameMeta meta(f.sender, f.epoch, f.seq, f.trace);
    meta.wireVersion = f.wireVersion;
    switch (f.type) {
    case net::MsgType::Metrics:
        return net::encodeMetrics(meta, f.metrics);
    case net::MsgType::Budget:
        return net::encodeBudget(meta, f.budget);
    case net::MsgType::Heartbeat:
        return net::encodeHeartbeat(meta);
    case net::MsgType::PinnedSummary:
        return net::encodePinnedSummary(meta, f.metrics);
    case net::MsgType::SpoBudget:
        return net::encodeSpoBudget(meta, f.budget);
    case net::MsgType::Checkpoint:
        return net::encodeCheckpoint(meta, f.checkpoint);
    case net::MsgType::Rehome:
        return net::encodeRehome(meta, f.checkpoint);
    case net::MsgType::Summary:
        return net::encodeSummary(meta, f.metrics);
    case net::MsgType::SubBudget:
        return net::encodeSubBudget(meta, f.budget);
    case net::MsgType::MembershipDelta:
        return net::encodeMembershipDelta(meta, f.membershipDelta);
    case net::MsgType::MembershipAck:
        return net::encodeMembershipAck(meta, f.membershipAck);
    }
    return {};
}

} // namespace

CodecTiming
replayCodec(const std::vector<std::vector<std::uint8_t>> &frames)
{
    CodecTiming out;
    out.frames = frames.size();
    if (frames.empty())
        return out;

    std::vector<net::Frame> decoded;
    decoded.reserve(frames.size());
    for (const auto &bytes : frames) {
        auto frame = net::decodeFrame(bytes);
        if (!frame || reencode(*frame) != bytes) {
            ++out.mismatches;
            continue;
        }
        decoded.push_back(std::move(*frame));
    }

    const std::size_t reps =
        std::max<std::size_t>(1, kReplayFrames / frames.size());
    std::uint64_t sink = 0;
    double t0 = monoMs();
    for (std::size_t r = 0; r < reps; ++r) {
        for (const auto &bytes : frames) {
            const auto frame = net::decodeFrame(bytes);
            sink += frame ? frame->seq : 1;
        }
    }
    out.decodeNsPerFrame = (monoMs() - t0) * 1e6
                           / static_cast<double>(reps * frames.size());

    if (!decoded.empty()) {
        t0 = monoMs();
        for (std::size_t r = 0; r < reps; ++r) {
            for (const auto &frame : decoded)
                sink += reencode(frame).size();
        }
        out.encodeNsPerFrame = (monoMs() - t0) * 1e6
                               / static_cast<double>(reps * decoded.size());
    }
    g_sink = g_sink + sink;
    return out;
}

double
replayPlants(config::LoadedScenario scenario,
             const std::vector<std::size_t> &leaves,
             const std::map<std::pair<std::size_t, topo::NodeId>, Watts>
                 &budgets,
             std::uint64_t seed, std::size_t periods)
{
    const topo::PowerSystem &system = *scenario.system;
    const auto partition =
        core::DistributedControlPlane::partitionEdges(system);
    const auto policy = policy::treePolicy(scenario.service.policy);

    std::map<std::size_t, std::map<std::size_t, topo::NodeId>> want;
    std::map<std::size_t, std::unique_ptr<core::RackWorker>> racks;
    for (const std::size_t leaf : leaves) {
        want[leaf] = partition[leaf];
        auto rack = std::make_unique<core::RackWorker>(system, policy);
        for (const auto &[tree, node] : partition[leaf])
            rack->addEdge(tree, node);
        racks[leaf] = std::move(rack);
    }
    auto plants = rt::buildPlants(scenario, system, want, seed);

    const Seconds period = scenario.service.controlPeriod;
    Seconds sim_now = 0;
    const double t0 = monoMs();
    for (std::size_t p = 0; p < periods; ++p) {
        Seconds advanced = sim_now;
        for (auto &[leaf, rack] : racks) {
            Seconds now = sim_now;
            rt::advancePlants(plants[leaf], period, now);
            advanced = now;
            net::CheckpointMsg unused;
            rt::closePlantPeriods(plants[leaf], system, *rack, unused);
            for (const auto &[tree, node] : partition[leaf]) {
                const auto it = budgets.find({tree, node});
                if (it != budgets.end())
                    rack->applyBudget(tree, node, it->second);
            }
            rt::applyPlantBudgets(plants[leaf], *rack);
        }
        sim_now = advanced;
    }
    return (monoMs() - t0) * 1000.0 / static_cast<double>(periods);
}

} // namespace perfbench
