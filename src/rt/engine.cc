#include "rt/engine.hh"

#include <algorithm>

namespace capmaestro::rt {

namespace {

/** Longest one sleep of runPeriods(): stop-flag and scrape latency. */
constexpr double kSleepSliceMs = 25.0;

} // namespace

Engine::Engine(config::LoadedScenario scenario,
               const config::WorkerPeers &peers,
               std::vector<net::Transport::Endpoint> locals,
               std::uint64_t seed, net::Transport *transport, int udp_buffer)
    : scenario_(std::move(scenario)), peers_(peers), transport_(transport),
      roles_(scenario_, peers_, std::move(locals), seed, stats_, events_,
             obs_)
{
    if (transport_)
        return;
    net::UdpConfig udp;
    udp.peers = peers_.peers;
    udp.local = roles_.locals();
    udp.bufferBytes = udp_buffer;
    ownedTransport_ = std::make_unique<net::UdpTransport>(std::move(udp));
    transport_ = ownedTransport_.get();
}

Engine::~Engine() = default;

std::map<std::pair<std::size_t, topo::NodeId>, Watts>
Engine::lastEdgeBudgets(std::optional<std::uint32_t> leaf) const
{
    std::map<std::pair<std::size_t, topo::NodeId>, Watts> out;
    if (stats_.periodsRun == 0)
        return out;
    for (const RoleTable::Leaf &hosted : roles_.leaves()) {
        if (leaf && hosted.role.endpoint() != *leaf)
            continue;
        for (const LeafRole::Edge &edge : hosted.role.edges())
            out[{edge.tree, edge.node}] = edge.budget;
    }
    return out;
}

std::size_t
Engine::runPeriods(std::size_t max_periods)
{
    mapClock();
    net::Transport &tp = *transport_;
    const std::size_t first = stats_.periodsRun;
    while (stats_.periodsRun - first < max_periods && !stopped()) {
        const double t = tp.nowMs();
        const double wake = advance(t);
        obs_.poll();
        // The clock is read again only when advance() asked to wait.
        if (wake <= t || stopped() || stats_.periodsRun - first >= max_periods)
            continue;
        const double now = tp.nowMs();
        if (wake > now)
            tp.advanceBy(std::min(wake - now, kSleepSliceMs));
    }
    return stats_.periodsRun - first;
}

void
Engine::openPeriod(std::uint32_t epoch, double now, std::string who)
{
    open_ = true;
    epoch_ = epoch;
    start_ = now;
    obs_.beginPeriod(epoch, roles_.simNow(), std::move(who));
}

void
Engine::finishPeriod(std::uint32_t epoch)
{
    open_ = false;
    lastEpoch_ = epoch;
    ++stats_.periodsRun;
    obs_.publishStats();
    obs_.endPeriod();
}

} // namespace capmaestro::rt
