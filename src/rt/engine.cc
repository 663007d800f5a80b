#include "rt/engine.hh"

namespace capmaestro::rt {

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
Engine::lastEdgeBudgets() const
{
    std::map<std::pair<std::size_t, topo::NodeId>, Watts> out;
    if (stats_.periodsRun == 0)
        return out;
    for (const RoleTable::Leaf &leaf : roles_.leaves()) {
        for (const LeafRole::Edge &edge : leaf.role.edges())
            out[{edge.tree, edge.node}] = edge.budget;
    }
    return out;
}

void
Engine::finishPeriod(std::uint32_t epoch)
{
    lastEpoch_ = epoch;
    ++stats_.periodsRun;
    obs_.publishStats();
    obs_.endPeriod();
}

} // namespace capmaestro::rt
