/**
 * @file
 * What both rt engines own and show. A WorkerRuntime (one endpoint per
 * process) and a WorkerHost (every endpoint the peer table gives its
 * process) each hold the scenario and peer table, a transport (an
 * owned UdpTransport bound to the hosted endpoints, or an injected
 * one), their RuntimeStats and EventLog, the observability plane
 * (rt/observe.hh) and the rt::RoleTable (rt/roles.hh) with its
 * membership plane. The engines add only their pacing, and their own
 * telemetry labels and /healthz identity.
 */

#ifndef CAPMAESTRO_RT_ENGINE_HH
#define CAPMAESTRO_RT_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "config/loader.hh"
#include "core/events.hh"
#include "net/udp_transport.hh"
#include "rt/observe.hh"
#include "rt/roles.hh"
#include "rt/stats.hh"

namespace capmaestro::rt {

/** The state and read-outs both rt engines share. */
class Engine
{
  public:
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Ask the period loop to exit at the next check (async-signal-
     *  safe: only stores an atomic flag). */
    void requestStop() { stop_.store(true, std::memory_order_relaxed); }

    /** The worker layout this deployment runs. */
    const core::TreePlan &plan() const { return roles_.plan(); }

    /** Protocol accounting so far, over every hosted role. */
    const RuntimeStats &stats() const { return stats_; }

    /** Degraded-mode decisions (timestamps are epochs). */
    const core::EventLog &eventLog() const { return events_; }

    /** The transport this engine speaks over. */
    net::Transport &transport() { return *transport_; }

    /** The owned UDP transport (e.g., to rewire ephemeral ports in
     *  tests), or nullptr when a transport was injected. */
    net::UdpTransport *udp() { return ownedTransport_.get(); }

    /** Epoch of the most recently completed period (0 before any). */
    std::uint32_t lastEpoch() const { return lastEpoch_; }

    /** Hosted leaves: (tree, edge) -> budget applied last period
     *  (empty before the first period). */
    std::map<std::pair<std::size_t, topo::NodeId>, Watts>
    lastEdgeBudgets() const;

    /** The membership plane (rt/membership_plane.hh): the table of
     *  record where the root is hosted, a replica elsewhere. */
    MembershipPlane &membership() { return roles_.membership(); }
    const MembershipPlane &membership() const { return roles_.membership(); }

    /**
     * Stamp every later frame with wire version @p v (kWireVersion or
     * kWireCompatVersion): the not-yet-upgraded half of a rolling
     * upgrade. A compat-stamped process cannot speak the membership
     * plane (those types are v6-only): the root keeps broadcasting to
     * it until the upgrade lands, so upgrade-then-join is the
     * supported order.
     */
    void setWireVersion(std::uint8_t v) { roles_.setWireVersion(v); }
    std::uint8_t wireVersion() const { return roles_.wireVersion(); }

    /** Bound scrape port (0 when not serving). */
    std::uint16_t httpPort() const { return obs_.httpPort(); }

    /** Health rollup over the child workers this engine observes. */
    const telemetry::FleetHealthRegistry &fleetHealth() const
    {
        return obs_.fleetHealth();
    }

    /** Online budget-conservation auditor over the hosted splits. */
    const telemetry::SafetyAuditor &safetyAuditor() const
    {
        return obs_.auditor();
    }

  protected:
    /**
     * Build the roles of @p locals (ascending). A null @p transport
     * means an owned UdpTransport bound to them, with @p udp_buffer
     * bytes of socket buffer (0: the system default).
     */
    Engine(config::LoadedScenario scenario, const config::WorkerPeers &peers,
           std::vector<net::Transport::Endpoint> locals, std::uint64_t seed,
           net::Transport *transport, int udp_buffer = 0);
    ~Engine();

    /** Close period @p epoch: count it, publish the stats mirrors and
     *  end its trace. */
    void finishPeriod(std::uint32_t epoch);

    config::LoadedScenario scenario_;
    config::WorkerPeers peers_;
    std::unique_ptr<net::UdpTransport> ownedTransport_;
    net::Transport *transport_ = nullptr;
    std::atomic<bool> stop_{false};
    RuntimeStats stats_;
    core::EventLog events_;
    std::uint32_t lastEpoch_ = 0;
    Observability obs_{stats_, events_};
    /** The roles and the send/receive path (last: it refers to the
     *  scenario, stats, events and observability above). */
    RoleTable roles_;
};

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_ENGINE_HH
