/**
 * @file
 * What both rt engines own and show. A WorkerRuntime (one endpoint per
 * process) and a WorkerHost (every endpoint the peer table gives its
 * process) each hold the scenario and peer table, a transport (an
 * owned UdpTransport bound to the hosted endpoints, or an injected
 * one), their RuntimeStats and EventLog, the observability plane
 * (rt/observe.hh) and the rt::RoleTable (rt/roles.hh) with its
 * membership plane.
 *
 * Each engine's period is one non-blocking step over the transport
 * clock, advance(now): it does what the period owes at @p now and
 * returns when it must run next. It never sleeps and never moves the
 * clock, so the same step runs on real time (runPeriods(), the one
 * thin loop: advance, answer scrapes, move the clock to the wake; on
 * UDP that is a real sleep) or on virtual time (rt::LockstepDeployment, where
 * advancing a SimTransport is an instant jump). The engines add only
 * their period, and their own telemetry labels and /healthz identity.
 */

#ifndef CAPMAESTRO_RT_ENGINE_HH
#define CAPMAESTRO_RT_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "config/loader.hh"
#include "core/events.hh"
#include "net/udp_transport.hh"
#include "rt/observe.hh"
#include "rt/roles.hh"
#include "rt/stats.hh"
#include "util/json.hh"

namespace capmaestro::rt {

/** The state and read-outs both rt engines share. */
class Engine
{
  public:
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** The wake time of an engine that will run nothing more. */
    static constexpr double kNever = std::numeric_limits<double>::infinity();

    virtual ~Engine();

    /**
     * Do whatever the period owes at transport-clock time @p now: take
     * the frames that are due and route them, close a phase on
     * completeness or on its rt::Cascade deadline, fire the
     * retransmissions that are due, begin the next period once its
     * start has come. Returns the next transport-clock time it must run
     * (kNever once stopped). Never blocks, sleeps or moves the clock.
     */
    virtual double advance(double now) = 0;

    /**
     * Run up to @p max_periods control periods on the transport clock,
     * until stopped: advance(), answer scrapes, and when it asked to
     * wait, advance the clock toward the wake (at most kSleepSliceMs at
     * a time, so a stop or a scrape waits no longer; the clock is read
     * again only then). Returns periods completed.
     */
    std::size_t runPeriods(std::size_t max_periods);

    /** Ask the period loop to exit once the open period closes (async-
     *  signal-safe: only stores an atomic flag). */
    void requestStop() { stop_.store(true, std::memory_order_relaxed); }

    /** A period is open (begun and not yet closed). */
    bool periodOpen() const { return open_; }

    /** Stop was asked and no period is open: nothing more will run. */
    bool stopped() const
    {
        return stop_.load(std::memory_order_relaxed) && !open_;
    }

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

    /** Hosted leaves (only plan endpoint @p leaf when given): (tree,
     *  edge) -> budget applied last period (empty before the first
     *  period). */
    std::map<std::pair<std::size_t, topo::NodeId>, Watts>
    lastEdgeBudgets(std::optional<std::uint32_t> leaf = std::nullopt) const;

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

    /**
     * Serve the observability endpoints (/metrics, /healthz, /tracez)
     * on 127.0.0.1:@p port (0 = ephemeral), polled from the period
     * loop — no extra thread. Returns the bound port, or 0 when the
     * bind failed.
     */
    std::uint16_t serveHttp(std::uint16_t port)
    {
        return obs_.serveHttp(port, [this] { return healthJson(); });
    }

    /** Bound scrape port (0 when not serving). */
    std::uint16_t httpPort() const { return obs_.httpPort(); }

    /** The /healthz document (valid any time). */
    virtual util::Json healthJson() const = 0;

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

    /** Map the peer table's schedule onto the transport clock before
     *  runPeriods() paces (a WorkerRuntime's owned UDP clock). */
    virtual void mapClock() {}

    /** Open period @p epoch at transport-clock time @p now (its
     *  cascade's anchor) and its trace, named @p who. */
    void openPeriod(std::uint32_t epoch, double now, std::string who);

    /** The open period's deadline cascade, anchored where it began. */
    Cascade cascade() const
    {
        return {scenario_.service.protocol, roles_.plan().tiers(), start_};
    }

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
    /** A period is open: between openPeriod() and finishPeriod(). */
    bool open_ = false;
    /** The open (or last) period's epoch; a WorkerRuntime between
     *  periods keeps the next one here (0 until its first advance()
     *  picks it). */
    std::uint32_t epoch_ = 0;
    /** When the open period began (its cascade's anchor). */
    double start_ = 0.0;
    Observability obs_{stats_, events_};
    /** The roles and the send/receive path (last: it refers to the
     *  scenario, stats, events and observability above). */
    RoleTable roles_;
};

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_ENGINE_HH
