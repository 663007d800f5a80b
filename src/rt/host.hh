/**
 * @file
 * Multi-role worker host: one process serving many subtrees of a deep
 * control tree (core::TreePlan) off a single poll-drain event loop.
 *
 * Where WorkerRuntime is "one process == one worker", a WorkerHost
 * owns every endpoint the peer table assigns to its process index —
 * any mix of leaf workers (LeafRole, rt/leaf.hh), aggregators, and
 * the root (both AggregatorRole) — and services them
 * all with one Transport::drain() pass per poll slice: on UDP that is
 * a single epoll sweep, so the receive cost per period scales with
 * ready sockets, not hosted endpoints. This is what makes a
 * 100k-leaf deployment runnable on a handful of processes.
 *
 * Pacing is completeness-driven rather than wall-anchored: each period
 * every hosted role advances as soon as its inputs are complete (all
 * child stations fresh; the SubBudget received; all budgets applied),
 * with the §4.5 deadline cascade — tier-k gather closes
 * k x gatherDeadlineMs after the period began, SubBudget collection
 * and the leaf budget deadline a symmetric budget cascade later — as
 * the degraded-mode timeout. On a lossless transport the whole tree
 * therefore free-runs flow-controlled by its own frames (the property
 * the scalability bench measures as periods/sec); under loss each hop
 * degrades exactly like the wall-paced runtime (stale reuse, floor
 * reservation, Pcap_min defaults). Because a finished process can run
 * at most one epoch ahead of a neighbor still collecting, frames from
 * epoch e+1 are held back and replayed when the host enters e+1
 * instead of being dropped as orphans.
 *
 * Free-running epochs need a resync story: a process that starts late
 * or stalls past a deadline window would otherwise stay behind the
 * fleet forever, each side orphaning the other's frames. Two
 * mechanisms close the gap. Aggregators ping every child that stayed
 * silent through a gather deadline with a header-only heartbeat (the
 * epoch beacon — zero frames on a lossless run), and a host that sees
 * any frame from two or more epochs ahead, or a parent beacon past
 * its current epoch, closes the period immediately with the usual
 * degraded fallbacks (counted as catchUpPeriods) and burns forward
 * until it rejoins — at which point held-back frames replay and real
 * budgets flow again.
 *
 * Roles that share a host exchange frames in memory: a send whose
 * destination is hosted here is appended, encoded, to a host-owned
 * inbox instead of going to the transport, and every event-loop pass
 * takes the inbox first and then drains the transport. Both kinds of
 * frame then go through the same decodeFrame() and dispatch() path —
 * CRC, seq/epoch checks, holdback and trace hops included — so where
 * a role lives never changes what it decides. The transport (and any
 * fault injection on it) carries only the frames whose destination
 * lives in another process; RuntimeStats::coHostedFrames counts the
 * rest. The loop sleeps one poll slice only after a pass that neither
 * delivered a frame nor closed a gather or budget phase, so a tier
 * hop inside one process costs no sleep.
 *
 * Leaves: each hosted leaf is a LeafRole, the state machine every
 * WorkerRuntime rack runs too, including its §4.5 ladder (Pcap_min
 * defaults, the shadow clamp of a Joining or Draining leaf, 0 W once
 * Left). The host adds only framing — per-edge Metrics, in memory
 * when the parent is co-hosted; the checkpoint each period builds is
 * dropped — and routing: a hosted leaf gets Budget frames only, and
 * any other frame addressed to it is an orphan, because no hosted
 * root sends Rehome. Host mode thus runs none of the 2-level failover
 * machinery: a restarted process rejoins with a fresh plant while its
 * parents ride stale -> reserve, as documented in rt/aggregator.hh.
 *
 * Observability is the shared rt::Observability (rt/observe.hh), the
 * same plane a WorkerRuntime owns; the host adds only its per-tier
 * endpoint census, the RuntimeStats gauge mirror, its period and
 * catch-up counters, and per-role gather/down spans.
 */

#ifndef CAPMAESTRO_RT_HOST_HH
#define CAPMAESTRO_RT_HOST_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "config/loader.hh"
#include "core/events.hh"
#include "core/tree_plan.hh"
#include "membership/table.hh"
#include "net/udp_transport.hh"
#include "net/wire.hh"
#include "rt/aggregator.hh"
#include "rt/leaf.hh"
#include "rt/observe.hh"
#include "rt/stats.hh"

namespace capmaestro::rt {

/** One process hosting every worker the peer table maps to it. */
class WorkerHost
{
  public:
    /**
     * Host over an internally owned UdpTransport bound to every local
     * endpoint (the multi-process daemon/bench shape).
     *
     * @param scenario loaded scenario (ownership taken)
     * @param peers    shared peer table; its processOf map (absent
     *                 entries = process 0) decides what this host runs
     * @param process  this host's process index
     * @param seed     sensor-noise master seed (shared by every host)
     */
    WorkerHost(config::LoadedScenario scenario,
               config::WorkerPeers peers, std::uint32_t process,
               std::uint64_t seed = 1);

    /** Host over an injected transport (not owned; tests). */
    WorkerHost(config::LoadedScenario scenario,
               config::WorkerPeers peers, std::uint32_t process,
               std::uint64_t seed, net::Transport &transport);

    ~WorkerHost();

    WorkerHost(const WorkerHost &) = delete;
    WorkerHost &operator=(const WorkerHost &) = delete;

    /** Run up to @p max_periods periods; returns periods completed. */
    std::size_t runPeriods(std::size_t max_periods);

    /** Ask the period loop to exit at the next check. */
    void requestStop() { stop_.store(true, std::memory_order_relaxed); }

    /** Endpoints hosted by this process, ascending. */
    const std::vector<net::Transport::Endpoint> &endpoints() const
    {
        return locals_;
    }

    /** The worker layout this deployment runs. */
    const core::TreePlan &plan() const { return plan_; }

    /** Aggregate protocol accounting across every hosted role. */
    const RuntimeStats &stats() const { return stats_; }

    /** Degraded-mode decisions (timestamps are epochs). */
    const core::EventLog &eventLog() const { return events_; }

    /** The transport this host speaks over. */
    net::Transport &transport() { return *transport_; }

    /** The owned UDP transport, or nullptr when injected. */
    net::UdpTransport *udp() { return ownedTransport_.get(); }

    /** Epoch of the most recently completed period (0 before any). */
    std::uint32_t lastEpoch() const { return lastEpoch_; }

    /** Hosted leaves, merged: (tree, edge) -> budget applied last
     *  period. */
    const std::map<std::pair<std::size_t, topo::NodeId>, Watts> &
    lastEdgeBudgets() const
    {
        return lastEdgeBudgets_;
    }

    /**
     * Attach telemetry sinks (either may be null; both null detaches).
     * Everything is labeled {process}: the shared plane's series (hop
     * latency, fleet health, safety auditor, transport; see
     * rt/observe.hh), the RuntimeStats mirror capmaestro_host_stat,
     * and the host's own period/catch-up counters and per-tier
     * endpoint census. @p tracer gets one span trace per period.
     * Attaching also turns on wire trace-context stamping (wire v5) —
     * purely observational: payloads, send counts, and every
     * allocation decision are bit-identical with tracing off.
     */
    void setTelemetry(telemetry::Registry *registry,
                      telemetry::PeriodTracer *tracer);

    /**
     * Serve the observability endpoints (/metrics, /healthz, /tracez)
     * on 127.0.0.1:@p port (0 = ephemeral), polled from the period
     * loop — no extra thread. Returns the bound port, or 0 when the
     * bind failed.
     */
    std::uint16_t serveHttp(std::uint16_t port);

    /** Bound HTTP port (0 when not serving). */
    std::uint16_t httpPort() const { return obs_.httpPort(); }

    /** /healthz document (process, epoch, stats, fleet, safety). */
    util::Json healthJson() const;

    /** Health rollup over the child workers this host observes. */
    const telemetry::FleetHealthRegistry &fleetHealth() const
    {
        return obs_.fleetHealth();
    }

    /** Online budget-conservation auditor over the hosted fragments. */
    const telemetry::SafetyAuditor &safetyAuditor() const
    {
        return obs_.auditor();
    }

    /**
     * The host's shared membership replica. Host mode is replica-only:
     * it adopts MembershipDelta broadcasts (acking from each addressed
     * hosted endpoint) and honors them — a Joining or Draining hosted
     * leaf clamps to min(Pcap_min default, nominal floor), a Left one
     * applies zero (LeafRole::close) — but
     * never originates transitions. Elasticity in a deep deployment is
     * driven by the root, which runs as a WorkerRuntime deep-root role
     * (see worker_runtime.hh, "Membership / elasticity plane").
     */
    const membership::MembershipTable &membership() const
    {
        return membership_;
    }

    /** The replica's membership generation (1 = static deployment). */
    std::uint32_t membershipGeneration() const
    {
        return membership_.generation();
    }

    /**
     * Stamp every outgoing frame with wire version @p v (kWireVersion
     * or kWireCompatVersion) — the not-yet-upgraded half of a rolling
     * upgrade. A compat-stamped host cannot send MembershipAck, so the
     * root keeps re-broadcasting to it until the upgrade lands;
     * upgrade-then-join is the supported order.
     */
    void setWireVersion(std::uint8_t v);

    /** Wire version this host stamps on sends. */
    std::uint8_t wireVersion() const { return wireVersion_; }

  private:
    /** One hosted leaf worker and its per-epoch progress. */
    struct LeafSlot
    {
        LeafRole leaf;
        bool done = false;
        /** Highest epoch a parent beacon reported (see dispatch()):
         *  a beacon at or past the current epoch means the parent
         *  closed this worker's phases without it — close early and
         *  resend fresh next epoch rather than ride the deadlines. */
        std::uint32_t beaconEpoch = 0;
    };

    /** One hosted aggregator (or root) and its per-epoch progress. */
    struct AggRole
    {
        net::Transport::Endpoint ep = 0;
        net::Transport::Endpoint parent = 0;
        std::uint32_t tier = 0;
        std::unique_ptr<AggregatorRole> agg;
        bool upDone = false;
        bool downDone = false;
        /** Highest epoch a parent beacon reported (see LeafSlot). */
        std::uint32_t beaconEpoch = 0;
        /** Open trace spans for this epoch's two phases. */
        telemetry::PeriodTracer::SpanId gatherSpan =
            telemetry::PeriodTracer::kNoSpan;
        telemetry::PeriodTracer::SpanId downSpan =
            telemetry::PeriodTracer::kNoSpan;
    };

    void init(std::uint64_t seed);
    void runPeriod(std::uint32_t epoch);
    /** Frame meta for a send, trace-stamped when telemetry is on. */
    net::FrameMeta stampMeta(std::uint16_t sender, std::uint32_t epoch,
                             std::uint32_t tier);
    /** Route one delivered frame to its hosted role (or hold it back
     *  for the next epoch). */
    void dispatch(net::Transport::Endpoint to, const net::Frame &frame,
                  std::uint32_t epoch);
    /** Adopt a membership broadcast into the shared replica and ack it
     *  from the addressed hosted endpoint (epoch-free plane). */
    void adoptMembership(net::Transport::Endpoint to,
                         const net::Frame &frame, std::uint32_t epoch);
    /** Send @p bytes on link @p from -> @p to: into the in-memory
     *  inbox when @p to is hosted here, on the transport otherwise. */
    void post(net::Transport::Endpoint from, net::Transport::Endpoint to,
              std::vector<std::uint8_t> bytes);
    void aggSendUp(AggRole &role, std::uint32_t epoch);
    void aggSendDown(AggRole &role, std::uint32_t epoch);

    config::LoadedScenario scenario_;
    config::WorkerPeers peers_;
    core::TreePlan plan_;
    std::uint32_t process_ = 0;
    std::unique_ptr<net::UdpTransport> ownedTransport_;
    net::Transport *transport_ = nullptr;
    std::atomic<bool> stop_{false};
    RuntimeStats stats_;
    core::EventLog events_;
    std::uint32_t lastEpoch_ = 0;
    /** Highest epoch carried by any received frame. */
    std::uint32_t maxSeenEpoch_ = 0;
    std::uint32_t seq_ = 0;
    /** Version byte stamped on every send (rolling-upgrade knob). */
    std::uint8_t wireVersion_ = net::kWireVersion;
    /** Shared membership replica over every hosted endpoint. */
    membership::MembershipTable membership_;

    std::vector<net::Transport::Endpoint> locals_;
    std::vector<LeafSlot> leaves_;
    /** Hosted aggregators in ascending tier order (root last). */
    std::vector<AggRole> aggs_;
    /** What an endpoint is to this host, and its index into leaves_
     *  or aggs_. */
    struct RoleRef
    {
        enum class Kind : std::uint8_t { None, Leaf, Agg };
        Kind kind = Kind::None;
        std::uint32_t slot = 0;
    };
    /** Every plan endpoint (dense 0..workers-1) -> its hosted role. */
    std::vector<RoleRef> roles_;
    /** Frames posted to hosted endpoints, not yet dispatched. */
    std::vector<net::Transport::Delivery> inbox_;
    /** One pass's frames (inbox, then transport); reused per pass. */
    std::vector<net::Transport::Delivery> batch_;
    std::map<std::pair<std::size_t, topo::NodeId>, Watts>
        lastEdgeBudgets_;

    /** Frames from the next epoch, replayed when the host enters it. */
    struct HeldFrame
    {
        net::Transport::Endpoint to = 0;
        net::Frame frame;
    };
    std::vector<HeldFrame> holdback_;

    // -------- observability (all inert until configured)
    Observability obs_{stats_, events_};
    /** Host-level span over the leaves' budget-wait phase. */
    telemetry::PeriodTracer::SpanId leafSpan_ =
        telemetry::PeriodTracer::kNoSpan;
};

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_HOST_HH
