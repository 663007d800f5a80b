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
 * The period is completeness-driven rather than wall-anchored: each
 * advance() is one pass of the event loop, and every hosted role
 * advances as soon as its inputs are complete (all child stations
 * fresh; the SubBudget received; all budgets applied), with the §4.5
 * deadline cascade (rt::Cascade) — tier-k gather closes
 * k x gatherDeadlineMs after the period began, SubBudget collection
 * and the leaf budget deadline a symmetric budget cascade later — as
 * the degraded-mode timeout. The next period begins as soon as one
 * closes. On a lossless transport the whole tree therefore free-runs
 * flow-controlled by its own frames (the property the scalability
 * bench measures as periods/sec); under loss each hop degrades
 * exactly like a WorkerRuntime (stale reuse, floors in the merge,
 * Pcap_min defaults). Because a finished process can run at most one
 * epoch ahead of a neighbor still collecting, frames from epoch e+1
 * are held back and replayed when the host enters e+1 instead of
 * being dropped as orphans.
 *
 * Free-running epochs need a resync story: a process that starts late
 * or stalls past a deadline window would otherwise stay behind the
 * fleet forever, each side orphaning the other's frames. Two
 * mechanisms close the gap. Aggregators ping every child that stayed
 * silent through a gather deadline with a header-only heartbeat (the
 * epoch beacon — zero frames on a lossless run), and a host that sees
 * any frame from two or more epochs ahead, or a beacon from a role's
 * parent at or past its current epoch, closes the period immediately
 * with the usual degraded fallbacks (counted as catchUpPeriods) and
 * burns forward until it rejoins — at which point held-back frames
 * replay and real budgets flow again.
 *
 * Steady state allocates nothing per leaf: each role writes its
 * results in place, a frame is encoded into a spare buffer and handed
 * back to the RoleTable once its receiver has decoded it (the
 * co-hosting inbox and the batch are swapped, not rebuilt), and
 * held-back frames are copied into reused slots.
 *
 * Roles that share a host exchange frames in memory: a send whose
 * destination is hosted here is appended, encoded, to a host-owned
 * inbox instead of going to the transport, and every event-loop pass
 * takes the inbox first and then drains the transport. Both kinds of
 * frame then go through the same receive path (rt::RoleTable, shared
 * with WorkerRuntime: CRC, routing, trace hops), and the host adds
 * only holdback, so where a role lives never changes what it decides.
 * The transport (and any fault injection on it) carries only the
 * frames whose destination lives in another process;
 * RuntimeStats::coHostedFrames counts the rest. advance() asks for
 * one poll slice of wait only after a pass that neither delivered a
 * frame nor closed a gather or budget phase, so a tier hop inside one
 * process costs no sleep.
 *
 * Roles, stamping, framing and routing are the RoleTable's
 * (rt/roles.hh): a hosted leaf is a LeafRole, the state machine every
 * WorkerRuntime rack runs too, and takes Budget and Rehome frames like
 * one (a Rehome from anyone but its plan parent is its orphan; no
 * hosted role sends one). Only a role's plan parent can end its period early: a
 * Heartbeat from anyone else is no beacon. The host adds the
 * completeness loop, the co-hosting inbox, holdback, the beacons it
 * sends and catch-up. A checkpoint is built only where a supervisor
 * stores it (LeafRole::checkpoint(), which a WorkerRuntime leaf sends
 * to its parent's rt::Supervisor), so a host builds none. Host
 * mode thus runs no supervision (rt/supervisor.hh): a restarted
 * process rejoins with a fresh plant while its parents ride stale ->
 * floor, as documented in rt/aggregator.hh. Streaming a checkpoint per
 * leaf per period would multiply the bytes a large host sends; the
 * host adopts the Supervisor once a checkpoint cadence is chosen.
 *
 * Membership is the RoleTable's rt::MembershipPlane
 * (rt/membership_plane.hh), the same one a WorkerRuntime runs, with no
 * code of the host's own. A host holding the root originates joins
 * and drains (membership().beginJoin()/beginDrain()): its root runs
 * the commit gate when its gather closes and posts the snapshot with
 * its down frames. Elsewhere the host's table is a replica, acked from
 * each addressed hosted endpoint. Hosted aggregators get the child
 * views membership implies; a hosted leaf committed Left applies 0 W
 * and reports nothing, while the host runs its other endpoints on.
 *
 * Observability is the shared rt::Observability (rt/observe.hh), the
 * same plane a WorkerRuntime owns; the host adds only its per-tier
 * endpoint census, the RuntimeStats gauge mirror, its period and
 * catch-up counters, and per-role gather/down spans. What both engines
 * own and show otherwise is their rt::Engine base (rt/engine.hh).
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
#include "net/udp_transport.hh"
#include "net/wire.hh"
#include "rt/engine.hh"
#include "rt/roles.hh"
#include "rt/stats.hh"

namespace capmaestro::rt {

/** One process hosting every worker the peer table maps to it. */
class WorkerHost : public Engine
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

    double advance(double now) override;

    /** Endpoints hosted by this process, ascending. */
    const std::vector<net::Transport::Endpoint> &endpoints() const
    {
        return roles_.locals();
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

    /** /healthz document (process, epoch, stats, fleet, safety). */
    util::Json healthJson() const override;

  private:
    using Routed = RoleTable::Routed;

    /** Per-epoch progress of one hosted aggregator (parallel to
     *  RoleTable::aggregators()). */
    struct AggProgress
    {
        bool upDone = false;
        bool downDone = false;
        /** Open trace spans for this epoch's two phases. */
        telemetry::PeriodTracer::SpanId gatherSpan =
            telemetry::PeriodTracer::kNoSpan;
        telemetry::PeriodTracer::SpanId downSpan =
            telemetry::PeriodTracer::kNoSpan;
    };

    /** Open @p epoch at @p now: reset the roles, advance the plants and
     *  send their Metrics, replay the frames held back for it. */
    void begin(std::uint32_t epoch, double now);
    /** One event-loop pass at @p now; @p progressed when it delivered a
     *  frame or closed a phase. True once every hosted role closed the
     *  period. */
    bool pass(double now, bool &progressed);
    /** Act on what the RoleTable handed back for one received frame. */
    void settle(net::Transport::Endpoint to, Routed routed,
                std::uint32_t epoch);
    /** Send @p bytes on link @p from -> @p to: into the in-memory
     *  inbox when @p to is hosted here, on the transport otherwise. */
    void post(net::Transport::Endpoint from, net::Transport::Endpoint to,
              std::vector<std::uint8_t> bytes);
    /** post() and clear sends_. */
    void postAll();
    void aggSendUp(std::size_t slot, std::uint32_t epoch);
    void aggSendDown(std::size_t slot, std::uint32_t epoch);

    std::uint32_t process_ = 0;
    /** Highest epoch carried by any received frame. */
    std::uint32_t maxSeenEpoch_ = 0;

    std::vector<AggProgress> aggProgress_;
    /** Hosted leaves closed this epoch (parallel to leaves()). */
    std::vector<bool> leafDone_;
    /** Frames posted to hosted endpoints, not yet dispatched. */
    std::vector<net::Transport::Delivery> inbox_;
    /** One pass's frames (inbox, then transport); reused per pass. */
    std::vector<net::Transport::Delivery> batch_;
    /** Framed output waiting for post(); reused. */
    RoleTable::Sends sends_;

    /** Frames from the next epoch, replayed when the host enters it:
     *  the first held_ slots of holdback_ (the rest are spare). */
    struct HeldFrame
    {
        net::Transport::Endpoint to = 0;
        net::Frame frame;
    };
    std::vector<HeldFrame> holdback_;
    std::size_t held_ = 0;

    /** Host-level span over the leaves' budget-wait phase. */
    telemetry::PeriodTracer::SpanId leafSpan_ =
        telemetry::PeriodTracer::kNoSpan;
};

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_HOST_HH
