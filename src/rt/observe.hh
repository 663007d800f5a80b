/**
 * @file
 * The observability plane of one rt runtime (WorkerHost or
 * WorkerRuntime), inert until telemetry is attached: wire-v5 trace
 * stamping, per-hop latency histograms and spans, the online safety
 * audit of every split, the fleet health rollup, RuntimeStats mirrors,
 * and the /metrics, /healthz and /tracez endpoints. The hop-trace
 * format and the health schema live here and nowhere else:
 *
 *  - capmaestro_hop_latency_ms carries the owner's base labels plus
 *    {kind, from_tier, to_tier}; a `hop` span carries kind, from,
 *    from_tier, to_tier, latencyMs and traceId;
 *  - /healthz carries ok, lastEpoch, periods, generation, `stats`
 *    (every kStatFields entry), `membership`, and on aggregating
 *    owners `fleet` and `safety`; the owner adds its identity keys;
 *  - capmaestro_membership_generation and
 *    capmaestro_membership_pending_units carry the owner's table.
 *
 * It only observes: sequence numbers, wire bytes and allocations are
 * the same with telemetry on or off.
 */

#ifndef CAPMAESTRO_RT_OBSERVE_HH
#define CAPMAESTRO_RT_OBSERVE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/events.hh"
#include "membership/table.hh"
#include "net/http_endpoint.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "rt/aggregator.hh"
#include "rt/stats.hh"
#include "telemetry/health.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace.hh"
#include "topology/power_system.hh"
#include "util/json.hh"

namespace capmaestro::rt {

/** Unix realtime in milliseconds: comparable across the processes of
 *  one machine, unlike a UdpTransport's per-process clock. */
double unixNowMs();

/** One runtime's observability plane (see file comment). */
class Observability
{
  public:
    /** Observes the owner's @p stats; SafetyViolation events go to
     *  @p events. */
    Observability(const RuntimeStats &stats, core::EventLog &events)
        : stats_(stats), events_(events)
    {
    }

    /**
     * Attach @p registry and @p tracer (either may be null; both null
     * detaches and drops every handle, the transport's included).
     * Series carry @p labels; the fleet and auditor series register
     * only when @p aggregating. Hops are clocked by unix realtime when
     * @p realtime (a socket per process), by @p transport otherwise.
     */
    void attach(telemetry::Registry *registry,
                telemetry::PeriodTracer *tracer, net::Transport &transport,
                bool realtime, telemetry::Labels labels, bool aggregating);

    /** Mirror every RuntimeStats field as gauge @p name{stat=...}. */
    void mirrorGauges(const char *name);

    /** Mirror @p field as counter @p name, counting from now. */
    void mirrorCounter(std::size_t RuntimeStats::*field, const char *name,
                       const char *help);

    /** Bring the mirrors up to date with the owner's stats. */
    void publishStats();

    /** Export @p table's generation and its Joining + Draining units;
     *  attach() exports the last table shown again. */
    void publishMembership(const membership::MembershipTable &table);

    /** Telemetry attached: stamp, record hops, audit, roll up. */
    bool on() const { return on_; }

    telemetry::PeriodTracer *tracer() const { return tracer_; }

    /** Stamp @p meta's trace context for a send from trace tier
     *  @p tier (inline: it runs on every frame). */
    void stamp(net::FrameMeta &meta, std::uint8_t tier) const
    {
        if (!on_)
            return;
        net::TraceContext trace;
        trace.traceId = static_cast<std::uint16_t>(meta.epoch & 0xFFFF);
        trace.originTier = tier;
        trace.sendMs = clockMs();
        meta.trace = trace;
    }

    /** Record a stamped frame received at trace tier @p to_tier: one
     *  histogram sample and, in an open period, a bounded hop span. */
    void recordHop(const net::Frame &frame, std::uint8_t to_tier);

    /** Open @p epoch's trace (with a tracer attached), attributed with
     *  role, epoch and traceId for cross-process stitching. */
    void beginPeriod(std::uint32_t epoch, double sim_now,
                     std::string role);

    /** Close the trace beginPeriod() opened, reset the hop span
     *  budget, and answer pending scrapes. */
    void endPeriod();

    /** Check a fragment's computed split with topo::overloads(), per
     *  tree it split, from its grant; each station over its bound
     *  counts a violation and logs a SafetyViolation event
     *  ("<tree>.<station>@<who>", watts over). */
    void auditSplit(std::uint32_t epoch, const topo::PowerSystem &system,
                    const std::string &who, const AggregatorRole &agg);

    /** Roll a fragment's gather outcome up per child worker "w<ep>",
     *  at its worst station's state; a child in @p overrides (its
     *  supervisor's liveness verdict) reports that state instead. */
    void reportChildren(
        const AggregatorRole &agg, std::uint32_t epoch,
        const std::map<std::uint32_t, telemetry::UnitHealth> &overrides =
            {});

    const telemetry::FleetHealthRegistry &fleetHealth() const
    {
        return fleetHealth_;
    }
    const telemetry::SafetyAuditor &auditor() const { return auditor_; }

    /** Serve /metrics, /healthz (the document @p health builds) and
     *  /tracez on 127.0.0.1:@p port; the bound port, or 0. */
    std::uint16_t serveHttp(std::uint16_t port,
                            std::function<util::Json()> health);

    std::uint16_t httpPort() const { return http_.port(); }

    /** Answer pending scrapes (no-op when not serving). */
    void poll()
    {
        if (http_.listening())
            http_.poll();
    }

    /** The shared /healthz body (see file comment); `membership` also
     *  carries the state of endpoint @p self when given. */
    util::Json::Object
    health(const membership::MembershipTable &members,
           std::uint32_t last_epoch, bool aggregating,
           std::optional<std::uint16_t> self = std::nullopt) const;

  private:
    double clockMs() const;

    /** A RuntimeStats field mirrored as a counter. */
    struct CounterMirror
    {
        std::size_t RuntimeStats::*field;
        telemetry::Counter counter;
        /** Field value already counted. */
        std::size_t published;
    };

    const RuntimeStats &stats_;
    core::EventLog &events_;
    telemetry::Registry *registry_ = nullptr;
    telemetry::PeriodTracer *tracer_ = nullptr;
    net::Transport *transport_ = nullptr;
    bool on_ = false;
    bool realtime_ = false;
    telemetry::Labels labels_;
    telemetry::FleetHealthRegistry fleetHealth_;
    telemetry::SafetyAuditor auditor_;
    net::HttpEndpoint http_;
    /** (kind, from tier, to tier) -> hop latency histogram, registered
     *  on the first stamped frame of that shape. */
    std::map<std::tuple<std::uint8_t, std::uint8_t, std::uint8_t>,
             telemetry::HistogramMetric>
        hopHist_;
    /** One gauge per kStatFields entry, in table order (or none). */
    std::vector<telemetry::Gauge> statGauges_;
    std::vector<CounterMirror> statCounters_;
    /** The table publishMembership() last showed. */
    const membership::MembershipTable *members_ = nullptr;
    /** Hop spans recorded this period (bounded per period). */
    std::size_t hopSpans_ = 0;
    /** beginPeriod() opened the tracer's current period. */
    bool traced_ = false;
};

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_OBSERVE_HH
