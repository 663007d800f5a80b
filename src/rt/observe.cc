#include "rt/observe.hh"

#include <algorithm>
#include <cctype>
#include <chrono>

namespace capmaestro::rt {

namespace {

/** Hop spans recorded per period trace (a 10k-leaf gather would
 *  otherwise swamp the trace arena); the rest only feed the
 *  histograms. */
constexpr std::size_t kMaxHopSpansPerPeriod = 256;

/** Completed period traces retained for /tracez. */
constexpr std::size_t kTracezPeriods = 32;

const char *
hopKindName(net::MsgType type)
{
    switch (type) {
    case net::MsgType::Metrics:   return "metrics";
    case net::MsgType::Budget:    return "budget";
    case net::MsgType::Summary:   return "summary";
    case net::MsgType::SubBudget: return "sub_budget";
    case net::MsgType::Heartbeat: return "heartbeat";
    default:                      return "other";
    }
}

/** "coHostedFrames" -> "co_hosted_frames". */
std::string
snakeCase(const char *camel)
{
    std::string out;
    for (; *camel; ++camel) {
        const auto c = static_cast<unsigned char>(*camel);
        if (std::isupper(c))
            out += '_';
        out += static_cast<char>(std::tolower(c));
    }
    return out;
}

template <typename T>
util::Json
num(T value)
{
    return util::Json(static_cast<double>(value));
}

} // namespace

double
unixNowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

double
Observability::clockMs() const
{
    // Each UdpTransport's nowMs() counts from its own process start,
    // so hops between processes need the shared realtime clock; a
    // transport shared in one process is its own common clock.
    return realtime_ ? unixNowMs() : transport_->nowMs();
}

void
Observability::attach(telemetry::Registry *registry,
                      telemetry::PeriodTracer *tracer,
                      net::Transport &transport, bool realtime,
                      telemetry::Labels labels, bool aggregating)
{
    registry_ = registry;
    tracer_ = tracer;
    on_ = registry != nullptr || tracer != nullptr;
    transport_ = &transport;
    realtime_ = realtime;
    labels_ = std::move(labels);
    traced_ = false;
    hopHist_.clear();
    statGauges_.clear();
    statCounters_.clear();
    transport.setTelemetry(registry);
    telemetry::Registry *rollup = aggregating ? registry : nullptr;
    fleetHealth_.setTelemetry(rollup, labels_);
    auditor_.setTelemetry(rollup, labels_);
    if (members_)
        publishMembership(*members_);
}

void
Observability::publishMembership(const membership::MembershipTable &table)
{
    members_ = &table;
    if (!registry_)
        return;
    registry_
        ->gauge("capmaestro_membership_generation", labels_,
                "Current membership table generation")
        .set(static_cast<double>(table.generation()));
    registry_
        ->gauge("capmaestro_membership_pending_units", labels_,
                "Units with an uncommitted transition (Joining or Draining)")
        .set(static_cast<double>(
            table.countOf(membership::UnitState::Joining)
            + table.countOf(membership::UnitState::Draining)));
}

void
Observability::mirrorGauges(const char *name)
{
    if (!registry_)
        return;
    for (const StatField &field : kStatFields) {
        telemetry::Labels ls = labels_;
        ls.emplace_back("stat", snakeCase(field.name));
        statGauges_.push_back(
            registry_->gauge(name, std::move(ls),
                             "Cumulative RuntimeStats counter mirror"));
    }
    publishStats();
}

void
Observability::mirrorCounter(std::size_t RuntimeStats::*field,
                             const char *name, const char *help)
{
    if (registry_) {
        statCounters_.push_back(
            {field, registry_->counter(name, labels_, help), stats_.*field});
    }
}

void
Observability::publishStats()
{
    for (std::size_t i = 0; i < statGauges_.size(); ++i) {
        statGauges_[i].set(
            static_cast<double>(stats_.*kStatFields[i].member));
    }
    for (CounterMirror &mirror : statCounters_) {
        const std::size_t now = stats_.*mirror.field;
        mirror.counter.inc(static_cast<double>(now - mirror.published));
        mirror.published = now;
    }
}

void
Observability::recordHop(const net::Frame &frame, std::uint8_t to_tier)
{
    if (!on_ || !frame.trace)
        return;
    const net::TraceContext &ctx = *frame.trace;
    const double latency = std::max(0.0, clockMs() - ctx.sendMs);
    if (registry_) {
        const auto key = std::make_tuple(
            static_cast<std::uint8_t>(frame.type), ctx.originTier, to_tier);
        auto it = hopHist_.find(key);
        if (it == hopHist_.end()) {
            telemetry::Labels ls = labels_;
            ls.emplace_back("kind", hopKindName(frame.type));
            ls.emplace_back("from_tier", std::to_string(ctx.originTier));
            ls.emplace_back("to_tier", std::to_string(to_tier));
            it = hopHist_
                     .emplace(key,
                              registry_->histogram(
                                  "capmaestro_hop_latency_ms", 0.0,
                                  100.0, 64, std::move(ls),
                                  "Per-hop frame latency from the "
                                  "sender's trace stamp to receipt"))
                     .first;
        }
        it->second.observe(latency);
    }
    if (tracer_ && tracer_->inPeriod()
        && hopSpans_ < kMaxHopSpansPerPeriod) {
        ++hopSpans_;
        const auto span = tracer_->begin("hop");
        tracer_->str(span, "kind", hopKindName(frame.type));
        tracer_->num(span, "from", frame.sender);
        tracer_->str(span, "from_tier", std::to_string(ctx.originTier));
        tracer_->str(span, "to_tier", std::to_string(to_tier));
        tracer_->num(span, "latencyMs", latency);
        tracer_->num(span, "traceId", ctx.traceId);
        tracer_->end(span);
    }
}

void
Observability::beginPeriod(std::uint32_t epoch, double sim_now,
                           std::string role)
{
    if (!tracer_)
        return;
    // One trace per epoch, stitchable across processes by
    // {epoch, traceId}.
    tracer_->noteSimTime(sim_now);
    tracer_->beginPeriod(epoch);
    tracer_->periodStr("role", std::move(role));
    tracer_->periodNum("epoch", static_cast<double>(epoch));
    tracer_->periodNum("traceId", static_cast<double>(epoch & 0xFFFF));
    traced_ = true;
}

void
Observability::endPeriod()
{
    if (traced_ && tracer_)
        tracer_->endPeriod();
    traced_ = false;
    hopSpans_ = 0;
    poll();
}

void
Observability::auditSplit(std::uint32_t epoch,
                          const topo::PowerSystem &system,
                          const std::string &who, const AggregatorRole &agg)
{
    if (!on_)
        return;
    for (const auto &[tree, top] : agg.stations()) {
        const auto grant = agg.grant(tree);
        if (!grant)
            continue; // no grant arrived: nothing was split
        auditor_.audit();
        const topo::PowerTree &t = system.tree(tree);
        for (const topo::Overload &over :
             topo::overloads(t, top, *grant, agg.applied(tree))) {
            const std::string subject =
                t.name() + "." + t.node(over.node).name + "@" + who;
            auditor_.violation(epoch, subject, over.load - over.bound);
            events_.record(static_cast<Seconds>(epoch),
                           core::EventKind::SafetyViolation, subject,
                           over.load - over.bound);
        }
    }
}

void
Observability::reportChildren(
    const AggregatorRole &agg, std::uint32_t epoch,
    const std::map<std::uint32_t, telemetry::UnitHealth> &overrides)
{
    if (!on_)
        return;
    // Worst station state per child worker: a child is only as healthy
    // as its most degraded station (the enum is ordered by severity).
    std::map<std::uint32_t, telemetry::UnitHealth> worst;
    for (const AggregatorRole::ChildStation &st : agg.childStations()) {
        if (!st.gathered)
            continue;
        const auto [it, inserted] = worst.emplace(st.child, st.health);
        if (!inserted && st.health > it->second)
            it->second = st.health;
    }
    for (const auto &[child, h] : worst) {
        const auto over = overrides.find(child);
        fleetHealth_.report("w" + std::to_string(child),
                            over != overrides.end() ? over->second : h,
                            epoch);
    }
}

std::uint16_t
Observability::serveHttp(std::uint16_t port,
                         std::function<util::Json()> health)
{
    if (!http_.listen(port))
        return 0;
    const char *json = "application/json";
    http_.handle("/metrics", [this] {
        return net::HttpResponse{
            200, "text/plain; version=0.0.4; charset=utf-8",
            registry_ ? registry_->renderPrometheus() : ""};
    });
    http_.handle("/healthz", [json, health = std::move(health)] {
        return net::HttpResponse{
            200, json, util::serializeJson(health(), 0) + "\n"};
    });
    http_.handle("/tracez", [this, json] {
        return net::HttpResponse{
            200, json,
            (tracer_ ? util::serializeJson(
                           tracer_->lastJson(kTracezPeriods), 0)
                     : "[]")
                + std::string("\n")};
    });
    return http_.port();
}

util::Json::Object
Observability::health(const membership::MembershipTable &members,
                      std::uint32_t last_epoch, bool aggregating,
                      std::optional<std::uint16_t> self) const
{
    util::Json::Object st;
    for (const StatField &field : kStatFields)
        st.emplace(field.name, num(stats_.*field.member));

    using membership::UnitState;
    util::Json::Object member;
    member.emplace("generation", num(members.generation()));
    member.emplace("joining", num(members.countOf(UnitState::Joining)));
    member.emplace("draining", num(members.countOf(UnitState::Draining)));
    member.emplace("left", num(members.countOf(UnitState::Left)));
    member.emplace("shadowPeriods", num(stats_.shadowPeriods));
    if (self) {
        member.emplace("self", util::Json(std::string(
                                   membership::unitStateName(
                                       members.state(*self)))));
    }

    util::Json::Object out;
    out.emplace("ok", util::Json(auditor_.violations() == 0));
    out.emplace("lastEpoch", num(last_epoch));
    out.emplace("periods", num(stats_.periodsRun));
    out.emplace("generation", num(members.generation()));
    out.emplace("stats", util::Json(std::move(st)));
    out.emplace("membership", util::Json(std::move(member)));
    if (aggregating) {
        out.emplace("fleet", fleetHealth_.toJson());
        out.emplace("safety", auditor_.toJson());
    }
    return out;
}

} // namespace capmaestro::rt
