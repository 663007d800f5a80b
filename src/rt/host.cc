#include "rt/host.hh"

#include <algorithm>

#include "util/logging.hh"

namespace capmaestro::rt {

namespace {

/** Receive-poll granularity inside a period, milliseconds. */
constexpr double kPollSliceMs = 2.0;

/** Next-epoch frames held back before the host drops the excess. */
constexpr std::size_t kHoldbackCap = 65536;

/** The endpoints the peer table assigns to @p process (fatal when
 *  there are none). */
std::vector<net::Transport::Endpoint>
hostedEndpoints(const config::WorkerPeers &peers, std::uint32_t process)
{
    if (process >= peers.processCount()) {
        util::fatal("rt: host process %u out of range (peer table "
                    "implies %u processes)",
                    process, peers.processCount());
    }
    auto locals = peers.endpointsOf(process);
    if (locals.empty())
        util::fatal("rt: process %u hosts no endpoints", process);
    return locals;
}

} // namespace

// An aggregator's fan-in arrives as one burst per period; an owned
// transport's sockets fit a full burst (plus one held-back epoch) while
// this process is descheduled on a loaded box.
WorkerHost::WorkerHost(config::LoadedScenario scenario,
                       config::WorkerPeers peers, std::uint32_t process,
                       std::uint64_t seed)
    : Engine(std::move(scenario), peers, hostedEndpoints(peers, process),
             seed, nullptr, 4 << 20),
      process_(process)
{
}

WorkerHost::WorkerHost(config::LoadedScenario scenario,
                       config::WorkerPeers peers, std::uint32_t process,
                       std::uint64_t seed, net::Transport &transport)
    : Engine(std::move(scenario), peers, hostedEndpoints(peers, process),
             seed, &transport),
      process_(process)
{
}

WorkerHost::~WorkerHost() = default;

void
WorkerHost::setTelemetry(telemetry::Registry *registry,
                         telemetry::PeriodTracer *tracer)
{
    const telemetry::Labels base{
        {"process", std::to_string(process_)}};
    obs_.attach(registry, tracer, *transport_, ownedTransport_ != nullptr,
                base, /*aggregating=*/true);
    obs_.mirrorGauges("capmaestro_host_stat");
    obs_.mirrorCounter(&RuntimeStats::periodsRun,
                       "capmaestro_host_periods_total",
                       "Control periods completed by this host process");
    obs_.mirrorCounter(&RuntimeStats::catchUpPeriods,
                       "capmaestro_host_catch_up_periods_total",
                       "Periods closed early to rejoin the fleet epoch");
    if (!registry)
        return;
    // Hosted-endpoint census per tier, so a scraper sees the layout.
    std::map<std::uint32_t, std::size_t> perTier;
    for (const net::Transport::Endpoint ep : roles_.locals())
        ++perTier[roles_.plan().workers[ep].tier];
    for (const auto &[tier, count] : perTier) {
        telemetry::Labels ls = base;
        ls.emplace_back("tier", std::to_string(tier));
        registry
            ->gauge("capmaestro_host_endpoints", std::move(ls),
                    "Endpoints hosted by this process, per tier")
            .set(static_cast<double>(count));
    }
}

util::Json
WorkerHost::healthJson() const
{
    util::Json::Object out = obs_.health(roles_.membership().table(),
                                         lastEpoch_, /*aggregating=*/true);
    out.emplace("process", util::Json(static_cast<double>(process_)));
    out.emplace("endpoints",
                util::Json(static_cast<double>(roles_.locals().size())));
    out.emplace("leaves",
                util::Json(static_cast<double>(roles_.leaves().size())));
    out.emplace("aggregators", util::Json(static_cast<double>(
                                   roles_.aggregators().size())));
    return util::Json(std::move(out));
}

void
WorkerHost::post(net::Transport::Endpoint from, net::Transport::Endpoint to,
                 std::vector<std::uint8_t> bytes)
{
    if (roles_.hosts(to)) {
        ++stats_.coHostedFrames;
        stats_.coHostedBytes += bytes.size();
        inbox_.push_back({to, std::move(bytes)});
        return;
    }
    transport_->send(from, to, std::move(bytes));
}

void
WorkerHost::postAll()
{
    for (RoleTable::Send &send : sends_)
        post(send.from, send.to, std::move(send.bytes));
    sends_.clear();
}

void
WorkerHost::settle(net::Transport::Endpoint to, Routed routed,
                   std::uint32_t epoch)
{
    switch (routed) {
    case Routed::Later:
        // A finished neighbor can already be one epoch ahead; its
        // frames are routed again when this host enters that epoch.
        // Slots past held_ keep their storage for the next copy.
        if (held_ == kHoldbackCap) {
            ++stats_.orphanFrames;
            break;
        }
        if (held_ == holdback_.size())
            holdback_.emplace_back();
        holdback_[held_].to = to;
        holdback_[held_++].frame = roles_.frame();
        break;
    case Routed::Adopted:
        events_.record(static_cast<Seconds>(epoch),
                       core::EventKind::MembershipAdopted,
                       "process." + std::to_string(process_),
                       static_cast<double>(roles_.membership().generation()));
        break;
    default:
        break;
    }
}

void
WorkerHost::aggSendUp(std::size_t slot, std::uint32_t epoch)
{
    RoleTable::Aggregator &agg = roles_.aggregators()[slot];
    AggProgress &progress = aggProgress_[slot];
    progress.upDone = true;
    roles_.membership().closeGather(agg.role, epoch);
    // Epoch beacon: ping every child that stayed silent through this
    // gather so a process lagging behind the fleet epoch can detect
    // the gap and fast-forward. Free of charge on a lossless run —
    // a complete gather has no silent children.
    for (const std::uint32_t child : agg.role.silentChildren())
        roles_.frameHeartbeat(agg.ep, child, epoch, sends_);
    postAll();
    const auto &summaries = agg.role.closeGather(stats_, events_);
    obs_.reportChildren(agg.role, epoch);
    if (telemetry::PeriodTracer *tracer = obs_.tracer()) {
        tracer->end(progress.gatherSpan);
        progress.downSpan = tracer->begin("down");
        tracer->num(progress.downSpan, "tier",
                    static_cast<double>(agg.tier));
        tracer->num(progress.downSpan, "worker",
                    static_cast<double>(agg.ep));
    }
    if (agg.role.isRoot()) {
        // The root's down half follows immediately: its inputs are the
        // boundary it just closed.
        aggSendDown(slot, epoch);
        return;
    }
    roles_.frameSummaries(agg, summaries, epoch, sends_);
    postAll();
}

void
WorkerHost::aggSendDown(std::size_t slot, std::uint32_t epoch)
{
    AggProgress &progress = aggProgress_[slot];
    progress.downDone = true;
    RoleTable::Aggregator &agg = roles_.aggregators()[slot];
    roles_.frameDown(agg, epoch, sends_);
    if (agg.role.isRoot())
        roles_.frameMembership(epoch, sends_);
    postAll();
    if (telemetry::PeriodTracer *tracer = obs_.tracer()) {
        tracer->end(progress.downSpan);
        progress.downSpan = telemetry::PeriodTracer::kNoSpan;
    }
}

double
WorkerHost::advance(double now)
{
    if (!open_) {
        if (stop_.load(std::memory_order_relaxed))
            return kNever;
        begin(lastEpoch_ + 1, now);
    }
    bool progressed = false;
    if (pass(now, progressed)) {
        finishPeriod(epoch_);
        return now;
    }
    // Run again at once after a pass that changed something: a phase it
    // closed may have posted to the inbox, and the frames it delivered
    // may have more right behind them. Otherwise one poll slice, capped
    // at the leaves' budget deadline.
    if (progressed)
        return now;
    const double remaining = cascade().downClose(0) - now;
    return now + (remaining > 0.0 ? std::min(remaining, kPollSliceMs)
                                  : kPollSliceMs);
}

void
WorkerHost::begin(std::uint32_t epoch, double now)
{
    auto &aggs = roles_.aggregators();
    auto &leaves = roles_.leaves();

    openPeriod(epoch, now, "host" + std::to_string(process_));
    telemetry::PeriodTracer *tracer = obs_.tracer();
    if (tracer)
        tracer->periodNum("process", static_cast<double>(process_));

    // ---- reset the per-epoch role state before any frame (including
    // a held-back one) can land.
    aggProgress_.assign(aggs.size(), AggProgress{});
    leafDone_.assign(leaves.size(), false);
    for (std::size_t i = 0; i < aggs.size(); ++i) {
        aggs[i].role.beginEpoch(epoch);
        roles_.membership().openGather(aggs[i].role);
        AggProgress &progress = aggProgress_[i];
        if (tracer) {
            progress.gatherSpan = tracer->begin("gather");
            tracer->num(progress.gatherSpan, "tier",
                        static_cast<double>(aggs[i].tier));
            tracer->num(progress.gatherSpan, "worker",
                        static_cast<double>(aggs[i].ep));
        }
    }
    leafSpan_ = telemetry::PeriodTracer::kNoSpan;
    if (tracer && !leaves.empty()) {
        leafSpan_ = tracer->begin("leaf_budget_wait");
        tracer->num(leafSpan_, "leaves",
                    static_cast<double>(leaves.size()));
    }

    // ---- plants + upstream metrics for every hosted leaf. Host mode
    // streams no checkpoints (a host runs no supervisor; see host.hh),
    // so none is built.
    for (RoleTable::Leaf &leaf : leaves) {
        leaf.role.advance(epoch);
        roles_.frameMetrics(leaf, epoch, sends_);
        postAll();
    }

    // ---- replay frames held back for this epoch; later ones move to
    // the front, in their order.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < held_; ++i) {
        HeldFrame &held = holdback_[i];
        if (held.frame.epoch == epoch) {
            roles_.route(held.to, held.frame, epoch, sends_);
        } else if (held.frame.epoch > epoch) {
            if (kept != i)
                std::swap(holdback_[kept], held);
            ++kept;
        } else {
            ++stats_.orphanFrames;
        }
    }
    held_ = kept;
}

bool
WorkerHost::pass(double now, bool &progressed)
{
    // One pass takes the in-memory inbox, then one transport drain, and
    // services every hosted role; each role advances on completeness,
    // with the tier-staggered §4.5 deadline cascade as the degraded-mode
    // timeout. Frames a pass posts to co-hosted roles wait in inbox_ for
    // the next pass.
    const std::uint32_t epoch = epoch_;
    const Cascade cascade = this->cascade();
    auto &aggs = roles_.aggregators();
    auto &leaves = roles_.leaves();
    batch_.clear();
    batch_.swap(inbox_);
    for (auto &delivery : transport_->drain(roles_.locals()))
        batch_.push_back(std::move(delivery));
    progressed = !batch_.empty();
    for (auto &delivery : batch_) {
        const Routed routed =
            roles_.receive(delivery.to, delivery.frame, epoch, sends_);
        if (routed != Routed::Corrupt) {
            maxSeenEpoch_ = std::max(maxSeenEpoch_, roles_.frame().epoch);
            settle(delivery.to, routed, epoch);
        }
        roles_.recycle(std::move(delivery.frame));
    }
    postAll();
    // Lagging detection: lossless pipelining runs at most one epoch
    // ahead, so any frame from epoch+2 proves the fleet already degraded
    // past this whole host — close the period immediately with the
    // usual fallbacks and burn forward instead of riding deadlines ever
    // further behind. A parent beacon at or past the current epoch does
    // the same for the one role it targets: the beacon and the budget
    // are mutually exclusive per epoch (the parent sends one or the
    // other at gather close), so this role's phases are already closed
    // upstream and waiting longer buys nothing — closing now puts its
    // next-epoch frames ahead of the parent, where holdback replays
    // them fresh and the chase converges.
    const bool lagging = maxSeenEpoch_ > epoch + 1;
    bool all_done = true;
    for (std::size_t i = 0; i < aggs.size(); ++i) {
        const RoleTable::Aggregator &agg = aggs[i];
        const AggProgress &progress = aggProgress_[i];
        const bool expired = lagging || agg.beaconEpoch >= epoch;
        if (!progress.upDone
            && (agg.role.upComplete() || expired
                || now >= cascade.gatherClose(agg.tier))) {
            aggSendUp(i, epoch);
            progressed = true;
        }
        if (progress.upDone && !progress.downDone
            && (agg.role.downComplete() || expired
                || now >= cascade.downClose(agg.tier))) {
            aggSendDown(i, epoch);
            progressed = true;
        }
        all_done = all_done && progress.upDone && progress.downDone;
    }
    bool leaves_done = true;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
        RoleTable::Leaf &leaf = leaves[i];
        if (!leafDone_[i]
            && (leaf.role.complete() || lagging || leaf.beaconEpoch >= epoch
                || now >= cascade.downClose(0))) {
            roles_.closeLeaf(leaf);
            leafDone_[i] = true;
        }
        leaves_done = leaves_done && leafDone_[i];
    }
    all_done = all_done && leaves_done;
    telemetry::PeriodTracer *tracer = obs_.tracer();
    if (leaves_done && leafSpan_ != telemetry::PeriodTracer::kNoSpan) {
        tracer->end(leafSpan_);
        leafSpan_ = telemetry::PeriodTracer::kNoSpan;
    }
    if (all_done && lagging) {
        ++stats_.catchUpPeriods;
        if (tracer)
            tracer->periodNum("catchUp", 1.0);
    }
    return all_done;
}

} // namespace capmaestro::rt
