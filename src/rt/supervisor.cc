#include "rt/supervisor.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "util/logging.hh"

namespace capmaestro::rt {

namespace {

/** Joining and Left units are outside the liveness contract. */
bool
outsideContract(const membership::MembershipTable &members,
                std::uint32_t child)
{
    const auto state = members.state(static_cast<std::uint16_t>(child));
    return state == membership::UnitState::Joining
           || state == membership::UnitState::Left;
}

} // namespace

Supervisor::Supervisor(const core::TreePlan &plan, std::uint32_t endpoint,
                       int fail_after)
    : failAfter_(fail_after)
{
    for (const std::uint32_t child : plan.workers.at(endpoint).children) {
        if (!plan.workers[child].isLeaf())
            continue;
        ledgers_[child] = Ledger{};
        // One Metrics frame per station, then the Checkpoint.
        batch_[child] = static_cast<std::uint32_t>(
                            plan.workers[child].stations.size())
                        + 1;
    }
}

void
Supervisor::noteFrame(const net::Frame &frame, std::uint32_t epoch,
                      const membership::MembershipTable &members,
                      RuntimeStats &stats, core::EventLog &events)
{
    const auto it = ledgers_.find(frame.sender);
    if (it == ledgers_.end() || frame.epoch != epoch)
        return; // not a leaf child, or a stray epoch
    const std::uint32_t child = frame.sender;
    Ledger &h = it->second;
    heard_.insert(child);
    // A restarted process begins again at sequence 0. A regression no
    // larger than one upstream batch is normal: a blind retransmission
    // re-sends the whole batch with the *same* sequence numbers, and
    // reordered duplicates of an earlier send sit at most a batch below
    // the newest frame. Only a deeper regression means a new instance,
    // caught even when the restart fit inside one period and no period
    // went unheard. (A restart after a single period is below the
    // threshold; it is caught one period later, once the old
    // instance's higher sequence numbers dominate.)
    if (outsideContract(members, child)) {
        // Shadow traffic: heard, but the ledger stays fresh so the
        // commit starts a new instance view.
        h = Ledger{};
    } else if (h.maxSeq && frame.seq + batch_.at(child) < *h.maxSeq) {
        if (h.state == RackState::Live)
            beginRehoming(child, h, epoch, stats, events);
        h.maxSeq = frame.seq;
    } else {
        h.maxSeq = std::max(h.maxSeq.value_or(0), frame.seq);
    }
    if (frame.type == net::MsgType::Checkpoint) {
        h.lastAckEpoch =
            std::max(h.lastAckEpoch, frame.checkpoint.rehomeAckEpoch);
        checkpoints_[child] = frame.checkpoint;
        ++stats.checkpointsStored;
        persist(child, epoch);
    }
}

void
Supervisor::beginRehoming(std::uint32_t child, Ledger &ledger,
                          std::uint32_t epoch, RuntimeStats &stats,
                          core::EventLog &events)
{
    ledger.state = RackState::Rehoming;
    ledger.missed = 0;
    ledger.rehomeEpoch = 0;
    // Acks recorded so far came from the dead instance; the new one
    // must ack a Rehome sent this round.
    ledger.lastAckEpoch = 0;
    ++stats.restartsDetected;
    events.record(static_cast<Seconds>(epoch),
                  core::EventKind::WorkerRestartDetected,
                  "worker" + std::to_string(child),
                  static_cast<double>(epoch));
}

void
Supervisor::closeGather(std::uint32_t epoch,
                        const membership::MembershipTable &members,
                        RuntimeStats &stats, core::EventLog &events)
{
    for (auto &[child, h] : ledgers_) {
        if (outsideContract(members, child)) {
            // A joiner's silence must not spend failover credit before
            // its commit, and a Left unit is never a subject again.
            h = Ledger{};
            continue;
        }
        const bool heard = heard_.count(child) != 0;
        if (h.state == RackState::Dead) {
            // Any frame means a (restarted) instance is back.
            if (heard)
                beginRehoming(child, h, epoch, stats, events);
        } else if (h.state == RackState::Rehoming && h.rehomeEpoch > 0
                   && h.lastAckEpoch >= h.rehomeEpoch) {
            h.state = RackState::Live;
            h.missed = 0;
            h.rehomeEpoch = 0;
            ++stats.rehomed;
            events.record(static_cast<Seconds>(epoch),
                          core::EventKind::WorkerRehomed,
                          "worker" + std::to_string(child),
                          static_cast<double>(epoch));
        } else if (heard) {
            h.missed = 0;
        } else if (++h.missed >= failAfter_) {
            // Live, or re-homing and silent again.
            h.state = RackState::Dead;
            ++stats.failovers;
            events.record(static_cast<Seconds>(epoch),
                          core::EventKind::WorkerFailover,
                          "worker" + std::to_string(child), -1.0);
        }
    }
}

std::map<std::uint32_t, AggregatorRole::ChildView>
Supervisor::views(
    std::map<std::uint32_t, AggregatorRole::ChildView> members) const
{
    for (const auto &[child, h] : ledgers_) {
        AggregatorRole::ChildView &view = members[child];
        // Dead children send nothing. Re-homing children, whose plants
        // run on default budgets, are waited for.
        view.awaited = view.awaited && h.state != RackState::Dead;
        // Fresh metrics are trusted only from a Live instance: a
        // reincarnated one's fresh-plant numbers would poison the
        // allocation, and its liveness must not count twice, as the
        // dead instance (stale) and the new one (fresh).
        view.trusted = h.state == RackState::Live;
    }
    return members;
}

std::vector<Supervisor::Rehome>
Supervisor::rehomes(std::uint32_t epoch,
                    const membership::MembershipTable &members,
                    RuntimeStats &stats)
{
    // Shadow units get no replay until committed.
    std::vector<Rehome> out;
    for (auto &[child, h] : ledgers_) {
        if (h.state != RackState::Rehoming || !heard_.count(child)
            || !members.isLive(static_cast<std::uint16_t>(child)))
            continue;
        const auto stored = checkpoints_.find(child);
        out.push_back({child, stored != checkpoints_.end()
                                  ? stored->second
                                  : net::CheckpointMsg{}});
        if (h.rehomeEpoch == 0)
            h.rehomeEpoch = epoch;
        ++stats.rehomesSent;
    }
    return out;
}

std::map<std::uint32_t, telemetry::UnitHealth>
Supervisor::overrides() const
{
    std::map<std::uint32_t, telemetry::UnitHealth> out;
    for (const auto &[child, h] : ledgers_) {
        if (h.state == RackState::Dead)
            out[child] = telemetry::UnitHealth::Lost;
        else if (h.state == RackState::Rehoming)
            out[child] = telemetry::UnitHealth::Rehoming;
    }
    return out;
}

std::string
Supervisor::checkpointPath(std::uint32_t child) const
{
    return stateDir_ + "/rack" + std::to_string(child) + ".ckpt";
}

void
Supervisor::setStateDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        util::fatal("rt: cannot create %s: %s", dir.c_str(),
                    ec.message().c_str());
    stateDir_ = dir;
    for (const auto &[child, ledger] : ledgers_) {
        (void)ledger;
        std::ifstream is(checkpointPath(child), std::ios::binary);
        if (!is)
            continue;
        const std::vector<std::uint8_t> bytes(
            (std::istreambuf_iterator<char>(is)),
            std::istreambuf_iterator<char>());
        const auto frame = net::decodeFrame(bytes);
        if (!frame || frame->type != net::MsgType::Checkpoint) {
            util::warn("rt: ignoring corrupt checkpoint for rack %u", child);
            continue;
        }
        checkpoints_[child] = frame->checkpoint;
    }
}

void
Supervisor::persist(std::uint32_t child, std::uint32_t epoch) const
{
    if (stateDir_.empty())
        return;
    // The on-disk format is the encoded Checkpoint frame: it reuses the
    // codec's CRC and version checks, so a torn or stale file is
    // rejected on load exactly like a corrupt frame.
    const auto bytes = net::encodeCheckpoint(
        {static_cast<std::uint16_t>(child), epoch, 0},
        checkpoints_.at(child));
    const std::string path = checkpointPath(child);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            util::warn("rt: cannot write checkpoint %s", tmp.c_str());
            return;
        }
        os.write(reinterpret_cast<const char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        util::warn("rt: cannot install checkpoint %s", path.c_str());
}

} // namespace capmaestro::rt
