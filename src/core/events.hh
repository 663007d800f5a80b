/**
 * @file
 * Structured event log for control-plane observability.
 *
 * A production power manager must be auditable: when a breaker was
 * overloaded, when budgets became infeasible, what the stranded-power
 * optimizer reclaimed, and when failures struck. The simulator and the
 * service both append typed events here; tools print or filter them.
 */

#ifndef CAPMAESTRO_CORE_EVENTS_HH
#define CAPMAESTRO_CORE_EVENTS_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/units.hh"

namespace capmaestro::core {

/** Event categories. */
enum class EventKind {
    FeedFailed,
    FeedRestored,
    SupplyFailed,
    SupplyRestored,
    BreakerOverloadBegan,
    BreakerOverloadCleared,
    BreakerTripped,
    BudgetInfeasible,
    SpoReclaimed,
    UtilityDisturbance,
    UpsBridged,
    EmergencyPeriod,
    StaleMetricsReused,
    MetricsLost,
    DefaultBudgetApplied,
    WorkerFailover,
    SpoFallback,
    /** Room: frames from a dead or reincarnated rack instance. */
    WorkerRestartDetected,
    /** Rack: a Rehome checkpoint was replayed into the local plant. */
    CheckpointReplayed,
    /** Room: a re-homing rack acked its checkpoint and is live again. */
    WorkerRehomed,
    /** Rack: a Rehome frame was ignored (local state already intact). */
    RehomeDeclined,
    /** Online safety audit: a station's load exceeded min(its limit,
     *  the fragment's grant) (value = watts over). */
    SafetyViolation,
    /** Root: a unit was announced Joining (value = new generation). */
    MembershipJoinBegan,
    /** Root: a unit was announced Draining (value = new generation). */
    MembershipDrainBegan,
    /** Root: a two-phase transition was committed — Joining became
     *  Live or Draining became Left (value = new generation). */
    MembershipCommitted,
    /** Non-root: a membership snapshot was adopted (value = its
     *  generation). */
    MembershipAdopted,
};

/** Name of an EventKind. */
const char *eventKindName(EventKind kind);

/** Reverse lookup by name; nullopt when the name matches no kind. */
std::optional<EventKind> eventKindFromName(const std::string &name);

/** One logged event. */
struct Event
{
    /** Monotonic sequence number, unique across the log's lifetime. */
    std::uint64_t seq = 0;
    Seconds time = 0;
    EventKind kind = EventKind::FeedFailed;
    /** What the event concerns (feed, breaker, server name). */
    std::string subject;
    /** Kind-specific magnitude (watts for overloads/SPO, index, ...). */
    double value = 0.0;
};

/** One event as a JSON object ({seq, time, kind, subject, value}). */
util::Json eventToJson(const Event &event);

/** Append-only event log. */
class EventLog
{
  public:
    /** Append an event. */
    void record(Seconds time, EventKind kind, std::string subject,
                double value = 0.0);

    /** All events in record order. */
    const std::vector<Event> &events() const { return events_; }

    /** Events of one kind. */
    std::vector<Event> ofKind(EventKind kind) const;

    /** Number of events of one kind. */
    std::size_t count(EventKind kind) const;

    /** Render one line per event. */
    void print(std::ostream &os) const;

    /** Render one compact JSON object per event (JSONL). */
    void printJsonl(std::ostream &os) const;

    /**
     * Drop recorded events. Sequence numbering continues where it left
     * off, so events recorded after a clear() are still ordered
     * relative to everything that came before.
     */
    void clear() { events_.clear(); }

  private:
    std::vector<Event> events_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace capmaestro::core

#endif // CAPMAESTRO_CORE_EVENTS_HH
