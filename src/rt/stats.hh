/**
 * @file
 * Shared runtime-layer accounting: the cumulative protocol counters
 * every rt worker keeps (one-role WorkerRuntime daemons, AggregatorRole
 * fragments, and the multi-role WorkerHost all report into the same
 * struct).
 */

#ifndef CAPMAESTRO_RT_STATS_HH
#define CAPMAESTRO_RT_STATS_HH

#include <cstddef>
#include <iterator>

namespace capmaestro::rt {

/** Cumulative protocol accounting for one worker process. */
struct RuntimeStats
{
    std::size_t periodsRun = 0;
    /** Rack: edges budgeted by a received Budget frame. */
    std::size_t budgetsApplied = 0;
    /** Rack: edges that fell back to the Pcap_min default. */
    std::size_t defaultBudgets = 0;
    /** Room/aggregator: stations served from the stale-metrics cache. */
    std::size_t staleReuses = 0;
    /** Room/aggregator: stations with no usable metrics at the
     *  deadline (they enter the merge as their nominal floor). */
    std::size_t metricsLost = 0;
    /** Supervisor: leaf children declared dead after
     *  heartbeatFailAfter periods unheard. */
    std::size_t failovers = 0;
    /** Frames from another epoch, discarded. */
    std::size_t orphanFrames = 0;
    /** Frames that failed to decode, and decoded frames dropped for
     *  non-finite input: a Metrics or Summary with a non-finite value,
     *  a Budget or SubBudget whose watts are NaN, infinite or
     *  negative, or a Rehome whose checkpoint holds a non-finite
     *  double (acked, but nothing restored). */
    std::size_t corruptFrames = 0;
    /** Retransmissions sent (both phases). */
    std::size_t retries = 0;
    /** Rack: checkpoints sent upstream. */
    std::size_t checkpointsSent = 0;
    /** Supervisor: checkpoints received and stored. */
    std::size_t checkpointsStored = 0;
    /** Supervisor: Rehome frames sent to re-homing leaf children. */
    std::size_t rehomesSent = 0;
    /** Rack: Rehome checkpoints replayed into the local plant. */
    std::size_t rehomesApplied = 0;
    /** Rack: Rehome frames declined (local state already intact). */
    std::size_t rehomesDeclined = 0;
    /** Rack: periods ridden on the Pcap_min clamp after a replay. */
    std::size_t clampedPeriods = 0;
    /** Supervisor: dead or reincarnated leaf instances detected. */
    std::size_t restartsDetected = 0;
    /** Supervisor: leaf children promoted back to Live after a
     *  checkpoint ack. */
    std::size_t rehomed = 0;
    /** Aggregator: subtree summaries forwarded to the parent. */
    std::size_t summariesSent = 0;
    /** Aggregator: SubBudget frames accepted from the parent. */
    std::size_t subBudgetsApplied = 0;
    /** Aggregator: trees whose SubBudget never arrived (nothing was
     *  sent down; the subtree rides its Pcap_min defaults). */
    std::size_t subBudgetsMissed = 0;
    /** Root: MembershipDelta broadcasts sent. */
    std::size_t membershipDeltasSent = 0;
    /** Non-root: MembershipAck frames sent back to the root. */
    std::size_t membershipAcksSent = 0;
    /** Non-root: MembershipDelta snapshots adopted into the replica. */
    std::size_t membershipDeltasApplied = 0;
    /** Root: two-phase transitions committed (join or drain). */
    std::size_t membershipCommits = 0;
    /** Rack: periods ridden on the Pcap_min clamp while Joining or
     *  Draining (the shadow window of the adopt protocol). */
    std::size_t shadowPeriods = 0;
    /** Host: periods closed immediately (degraded) because frames from
     *  a future epoch proved the fleet had already moved past this
     *  process — the laggard fast-forwards back into sync instead of
     *  riding deadlines ever further behind. */
    std::size_t catchUpPeriods = 0;
    /** Host: frames one hosted role sent another, delivered in memory
     *  instead of on the transport (transport framesSent plus this is
     *  every frame the roles exchanged). */
    std::size_t coHostedFrames = 0;
    /** Host: encoded bytes of those frames. */
    std::size_t coHostedBytes = 0;
};

/** One RuntimeStats field: its camelCase name (the /healthz `stats`
 *  key; the stat gauge label is its snake_case form) and its member. */
struct StatField
{
    const char *name;
    std::size_t RuntimeStats::*member;
};

#define CAPMAESTRO_STAT_FIELD(f) StatField{#f, &RuntimeStats::f}
/** Every RuntimeStats field, in declaration order: the one list the
 *  health document and the stat gauges are built from. */
inline constexpr StatField kStatFields[] = {
    CAPMAESTRO_STAT_FIELD(periodsRun),
    CAPMAESTRO_STAT_FIELD(budgetsApplied),
    CAPMAESTRO_STAT_FIELD(defaultBudgets),
    CAPMAESTRO_STAT_FIELD(staleReuses),
    CAPMAESTRO_STAT_FIELD(metricsLost),
    CAPMAESTRO_STAT_FIELD(failovers),
    CAPMAESTRO_STAT_FIELD(orphanFrames),
    CAPMAESTRO_STAT_FIELD(corruptFrames),
    CAPMAESTRO_STAT_FIELD(retries),
    CAPMAESTRO_STAT_FIELD(checkpointsSent),
    CAPMAESTRO_STAT_FIELD(checkpointsStored),
    CAPMAESTRO_STAT_FIELD(rehomesSent),
    CAPMAESTRO_STAT_FIELD(rehomesApplied),
    CAPMAESTRO_STAT_FIELD(rehomesDeclined),
    CAPMAESTRO_STAT_FIELD(clampedPeriods),
    CAPMAESTRO_STAT_FIELD(restartsDetected),
    CAPMAESTRO_STAT_FIELD(rehomed),
    CAPMAESTRO_STAT_FIELD(summariesSent),
    CAPMAESTRO_STAT_FIELD(subBudgetsApplied),
    CAPMAESTRO_STAT_FIELD(subBudgetsMissed),
    CAPMAESTRO_STAT_FIELD(membershipDeltasSent),
    CAPMAESTRO_STAT_FIELD(membershipAcksSent),
    CAPMAESTRO_STAT_FIELD(membershipDeltasApplied),
    CAPMAESTRO_STAT_FIELD(membershipCommits),
    CAPMAESTRO_STAT_FIELD(shadowPeriods),
    CAPMAESTRO_STAT_FIELD(catchUpPeriods),
    CAPMAESTRO_STAT_FIELD(coHostedFrames),
    CAPMAESTRO_STAT_FIELD(coHostedBytes),
};
#undef CAPMAESTRO_STAT_FIELD

// A field added to RuntimeStats must be added to the table too.
static_assert(sizeof(RuntimeStats)
                  == std::size(kStatFields) * sizeof(std::size_t),
              "kStatFields must list every RuntimeStats field");

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_STATS_HH
