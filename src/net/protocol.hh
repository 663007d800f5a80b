/**
 * @file
 * Tunables for the fault-tolerant control-period protocol (paper §4.5)
 * that core::DistributedControlPlane (2-level, in process) and the
 * deployable runtimes (src/rt, any depth) run over a net::Transport.
 *
 * Each control period is a two-phase exchange with per-message
 * deadlines and bounded retransmission:
 *
 *   1. Upstream: every rack worker sends one metrics message per edge
 *      controller (a runtime rack also sends its checkpoint). The room
 *      retransmits nothing; the racks re-send on a timeout until the
 *      gathering deadline. Edges whose metrics still miss the deadline
 *      fall back to the last received summary, provided it is no older
 *      than the stale-age cap (in control periods); beyond that the
 *      edge's metrics are lost: the edge enters the parent's merge as
 *      its Pcap_min floor, so every station above counts the floor,
 *      and it gets no budget, so its servers ride their floors this
 *      period.
 *   2. Downstream: the room sends one budget message per edge it has
 *      metrics for and re-sends on a timeout until the budgeting
 *      deadline. A rack that gets no budget applies the conservative
 *      default — the sum of its live leaves' Pcap_min floors, clamped
 *      to the edge device limit — which can never overload the tree.
 *
 * Worker failure is the multi-process runtime's concern: the
 * rt::Supervisor of a rack's parent, at any tier, declares a rack that
 * goes silent (no frame at all, any type) for heartbeatFailAfter
 * consecutive periods dead, and re-homes its restarted instance from
 * the last checkpoint.
 * The in-process plane only rides the two ladders above.
 *
 * When the stranded-power optimization (§4.4) detects pinned supplies,
 * a third and fourth phase run within the same control period: racks
 * send pinned-consumption summaries for the affected edges (upstream,
 * against spoGatherDeadlineMs) and the room answers with second-pass
 * budgets (downstream, against spoBudgetDeadlineMs), both with the
 * same bounded-retransmission discipline. The SPO round is atomic per
 * tree: a tree whose round-trip misses either deadline keeps its
 * first-pass budgets wholesale — never a mix of the two passes.
 */

#ifndef CAPMAESTRO_NET_PROTOCOL_HH
#define CAPMAESTRO_NET_PROTOCOL_HH

namespace capmaestro::net {

/** §4.5 protocol tunables (milliseconds within one control period). */
struct ProtocolConfig
{
    /** Deadline for the metrics-gathering phase, from period start. */
    double gatherDeadlineMs = 100.0;
    /** Deadline for the budgeting phase, from the gather deadline. */
    double budgetDeadlineMs = 100.0;
    /** Retransmission timeout for unacknowledged messages. */
    double retryTimeoutMs = 25.0;
    /** Total send attempts per message (first send + retries). */
    int maxAttempts = 4;
    /** Deadline for the §4.4 pinned-summary gather, from SPO round start. */
    double spoGatherDeadlineMs = 100.0;
    /** Deadline for the §4.4 budget phase, from the SPO gather deadline. */
    double spoBudgetDeadlineMs = 100.0;
    /** Oldest cached metrics (in periods) usable as a stale fallback. */
    int staleAgeCapPeriods = 2;
    /** Silent periods before a runtime declares a rack dead. */
    int heartbeatFailAfter = 3;
};

} // namespace capmaestro::net

#endif // CAPMAESTRO_NET_PROTOCOL_HH
