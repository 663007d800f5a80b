/**
 * @file
 * Versioned fleet membership: topology as a runtime-mutable, checked
 * contract instead of a boot-time constant.
 *
 * The paper's §5 scalability argument assumes a fixed control tree;
 * production fleets are never fixed. This module owns the one piece of
 * state that makes elasticity safe: a membership table mapping every
 * endpoint of the shared peer table to a lifecycle state, stamped with
 * a generation number that rises by one per committed transition:
 *
 *       joining ──(shadowed + acked)──> live
 *       live ──(drain requested)──> draining ──(acked)──> left
 *
 * The root owns the table and is the only writer. Every other unit
 * holds a replica, updated by MembershipDelta frames (full-table
 * snapshots — applying any delta at or ahead of the local generation
 * yields a consistent view, so one lost broadcast is repaired by the
 * next) and acknowledged by MembershipAck frames carrying the adopted
 * generation. The root's ack book is the commit gate of the two-phase
 * adopt protocol:
 *
 *   join:  the unit runs shadow periods — metrics flow up, its grants
 *          ride the Pcap_min clamp, and the root enters its nominal
 *          floor into the merge exactly as it does for a dead rack. Only after the unit acked the Joining announcement
 *          and a minimum shadow window has passed does the root commit
 *          the generation bump that makes it Live. At no period is the
 *          unit double-counted (it never receives a real grant while
 *          its floor is counted) or uncounted (the counted floor
 *          covers its unilateral clamp).
 *   drain: the reverse handshake. A Draining unit keeps running but is
 *          excluded from allocation (floor counted, clamped locally);
 *          once it acked the drain the root commits Left. The nominal
 *          floor stays counted until the unit acks the *Left*
 *          generation — the ack is the unit's promise that it applied
 *          zero watts from that period on — so a lost broadcast can
 *          never leave the unit drawing a floor the root has already
 *          re-granted.
 *
 * Generation skew: data-plane frames (Metrics/Budget/...) carry no
 * generation, so a unit lagging one broadcast interoperates untouched;
 * the root tolerates acks one generation behind (they prove liveness
 * of the replica plane) but commits only on current-generation acks.
 */

#ifndef CAPMAESTRO_MEMBERSHIP_TABLE_HH
#define CAPMAESTRO_MEMBERSHIP_TABLE_HH

#include <cstdint>
#include <map>

#include "net/wire.hh"

namespace capmaestro::membership {

/** Lifecycle state of one unit (worker endpoint) in the deployment. */
enum class UnitState : std::uint8_t
{
    /** Announced but not yet committed: shadow periods (metrics up,
     *  grants clamped to the Pcap_min floor, floor counted). */
    Joining = 0,
    /** Full participant of the control plane. */
    Live = 1,
    /** Leaving: still running, excluded from allocation, clamped. */
    Draining = 2,
    /** Gone. The floor stops being counted once the unit acked
     *  this state (or never existed in the deployment's history). */
    Left = 3,
};

/** Lower-case state name ("joining", "live", "draining", "left"). */
const char *unitStateName(UnitState state);

/** One unit's membership row. */
struct UnitEntry
{
    UnitState state = UnitState::Live;
    /** Generation at which the unit entered this state. */
    std::uint32_t sinceGeneration = 1;
};

/**
 * The versioned membership table (see file comment). Held by every
 * role: the root mutates and broadcasts, replicas apply snapshots.
 * A table in which every unit is Live at generation 1 is the static
 * deployment — the state every pre-elasticity run is in, with the
 * machinery idle (no frames, no behavioral difference).
 */
class MembershipTable
{
  public:
    /** Static deployment: endpoints [0, count) Live at generation 1. */
    static MembershipTable allLive(std::size_t count);

    /** Table generation (1 for the static table). */
    std::uint32_t generation() const { return generation_; }

    /** State of @p endpoint (Left when the endpoint has no row — an
     *  endpoint outside the table was never a member). */
    UnitState state(std::uint16_t endpoint) const;

    /** Generation at which @p endpoint entered its current state. */
    std::uint32_t sinceGeneration(std::uint16_t endpoint) const;

    /** True when @p endpoint is a full participant. */
    bool isLive(std::uint16_t endpoint) const
    {
        return state(endpoint) == UnitState::Live;
    }

    /** Units currently in @p state. */
    std::size_t countOf(UnitState state) const;

    /** True when any unit is Joining or Draining (a two-phase adopt
     *  is in flight and the root must keep broadcasting). */
    bool transitionsPending() const;

    /** The row map (endpoint -> entry), for renderers and tests. */
    const std::map<std::uint16_t, UnitEntry> &entries() const
    {
        return entries_;
    }

    // ---- root-side mutations. Each bumps the generation so every
    // broadcast snapshot is distinguishable from its predecessor.

    /**
     * Announce @p endpoint as Joining (phase one of the adopt). A unit
     * already Live is left untouched (idempotent re-announce returns
     * false); a Left or unknown unit gets a fresh Joining row.
     * Returns true when the table changed (generation bumped).
     */
    bool beginJoin(std::uint16_t endpoint);

    /** Announce @p endpoint as Draining (phase one of the drain).
     *  Only a Live unit can drain; returns true when it did. */
    bool beginDrain(std::uint16_t endpoint);

    /** Commit @p endpoint's pending transition (phase two): Joining ->
     *  Live, Draining -> Left. Returns true when a transition was
     *  committed (generation bumped). */
    bool commit(std::uint16_t endpoint);

    /**
     * Pre-deployment configuration: mark @p endpoint as not (yet)
     * deployed — Left since generation 0, no generation bump. Distinct
     * from a drained unit (sinceGeneration > 0): a never-deployed slot
     * counts no floor and receives no broadcast. beginJoin() brings
     * the slot in later.
     */
    void markAbsent(std::uint16_t endpoint);

    // ---- replica-side application.

    /**
     * Adopt a broadcast snapshot. Full-snapshot semantics: accepted
     * whenever @p msg.generation >= the local generation (a forward
     * jump of any size is consistent); an older snapshot is stale and
     * rejected. Returns true when adopted (including the equal-
     * generation re-broadcast, which is idempotent).
     */
    bool applyDelta(const net::MembershipDeltaMsg &msg);

    /** Render the table as a broadcast snapshot. */
    net::MembershipDeltaMsg toDelta() const;

  private:
    std::uint32_t generation_ = 1;
    std::map<std::uint16_t, UnitEntry> entries_;
};

} // namespace capmaestro::membership

#endif // CAPMAESTRO_MEMBERSHIP_TABLE_HH
