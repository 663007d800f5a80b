/**
 * @file
 * The membership plane of one process (paper §5 deployments whose
 * shape changes while running; membership/table.hh has the protocol),
 * owned by its rt::RoleTable and the same for both rt engines.
 *
 * Every process holds one table. Where the process hosts the root it
 * is the table of record, and the plane also holds:
 *  - the ack book: the highest generation each unit acked. A unit
 *    hosted in the root's process reads the table of record itself,
 *    so it needs no snapshot and counts as having acked every
 *    generation;
 *  - the announced transitions: beginJoin() and beginDrain() mutate
 *    the table and record the announcing epoch. closeGather() is the
 *    commit gate: a transition commits once its unit acked the
 *    announcing generation, a join also after kShadowPeriodsMin
 *    shadow periods. Only transitions this root announced commit;
 *  - the broadcast targets(): every unit whose ack is behind, and
 *    while the generation is above 1 every unit not yet released once
 *    every heartbeatFailAfter - 1 periods, so a worker restarted with
 *    a generation-1 replica catches up before its supervisor could
 *    fail over a unit that left. RoleTable::frameMembership() frames
 *    them;
 *  - released(): a Left unit that acked that state, or was never
 *    deployed, draws nothing, so its floor is no longer counted.
 * Everywhere else the table is a replica: adopt() takes a root
 * snapshot at or ahead of its generation (RoleTable acks it), and
 * left() says a unit was committed out.
 *
 * Each hosted aggregator's view of its leaf children follows from the
 * table (openGather(), closeGather()): a Left child is not awaited, a
 * child outside Live is no member and enters the merge as its floor
 * unless the root released it. An owning rt::Supervisor overlays its
 * liveness on that view.
 *
 * A static table (every unit Live at generation 1) costs nothing: no
 * frame, no sequence number, no walk over the entries and no view
 * until the table first changes.
 */

#ifndef CAPMAESTRO_RT_MEMBERSHIP_PLANE_HH
#define CAPMAESTRO_RT_MEMBERSHIP_PLANE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "config/loader.hh"
#include "core/events.hh"
#include "core/tree_plan.hh"
#include "membership/table.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "rt/aggregator.hh"
#include "rt/observe.hh"
#include "rt/stats.hh"
#include "rt/supervisor.hh"

namespace capmaestro::rt {

/** One process's membership table and, at the root, its plane. */
class MembershipPlane
{
  public:
    using Endpoint = net::Transport::Endpoint;

    /** Minimum shadow periods between a join announcement and its
     *  commit: one broadcast/ack round trip plus one settled period. */
    static constexpr std::uint32_t kShadowPeriodsMin = 2;

    /**
     * The table of @p plan's units as seen by the process hosting
     * @p locals (ascending), every slot of @p boot's absent list
     * marked absent (at the root its join list too). @p fail_after is
     * the heartbeatFailAfter of the supervisors this plane feeds.
     */
    MembershipPlane(const core::TreePlan &plan, std::vector<Endpoint> locals,
                    const config::MembershipConfig &boot, int fail_after,
                    RuntimeStats &stats, core::EventLog &events,
                    Observability &obs);

    const membership::MembershipTable &table() const { return table_; }
    std::uint32_t generation() const { return table_.generation(); }

    /** @p endpoint's state (Live everywhere while the table is
     *  static). */
    membership::UnitState state(std::uint32_t endpoint) const
    {
        return changed_ ? table_.state(static_cast<std::uint16_t>(endpoint))
                        : membership::UnitState::Live;
    }

    /** This process hosts the root: the table is the table of record. */
    bool holdsRoot() const { return root_; }

    // ---- the root (fatal elsewhere)

    /** Announce @p endpoint Joining: it runs shadow periods (metrics
     *  up, grants clamped to its Pcap_min floor, floor counted) until
     *  the gate commits it Live. True when the table changed. */
    bool beginJoin(std::uint32_t endpoint) { return announce(endpoint, true); }

    /** Announce @p endpoint Draining; its floor stays counted until it
     *  acks the Left commit. True when the table changed. */
    bool beginDrain(std::uint32_t endpoint)
    {
        return announce(endpoint, false);
    }

    /** Fold one MembershipAck into the ack book; false (an orphan)
     *  when it speaks for another endpoint than its sender. */
    bool book(const net::Frame &frame);

    /** The units the snapshot goes to in @p epoch (ascending; none at
     *  generation 1 or off the root). */
    std::vector<Endpoint> targets(std::uint32_t epoch) const;

    /** @p endpoint is Left and acked that, or was never deployed: its
     *  floor is no longer counted (always false off the root). */
    bool released(std::uint32_t endpoint) const;

    // ---- before the first period

    /** Mark @p endpoint not yet deployed (Left since generation 0, no
     *  generation bump): no floor, no broadcast, no supervision until
     *  beginJoin(). */
    void markAbsent(std::uint32_t endpoint);

    /** Off the root: start from an empty table, so every hosted unit
     *  rides the Pcap_min clamp until a snapshot shows it Live. */
    void beginShadow();

    // ---- replicas

    /** Adopt a root snapshot at or ahead of this generation. */
    bool adopt(const net::MembershipDeltaMsg &msg);

    /** @p endpoint was committed out of the deployment. */
    bool left(std::uint32_t endpoint) const
    {
        return state(endpoint) == membership::UnitState::Left
               && table_.sinceGeneration(
                      static_cast<std::uint16_t>(endpoint))
                      > 0;
    }

    // ---- each hosted aggregator's child view

    /** Open @p agg's gather: hand it the view the table implies,
     *  overlaid by @p liveness when it owns a supervisor. */
    void openGather(AggregatorRole &agg,
                    const Supervisor *liveness = nullptr) const;

    /** Close @p agg's gather of @p epoch: at the root run the commit
     *  gate, then refresh the view as openGather() does. */
    void closeGather(AggregatorRole &agg, std::uint32_t epoch,
                     const Supervisor *liveness = nullptr);

  private:
    /** Generation @p endpoint acked (every one when hosted here). */
    std::uint32_t acked(std::uint16_t endpoint) const;
    bool announce(std::uint32_t endpoint, bool join);
    /** The table moved: views from now on, and fresh gauges. */
    void changed();

    const core::TreePlan &plan_;
    std::vector<Endpoint> locals_;
    bool root_ = false;
    int failAfter_ = 0;
    RuntimeStats &stats_;
    core::EventLog &events_;
    Observability &obs_;
    membership::MembershipTable table_;
    /** The table ever left its static state. */
    bool changed_ = false;
    /** Root: the epoch of its last gate (the last period). */
    std::uint32_t epoch_ = 0;
    /** Root: highest generation each endpoint acked. */
    std::map<std::uint16_t, std::uint32_t> acks_;
    /** Root: pending transition -> the epoch it was announced at. */
    std::map<std::uint16_t, std::uint32_t> announced_;
};

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_MEMBERSHIP_PLANE_HH
