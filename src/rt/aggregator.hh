/**
 * @file
 * One aggregator worker's protocol half for deep control trees
 * (core::TreePlan): the frame-level state machine between a
 * core::RoomWorker fragment and the wire.
 *
 * An AggregatorRole serves both the interior tiers and the root of
 * every plan, the 2-level one included. Each epoch it gathers
 * per-class summaries from its child workers (Metrics frames from leaf
 * children, Summary frames from aggregator children), assembles the
 * fragment boundary with the §4.5 stale-metric fallback, merges the
 * boundary up to its top station, and forwards one Summary per tree to
 * its parent. On the way down it accepts one SubBudget per tree from
 * the parent (the root computes from the scenario's root budgets
 * instead), splits it over the child stations, and hands the per-child
 * messages back to the caller for transmission.
 *
 * Degraded-mode contract: a child station with no usable metrics
 * (nothing fresh, stale cache expired) is excluded from the boundary
 * and the *nominal Pcap_min floor of the edges beneath it* is reserved
 * out of this fragment's received budget before the split — the
 * subtree is riding exactly those unilateral floors, and the sum of
 * what flows down the live children plus the dead subtree's floors
 * must never exceed what this fragment was granted. Reserving out of
 * the local grant (rather than propagating the exclusion upward) is
 * conservative: the parent may have granted the lost subtree nothing,
 * in which case live children are under-allocated for a period. Safety
 * over efficiency. This stale -> lost -> reserve ladder is the only
 * one in the rt runtimes; every hop of every plan depth runs it.
 *
 * Child view: the owner of a root may describe how it sees each of
 * its leaf children this epoch (setChildViews()) — the input a root
 * with leaf children needs for failover and elasticity. A child that is not awaited
 * (declared dead, or committed out of the membership) does not hold
 * up upComplete(). An untrusted child (a restarted or re-homing
 * instance) still runs the stale -> lost ladder, but its metrics are
 * neither used nor cached and its floor is reserved. A child outside
 * the committed membership skips the ladder and logs nothing; its
 * floor is reserved unless the owner says it was released. Without a
 * view (interior aggregators, aggregator children of a root, every
 * WorkerHost role) every child is an awaited, trusted member. Whatever
 * the view, a child station without usable metrics gets no grant and
 * rides its Pcap_min default.
 *
 * Aggregators are deliberately stateless beyond the metric cache: no
 * checkpoint streaming, no re-homing. A killed-and-restarted
 * aggregator rejoins silently — its parent rides the stale cache, then
 * reserves; its children ride Pcap_min defaults until budgets flow
 * again. Leaf plant recovery is split in two: the leaf's half (replay
 * or decline a Rehome, the post-replay clamp) is LeafRole's
 * (rt/leaf.hh); the root's half (rack liveness, the checkpoint store,
 * Rehome emission) is the WorkerRuntime that owns the root, for the
 * root's leaf children, and reaches this class only through the child
 * view.
 *
 * Input checks: a Metrics or Summary payload with a non-finite value
 * (ctrl::NodeMetrics::finite()) would poison the §4.3 merge, so
 * noteUpFrame() drops it and the station rides its stale -> lost
 * ladder. A SubBudget whose watts are NaN, infinite or negative would
 * poison every child's split, so noteDownFrame() drops it. Both count
 * in corruptFrames; unless a valid copy follows, the station (or that
 * tree's subtree) degrades as if the frame were lost.
 */

#ifndef CAPMAESTRO_RT_AGGREGATOR_HH
#define CAPMAESTRO_RT_AGGREGATOR_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/distributed.hh"
#include "core/events.hh"
#include "core/tree_plan.hh"
#include "net/protocol.hh"
#include "net/wire.hh"
#include "rt/stats.hh"

namespace capmaestro::rt {

/** Frame-level aggregator (or deep-root) half of the §4.5 protocol. */
class AggregatorRole
{
  public:
    /** One downstream message computeDown() wants transmitted. */
    struct DownMsg
    {
        /** Child worker endpoint to send to. */
        std::uint32_t child = 0;
        /** Encode as Budget (leaf child) vs SubBudget (aggregator). */
        bool leafChild = false;
        net::BudgetMsg msg;
    };

    /**
     * @param system        power system (not owned)
     * @param plan          deep worker layout (copied from)
     * @param endpoint      this worker's endpoint (interior or root)
     * @param policy        priority flags
     * @param nominal_floor (tree, edge node) -> nominal Pcap_min floor,
     *                      as computed by every process from the config
     * @param protocol      §4.5 deadlines (stale age cap)
     * @param root_budgets  per-tree root budgets (root worker only;
     *                      ignored elsewhere)
     */
    AggregatorRole(const topo::PowerSystem &system,
                   const core::TreePlan &plan, std::uint32_t endpoint,
                   ctrl::TreePolicy policy,
                   const std::map<std::pair<std::size_t, topo::NodeId>,
                                  Watts> &nominal_floor,
                   const net::ProtocolConfig &protocol,
                   std::vector<Watts> root_budgets);

    /** This role drives the plan's root worker. */
    bool isRoot() const { return root_; }

    /** Child worker endpoints. */
    const std::set<std::uint32_t> &children() const { return children_; }

    /** How the owner sees one child worker (see the class comment). */
    struct ChildView
    {
        /** upComplete() waits for the child's stations. */
        bool awaited = true;
        /** Fresh metrics from the child feed the boundary and cache. */
        bool trusted = true;
        /** The child is inside the committed membership. */
        bool member = true;
        /** Non-member only: its floor no longer needs reserving. */
        bool released = false;
    };

    /**
     * Replace the child view (children absent from @p views keep the
     * default). Takes effect for upComplete() at once and for the next
     * closeGather(); stays until replaced.
     */
    void setChildViews(std::map<std::uint32_t, ChildView> views);

    /** Reset the per-epoch gather/budget state. */
    void beginEpoch(std::uint32_t epoch);

    /**
     * Feed one decoded upstream frame (Metrics, Summary, Heartbeat, or
     * Checkpoint from a child). Returns false (and counts an orphan)
     * for wrong-epoch, non-child, or station-mismatched frames, and
     * (counting a corrupt frame) for a non-finite metrics payload.
     */
    bool noteUpFrame(const net::Frame &frame, RuntimeStats &stats);

    /** Every awaited child station has fresh metrics this epoch. */
    bool upComplete() const;

    /** Child endpoints from whom no station reported this epoch.
     *  Meaningful once the gather phase closes: the host pings these
     *  with a header-only heartbeat so a child process that fell
     *  behind the fleet epoch can detect the gap and fast-forward. */
    std::vector<std::uint32_t> silentChildren() const;

    /**
     * Close the gather phase: assemble each tree's boundary with the
     * stale-cache fallback, reserve the floors of excluded stations,
     * and merge to the fragment tops. Returns the Summary messages to
     * forward to the parent (empty at the root, which keeps the
     * boundary for computeDown()).
     */
    std::vector<net::MetricsMsg> closeGather(RuntimeStats &stats,
                                             core::EventLog &events);

    /**
     * Feed one decoded downstream frame (a SubBudget from the parent,
     * whose sender id must be @p parent_sender). Duplicates keep the
     * first-received value; watts that are NaN, infinite or negative
     * are dropped as corrupt.
     */
    bool noteDownFrame(const net::Frame &frame,
                       std::uint16_t parent_sender,
                       RuntimeStats &stats);

    /** Every tree with a fragment here has received its SubBudget. */
    bool downComplete() const;

    /**
     * Split the received budgets (root: compute from the root budgets)
     * down to the child stations. Trees whose SubBudget never arrived
     * produce nothing — silence flows down and the subtree defaults.
     */
    std::vector<DownMsg> computeDown(RuntimeStats &stats);

    // -------- observability read-outs (valid after closeGather())

    /** §4.5 outcome of one child station's gather this epoch. */
    enum class StationHealth : std::uint8_t
    {
        Fresh,
        Stale,
        Lost,
    };

    /** (tree, child station) -> gather outcome, set by closeGather(). */
    const std::map<std::pair<std::size_t, topo::NodeId>, StationHealth> &
    stationHealth() const
    {
        return stationHealth_;
    }

    /** Floor reserved out of this epoch's grant, per tree. */
    const std::vector<Watts> &reservedFloors() const
    {
        return reserved_;
    }

    /** SubBudget received this epoch for @p tree (nullopt: none yet,
     *  or this is the root). */
    std::optional<Watts> receivedBudget(std::size_t tree) const
    {
        const auto got = received_.find(tree);
        if (got == received_.end())
            return std::nullopt;
        return got->second;
    }

    /** Per-tree root budgets (root role; empty elsewhere). */
    const std::vector<Watts> &rootBudgets() const
    {
        return rootBudgets_;
    }

    /** tree -> this worker's top station. */
    const std::map<std::size_t, topo::NodeId> &stations() const
    {
        return stations_;
    }

    /** Owning child endpoint per (tree, child station). */
    const std::map<std::pair<std::size_t, topo::NodeId>, std::uint32_t> &
    childStations() const
    {
        return childOfStation_;
    }

  private:
    const topo::PowerSystem &system_;
    bool root_ = false;
    std::uint32_t endpoint_ = 0;
    /** tree -> this worker's top station (root: the tree roots). */
    std::map<std::size_t, topo::NodeId> stations_;
    std::set<std::uint32_t> children_;
    std::set<std::uint32_t> leafChildren_;
    /** (tree, child station) -> owning child endpoint. */
    std::map<std::pair<std::size_t, topo::NodeId>, std::uint32_t>
        childOfStation_;
    /** (tree, child station) -> summed nominal floor of the edges
     *  beneath it (never clamped by interior limits — the subtree's
     *  unilateral fallbacks are per-edge). */
    std::map<std::pair<std::size_t, topo::NodeId>, Watts> stationFloor_;
    std::unique_ptr<core::RoomWorker> frag_;
    std::vector<Watts> rootBudgets_;
    int staleAgeCapPeriods_ = 0;

    /** Owner's child view (empty: every child at the default). */
    std::map<std::uint32_t, ChildView> views_;
    /** Child stations upComplete() waits for. */
    std::size_t awaited_ = 0;

    /** Stale-metrics cache per (tree, child station). */
    struct CachedMetrics
    {
        ctrl::NodeMetrics metrics;
        std::uint32_t epoch = 0;
        bool valid = false;
    };
    std::map<std::pair<std::size_t, topo::NodeId>, CachedMetrics>
        cache_;

    // -------- per-epoch state
    std::uint32_t epoch_ = 0;
    std::map<std::pair<std::size_t, topo::NodeId>, ctrl::NodeMetrics>
        fresh_;
    /** Boundary metrics assembled by closeGather(), per tree. */
    std::vector<std::map<topo::NodeId, ctrl::NodeMetrics>> boundary_;
    /** Floor reserved out of this epoch's budget, per tree. */
    std::vector<Watts> reserved_;
    /** tree -> SubBudget received this epoch (first copy wins). */
    std::map<std::size_t, Watts> received_;
    /** Gather outcome per child station, rebuilt by closeGather(). */
    std::map<std::pair<std::size_t, topo::NodeId>, StationHealth>
        stationHealth_;

    std::string stationSubject(std::size_t tree,
                               topo::NodeId node) const;
};

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_AGGREGATOR_HH
