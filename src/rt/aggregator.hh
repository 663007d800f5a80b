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
 * (nothing fresh, stale cache expired) enters the boundary as a
 * floor-only summary (ctrl::NodeMetrics::setFloorOnly) of the *nominal
 * Pcap_min floor of the edges beneath it* and gets no grant: the
 * subtree is riding exactly those unilateral floors. The floors take
 * part in the §4.3 merge like any child, so every station of the
 * fragment counts them against its limit, and this fragment's Summary
 * carries them, so its parent grants them. This stale -> lost -> floor
 * ladder is the only one in the rt runtimes; every hop of every plan
 * depth runs it.
 *
 * Child view: the owner may describe how it sees each of its leaf
 * children this epoch (setChildViews()) — the input failover and
 * elasticity need. The process's rt::MembershipPlane sets it once its
 * table first changes, overlaid by a WorkerRuntime's rt::Supervisor
 * at any tier. A child that is not awaited (declared dead, or committed out
 * of the membership) does not hold up upComplete(). An untrusted child (a restarted or re-homing
 * instance) still runs the stale -> lost ladder, but its metrics are
 * neither used nor cached and it enters as its floor. A child outside
 * the committed membership skips the ladder and logs nothing; it
 * enters as its floor unless the owner says it was released (it
 * draws nothing). Without a view (aggregator children; every
 * WorkerHost role while the table is static) every child is an
 * awaited, trusted member. Whatever the view, a child station
 * without usable metrics gets no grant and rides its Pcap_min default.
 *
 * The role keeps no state beyond the metric cache. A
 * killed-and-restarted aggregator rejoins silently — its parent rides
 * the stale cache, then enters it as its floor; its children ride
 * Pcap_min defaults until budgets flow again. Leaf plant recovery is
 * split in two: the leaf's half (replay or decline a Rehome, the
 * post-replay clamp) is LeafRole's (rt/leaf.hh); the parent's half
 * (liveness, the checkpoint store, Rehome emission) is the owner's
 * rt::Supervisor (rt/supervisor.hh), and reaches this class only
 * through the child view. noteUpFrame() takes a child's Checkpoint
 * for it and counts a child's Heartbeat as an orphan.
 *
 * Input checks: a Metrics or Summary payload with a non-finite value
 * (ctrl::NodeMetrics::finite()) would poison the §4.3 merge, so
 * noteUpFrame() drops it and the station rides its stale -> lost
 * ladder. A SubBudget whose watts are NaN, infinite or negative would
 * poison every child's split, so noteDownFrame() drops it. Both count
 * in corruptFrames; unless a valid copy follows, the station (or that
 * tree's subtree) degrades as if the frame were lost.
 *
 * Storage: each child station has one slot, laid out at construction
 * in (tree, node) order, the order the ladder, its events and the
 * down messages follow; the fragment (core::RoomWorker) keeps its
 * boundary inputs, summaries and split dense as well. Every per-epoch
 * result (fresh metrics, the boundary, the split, the outgoing
 * messages) is copied into its slot in place, so a steady-state epoch
 * allocates nothing.
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
#include "telemetry/health.hh"

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
        /** Non-member only: it draws nothing, so no floor enters. */
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
     * Feed one decoded upstream frame (Metrics, Summary or Checkpoint
     * from a child). Returns false (and counts an orphan)
     * for wrong-epoch, non-child, or station-mismatched frames, and
     * (counting a corrupt frame) for a non-finite metrics payload.
     */
    bool noteUpFrame(const net::Frame &frame, RuntimeStats &stats);

    /** Every awaited child station has fresh metrics this epoch. */
    bool upComplete() const;

    /** Child endpoints from whom no station reported this epoch
     *  (ascending; valid until the next call). Meaningful once the
     *  gather phase closes: the host pings these with a header-only
     *  heartbeat so a child process that fell behind the fleet epoch
     *  can detect the gap and fast-forward. */
    const std::vector<std::uint32_t> &silentChildren();

    /**
     * Close the gather phase: assemble each tree's boundary with the
     * stale-cache fallback, enter excluded stations as their floors,
     * and merge to the fragment tops. Returns the Summary messages to
     * forward to the parent (empty at the root, which keeps the
     * boundary for computeDown()); valid until the next closeGather().
     */
    const std::vector<net::MetricsMsg> &closeGather(RuntimeStats &stats,
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
     * The messages stay valid until the next computeDown().
     */
    const std::vector<DownMsg> &computeDown(RuntimeStats &stats);

    // -------- observability read-outs (valid after closeGather())

    /** One child station of this fragment. */
    struct ChildStation
    {
        std::size_t tree = 0;
        topo::NodeId node = topo::kNoNode;
        /** The child worker owning it. */
        std::uint32_t child = 0;
        /** Summed nominal floor of the edges beneath it (never clamped
         *  by interior limits — the subtree's unilateral fallbacks are
         *  per-edge). */
        Watts floor = 0.0;
        /** This epoch's §4.5 gather outcome (Live: fresh metrics;
         *  Stale; Lost), when gathered. */
        telemetry::UnitHealth health = telemetry::UnitHealth::Live;
        /** closeGather() ran the ladder for it this epoch (false for a
         *  child outside the committed membership). */
        bool gathered = false;
    };

    /** Every child station, in (tree, node) order. */
    const std::vector<ChildStation> &childStations() const
    {
        return childStations_;
    }

    /** The gather outcome of child station (@p tree, @p node) this
     *  epoch, when closeGather() ran its ladder. */
    std::optional<telemetry::UnitHealth>
    stationHealth(std::size_t tree, topo::NodeId node) const;

    /** The budget this epoch's split of @p tree starts from: the root
     *  budget at the root, else the SubBudget received (nullopt: none
     *  yet). */
    std::optional<Watts> grant(std::size_t tree) const
    {
        if (root_)
            return rootBudgets_.at(tree);
        if (!received_.at(tree))
            return std::nullopt;
        return receivedWatts_[tree];
    }

    /** Watts this epoch's split applies at each boundary station of
     *  @p tree: the budget sent, or the floor an excluded station
     *  rides. Built on demand from the split computeDown() kept; empty
     *  for a tree it did not split. */
    std::map<topo::NodeId, Watts> applied(std::size_t tree) const;

    /** tree -> this worker's top station. */
    const std::map<std::size_t, topo::NodeId> &stations() const
    {
        return stations_;
    }

  private:
    /** Per child station (parallel to childStations_): the constant
     *  layout, the stale cache and this epoch's state, each written in
     *  place. */
    struct Slot
    {
        bool leafChild = false;
        /** The owning child's rank in children_. */
        std::uint32_t childIndex = 0;
        /** Index into frag_->boundary(tree). */
        std::uint32_t boundaryIndex = 0;
        /** Stale-metrics cache. */
        ctrl::NodeMetrics cached;
        std::uint32_t cachedEpoch = 0;
        bool cacheValid = false;
        // -------- per epoch
        /** Fresh metrics arrived (the last copy wins). */
        bool isFresh = false;
        ctrl::NodeMetrics fresh;
        /** closeGather() entered it at its floor. */
        bool excluded = false;
        /** closeGather() entered it into the boundary. */
        bool inBoundary = false;
    };

    /** Slot of (@p tree, @p node), or npos. */
    std::size_t slotOf(std::size_t tree, topo::NodeId node) const;

    const topo::PowerSystem &system_;
    bool root_ = false;
    std::uint32_t endpoint_ = 0;
    /** tree -> this worker's top station (root: the tree roots). */
    std::map<std::size_t, topo::NodeId> stations_;
    std::set<std::uint32_t> children_;
    std::set<std::uint32_t> leafChildren_;
    std::vector<ChildStation> childStations_;
    std::vector<Slot> slots_;
    /** Per tree: boundary index -> slot (npos: no child owns it). */
    std::vector<std::vector<std::size_t>> boundarySlots_;
    std::unique_ptr<core::RoomWorker> frag_;
    std::vector<Watts> rootBudgets_;
    int staleAgeCapPeriods_ = 0;

    /** Owner's child view (empty: every child at the default). */
    std::map<std::uint32_t, ChildView> views_;
    /** Child stations upComplete() waits for. */
    std::size_t awaited_ = 0;

    // -------- per-epoch state
    std::uint32_t epoch_ = 0;
    /** Slots with fresh metrics this epoch. */
    std::size_t freshCount_ = 0;
    /** Per tree: a SubBudget arrived this epoch (first copy wins). */
    std::vector<char> received_;
    std::vector<Watts> receivedWatts_;
    std::size_t receivedCount_ = 0;
    /** Per tree: computeDown() split it, and what it applied at each
     *  boundary station. */
    std::vector<char> split_;
    std::vector<std::vector<Watts>> applied_;

    // -------- reused outputs
    std::vector<net::MetricsMsg> summaries_;
    std::vector<DownMsg> downs_;
    std::vector<std::uint32_t> silent_;
    /** silentChildren()'s per-child flags, parallel to children_. */
    std::vector<char> heard_;

    std::string stationSubject(std::size_t tree,
                               topo::NodeId node) const;
};

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_AGGREGATOR_HH
