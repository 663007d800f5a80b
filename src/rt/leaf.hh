/**
 * @file
 * One leaf (rack) worker's protocol half: the state machine between a
 * core::RackWorker, the plants homed on it, and the wire. The leaf
 * counterpart of AggregatorRole. Both rt engines run every leaf
 * through it — WorkerRuntime one per process, WorkerHost many per
 * process — built, framed and routed by one rt::RoleTable
 * (rt/roles.hh), which also holds the membership replica it reads.
 *
 * One period, in order:
 *
 *   advance(epoch)   one control period of 1 Hz sensing and actuation,
 *                    then close the capping-controller periods and
 *                    refresh the edge leaf inputs. It builds no
 *                    checkpoint: checkpoint() does, on demand, for an
 *                    owner that sends or stores one (a WorkerRuntime
 *                    leaf, for its parent's rt::Supervisor); it reads
 *                    the state advance() left until close() applies
 *                    the next budgets.
 *   metrics()        one MetricsMsg per edge, for the parent.
 *   noteDownFrame()  a Budget (the first copy per edge wins) or a
 *                    Rehome from the plan parent: replayed
 *                    by a young instance (restarted less than
 *                    heartbeatFailAfter periods ago), declined by an
 *                    older one whose own state is newer, acked either
 *                    way and at most once per epoch.
 *   complete()       every edge has its budget.
 *   close()          the §4.5 leaf ladder below, once per edge.
 *
 * The ladder:
 *   1. an edge with no budget this period gets min(defaultBudget,
 *      nominal floor). The live default is built from measured
 *      shares, and sensor noise must not let a unilateral fallback
 *      creep above the floor the parent counts for this edge when it
 *      stops budgeting it (see rt/aggregator.hh);
 *   2. after a replay (until the parent trusts fresh metrics from this
 *      instance again), or while the leaf is Joining or Draining
 *      (shadow periods), every edge is clamped to that same floor. A
 *      Left leaf applies 0 W: its ack of the Left snapshot promises
 *      that no watts flow from then on, which is what lets the root
 *      stop counting its floor;
 *   3. the per-server PI loops apply the budgets.
 *
 * A period allocates nothing once warm: the plants, the rack's edge
 * controllers and the per-edge messages are rewritten in place.
 *
 * Input checks: watts from the wire reach the plant, so a Budget whose
 * watts are NaN, infinite or negative is dropped (its edge rides the
 * default), and a Rehome whose checkpoint holds any non-finite double
 * is acked but restores nothing. Both count as corruptFrames.
 */

#ifndef CAPMAESTRO_RT_LEAF_HH
#define CAPMAESTRO_RT_LEAF_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "config/loader.hh"
#include "core/distributed.hh"
#include "core/events.hh"
#include "membership/table.hh"
#include "net/wire.hh"
#include "rt/plant.hh"
#include "rt/stats.hh"

namespace capmaestro::rt {

/** Frame-level leaf half of the §4.5 protocol. */
class LeafRole
{
  public:
    /** One edge this leaf owns, in tree order. */
    struct Edge
    {
        std::size_t tree = 0;
        topo::NodeId node = topo::kNoNode;
        /** Config-nominal Pcap_min floor (nominalEdgeFloors()). */
        Watts floor = 0.0;
        /** This period's received budget until close(); from then on
         *  the budget close() applied. */
        Watts budget = 0.0;
        /** A Budget frame for this edge arrived this period. */
        bool budgeted = false;
    };

    /**
     * @param scenario       power system and service config (not
     *                       owned; must outlive the role)
     * @param endpoint       this leaf's endpoint
     * @param edges          its (tree -> edge node) slice of the
     *                       partition
     * @param nominal_floor  (tree, edge node) -> nominal Pcap_min floor
     * @param plants         the plants homed on this leaf
     */
    LeafRole(const config::LoadedScenario &scenario,
             std::uint32_t endpoint,
             const std::map<std::size_t, topo::NodeId> &edges,
             const std::map<std::pair<std::size_t, topo::NodeId>, Watts>
                 &nominal_floor,
             std::vector<Plant> plants);

    /** This leaf's endpoint. */
    std::uint32_t endpoint() const { return endpoint_; }

    /** Owned edges, in tree order. */
    const std::vector<Edge> &edges() const { return edges_; }

    /** Plants homed on this leaf. */
    const std::vector<Plant> &plants() const { return plants_; }

    /** The rack's edge controllers: the leaf inputs advance() set and
     *  the leaf budgets close() applied. */
    const core::RackWorker &rack() const { return rack_; }

    /** Simulated plant time, seconds. */
    Seconds simNow() const { return simNow_; }

    /** Open @p epoch: advance the plants one control period. */
    void advance(std::uint32_t epoch);

    /** This period's checkpoint of the plants' recoverable state
     *  (valid between advance() and close()). */
    net::CheckpointMsg checkpoint() const;

    /** This period's metrics, one message per edge, in edge order
     *  (rewritten in place by each call). */
    const std::vector<net::MetricsMsg> &metrics();

    /**
     * Feed one decoded Budget or Rehome frame. Wrong-epoch frames,
     * frames from a sender other than @p parent_sender (the plan
     * parent's wire id; kRoomSender when the parent is the root),
     * Budgets for an edge this leaf does not own, and any other type
     * are orphans. Returns true for a Rehome from the parent
     * (replayed, declined, refused or a retransmission): the parent
     * sends no budgets with it, so it ends the period's collect.
     */
    bool noteDownFrame(const net::Frame &frame, RuntimeStats &stats,
                       core::EventLog &events,
                       std::uint16_t parent_sender);

    /** Every edge has its budget this period. */
    bool complete() const;

    /** Close the period with the ladder (see the file comment);
     *  @p self is this leaf's own membership state. */
    void close(membership::UnitState self, RuntimeStats &stats,
               core::EventLog &events);

  private:
    const topo::PowerSystem &system_;
    const core::ServiceConfig &service_;
    core::RackWorker rack_;
    std::uint32_t endpoint_ = 0;
    std::vector<Edge> edges_;
    std::vector<Plant> plants_;
    Seconds simNow_ = 0;
    std::size_t periodsClosed_ = 0;
    std::uint32_t epoch_ = 0;
    /** Epoch of the last Rehome this instance acked (0 = none). */
    std::uint32_t rehomeAckEpoch_ = 0;
    /** A checkpoint was replayed this period. */
    bool replayed_ = false;
    /** metrics()'s messages, one per edge. */
    std::vector<net::MetricsMsg> metrics_;
};

/**
 * Build the leaf roles of @p endpoints, in that order, moving their
 * server specs and workloads out of @p scenario (see buildPlants()).
 */
std::vector<LeafRole>
buildLeaves(config::LoadedScenario &scenario,
            const std::vector<std::uint32_t> &endpoints,
            const std::map<std::pair<std::size_t, topo::NodeId>, Watts>
                &nominal_floor,
            std::uint64_t seed);

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_LEAF_HH
