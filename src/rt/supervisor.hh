/**
 * @file
 * Supervision of one aggregating role's leaf children (paper §4.5,
 * "worker failure"): per-child liveness, restart detection, the
 * checkpoint store and Rehome emission. Every WorkerRuntime whose
 * aggregator or root has leaf children owns one, at any tier of the
 * plan; it holds no transport and no clock, so its owner (or a test)
 * drives it frame by frame:
 *
 *   beginEpoch()   forget who was heard;
 *   noteFrame()    every frame a leaf child sent this epoch, any type:
 *                  it counts for liveness, a sequence regression marks
 *                  a new instance, and a Checkpoint is stored (and
 *                  persisted under the state directory, if one is set);
 *   closeGather()  run the liveness machine below;
 *   views()        overlay each child's liveness on the
 *                  AggregatorRole::ChildView its membership implies;
 *   rehomes()      the Rehomes owed this epoch.
 *
 * The liveness machine of one child:
 *
 *   Live ──(heartbeatFailAfter periods unheard)──> Dead: WorkerFailover;
 *        its stations ride stale -> lost, budgets stop flowing to it.
 *   Dead ──(any frame heard)──> Rehoming. A reincarnated instance is
 *        also caught while Live by sequence regression (a restarted
 *        process begins again at seq 0), so a restart inside one
 *        period never passes for the instance that died.
 *   Rehoming: the parent withholds budgets (the child rides its
 *        Pcap_min defaults) and sends the stored checkpoint as a
 *        Rehome each period it hears the child. The child replays or
 *        declines it (LeafRole) and acks through the rehomeAckEpoch
 *        of its next Checkpoint.
 *   Rehoming ──(ack at or after the first Rehome)──> Live:
 *        WorkerRehomed; its fresh metrics are trusted again.
 *
 * Membership: a child its owner's table shows Joining or Left is
 * outside the liveness contract, and its ledger is held fresh, so a
 * committed joiner starts Live with a clean sequence baseline and no
 * failover credit spent. The root's table is the truth; a non-root
 * supervisor reads its replica. The membership half of each child's
 * view (member, released, a Left child not awaited) is the
 * rt::MembershipPlane's; the supervisor keeps only liveness.
 */

#ifndef CAPMAESTRO_RT_SUPERVISOR_HH
#define CAPMAESTRO_RT_SUPERVISOR_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/events.hh"
#include "core/tree_plan.hh"
#include "membership/table.hh"
#include "net/wire.hh"
#include "rt/aggregator.hh"
#include "rt/stats.hh"
#include "telemetry/health.hh"

namespace capmaestro::rt {

/** A supervisor's liveness state of one of its leaf children. */
enum class RackState { Live, Dead, Rehoming };

/** Liveness, restart detection, checkpoints and Rehome for the leaf
 *  children of one aggregating role. */
class Supervisor
{
  public:
    /** One Rehome owed to a re-homing child. */
    struct Rehome
    {
        std::uint32_t child = 0;
        /** The stored checkpoint (empty when none was ever stored: the
         *  handshake still completes, the child keeps its plant). */
        net::CheckpointMsg checkpoint;
    };

    /**
     * Supervise the leaf children of @p endpoint in @p plan.
     * @param fail_after  periods a child may go unheard before it is
     *                    declared dead (heartbeatFailAfter)
     */
    Supervisor(const core::TreePlan &plan, std::uint32_t endpoint,
               int fail_after);

    /** Liveness state of leaf child @p child. */
    RackState state(std::uint32_t child) const
    {
        return ledgers_.at(child).state;
    }

    /** Open an epoch: nobody heard yet. */
    void beginEpoch() { heard_.clear(); }

    /**
     * Note one frame of @p epoch that a child sent (a non-child or a
     * stray epoch is ignored): liveness, restart detection, and the
     * checkpoint store for a Checkpoint.
     */
    void noteFrame(const net::Frame &frame, std::uint32_t epoch,
                   const membership::MembershipTable &members,
                   RuntimeStats &stats, core::EventLog &events);

    /** Close @p epoch's gather: run every child's liveness machine. */
    void closeGather(std::uint32_t epoch,
                     const membership::MembershipTable &members,
                     RuntimeStats &stats, core::EventLog &events);

    /**
     * Overlay liveness on @p members, the views membership implies
     * (MembershipPlane; children absent from it start at the
     * default): a Dead child is not awaited either, and only a Live
     * one is trusted.
     */
    std::map<std::uint32_t, AggregatorRole::ChildView>
    views(std::map<std::uint32_t, AggregatorRole::ChildView> members) const;

    /** The Rehomes owed at @p epoch: one per re-homing member heard
     *  this epoch (counted in rehomesSent). */
    std::vector<Rehome> rehomes(std::uint32_t epoch,
                                const membership::MembershipTable &members,
                                RuntimeStats &stats);

    /** Fleet-health overrides: Dead reads as Lost, Rehoming as
     *  Rehoming (their size is the degraded-racks gauge). */
    std::map<std::uint32_t, telemetry::UnitHealth> overrides() const;

    /**
     * Persist every stored checkpoint under @p dir (created if
     * missing; one file per child, atomically replaced), and load those
     * a previous instance left there, so a restarted parent can still re-home children
     * that died while it was down.
     */
    void setStateDir(const std::string &dir);

  private:
    /** One child's ledger. */
    struct Ledger
    {
        RackState state = RackState::Live;
        int missed = 0;
        /** Highest sequence number seen from the current instance. */
        std::optional<std::uint32_t> maxSeq;
        /** Latest rehomeAckEpoch the child's checkpoints reported. */
        std::uint32_t lastAckEpoch = 0;
        /** Epoch of this round's first Rehome (0 = none yet). */
        std::uint32_t rehomeEpoch = 0;
    };

    void beginRehoming(std::uint32_t child, Ledger &ledger,
                       std::uint32_t epoch, RuntimeStats &stats,
                       core::EventLog &events);
    void persist(std::uint32_t child, std::uint32_t epoch) const;
    std::string checkpointPath(std::uint32_t child) const;

    int failAfter_ = 0;
    std::map<std::uint32_t, Ledger> ledgers_;
    /** Frames one healthy upstream batch carries, per child. */
    std::map<std::uint32_t, std::uint32_t> batch_;
    std::map<std::uint32_t, net::CheckpointMsg> checkpoints_;
    std::set<std::uint32_t> heard_;
    std::string stateDir_;
};

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_SUPERVISOR_HH
