/**
 * @file
 * The one send/receive path of both rt engines: the roles one process
 * runs, built once, and everything an engine does per frame. A
 * WorkerHost owns one RoleTable for every endpoint of its process; a
 * WorkerRuntime owns one for its single endpoint. The engines keep
 * only what differs between them: pacing, retransmission, holdback,
 * the host's beacons, and the runtime's supervision of leaf children
 * (rt/supervisor.hh).
 *
 * The table owns:
 *  - the roles: the core::TreePlan and its peer-table check, the
 *    membership plane (rt/membership_plane.hh), one AggregatorRole per
 *    hosted interior or root endpoint in ascending tier order (so in
 *    one pass a hosted child closes before its hosted parent), and one
 *    LeafRole per hosted leaf;
 *  - stamping: the sequence counter, the wire version, the trace
 *    context. A frame from the root carries net::kRoomSender, any
 *    other frame its sender's endpoint;
 *  - framing: a leaf's per-edge Metrics (none once it was committed
 *    out), an aggregator's Summaries, its split as Budget (leaf child)
 *    or SubBudget frames, and the root's membership snapshots;
 *  - the receive path: decode, hop record, then route();
 *  - the frame buffers: an encode takes a spare buffer (buffer()) and
 *    an engine hands a delivered frame's bytes back (recycle()), so a
 *    steady-state period frames and decodes without allocating. The
 *    spares never outnumber the frames one lossless period frames.
 *
 * route() places one frame by its type, the addressed role and the
 * sender, in this order:
 *  1. MembershipDelta: the table adopts a root-sent snapshot (the
 *     root owns the table and takes none) and acks it from the
 *     addressed endpoint. The membership plane is epoch-free.
 *  2. MembershipAck: the membership plane books it when addressed to
 *     the root; it is an orphan anywhere else, and when it speaks for
 *     another endpoint than its sender.
 *  3. A Heartbeat from the addressed role's plan parent is its epoch
 *     beacon: the parent closed this role's phases without it.
 *  4. A frame from a later epoch is handed back to the engine.
 *  5. A leaf takes everything else in LeafRole::noteDownFrame (a
 *     Budget or a Rehome from its plan parent; anything else is its
 *     orphan). An aggregator takes a SubBudget in
 *     AggregatorRole::noteDownFrame and everything else (Metrics,
 *     Summary, Checkpoint; a child's Heartbeat is an orphan) in
 *     noteUpFrame.
 * The roles count their own orphans; route() counts only frames no
 * role can take.
 */

#ifndef CAPMAESTRO_RT_ROLES_HH
#define CAPMAESTRO_RT_ROLES_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/loader.hh"
#include "core/events.hh"
#include "core/tree_plan.hh"
#include "net/protocol.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "rt/aggregator.hh"
#include "rt/leaf.hh"
#include "rt/membership_plane.hh"
#include "rt/observe.hh"
#include "rt/stats.hh"

namespace capmaestro::rt {

/**
 * The tier-staggered §4.5 deadlines of one period, both engines' one
 * schedule: a tier-k receiver's gather closes k gather windows after
 * the period began, and once every gather has closed the budgets
 * cascade back down one budget window per hop. Wall pacing runs to
 * it; the host's completeness loop uses it as the degraded timeout.
 */
struct Cascade
{
    const net::ProtocolConfig &proto;
    /** Tiers of the plan. */
    std::uint32_t tiers = 2;
    /** When the period began (transport clock). */
    double start = 0.0;

    /** When a tier-@p tier receiver's gather closes. */
    double gatherClose(std::uint32_t tier) const
    {
        return start + static_cast<double>(tier) * proto.gatherDeadlineMs;
    }

    /** When a tier-@p tier receiver's down phase closes (tier 0: the
     *  leaves' budget deadline). */
    double downClose(std::uint32_t tier) const
    {
        return gatherClose(tiers - 1)
               + static_cast<double>(tiers - 1 - tier)
                     * proto.budgetDeadlineMs;
    }

    /** From the period's start to the leaves' budget deadline. */
    double span() const { return downClose(0) - start; }
};

/** The roles of one process and their send/receive path. */
class RoleTable
{
  public:
    using Endpoint = net::Transport::Endpoint;

    /** One encoded frame for link from -> to. */
    struct Send
    {
        Endpoint from = 0;
        Endpoint to = 0;
        std::vector<std::uint8_t> bytes;
    };
    using Sends = std::vector<Send>;

    /** A hosted leaf. */
    struct Leaf
    {
        LeafRole role;
        /** Highest epoch a parent beacon reported. */
        std::uint32_t beaconEpoch = 0;
    };

    /** A hosted aggregator or root. */
    struct Aggregator
    {
        AggregatorRole role;
        Endpoint ep = 0;
        std::uint32_t tier = 0;
        /** Who the safety audit of its splits names ("w<ep>", the
         *  fleet-health name, unless the owner renames it). */
        std::string name;
        /** Highest epoch a parent beacon reported. */
        std::uint32_t beaconEpoch = 0;
    };

    /** Where route() placed one frame. */
    enum class Routed : std::uint8_t
    {
        /** Failed to decode (corruptFrames). */
        Corrupt,
        /** No role can take it (orphanFrames). */
        Orphan,
        /** LeafRole::noteDownFrame took it. */
        Leaf,
        /** LeafRole::noteDownFrame took a Rehome from the plan
         *  parent. */
        Rehome,
        /** AggregatorRole::noteUpFrame took it. */
        Up,
        /** AggregatorRole::noteDownFrame took it. */
        Down,
        /** A parent's Heartbeat: the role's beaconEpoch. */
        Beacon,
        /** The replica adopted the snapshot, an idempotent
         *  re-broadcast included (and acked it). */
        Adopted,
        /** The membership plane took it, with nothing left for the
         *  engine: a stale snapshot (acked with the newer generation)
         *  or an ack the root booked. */
        Membership,
        /** From a later epoch: the engine's. */
        Later,
    };

    /**
     * Build the roles of @p locals (ascending endpoints), moving their
     * server specs out of @p scenario, which must outlive the table.
     * Fatal when the scenario has no power system, the peer table does
     * not match the plan, or an endpoint is outside the plan.
     */
    RoleTable(config::LoadedScenario &scenario,
              const config::WorkerPeers &peers,
              std::vector<Endpoint> locals, std::uint64_t seed,
              RuntimeStats &stats, core::EventLog &events,
              Observability &obs);

    RoleTable(const RoleTable &) = delete;
    RoleTable &operator=(const RoleTable &) = delete;

    const core::TreePlan &plan() const { return plan_; }

    /** The hosted endpoints, ascending. */
    const std::vector<Endpoint> &locals() const { return locals_; }

    /** @p ep is hosted here. */
    bool hosts(Endpoint ep) const
    {
        return index_[ep].kind != RoleRef::Kind::None;
    }

    std::vector<Leaf> &leaves() { return leaves_; }
    const std::vector<Leaf> &leaves() const { return leaves_; }
    /** The first hosted leaf's simulated time (0 without leaves). */
    double simNow() const
    {
        return leaves_.empty() ? 0.0 : leaves_.front().role.simNow();
    }
    /** Hosted aggregators, ascending tier (the root last). */
    std::vector<Aggregator> &aggregators() { return aggs_; }
    const std::vector<Aggregator> &aggregators() const { return aggs_; }

    /** The membership plane (the table of record where the root is
     *  hosted, a replica elsewhere). */
    MembershipPlane &membership() { return membership_; }
    const MembershipPlane &membership() const { return membership_; }

    /** Stamp every later frame with wire version @p v (kWireVersion
     *  or kWireCompatVersion; anything else is fatal). */
    void setWireVersion(std::uint8_t v);
    std::uint8_t wireVersion() const { return wireVersion_; }

    /** Header for one frame endpoint @p from sends in @p epoch; takes
     *  the next sequence number. */
    net::FrameMeta stamp(Endpoint from, std::uint32_t epoch);

    /** Append @p leaf's per-edge Metrics frames for its parent. */
    void frameMetrics(Leaf &leaf, std::uint32_t epoch, Sends &out);

    /** Append one Summary frame per message for @p agg's parent. */
    void frameSummaries(const Aggregator &agg,
                        const std::vector<net::MetricsMsg> &summaries,
                        std::uint32_t epoch, Sends &out);

    /** Split @p agg's grant (AggregatorRole::computeDown), audit the
     *  split, and append a Budget or SubBudget frame per child. */
    void frameDown(Aggregator &agg, std::uint32_t epoch, Sends &out);

    /** Append the root's membership snapshot for every target of
     *  MembershipPlane::targets(@p epoch). */
    void frameMembership(std::uint32_t epoch, Sends &out);

    /** Close @p leaf's period with its own membership state. */
    void closeLeaf(Leaf &leaf);

    /** Append a Heartbeat (the epoch beacon) on link @p from -> @p to. */
    void frameHeartbeat(Endpoint from, Endpoint to, std::uint32_t epoch,
                        Sends &out);

    /** A buffer for the next encode: a spare one when any is left. */
    std::vector<std::uint8_t> buffer();

    /** Keep @p bytes (a frame done with) as a spare for buffer(), up to
     *  one period's worth; past that it is freed. */
    void recycle(std::vector<std::uint8_t> &&bytes);

    /**
     * Decode @p bytes delivered to hosted endpoint @p to, record the
     * hop, and route() the frame. A membership ack it produces is
     * appended to @p out. After anything but Corrupt, frame() is the
     * decoded frame.
     */
    Routed receive(Endpoint to, const std::vector<std::uint8_t> &bytes,
                   std::uint32_t epoch, Sends &out);

    /** Place one decoded frame for hosted endpoint @p to in @p epoch
     *  (see the file comment). */
    Routed route(Endpoint to, const net::Frame &frame, std::uint32_t epoch,
                 Sends &out);

    /** The frame receive() decoded last. */
    const net::Frame &frame() const { return frame_; }

  private:
    /** What an endpoint is here, and its index into leaves_ or aggs_. */
    struct RoleRef
    {
        enum class Kind : std::uint8_t { None, Leaf, Aggregator };
        Kind kind = Kind::None;
        std::uint32_t slot = 0;
    };

    /** Wire sender id of @p ep: kRoomSender for the root. */
    std::uint16_t senderOf(Endpoint ep) const
    {
        return ep == plan_.rootEndpoint() ? net::kRoomSender
                                          : static_cast<std::uint16_t>(ep);
    }
    Routed adopt(Endpoint to, const net::Frame &frame, std::uint32_t epoch,
                 Sends &out);
    /** Append a Send on link @p from -> @p to holding a spare buffer
     *  for the caller to encode into. */
    Send &send(Endpoint from, Endpoint to, Sends &out);

    const config::LoadedScenario &scenario_;
    RuntimeStats &stats_;
    core::EventLog &events_;
    Observability &obs_;
    core::TreePlan plan_;
    std::vector<Endpoint> locals_;
    MembershipPlane membership_;
    std::vector<Leaf> leaves_;
    std::vector<Aggregator> aggs_;
    /** Every plan endpoint -> its role here. */
    std::vector<RoleRef> index_;
    std::uint32_t seq_ = 0;
    std::uint8_t wireVersion_ = net::kWireVersion;
    /** receive()'s frame, decoded in place. */
    net::Frame frame_;
    /** Spare frame buffers (see buffer()) and their cap: the frames
     *  one lossless period frames. */
    std::vector<std::vector<std::uint8_t>> spare_;
    std::size_t spareCap_ = 0;
};

} // namespace capmaestro::rt

#endif // CAPMAESTRO_RT_ROLES_HH
