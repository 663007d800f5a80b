/**
 * @file
 * Binary wire codec for the distributed control protocol (paper §5,
 * §4.5).
 *
 * The workers of the control tree exchange eleven message types:
 * per-priority metric summaries flowing upstream, budgets flowing
 * downstream, header-only heartbeats (a parent's epoch beacon), a second
 * round-trip of pinned-consumption summaries (upstream) and SPO
 * budgets (downstream) when the stranded-power optimization (§4.4)
 * fires, the failover pair — plant-state Checkpoints streamed upstream
 * alongside the metrics every period, and a Rehome frame (the
 * parent's stored checkpoint) sent downstream to replay state into a
 * restarted rack worker — and the aggregator pair: a Summary (the
 * merged per-class metrics of an aggregator's whole subtree, Metrics
 * layout) flowing from a mid-tier aggregator to its parent, answered
 * by a SubBudget (Budget layout) splitting the parent's grant back
 * down. The SPO, failover, and aggregator pairs reuse payload layouts
 * under distinct type codes so a retransmitted leaf-hop frame can
 * never masquerade as an aggregator-hop one (or vice versa).
 * Every message travels in one self-contained frame:
 *
 *   offset  size  field
 *   ------  ----  --------------------------------------------------
 *        0     2  magic (0xCA9E, little-endian)
 *        2     1  version (kWireVersion)
 *        3     1  message type (MsgType)
 *        4     2  sender id (rack index, or kRoomSender for the room)
 *        6     4  epoch: control-period counter, detects orphans
 *       10     4  sequence number (per sender, monotonically rising)
 *       14     2  payload length in bytes
 *       16     1  trace-context length: 0 or kTraceContextBytes (v5)
 *       17     C  trace context (absent, or traceId u16 | origin
 *                 tier u8 | send timestamp f64 ms)
 *     17+C     N  payload (type-specific, see below)
 *   17+C+N     4  CRC-32 (IEEE) over bytes [0, 17+C+N)
 *
 * All integers are little-endian; watt values are IEEE-754 doubles
 * carried as their 64-bit patterns, so encode/decode round-trips are
 * bit-exact. The CRC detects every single-bit flip and all bursts
 * shorter than 32 bits; decodeFrame() rejects (returns nullopt for)
 * any frame that is truncated, oversized, version-skewed, corrupt, or
 * structurally invalid — it never crashes on hostile input.
 *
 * Payloads:
 *   Metrics  : tree u16 | edge node u32 | constraint f64 | count u16 |
 *              count x (priority i32, capMin f64, demand f64,
 *              request f64), priorities strictly descending
 *   Budget   : tree u16 | edge node u32 | budget f64
 *   Heartbeat: empty (the header carries everything)
 *   PinnedSummary: same layout as Metrics (edge metrics recomputed
 *              with §4.4 pinned leaves)
 *   SpoBudget: same layout as Budget (second-pass edge budget)
 *   Checkpoint: simNow f64 | rehomeAckEpoch u32 | count u16 |
 *              count x (serverId u32, flags u8 [bit0 integrator
 *              primed, bit1 SPO-pinned], integratorDc f64,
 *              demand f64, avgThrottle f64, supplyCount u16,
 *              supplyCount x (lastBudget f64, share f64, avgAc f64))
 *   Rehome   : same layout as Checkpoint (the room replays its stored
 *              copy into a restarted rack)
 *   MembershipDelta: generation u32 | count u16 | count x (endpoint
 *              u16, state u8 [0 joining, 1 live, 2 draining, 3 left],
 *              sinceGeneration u32) — the root's full membership-table
 *              snapshot (v6; rejected under a v5 header)
 *   MembershipAck: generation u32 | endpoint u16 | state u8 — a unit's
 *              adoption receipt (v6; rejected under a v5 header)
 */

#ifndef CAPMAESTRO_NET_WIRE_HH
#define CAPMAESTRO_NET_WIRE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "control/metrics.hh"
#include "util/units.hh"

namespace capmaestro::net {

/** Frame magic value. */
constexpr std::uint16_t kWireMagic = 0xCA9E;

/** Current wire-format version (2 added the §4.4 SPO message pair;
 *  3 added the Checkpoint/Rehome failover pair; 4 added the
 *  Summary/SubBudget aggregator pair for deep control trees; 5 added
 *  the optional per-hop trace context to the header; 6 added the
 *  MembershipDelta/MembershipAck elasticity pair).
 *  decodeFrame() accepts the current version and the one before it
 *  (kWireCompatVersion), so a rolling upgrade with v5/v6 frame skew is
 *  a supported steady state — v5 frames carry no membership types, and
 *  a membership type under a v5 header is rejected as malformed. Any
 *  other version degrades to the §4.5 conservative floors rather than
 *  misinterpreting frames. */
constexpr std::uint8_t kWireVersion = 6;

/** Oldest wire version decodeFrame() still accepts (rolling-upgrade
 *  skew window: exactly one version back). */
constexpr std::uint8_t kWireCompatVersion = kWireVersion - 1;

/** Sender id the room worker uses (racks use their rack index). */
constexpr std::uint16_t kRoomSender = 0xFFFF;

/** Fixed frame header size in bytes (before the optional trace
 *  context, payload, and CRC). */
constexpr std::size_t kHeaderSize = 17;

/** Encoded size of a present trace context (traceId u16 + origin
 *  tier u8 + send timestamp f64). The header's trace-context length
 *  byte may only ever hold 0 or this value; decodeFrame() rejects
 *  every other length. */
constexpr std::size_t kTraceContextBytes = 2 + 1 + 8;

/** Trailing checksum size in bytes. */
constexpr std::size_t kCrcSize = 4;

/**
 * Hard cap on a full encoded frame (header + payload + CRC). Every
 * legitimate message fits with room to spare (the largest — a Metrics
 * payload at the 1024-class sanity bound — is under 29 KiB), and the
 * cap keeps one frame inside a single unfragmented-on-loopback UDP
 * datagram. decodeFrame() rejects larger buffers, and rejects any
 * declared payload length over kMaxPayloadBytes before allocating;
 * UdpTransport refuses to send or deliver frames over the cap.
 */
constexpr std::size_t kMaxFrameBytes = 32768;

/** Largest payload length a frame may declare. A present trace
 *  context comes out of the same kMaxFrameBytes, so a traced frame's
 *  payload must also fit in kMaxPayloadBytes - kTraceContextBytes
 *  (only a Checkpoint can get that large; its encoder checks). */
constexpr std::size_t kMaxPayloadBytes =
    kMaxFrameBytes - kHeaderSize - kCrcSize;

/** Message types carried on the wire. */
enum class MsgType : std::uint8_t {
    Metrics = 1,
    Budget = 2,
    Heartbeat = 3,
    /** §4.4 second-round pinned-consumption summary (rack -> room). */
    PinnedSummary = 4,
    /** §4.4 second-round budget (room -> rack). */
    SpoBudget = 5,
    /** Plant-state checkpoint (rack -> room, piggybacked upstream). */
    Checkpoint = 6,
    /** Checkpoint replay into a restarted rack (room -> rack). */
    Rehome = 7,
    /** Merged subtree metrics (aggregator -> parent, Metrics layout).
     *  tree/edgeNode name the aggregator's top station. */
    Summary = 8,
    /** Budget for an aggregator's top station (parent -> aggregator,
     *  Budget layout). */
    SubBudget = 9,
    /** Versioned membership-table snapshot (root -> every unit, v6).
     *  Full-table semantics: applying any delta with a generation at
     *  or ahead of the receiver's yields a consistent view, so a unit
     *  that missed one broadcast converges on the next. */
    MembershipDelta = 10,
    /** Membership acknowledgement (unit -> root, v6): the highest
     *  generation the unit has adopted plus its own view of its
     *  state — the root's commit gate for the two-phase adopt. */
    MembershipAck = 11,
};

/** Per-priority metric summary for one edge controller (upstream). */
struct MetricsMsg
{
    std::uint16_t tree = 0;
    std::uint32_t edgeNode = 0;
    ctrl::NodeMetrics metrics;
};

/** Budget for one edge controller (downstream). */
struct BudgetMsg
{
    std::uint16_t tree = 0;
    std::uint32_t edgeNode = 0;
    Watts budget = 0.0;
};

/** Most servers one checkpoint may carry (sanity bound; a rack hosts
 *  tens of servers, not hundreds). */
constexpr std::size_t kMaxCheckpointServers = 256;

/** Most supplies one checkpointed server may carry. */
constexpr std::size_t kMaxCheckpointSupplies = 8;

/** Per-supply slice of one server's checkpoint record. */
struct CheckpointSupply
{
    /** Last AC budget applied to this supply's PI input. */
    Watts lastBudget = 0.0;
    /** Measured load split r-hat. */
    Fraction share = 0.0;
    /** Average AC power over the last closed period. */
    Watts avgAc = 0.0;
};

/** One server's recoverable plant/controller state. */
struct CheckpointServer
{
    std::uint32_t serverId = 0;
    /** Whether the capping integrator has been primed. */
    bool integratorPrimed = false;
    /** Whether any of this server's leaves are §4.4 SPO-pinned. */
    bool spoPinned = false;
    /** Capping integrator value (the actuated DC cap when primed). */
    Watts integratorDc = 0.0;
    /** Last-period demand estimate. */
    Watts demandEstimate = 0.0;
    /** Last-period average throttle level. */
    double avgThrottle = 0.0;
    std::vector<CheckpointSupply> supplies;
};

/**
 * Plant-state checkpoint for one rack worker (upstream every period;
 * replayed downstream as a Rehome frame after a worker restart).
 */
struct CheckpointMsg
{
    /** The rack's simulated plant clock, seconds. */
    double simNow = 0.0;
    /**
     * Epoch of the last Rehome frame this rack *instance* processed
     * (replayed or declined), 0 before any. The room treats an ack at
     * or after its own rehome epoch as re-homing complete.
     */
    std::uint32_t rehomeAckEpoch = 0;
    std::vector<CheckpointServer> servers;
};

/** Most units one MembershipDelta may carry (endpoints are u16; the
 *  bound keeps the largest table under the frame cap). */
constexpr std::size_t kMaxMembershipEntries = 4096;

/** Per-unit membership state on the wire (see membership/table.hh for
 *  the state machine; the codec only validates the range). */
enum class WireUnitState : std::uint8_t {
    Joining = 0,
    Live = 1,
    Draining = 2,
    Left = 3,
};

/** One unit's row in a membership-table snapshot. */
struct MembershipEntry
{
    /** The unit's endpoint in the shared peer table. */
    std::uint16_t endpoint = 0;
    WireUnitState state = WireUnitState::Live;
    /** Generation at which the unit entered this state. */
    std::uint32_t sinceGeneration = 0;
};

/**
 * Versioned membership-table snapshot (root -> every unit). Despite
 * the name, the payload is the full table — full-snapshot semantics
 * make loss-tolerance trivial (any later delta supersedes a missed
 * one) and keep the decode path free of ordering state.
 */
struct MembershipDeltaMsg
{
    /** The table's generation (starts at 1, bumped per commit). */
    std::uint32_t generation = 0;
    std::vector<MembershipEntry> entries;
};

/** Membership acknowledgement (unit -> root). */
struct MembershipAckMsg
{
    /** Highest generation the unit has adopted. */
    std::uint32_t generation = 0;
    /** The acking unit's endpoint. */
    std::uint16_t endpoint = 0;
    /** The unit's own view of its state at that generation. */
    WireUnitState state = WireUnitState::Live;
};

/**
 * Optional per-hop trace context carried in the v5 header. Purely
 * observational: the control protocol never reads it, so a deployment
 * with tracing on stays bit-identical to one with it off.
 */
struct TraceContext
{
    /** Trace id shared by every hop of one control period (the low 16
     *  bits of the epoch, so every process derives it identically). */
    std::uint16_t traceId = 0;
    /** Tier of the sending role (0 = leaf, rising toward the root;
     *  0xFF = the 2-level room). */
    std::uint8_t originTier = 0;
    /** Sender's clock at send time, milliseconds. Wall-clock unix time
     *  on UDP deployments, the shared virtual clock on SimTransport —
     *  either way the receiver subtracts it from the same clock domain
     *  for per-hop latency. */
    double sendMs = 0.0;
};

/** A decoded frame: header fields plus exactly one payload. */
struct Frame
{
    MsgType type = MsgType::Heartbeat;
    std::uint16_t sender = 0;
    std::uint32_t epoch = 0;
    std::uint32_t seq = 0;
    /** Valid iff type == Metrics, PinnedSummary, or Summary. */
    MetricsMsg metrics;
    /** Valid iff type == Budget, SpoBudget, or SubBudget. */
    BudgetMsg budget;
    /** Valid iff type == Checkpoint or Rehome. */
    CheckpointMsg checkpoint;
    /** Valid iff type == MembershipDelta. */
    MembershipDeltaMsg membershipDelta;
    /** Valid iff type == MembershipAck. */
    MembershipAckMsg membershipAck;
    /** Trace context, when the sender stamped one. */
    std::optional<TraceContext> trace;
    /** Wire version the frame was encoded under (kWireVersion or
     *  kWireCompatVersion — anything else never decodes). */
    std::uint8_t wireVersion = kWireVersion;
};

/** Header fields common to every encode call. */
struct FrameMeta
{
    FrameMeta() = default;

    FrameMeta(std::uint16_t sender_, std::uint32_t epoch_,
              std::uint32_t seq_,
              std::optional<TraceContext> trace_ = std::nullopt)
        : sender(sender_), epoch(epoch_), seq(seq_),
          trace(std::move(trace_))
    {
    }

    std::uint16_t sender = 0;
    std::uint32_t epoch = 0;
    std::uint32_t seq = 0;
    /** Stamped into the header when present (tracing enabled). */
    std::optional<TraceContext> trace;
    /**
     * Version byte stamped into the header. Defaults to the current
     * version; a not-yet-upgraded worker in a rolling upgrade stamps
     * kWireCompatVersion instead (see WorkerRuntime::setWireVersion).
     * Membership types cannot be encoded under the compat version.
     */
    std::uint8_t wireVersion = kWireVersion;
};

/** Encode a metrics message into a framed byte vector. */
std::vector<std::uint8_t> encodeMetrics(const FrameMeta &meta,
                                        const MetricsMsg &msg);

/** Encode a budget message into a framed byte vector. */
std::vector<std::uint8_t> encodeBudget(const FrameMeta &meta,
                                       const BudgetMsg &msg);

/** Encode a heartbeat frame. */
std::vector<std::uint8_t> encodeHeartbeat(const FrameMeta &meta);

/** Encode a §4.4 pinned-consumption summary (Metrics payload layout). */
std::vector<std::uint8_t> encodePinnedSummary(const FrameMeta &meta,
                                              const MetricsMsg &msg);

/** Encode a §4.4 second-pass budget (Budget payload layout). */
std::vector<std::uint8_t> encodeSpoBudget(const FrameMeta &meta,
                                          const BudgetMsg &msg);

/**
 * Encode a plant-state checkpoint (rack -> room). fatal()s when the
 * message exceeds the kMaxCheckpointServers / kMaxCheckpointSupplies
 * sanity bounds — a legitimate rack never does.
 */
std::vector<std::uint8_t> encodeCheckpoint(const FrameMeta &meta,
                                           const CheckpointMsg &msg);

/** Encode a checkpoint replay (room -> rack, Checkpoint layout). */
std::vector<std::uint8_t> encodeRehome(const FrameMeta &meta,
                                       const CheckpointMsg &msg);

/** Encode a merged subtree summary (aggregator -> parent, Metrics
 *  payload layout; tree/edgeNode name the aggregator's top station). */
std::vector<std::uint8_t> encodeSummary(const FrameMeta &meta,
                                        const MetricsMsg &msg);

/** Encode an aggregator-station budget (parent -> aggregator, Budget
 *  payload layout). */
std::vector<std::uint8_t> encodeSubBudget(const FrameMeta &meta,
                                          const BudgetMsg &msg);

/**
 * Encode a membership-table snapshot (root -> every unit). fatal()s
 * when the table exceeds the kMaxMembershipEntries sanity bound or
 * when meta stamps a pre-v6 wire version — membership types do not
 * exist before v6.
 */
std::vector<std::uint8_t>
encodeMembershipDelta(const FrameMeta &meta,
                      const MembershipDeltaMsg &msg);

/** Encode a membership acknowledgement (unit -> root, v6 only). */
std::vector<std::uint8_t>
encodeMembershipAck(const FrameMeta &meta, const MembershipAckMsg &msg);

/**
 * The per-period encoders again, writing the frame into @p out and
 * reusing its storage (the value-returning forms above run the same
 * code): a sender that recycles its buffers encodes without
 * allocating.
 */
void encodeMetrics(const FrameMeta &meta, const MetricsMsg &msg,
                   std::vector<std::uint8_t> &out);
void encodeSummary(const FrameMeta &meta, const MetricsMsg &msg,
                   std::vector<std::uint8_t> &out);
void encodeBudget(const FrameMeta &meta, const BudgetMsg &msg,
                  std::vector<std::uint8_t> &out);
void encodeSubBudget(const FrameMeta &meta, const BudgetMsg &msg,
                     std::vector<std::uint8_t> &out);
void encodeHeartbeat(const FrameMeta &meta, std::vector<std::uint8_t> &out);

/**
 * Decode one frame. Returns nullopt on any malformation (short buffer,
 * bad magic/version/type, length mismatch, CRC failure, ill-formed
 * payload); never throws or crashes on arbitrary bytes.
 */
std::optional<Frame> decodeFrame(const std::vector<std::uint8_t> &bytes);

/**
 * decodeFrame() into @p out, reusing the storage of its payloads (every
 * field is overwritten). Returns false on any malformation, leaving
 * @p out unspecified.
 */
bool decodeFrame(const std::vector<std::uint8_t> &bytes, Frame &out);

/** CRC-32 (IEEE 802.3, reflected) of a byte range. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

} // namespace capmaestro::net

#endif // CAPMAESTRO_NET_WIRE_HH
