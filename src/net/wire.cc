#include "net/wire.hh"

#include <array>
#include <bit>
#include <cstring>

#include "util/logging.hh"

namespace capmaestro::net {

namespace {

/** Most classes a metrics payload may carry (sanity bound, not a real
 *  limit: the paper expects ~10 priority levels per center). */
constexpr std::size_t kMaxClasses = 1024;

/** Fixed bytes of a Metrics-layout payload (tree u16 + edge node u32
 *  + constraint f64 + count u16). */
constexpr std::size_t kMetricsFixedBytes = 2 + 4 + 8 + 2;

/** Encoded size of one ClassMetrics record (i32 + 3 x f64). */
constexpr std::size_t kClassBytes = 4 + 3 * 8;

static_assert(kMaxClasses * kClassBytes + kMetricsFixedBytes
                      + kTraceContextBytes
                  <= kMaxPayloadBytes,
              "the largest legitimate Metrics payload must fit under "
              "the frame-size cap");

/** Bytes of a Budget-layout payload (tree u16 + edge node u32 +
 *  budget f64). */
constexpr std::size_t kBudgetBytes = 2 + 4 + 8;

/** Fixed bytes of a Checkpoint-layout payload (simNow f64 +
 *  rehomeAckEpoch u32 + count u16). */
constexpr std::size_t kCheckpointFixedBytes = 8 + 4 + 2;

/** Fixed bytes of one checkpoint server record (before supplies). */
constexpr std::size_t kCheckpointServerBytes = 4 + 1 + 3 * 8 + 2;

/** Bytes of one checkpoint supply slice (3 x f64). */
constexpr std::size_t kCheckpointSupplyBytes = 3 * 8;

/** Fixed bytes of a MembershipDelta payload (generation u32 + count
 *  u16). */
constexpr std::size_t kMembershipDeltaFixedBytes = 4 + 2;

/** Bytes of one membership-table row (endpoint u16 + state u8 +
 *  sinceGeneration u32). */
constexpr std::size_t kMembershipEntryBytes = 2 + 1 + 4;

static_assert(kMaxMembershipEntries * kMembershipEntryBytes
                      + kMembershipDeltaFixedBytes + kTraceContextBytes
                  <= kMaxPayloadBytes,
              "the largest legitimate MembershipDelta payload must fit "
              "under the frame-size cap");

/** Bytes of a MembershipAck payload (generation u32 + endpoint u16 +
 *  state u8). */
constexpr std::size_t kMembershipAckBytes = 4 + 2 + 1;

// ------------------------------------------------------------- writing

/** Little-endian writer over a buffer its encoder sized exactly up
 *  front, so no write checks bounds or grows anything. */
class Writer
{
  public:
    explicit Writer(std::uint8_t *out) : out_(out) {}

    void
    u8(std::uint8_t v)
    {
        *out_++ = v;
    }

    void
    u16(std::uint16_t v)
    {
        put(v, 2);
    }

    void
    u32(std::uint32_t v)
    {
        put(v, 4);
    }

    void
    i32(std::int32_t v)
    {
        u32(static_cast<std::uint32_t>(v));
    }

    void
    f64(double v)
    {
        put(std::bit_cast<std::uint64_t>(v), 8);
    }

  private:
    void
    put(std::uint64_t v, int bytes)
    {
        for (int i = 0; i < bytes; ++i)
            *out_++ = static_cast<std::uint8_t>(v >> (8 * i));
    }

    std::uint8_t *out_;
};

// ------------------------------------------------------------- reading

/** Bounds-checked little-endian reader; ok() goes false on overrun. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    bool
    ok() const
    {
        return ok_;
    }

    std::size_t
    remaining() const
    {
        return size_ - pos_;
    }

    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return data_[pos_++];
    }

    std::uint16_t
    u16()
    {
        if (!take(2))
            return 0;
        std::uint16_t v = 0;
        for (int i = 0; i < 2; ++i)
            v |= static_cast<std::uint16_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::int32_t
    i32()
    {
        return static_cast<std::int32_t>(u32());
    }

    double
    f64()
    {
        if (!take(8))
            return 0.0;
        std::uint64_t raw = 0;
        for (int i = 0; i < 8; ++i)
            raw |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return std::bit_cast<double>(raw);
    }

  private:
    bool
    take(std::size_t n)
    {
        if (!ok_ || size_ - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

// ----------------------------------------------------------------- crc

/** Reflected IEEE 802.3 CRC-32 polynomial. */
constexpr std::uint32_t kCrcPolynomial = 0xEDB88320u;

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables for kCrcPolynomial. Table 0 is the classic
 * byte-at-a-time table; table k maps a byte to its CRC contribution
 * with k more bytes still to come, so eight lookups fold eight bytes.
 */
constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t crc = b;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCrcPolynomial : 0u);
        t[0][b] = crc;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::size_t b = 0; b < 256; ++b)
            t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
    return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

static_assert(kCrcTables[0][1] == 0x77073096u
                  && kCrcTables[0][255] == 0x2D02EF8Du,
              "CRC table 0 must be the standard IEEE table");

/** Little-endian u32 from four bytes at any alignment. */
constexpr std::uint32_t
load32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0])
           | static_cast<std::uint32_t>(p[1]) << 8
           | static_cast<std::uint32_t>(p[2]) << 16
           | static_cast<std::uint32_t>(p[3]) << 24;
}

// ------------------------------------------------------------- framing

/**
 * Encode one frame into a single allocation of its exact size: the
 * header, the optional trace context, the payload @p write_payload
 * puts through its Writer (exactly @p payload_size bytes), then the
 * CRC over everything before it.
 */
template <typename WritePayload>
void
seal(MsgType type, const FrameMeta &meta, std::size_t payload_size,
     const WritePayload &write_payload, std::vector<std::uint8_t> &bytes)
{
    if (meta.wireVersion != kWireVersion
        && meta.wireVersion != kWireCompatVersion) {
        util::fatal("wire: cannot encode under version %u (current %u, "
                    "compat %u)",
                    meta.wireVersion, kWireVersion, kWireCompatVersion);
    }
    if (meta.wireVersion < kWireVersion
        && (type == MsgType::MembershipDelta
            || type == MsgType::MembershipAck)) {
        util::fatal("wire: membership types do not exist before "
                    "version %u",
                    kWireVersion);
    }
    const std::size_t ctx_size =
        meta.trace.has_value() ? kTraceContextBytes : 0;
    const std::size_t covered = kHeaderSize + ctx_size + payload_size;
    bytes.resize(covered + kCrcSize);
    Writer w(bytes.data());
    w.u16(kWireMagic);
    w.u8(meta.wireVersion);
    w.u8(static_cast<std::uint8_t>(type));
    w.u16(meta.sender);
    w.u32(meta.epoch);
    w.u32(meta.seq);
    w.u16(static_cast<std::uint16_t>(payload_size));
    w.u8(static_cast<std::uint8_t>(ctx_size));
    if (meta.trace.has_value()) {
        w.u16(meta.trace->traceId);
        w.u8(meta.trace->originTier);
        w.f64(meta.trace->sendMs);
    }
    write_payload(w);
    Writer(bytes.data() + covered).u32(crc32(bytes.data(), covered));
}

/** seal() into a fresh buffer. */
template <typename WritePayload>
std::vector<std::uint8_t>
seal(MsgType type, const FrameMeta &meta, std::size_t payload_size,
     const WritePayload &write_payload)
{
    std::vector<std::uint8_t> bytes;
    seal(type, meta, payload_size, write_payload, bytes);
    return bytes;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    // Slicing-by-8: fold eight bytes per step with one lookup in each
    // table, then finish the last size % 8 bytes one at a time.
    const CrcTables &t = kCrcTables;
    std::uint32_t crc = 0xFFFFFFFFu;
    for (; size >= 8; data += 8, size -= 8) {
        const std::uint32_t lo = crc ^ load32(data);
        const std::uint32_t hi = load32(data + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu]
              ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24]
              ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu]
              ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
    return ~crc;
}

namespace {

void
sealMetricsPayload(MsgType type, const FrameMeta &meta,
                   const MetricsMsg &msg, std::vector<std::uint8_t> &out)
{
    const auto &classes = msg.metrics.classes();
    // The decoder drops a payload over kMaxClasses, and the u16 count
    // would wrap past 65535: refuse rather than emit either frame.
    if (classes.size() > kMaxClasses) {
        util::fatal("wire: metrics with %zu classes exceeds the "
                    "%zu-class bound",
                    classes.size(), kMaxClasses);
    }
    seal(
        type, meta, kMetricsFixedBytes + classes.size() * kClassBytes,
        [&](Writer &p) {
            p.u16(msg.tree);
            p.u32(msg.edgeNode);
            p.f64(msg.metrics.constraint());
            p.u16(static_cast<std::uint16_t>(classes.size()));
            for (const auto &c : classes) {
                p.i32(c.priority);
                p.f64(c.capMin);
                p.f64(c.demand);
                p.f64(c.request);
            }
        },
        out);
}

std::vector<std::uint8_t>
sealMetricsPayload(MsgType type, const FrameMeta &meta,
                   const MetricsMsg &msg)
{
    std::vector<std::uint8_t> out;
    sealMetricsPayload(type, meta, msg, out);
    return out;
}

void
sealBudgetPayload(MsgType type, const FrameMeta &meta,
                  const BudgetMsg &msg, std::vector<std::uint8_t> &out)
{
    seal(
        type, meta, kBudgetBytes,
        [&](Writer &p) {
            p.u16(msg.tree);
            p.u32(msg.edgeNode);
            p.f64(msg.budget);
        },
        out);
}

std::vector<std::uint8_t>
sealBudgetPayload(MsgType type, const FrameMeta &meta,
                  const BudgetMsg &msg)
{
    std::vector<std::uint8_t> out;
    sealBudgetPayload(type, meta, msg, out);
    return out;
}

std::vector<std::uint8_t>
sealCheckpointPayload(MsgType type, const FrameMeta &meta,
                      const CheckpointMsg &msg)
{
    if (msg.servers.size() > kMaxCheckpointServers) {
        util::fatal("wire: checkpoint with %zu servers exceeds the "
                    "%zu-server bound",
                    msg.servers.size(), kMaxCheckpointServers);
    }
    std::size_t payload_size = kCheckpointFixedBytes;
    for (const auto &srv : msg.servers) {
        if (srv.supplies.size() > kMaxCheckpointSupplies) {
            util::fatal("wire: checkpoint server %u with %zu supplies "
                        "exceeds the %zu-supply bound",
                        srv.serverId, srv.supplies.size(),
                        kMaxCheckpointSupplies);
        }
        payload_size += kCheckpointServerBytes
                        + srv.supplies.size() * kCheckpointSupplyBytes;
    }
    // A trace context shares the frame cap with the payload.
    const std::size_t payload_cap =
        kMaxPayloadBytes
        - (meta.trace.has_value() ? kTraceContextBytes : 0);
    if (payload_size > payload_cap) {
        util::fatal("wire: checkpoint payload of %zu bytes exceeds the "
                    "%zu-byte frame cap; partition the topology into "
                    "smaller racks",
                    payload_size, payload_cap);
    }
    return seal(type, meta, payload_size, [&](Writer &p) {
        p.f64(msg.simNow);
        p.u32(msg.rehomeAckEpoch);
        p.u16(static_cast<std::uint16_t>(msg.servers.size()));
        for (const auto &srv : msg.servers) {
            p.u32(srv.serverId);
            p.u8(static_cast<std::uint8_t>(
                (srv.integratorPrimed ? 0x01 : 0x00)
                | (srv.spoPinned ? 0x02 : 0x00)));
            p.f64(srv.integratorDc);
            p.f64(srv.demandEstimate);
            p.f64(srv.avgThrottle);
            p.u16(static_cast<std::uint16_t>(srv.supplies.size()));
            for (const auto &sup : srv.supplies) {
                p.f64(sup.lastBudget);
                p.f64(sup.share);
                p.f64(sup.avgAc);
            }
        }
    });
}

/** Parse a MembershipDelta payload; false on malformation. The count
 *  is validated against the remaining payload before the reserve, so
 *  hostile lengths cannot drive allocation. */
bool
readMembershipDeltaPayload(Reader &p, MembershipDeltaMsg &out)
{
    out.generation = p.u32();
    const std::size_t count = p.u16();
    if (!p.ok() || count > kMaxMembershipEntries)
        return false;
    if (count * kMembershipEntryBytes > p.remaining())
        return false;
    out.entries.reserve(count);
    bool first = true;
    std::uint16_t prev = 0;
    for (std::size_t i = 0; i < count; ++i) {
        MembershipEntry entry;
        entry.endpoint = p.u16();
        const std::uint8_t state = p.u8();
        entry.sinceGeneration = p.u32();
        if (!p.ok() || state > static_cast<std::uint8_t>(
                           WireUnitState::Left))
            return false;
        // Table invariant: strictly ascending endpoints — one row per
        // unit, and a hostile duplicate cannot shadow an earlier row.
        if (!first && entry.endpoint <= prev)
            return false;
        first = false;
        prev = entry.endpoint;
        entry.state = static_cast<WireUnitState>(state);
        out.entries.push_back(entry);
    }
    return true;
}

bool
readMembershipAckPayload(Reader &p, MembershipAckMsg &out)
{
    out.generation = p.u32();
    out.endpoint = p.u16();
    const std::uint8_t state = p.u8();
    if (!p.ok()
        || state > static_cast<std::uint8_t>(WireUnitState::Left))
        return false;
    out.state = static_cast<WireUnitState>(state);
    return true;
}

/** Parse a Metrics-layout payload into @p out; false on malformation. */
bool
readMetricsPayload(Reader &p, MetricsMsg &out)
{
    out.tree = p.u16();
    out.edgeNode = p.u32();
    const double constraint = p.f64();
    const std::size_t count = p.u16();
    if (count > kMaxClasses)
        return false;
    // A hostile count field must not drive the reserve below: the
    // declared records must actually fit in the remaining payload.
    if (count * kClassBytes > p.remaining())
        return false;
    auto &classes = out.metrics.classes();
    classes.reserve(count);
    bool first = true;
    Priority prev = 0;
    for (std::size_t i = 0; i < count; ++i) {
        ctrl::ClassMetrics c;
        c.priority = p.i32();
        c.capMin = p.f64();
        c.demand = p.f64();
        c.request = p.f64();
        if (!p.ok())
            return false;
        // NodeMetrics invariant: strictly descending priorities.
        if (!first && c.priority >= prev)
            return false;
        first = false;
        prev = c.priority;
        classes.push_back(c);
    }
    out.metrics.setConstraint(constraint);
    return true;
}

/** Parse a Checkpoint-layout payload; false on malformation. Every
 *  count field is validated against the remaining payload before any
 *  reserve, so hostile lengths cannot drive allocation. */
bool
readCheckpointPayload(Reader &p, CheckpointMsg &out)
{
    out.simNow = p.f64();
    out.rehomeAckEpoch = p.u32();
    const std::size_t count = p.u16();
    if (count > kMaxCheckpointServers)
        return false;
    if (count * kCheckpointServerBytes > p.remaining())
        return false;
    out.servers.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        CheckpointServer srv;
        srv.serverId = p.u32();
        const std::uint8_t flags = p.u8();
        if ((flags & ~0x03u) != 0)
            return false;
        srv.integratorPrimed = (flags & 0x01u) != 0;
        srv.spoPinned = (flags & 0x02u) != 0;
        srv.integratorDc = p.f64();
        srv.demandEstimate = p.f64();
        srv.avgThrottle = p.f64();
        const std::size_t supplies = p.u16();
        if (!p.ok() || supplies > kMaxCheckpointSupplies)
            return false;
        if (supplies * kCheckpointSupplyBytes > p.remaining())
            return false;
        srv.supplies.reserve(supplies);
        for (std::size_t s = 0; s < supplies; ++s) {
            CheckpointSupply sup;
            sup.lastBudget = p.f64();
            sup.share = p.f64();
            sup.avgAc = p.f64();
            srv.supplies.push_back(sup);
        }
        if (!p.ok())
            return false;
        out.servers.push_back(std::move(srv));
    }
    return true;
}

} // namespace

std::vector<std::uint8_t>
encodeMetrics(const FrameMeta &meta, const MetricsMsg &msg)
{
    return sealMetricsPayload(MsgType::Metrics, meta, msg);
}

std::vector<std::uint8_t>
encodePinnedSummary(const FrameMeta &meta, const MetricsMsg &msg)
{
    return sealMetricsPayload(MsgType::PinnedSummary, meta, msg);
}

std::vector<std::uint8_t>
encodeSummary(const FrameMeta &meta, const MetricsMsg &msg)
{
    return sealMetricsPayload(MsgType::Summary, meta, msg);
}

std::vector<std::uint8_t>
encodeBudget(const FrameMeta &meta, const BudgetMsg &msg)
{
    return sealBudgetPayload(MsgType::Budget, meta, msg);
}

std::vector<std::uint8_t>
encodeSpoBudget(const FrameMeta &meta, const BudgetMsg &msg)
{
    return sealBudgetPayload(MsgType::SpoBudget, meta, msg);
}

std::vector<std::uint8_t>
encodeSubBudget(const FrameMeta &meta, const BudgetMsg &msg)
{
    return sealBudgetPayload(MsgType::SubBudget, meta, msg);
}

std::vector<std::uint8_t>
encodeCheckpoint(const FrameMeta &meta, const CheckpointMsg &msg)
{
    return sealCheckpointPayload(MsgType::Checkpoint, meta, msg);
}

std::vector<std::uint8_t>
encodeRehome(const FrameMeta &meta, const CheckpointMsg &msg)
{
    return sealCheckpointPayload(MsgType::Rehome, meta, msg);
}

std::vector<std::uint8_t>
encodeHeartbeat(const FrameMeta &meta)
{
    return seal(MsgType::Heartbeat, meta, 0, [](Writer &) {});
}

void
encodeMetrics(const FrameMeta &meta, const MetricsMsg &msg,
              std::vector<std::uint8_t> &out)
{
    sealMetricsPayload(MsgType::Metrics, meta, msg, out);
}

void
encodeSummary(const FrameMeta &meta, const MetricsMsg &msg,
              std::vector<std::uint8_t> &out)
{
    sealMetricsPayload(MsgType::Summary, meta, msg, out);
}

void
encodeBudget(const FrameMeta &meta, const BudgetMsg &msg,
             std::vector<std::uint8_t> &out)
{
    sealBudgetPayload(MsgType::Budget, meta, msg, out);
}

void
encodeSubBudget(const FrameMeta &meta, const BudgetMsg &msg,
                std::vector<std::uint8_t> &out)
{
    sealBudgetPayload(MsgType::SubBudget, meta, msg, out);
}

void
encodeHeartbeat(const FrameMeta &meta, std::vector<std::uint8_t> &out)
{
    seal(MsgType::Heartbeat, meta, 0, [](Writer &) {}, out);
}

std::vector<std::uint8_t>
encodeMembershipDelta(const FrameMeta &meta,
                      const MembershipDeltaMsg &msg)
{
    if (msg.entries.size() > kMaxMembershipEntries) {
        util::fatal("wire: membership delta with %zu entries exceeds "
                    "the %zu-entry bound",
                    msg.entries.size(), kMaxMembershipEntries);
    }
    return seal(MsgType::MembershipDelta, meta,
                kMembershipDeltaFixedBytes
                    + msg.entries.size() * kMembershipEntryBytes,
                [&](Writer &p) {
                    p.u32(msg.generation);
                    p.u16(static_cast<std::uint16_t>(msg.entries.size()));
                    for (const MembershipEntry &entry : msg.entries) {
                        p.u16(entry.endpoint);
                        p.u8(static_cast<std::uint8_t>(entry.state));
                        p.u32(entry.sinceGeneration);
                    }
                });
}

std::vector<std::uint8_t>
encodeMembershipAck(const FrameMeta &meta, const MembershipAckMsg &msg)
{
    return seal(MsgType::MembershipAck, meta, kMembershipAckBytes,
                [&](Writer &p) {
                    p.u32(msg.generation);
                    p.u16(msg.endpoint);
                    p.u8(static_cast<std::uint8_t>(msg.state));
                });
}

std::optional<Frame>
decodeFrame(const std::vector<std::uint8_t> &bytes)
{
    Frame frame;
    if (!decodeFrame(bytes, frame))
        return std::nullopt;
    return frame;
}

bool
decodeFrame(const std::vector<std::uint8_t> &bytes, Frame &frame)
{
    if (bytes.size() < kHeaderSize + kCrcSize)
        return false;
    if (bytes.size() > kMaxFrameBytes)
        return false;

    Reader header(bytes.data(), kHeaderSize);
    if (header.u16() != kWireMagic)
        return false;
    const std::uint8_t version = header.u8();
    if (version != kWireVersion && version != kWireCompatVersion)
        return false;
    const std::uint8_t raw_type = header.u8();

    // Every payload back to its default, keeping the storage.
    frame.metrics.tree = 0;
    frame.metrics.edgeNode = 0;
    frame.metrics.metrics.clear();
    frame.budget = BudgetMsg{};
    frame.checkpoint.simNow = 0.0;
    frame.checkpoint.rehomeAckEpoch = 0;
    frame.checkpoint.servers.clear();
    frame.membershipDelta.generation = 0;
    frame.membershipDelta.entries.clear();
    frame.membershipAck = MembershipAckMsg{};
    frame.trace.reset();
    frame.type = MsgType::Heartbeat;
    frame.wireVersion = version;
    frame.sender = header.u16();
    frame.epoch = header.u32();
    frame.seq = header.u32();
    // Hostile length fields are rejected here, before the CRC pass and
    // before any payload parsing allocates from them. The trace
    // context is all-or-nothing: any length other than absent (0) or
    // complete (kTraceContextBytes) is malformed.
    const std::size_t payload_size = header.u16();
    const std::size_t ctx_size = header.u8();
    if (payload_size > kMaxPayloadBytes)
        return false;
    if (ctx_size != 0 && ctx_size != kTraceContextBytes)
        return false;
    if (bytes.size() != kHeaderSize + ctx_size + payload_size + kCrcSize)
        return false;

    const std::size_t covered = kHeaderSize + ctx_size + payload_size;
    Reader crc_reader(bytes.data() + covered, kCrcSize);
    if (crc32(bytes.data(), covered) != crc_reader.u32())
        return false;

    if (ctx_size == kTraceContextBytes) {
        Reader ctx(bytes.data() + kHeaderSize, ctx_size);
        TraceContext trace;
        trace.traceId = ctx.u16();
        trace.originTier = ctx.u8();
        trace.sendMs = ctx.f64();
        frame.trace = trace;
    }

    Reader p(bytes.data() + kHeaderSize + ctx_size, payload_size);
    switch (raw_type) {
      case static_cast<std::uint8_t>(MsgType::Metrics):
      case static_cast<std::uint8_t>(MsgType::PinnedSummary):
      case static_cast<std::uint8_t>(MsgType::Summary):
        frame.type = static_cast<MsgType>(raw_type);
        if (!readMetricsPayload(p, frame.metrics))
            return false;
        break;
      case static_cast<std::uint8_t>(MsgType::Budget):
      case static_cast<std::uint8_t>(MsgType::SpoBudget):
      case static_cast<std::uint8_t>(MsgType::SubBudget):
        frame.type = static_cast<MsgType>(raw_type);
        frame.budget.tree = p.u16();
        frame.budget.edgeNode = p.u32();
        frame.budget.budget = p.f64();
        break;
      case static_cast<std::uint8_t>(MsgType::Checkpoint):
      case static_cast<std::uint8_t>(MsgType::Rehome):
        frame.type = static_cast<MsgType>(raw_type);
        if (!readCheckpointPayload(p, frame.checkpoint))
            return false;
        break;
      case static_cast<std::uint8_t>(MsgType::Heartbeat):
        frame.type = MsgType::Heartbeat;
        break;
      case static_cast<std::uint8_t>(MsgType::MembershipDelta):
        // Membership types were introduced with v6: a v5 header
        // carrying one is a forgery or corruption, not legitimate skew.
        if (version < kWireVersion)
            return false;
        frame.type = MsgType::MembershipDelta;
        if (!readMembershipDeltaPayload(p, frame.membershipDelta))
            return false;
        break;
      case static_cast<std::uint8_t>(MsgType::MembershipAck):
        if (version < kWireVersion)
            return false;
        frame.type = MsgType::MembershipAck;
        if (!readMembershipAckPayload(p, frame.membershipAck))
            return false;
        break;
      default:
        return false;
    }
    return p.ok() && p.remaining() == 0;
}

} // namespace capmaestro::net
