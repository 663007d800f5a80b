/**
 * @file
 * The one send/receive path of both rt engines (rt::RoleTable). A
 * table-driven pin of where route() places every frame — by message
 * type, addressed role (leaf, interior aggregator, root), sender (the
 * role's plan parent, its own child, anyone else) and epoch (current,
 * next, older) — and which RuntimeStats counters each placement moves;
 * then what the engines do with it: a WorkerHost holds a next-epoch
 * frame back, and a root on either engine books a MembershipAck.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "config/loader.hh"
#include "core/events.hh"
#include "membership/table.hh"
#include "net/transport.hh"
#include "net/wire.hh"
#include "rt/host.hh"
#include "rt/observe.hh"
#include "rt/roles.hh"
#include "rt/stats.hh"
#include "rt/worker_runtime.hh"
#include "test_support.hh"
#include "util/json.hh"

using namespace capmaestro;
using rt::RoleTable;
using Routed = RoleTable::Routed;
using net::MsgType;

namespace {

/** Epoch every role of the fixture is in. */
constexpr std::uint32_t kEpoch = 5;

/** Peer table for depth4Scenario() cut at @p agg_levels. */
config::WorkerPeers
peersOf(std::vector<std::uint32_t> agg_levels, std::uint32_t workers)
{
    config::WorkerPeers peers;
    peers.periodMs = 1000.0;
    peers.originMs = 1;
    peers.aggLevels = std::move(agg_levels);
    for (std::uint32_t e = 0; e < workers; ++e)
        peers.peers[e] = net::UdpPeer{"127.0.0.1", 0};
    return peers;
}

config::LoadedScenario
loadDepth4()
{
    return config::loadScenario(
        util::parseJson(test_support::depth4Scenario()));
}

/** One table hosting every endpoint of the depth-3 cut of
 *  depth4Scenario() (leaves 0-7, rows 8-11, root 12), every role
 *  opened at kEpoch. */
struct Fixture
{
    Fixture()
        : scenario(loadDepth4()),
          roles(scenario, peersOf({1}, 13),
                {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 1, stats,
                events, obs)
    {
        for (RoleTable::Leaf &leaf : roles.leaves())
            leaf.role.advance(kEpoch);
        for (RoleTable::Aggregator &agg : roles.aggregators())
            agg.role.beginEpoch(kEpoch);
    }

    config::LoadedScenario scenario;
    rt::RuntimeStats stats;
    core::EventLog events;
    rt::Observability obs{stats, events};
    RoleTable roles;
};

enum class Role { Leaf, Interior, Root };
enum class From { Parent, Child, Other };
enum class When { Current, Next, Older };

const char *
name(Role r)
{
    return r == Role::Leaf ? "leaf" : r == Role::Interior ? "interior"
                                                          : "root";
}
const char *
name(From f)
{
    return f == From::Parent ? "parent" : f == From::Child ? "child"
                                                           : "other";
}
const char *
name(When w)
{
    return w == When::Current ? "current" : w == When::Next ? "next"
                                                            : "older";
}

/** The addressed endpoint: leaf 0, its row aggregator 8, the root. */
std::uint32_t
addressed(Role role)
{
    return role == Role::Leaf ? 0 : role == Role::Interior ? 8 : 12;
}

/**
 * The sender, as a plan endpoint: leaf 0's parent is row 8 and it has
 * no child (the root is its "other"); row 8's parent is the root, its
 * child leaf 0, its "other" row 9; the root has no parent, its child
 * is row 8 and its "other" leaf 0. Returns false when the role has
 * no such sender.
 */
bool
senderOf(Role role, From from, std::uint32_t &ep)
{
    static const std::uint32_t table[3][3] = {
        {8, ~0u, 12}, {12, 0, 9}, {~0u, 8, 0}};
    ep = table[static_cast<int>(role)][static_cast<int>(from)];
    return ep != ~0u;
}

std::uint16_t
wireId(std::uint32_t ep)
{
    return ep == 12 ? net::kRoomSender : static_cast<std::uint16_t>(ep);
}

std::uint32_t
epochOf(When when)
{
    return when == When::Current ? kEpoch
           : when == When::Next  ? kEpoch + 1
                                 : kEpoch - 1;
}

/** A generation-2 snapshot (leaf 2 Draining). */
net::MembershipDeltaMsg
drainDelta()
{
    auto table = membership::MembershipTable::allLive(13);
    table.beginDrain(2);
    return table.toDelta();
}

/** A well-formed frame of @p type from @p from to @p to: up-frames
 *  carry the sender's station, down-frames the addressee's. */
std::vector<std::uint8_t>
frameOf(MsgType type, const core::TreePlan &plan, std::uint32_t from,
        std::uint32_t to, std::uint32_t epoch)
{
    const net::FrameMeta meta(wireId(from), epoch, 0);
    net::MetricsMsg up;
    up.tree = 0;
    up.edgeNode =
        static_cast<std::uint32_t>(plan.workers[from].stations.at(0));
    net::BudgetMsg down;
    down.tree = 0;
    down.edgeNode =
        static_cast<std::uint32_t>(plan.workers[to].stations.at(0));
    down.budget = 100.0;
    switch (type) {
    case MsgType::Metrics:
        return net::encodeMetrics(meta, up);
    case MsgType::Summary:
        return net::encodeSummary(meta, up);
    case MsgType::Budget:
        return net::encodeBudget(meta, down);
    case MsgType::SubBudget:
        return net::encodeSubBudget(meta, down);
    case MsgType::Heartbeat:
        return net::encodeHeartbeat(meta);
    case MsgType::Checkpoint:
        return net::encodeCheckpoint(meta, {});
    case MsgType::Rehome:
        return net::encodeRehome(meta, {});
    case MsgType::MembershipDelta:
        return net::encodeMembershipDelta(meta, drainDelta());
    case MsgType::MembershipAck: {
        net::MembershipAckMsg ack;
        ack.generation = 2;
        ack.endpoint = wireId(from);
        return net::encodeMembershipAck(meta, ack);
    }
    default:
        ADD_FAILURE() << "no builder for this type";
        return {};
    }
}

/** The routing rule (roles.hh), restated case by case. */
Routed
expectedRoute(MsgType type, Role role, From from, When when)
{
    const bool from_root = (role == Role::Leaf && from == From::Other)
                           || (role == Role::Interior
                               && from == From::Parent);
    // The membership plane is epoch-free: only the root announces,
    // and the root takes no snapshot; acks are the root's.
    if (type == MsgType::MembershipDelta)
        return from_root && role != Role::Root ? Routed::Adopted
                                               : Routed::Orphan;
    if (type == MsgType::MembershipAck)
        return role == Role::Root ? Routed::Membership : Routed::Orphan;
    // Only the parent's Heartbeat is a beacon, whatever its epoch.
    if (type == MsgType::Heartbeat && from == From::Parent)
        return Routed::Beacon;
    if (when == When::Next)
        return Routed::Later;
    if (role == Role::Leaf) {
        return type == MsgType::Rehome && from == From::Parent
                       && when == When::Current
                   ? Routed::Rehome
                   : Routed::Leaf;
    }
    return type == MsgType::SubBudget ? Routed::Down : Routed::Up;
}

/** The counters the placement moves (every other stays put). */
std::map<std::string, std::size_t>
expectedCounters(MsgType type, Role role, From from, When when,
                 Routed routed)
{
    const bool current = when == When::Current;
    switch (routed) {
    case Routed::Orphan:
        return {{"orphanFrames", 1}};
    case Routed::Adopted:
        return {{"membershipDeltasApplied", 1}, {"membershipAcksSent", 1}};
    case Routed::Rehome:
        // A young instance replays the (empty, finite) checkpoint.
        return {{"rehomesApplied", 1}};
    case Routed::Leaf:
        // The leaf takes a Budget of this epoch from its plan parent.
        if (type == MsgType::Budget && current && from == From::Parent)
            return {{"budgetsApplied", 1}};
        return {{"orphanFrames", 1}};
    case Routed::Down:
        if (role == Role::Interior && from == From::Parent && current)
            return {{"subBudgetsApplied", 1}};
        return {{"orphanFrames", 1}};
    case Routed::Up: {
        // A child's Checkpoint is taken (its parent's supervisor
        // stores it); its metrics only in the child's own kind
        // (Metrics from a leaf child, Summary from an aggregator
        // child). Nothing counts them. A child's Heartbeat is an
        // orphan: only a parent sends one.
        const MsgType metrics =
            role == Role::Interior ? MsgType::Metrics : MsgType::Summary;
        if (from == From::Child && current
            && (type == metrics || type == MsgType::Checkpoint))
            return {};
        return {{"orphanFrames", 1}};
    }
    default:
        return {}; // Beacon, Membership, Later: the table counts nothing
    }
}

std::map<std::string, std::size_t>
delta(const rt::RuntimeStats &before, const rt::RuntimeStats &after)
{
    std::map<std::string, std::size_t> moved;
    for (const rt::StatField &field : rt::kStatFields) {
        if (after.*field.member != before.*field.member)
            moved[field.name] = after.*field.member - before.*field.member;
    }
    return moved;
}

} // namespace

TEST(RoleTable, RoutesEveryFrameByTypeRoleSenderAndEpoch)
{
    const MsgType types[] = {
        MsgType::Metrics,       MsgType::Summary,
        MsgType::Budget,        MsgType::SubBudget,
        MsgType::Heartbeat,     MsgType::Checkpoint,
        MsgType::Rehome,        MsgType::MembershipDelta,
        MsgType::MembershipAck,
    };
    std::size_t cases = 0;
    std::map<Routed, std::size_t> seen;
    for (const MsgType type : types) {
        for (const Role role : {Role::Leaf, Role::Interior, Role::Root}) {
            for (const From from :
                 {From::Parent, From::Child, From::Other}) {
                std::uint32_t sender = 0;
                if (!senderOf(role, from, sender))
                    continue;
                for (const When when :
                     {When::Current, When::Next, When::Older}) {
                    const std::string what =
                        std::string(name(role)) + " <- "
                        + name(from) + " type "
                        + std::to_string(static_cast<int>(type)) + " "
                        + name(when);
                    Fixture fx;
                    const std::uint32_t to = addressed(role);
                    const auto bytes =
                        frameOf(type, fx.roles.plan(), sender, to,
                                epochOf(when));
                    const rt::RuntimeStats before = fx.stats;
                    RoleTable::Sends out;
                    const Routed routed =
                        fx.roles.receive(to, bytes, kEpoch, out);
                    const Routed want =
                        expectedRoute(type, role, from, when);
                    EXPECT_EQ(static_cast<int>(routed),
                              static_cast<int>(want))
                        << what;
                    EXPECT_EQ(delta(before, fx.stats),
                              expectedCounters(type, role, from, when,
                                               want))
                        << what;
                    // Only an adopted snapshot is answered: one ack,
                    // from the addressee to the root.
                    ASSERT_EQ(out.size(), want == Routed::Adopted ? 1u : 0u)
                        << what;
                    if (!out.empty()) {
                        EXPECT_EQ(out[0].from, to) << what;
                        EXPECT_EQ(out[0].to, 12u) << what;
                    }
                    if (want == Routed::Beacon) {
                        const std::uint32_t beacon =
                            role == Role::Leaf
                                ? fx.roles.leaves()[0].beaconEpoch
                                : fx.roles.aggregators()[0].beaconEpoch;
                        EXPECT_EQ(beacon, epochOf(when)) << what;
                    }
                    ++seen[routed];
                    ++cases;
                }
            }
        }
    }
    EXPECT_EQ(cases, 9u * 7u * 3u);
    // Every placement but a decode failure and a re-broadcast occurs.
    for (const Routed r :
         {Routed::Orphan, Routed::Leaf, Routed::Rehome, Routed::Up,
          Routed::Down, Routed::Beacon, Routed::Adopted, Routed::Membership,
          Routed::Later})
        EXPECT_GT(seen[r], 0u) << static_cast<int>(r);
}

TEST(RoleTable, CorruptBytesAreCountedAndGoNowhere)
{
    Fixture fx;
    RoleTable::Sends out;
    const std::vector<std::uint8_t> junk{0xde, 0xad, 0xbe, 0xef};
    EXPECT_EQ(fx.roles.receive(0, junk, kEpoch, out), Routed::Corrupt);
    EXPECT_EQ(fx.stats.corruptFrames, 1u);
    EXPECT_EQ(fx.stats.orphanFrames, 0u);
    EXPECT_TRUE(out.empty());
}

TEST(RoleTable, EverySnapshotIsAckedAndOnlyAStaleOneIsNotAdopted)
{
    Fixture fx;
    const auto bytes = frameOf(MsgType::MembershipDelta, fx.roles.plan(),
                               12, 3, kEpoch);
    const auto stale = net::encodeMembershipDelta(
        net::FrameMeta(net::kRoomSender, kEpoch, 0),
        membership::MembershipTable::allLive(13).toDelta());
    RoleTable::Sends out;
    EXPECT_EQ(fx.roles.receive(3, bytes, kEpoch, out), Routed::Adopted);
    // A re-broadcast of the same generation is adopted again
    // (idempotent); an older one is not, but both are acked.
    EXPECT_EQ(fx.roles.receive(3, bytes, kEpoch, out), Routed::Adopted);
    EXPECT_EQ(fx.roles.receive(3, stale, kEpoch, out), Routed::Membership);
    EXPECT_EQ(fx.stats.membershipDeltasApplied, 2u);
    EXPECT_EQ(fx.stats.membershipAcksSent, 3u);
    EXPECT_EQ(out.size(), 3u);
    EXPECT_EQ(fx.roles.membership().generation(), 2u);
    // A compat-stamped worker adopts but cannot ack.
    Fixture compat;
    compat.roles.setWireVersion(net::kWireCompatVersion);
    RoleTable::Sends none;
    EXPECT_EQ(compat.roles.receive(3, bytes, kEpoch, none),
              Routed::Adopted);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(compat.stats.membershipAcksSent, 0u);
}

TEST(RoleTable, StampsTheRootAsTheRoomAndNumbersEveryFrame)
{
    Fixture fx;
    const net::FrameMeta root = fx.roles.stamp(12, kEpoch);
    const net::FrameMeta row = fx.roles.stamp(8, kEpoch);
    EXPECT_EQ(root.sender, net::kRoomSender);
    EXPECT_EQ(row.sender, 8u);
    EXPECT_EQ(row.seq, root.seq + 1);
    EXPECT_EQ(row.wireVersion, net::kWireVersion);
    // The root's split goes out as the room: feed it one Summary per
    // row (tree 0), close its gather, and frame the SubBudgets.
    RoleTable::Aggregator &top = fx.roles.aggregators().back();
    ASSERT_EQ(top.ep, 12u);
    RoleTable::Sends none;
    for (std::uint32_t row = 8; row < 12; ++row) {
        EXPECT_EQ(fx.roles.receive(12,
                                   frameOf(MsgType::Summary,
                                           fx.roles.plan(), row, 12,
                                           kEpoch),
                                   kEpoch, none),
                  Routed::Up);
    }
    top.role.closeGather(fx.stats, fx.events);
    RoleTable::Sends down;
    fx.roles.frameDown(top, kEpoch, down);
    ASSERT_EQ(down.size(), 4u);
    for (const RoleTable::Send &send : down) {
        const auto frame = net::decodeFrame(send.bytes);
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->type, MsgType::SubBudget);
        EXPECT_EQ(frame->sender, net::kRoomSender);
        EXPECT_EQ(send.from, 12u);
    }
}

// ------------------------------------------------ per-engine hand-backs

// The table hands a frame from a later epoch back to its engine. A
// WorkerHost holds it and routes it when it enters that epoch (a
// finished neighbor can run one epoch ahead): here a Budget for epoch
// 2 that arrives before epoch 1 is neither an orphan in epoch 1 nor
// lost — in epoch 2 it is the first copy the leaf sees, so it wins.
TEST(WorkerHost, HoldsBackANextEpochFrameAndRoutesItThere)
{
    net::SimTransport net;
    rt::WorkerHost host(loadDepth4(), peersOf({}, 9), /*process=*/0,
                        /*seed=*/3, net);
    const core::TreePlan &plan = host.plan();
    const auto [tree, node] = *plan.workers[0].stations.begin();
    net::BudgetMsg early;
    early.tree = static_cast<std::uint16_t>(tree);
    early.edgeNode = static_cast<std::uint32_t>(node);
    early.budget = 123.25;
    net.send(8, 0,
             net::encodeBudget(net::FrameMeta(net::kRoomSender, 2, 0),
                               early));

    ASSERT_EQ(host.runPeriods(1), 1u);
    EXPECT_EQ(host.stats().orphanFrames, 0u);
    EXPECT_NE(host.lastEdgeBudgets().at({tree, node}), 123.25);

    ASSERT_EQ(host.runPeriods(1), 1u);
    EXPECT_EQ(host.stats().orphanFrames, 0u);
    EXPECT_EQ(host.lastEdgeBudgets().at({tree, node}), 123.25);
}

// The table books a MembershipAck at a hosted root itself, on either
// engine: the ack of a Draining unit's generation is the commit gate,
// so the drain commits without the unit ever running. Rack 2 lives in
// another process, so only the booked ack can commit it.
TEST(RoleTable, RootBooksAMembershipAckOnEitherEngine)
{
    auto peers = peersOf({}, 9);
    peers.processOf[2] = 1;
    net::MembershipAckMsg ack;
    ack.endpoint = 2;
    ack.state = net::WireUnitState::Draining;
    const auto check = [&ack](auto &engine, net::SimTransport &net,
                              const auto &run_period) {
        ASSERT_TRUE(engine.membership().holdsRoot());
        ASSERT_TRUE(engine.membership().beginDrain(2));
        ack.generation = engine.membership().generation();
        net.send(2, 8,
                 net::encodeMembershipAck(net::FrameMeta(2, 1, 0), ack));
        run_period();
        EXPECT_EQ(engine.stats().membershipCommits, 1u);
        EXPECT_EQ(engine.membership().state(2),
                  membership::UnitState::Left);
        EXPECT_EQ(engine.stats().orphanFrames, 0u);
    };

    net::SimTransport net;
    rt::WorkerRuntime root(loadDepth4(), peers, /*role=*/8, /*seed=*/3,
                           net);
    check(root, net, [&root] { ASSERT_EQ(root.runPeriods(1), 1u); });

    net::SimTransport host_net;
    rt::WorkerHost host(loadDepth4(), peers, /*process=*/0, /*seed=*/3,
                        host_net);
    check(host, host_net, [&host] { ASSERT_EQ(host.runPeriods(1), 1u); });
}
