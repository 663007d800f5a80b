/**
 * @file
 * Tests for the real-socket transport backend (net/udp_transport):
 * loopback delivery, receive-buffer draining, the hard frame-size cap
 * on both sides of the socket, ephemeral-port plumbing, and the
 * bytesDelivered accounting shared with the sim backend.
 *
 * Every test binds 127.0.0.1 sockets; set CAPMAESTRO_NO_NET=1 to skip
 * the suite on machines where that is not allowed.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>

#include "net/udp_transport.hh"
#include "net/wire.hh"
#include "telemetry/registry.hh"

using namespace capmaestro;

namespace {

#define SKIP_WITHOUT_NET()                                            \
    do {                                                              \
        if (std::getenv("CAPMAESTRO_NO_NET") != nullptr)              \
            GTEST_SKIP() << "CAPMAESTRO_NO_NET is set";               \
    } while (0)

/** Poll until at least @p count frames arrive or ~1 s passes. */
std::vector<std::vector<std::uint8_t>>
pollFor(net::UdpTransport &tp, net::Transport::Endpoint ep,
        std::size_t count)
{
    std::vector<std::vector<std::uint8_t>> got;
    for (int spins = 0; spins < 500 && got.size() < count; ++spins) {
        for (auto &frame : tp.poll(ep))
            got.push_back(std::move(frame));
        if (got.size() < count)
            tp.advanceBy(2.0);
    }
    return got;
}

} // namespace

TEST(UdpTransport, LoopbackRoundTripDeliversIntactFrames)
{
    SKIP_WITHOUT_NET();
    net::UdpTransport tp(net::UdpConfig::loopback(3));

    const auto heartbeat = net::encodeHeartbeat({7, 42, 1});
    net::BudgetMsg msg;
    msg.tree = 1;
    msg.edgeNode = 5;
    msg.budget = 612.5;
    const auto budget = net::encodeBudget({net::kRoomSender, 42, 2}, msg);

    tp.send(0, 2, heartbeat);
    tp.send(2, 0, budget);

    const auto at_room = pollFor(tp, 2, 1);
    ASSERT_EQ(at_room.size(), 1u);
    EXPECT_EQ(at_room[0], heartbeat);

    const auto at_rack = pollFor(tp, 0, 1);
    ASSERT_EQ(at_rack.size(), 1u);
    EXPECT_EQ(at_rack[0], budget);
    const auto frame = net::decodeFrame(at_rack[0]);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->budget.budget, 612.5);
}

TEST(UdpTransport, PollDrainsBurstsCompletely)
{
    SKIP_WITHOUT_NET();
    net::UdpTransport tp(net::UdpConfig::loopback(2));

    constexpr std::size_t kBurst = 64;
    for (std::uint32_t i = 0; i < kBurst; ++i)
        tp.send(0, 1, net::encodeHeartbeat({0, 1, i}));

    const auto got = pollFor(tp, 1, kBurst);
    EXPECT_EQ(got.size(), kBurst);
    EXPECT_EQ(tp.stats().framesDelivered, kBurst);
}

TEST(UdpTransport, OversizedSendIsDroppedNotSent)
{
    SKIP_WITHOUT_NET();
    net::UdpTransport tp(net::UdpConfig::loopback(2));

    std::vector<std::uint8_t> giant(net::kMaxFrameBytes + 1, 0xAB);
    tp.send(0, 1, giant);
    EXPECT_EQ(tp.stats().framesDropped, 1u);
    EXPECT_EQ(tp.poll(1).size(), 0u);

    // At exactly the cap the frame goes through.
    std::vector<std::uint8_t> at_cap(net::kMaxFrameBytes, 0xCD);
    tp.send(0, 1, at_cap);
    const auto got = pollFor(tp, 1, 1);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].size(), net::kMaxFrameBytes);
}

TEST(UdpTransport, SendToUnknownOrUnresolvedPeerIsCountedDropped)
{
    SKIP_WITHOUT_NET();
    net::UdpConfig config = net::UdpConfig::loopback(2);
    config.peers[9] = net::UdpPeer{"127.0.0.1", 0}; // port never set
    net::UdpTransport tp(std::move(config));

    tp.send(0, 7, net::encodeHeartbeat({0, 1, 0})); // not in the table
    tp.send(0, 9, net::encodeHeartbeat({0, 1, 1})); // port 0
    EXPECT_EQ(tp.stats().framesDropped, 2u);
    EXPECT_EQ(tp.stats().framesDelivered, 0u);
}

TEST(UdpTransport, EphemeralPortsResolveAndRewireAcrossTransports)
{
    SKIP_WITHOUT_NET();
    // Two separate transports, as in two worker processes: each binds
    // its own endpoint on port 0, then learns the other's real port.
    net::UdpConfig ca;
    ca.peers[0] = net::UdpPeer{"127.0.0.1", 0};
    ca.peers[1] = net::UdpPeer{"127.0.0.1", 0};
    ca.local = {0};
    net::UdpConfig cb = ca;
    cb.local = {1};
    net::UdpTransport a(std::move(ca));
    net::UdpTransport b(std::move(cb));
    ASSERT_NE(a.boundPort(0), 0);
    ASSERT_NE(b.boundPort(1), 0);
    a.setPeer(1, net::UdpPeer{"127.0.0.1", b.boundPort(1)});
    b.setPeer(0, net::UdpPeer{"127.0.0.1", a.boundPort(0)});

    const auto frame = net::encodeHeartbeat({0, 3, 9});
    a.send(0, 1, frame);
    const auto got = pollFor(b, 1, 1);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], frame);
}

TEST(UdpTransport, MonotonicClockAdvances)
{
    SKIP_WITHOUT_NET();
    net::UdpTransport tp(net::UdpConfig::loopback(1));
    const double before = tp.nowMs();
    tp.advanceBy(15.0);
    EXPECT_GE(tp.nowMs(), before + 14.0);
    const double target = tp.nowMs() + 10.0;
    tp.advanceTo(target);
    EXPECT_GE(tp.nowMs(), target - 0.5);
    tp.advanceTo(0.0); // already past: returns immediately
}

TEST(UdpTransport, BytesDeliveredAccountingMatchesPayloads)
{
    SKIP_WITHOUT_NET();
    net::UdpTransport tp(net::UdpConfig::loopback(2));
    telemetry::Registry registry;
    tp.setTelemetry(&registry);

    std::vector<std::vector<std::uint8_t>> frames;
    frames.push_back(net::encodeHeartbeat({0, 1, 0}));
    net::MetricsMsg msg;
    msg.tree = 0;
    msg.edgeNode = 3;
    msg.metrics.accumulate(1, 250.0, 400.0, 410.0);
    frames.push_back(net::encodeMetrics({0, 1, 1}, msg));
    const std::size_t total = std::accumulate(
        frames.begin(), frames.end(), std::size_t{0},
        [](std::size_t n, const auto &f) { return n + f.size(); });

    for (const auto &frame : frames)
        tp.send(0, 1, frame);
    const auto got = pollFor(tp, 1, frames.size());
    ASSERT_EQ(got.size(), frames.size());

    EXPECT_EQ(tp.stats().bytesSent, total);
    EXPECT_EQ(tp.stats().bytesDelivered, total);
    const std::string prom = registry.renderPrometheus();
    EXPECT_NE(
        prom.find("capmaestro_transport_bytes_delivered_total"),
        std::string::npos);
}

namespace {

/** drain() @p locals until at least @p count frames arrive or ~1 s
 *  passes. */
std::vector<net::Transport::Delivery>
drainFor(net::UdpTransport &tp,
         const std::vector<net::Transport::Endpoint> &locals,
         std::size_t count)
{
    std::vector<net::Transport::Delivery> got;
    for (int spins = 0; spins < 500 && got.size() < count; ++spins) {
        for (auto &delivery : tp.drain(locals))
            got.push_back(std::move(delivery));
        if (got.size() < count)
            tp.advanceBy(2.0);
    }
    return got;
}

} // namespace

TEST(UdpTransport, DrainOverASubsetLeavesTheOtherSocketsQueued)
{
    SKIP_WITHOUT_NET();
    net::UdpTransport tp(net::UdpConfig::loopback(4));
    for (std::uint32_t seq = 0; seq < 3; ++seq) {
        tp.send(0, 1, net::encodeHeartbeat({0, 1, seq}));
        tp.send(0, 3, net::encodeHeartbeat({0, 1, 10 + seq}));
    }

    // Only endpoint 1 is wanted: its three frames come back, in order.
    const auto first = drainFor(tp, {1}, 3);
    ASSERT_EQ(first.size(), 3u);
    for (std::uint32_t seq = 0; seq < 3; ++seq) {
        EXPECT_EQ(first[seq].to, 1u);
        const auto frame = net::decodeFrame(first[seq].frame);
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ(frame->seq, seq);
    }
    // Endpoint 3's socket stayed ready the whole time; a later drain
    // over other locals (a rebuilt lookup) takes its frames.
    EXPECT_TRUE(tp.drain({1}).empty());
    const auto later = drainFor(tp, {0, 1, 2, 3}, 3);
    ASSERT_EQ(later.size(), 3u);
    for (std::uint32_t seq = 0; seq < 3; ++seq) {
        EXPECT_EQ(later[seq].to, 3u);
        EXPECT_EQ(net::decodeFrame(later[seq].frame)->seq, 10 + seq);
    }
    EXPECT_EQ(tp.stats().framesDelivered, 6u);
}

TEST(UdpTransport, DrainTakesMoreThanOneEpollBatchOfReadySockets)
{
    SKIP_WITHOUT_NET();
    // One epoll_wait returns at most 64 ready sockets; 70 ready ones
    // all come back from a single drain.
    constexpr std::uint32_t kEndpoints = 70;
    net::UdpTransport tp(net::UdpConfig::loopback(kEndpoints));
    std::vector<net::Transport::Endpoint> locals;
    for (std::uint32_t ep = 0; ep < kEndpoints; ++ep) {
        locals.push_back(ep);
        tp.send(ep, ep, net::encodeHeartbeat({0, 1, ep}));
    }
    tp.advanceBy(20.0); // loopback delivery is immediate; be generous
    const auto got = tp.drain(locals);
    ASSERT_EQ(got.size(), kEndpoints);
    std::vector<bool> seen(kEndpoints, false);
    for (const auto &delivery : got) {
        ASSERT_LT(delivery.to, kEndpoints);
        EXPECT_FALSE(seen[delivery.to]);
        seen[delivery.to] = true;
        EXPECT_EQ(net::decodeFrame(delivery.frame)->seq, delivery.to);
    }
    EXPECT_TRUE(tp.drain(locals).empty());
}

TEST(SimTransportParity, BytesDeliveredMatchesUdpSemantics)
{
    // The sim backend reports the same statistic with the same
    // meaning: payload bytes handed to poll() callers. (No sockets —
    // runs even under CAPMAESTRO_NO_NET.)
    net::SimTransport tp;
    const auto frame = net::encodeHeartbeat({0, 1, 0});
    tp.send(0, 1, frame);
    tp.send(0, 1, frame);
    tp.advanceBy(1.0);
    const auto got = tp.poll(1);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(tp.stats().bytesDelivered, 2 * frame.size());
    EXPECT_EQ(tp.stats().bytesDelivered, tp.stats().bytesSent);
}
