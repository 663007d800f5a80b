/**
 * @file
 * Allocation guard for the rt hot path: once warm, a WorkerHost period
 * allocates next to nothing per hosted leaf. The binary replaces the
 * global operator new with a counting one, runs the depth-4 scenario
 * (tests/test_support.hh) and counts heap allocations over 20 periods
 * after 5 warm-up periods:
 *  - as one WorkerHost over a lossless SimTransport (every frame is
 *    co-hosted), and
 *  - split over two WorkerHosts on 127.0.0.1 UDP, one thread each
 *    (the cut links go through the kernel, the rest stays in memory).
 *    Skipped under CAPMAESTRO_NO_NET=1.
 *
 * The bound, 8 allocations per hosted leaf per period, is what a
 * steady-state period may spend on the transport's own queues and
 * on one-off growth; every role, codec and plant buffer is reused.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "config/loader.hh"
#include "core/tree_plan.hh"
#include "net/transport.hh"
#include "net/udp_transport.hh"
#include "rt/host.hh"
#include "test_support.hh"
#include "util/json.hh"

namespace {

std::atomic<std::size_t> g_allocs{0};

void *
countedAlloc(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace capmaestro;

namespace {

constexpr std::size_t kWarmupPeriods = 5;
constexpr std::size_t kMeasuredPeriods = 20;
constexpr double kMaxAllocsPerLeafPeriod = 8.0;
constexpr std::uint64_t kSeed = 9;

/** The depth-4 scenario with deadlines no lossless run reaches. */
config::LoadedScenario
loadScenario()
{
    auto scenario = config::loadScenario(
        util::parseJson(test_support::depth4Scenario()));
    scenario.service.protocol.gatherDeadlineMs = 5000.0;
    scenario.service.protocol.budgetDeadlineMs = 5000.0;
    return scenario;
}

/** Peers for every worker of the depth-4 plan, all in process 0. */
config::WorkerPeers
depth4Peers()
{
    config::WorkerPeers peers;
    peers.aggLevels = {1, 2};
    const auto plan = core::TreePlan::build(*loadScenario().system,
                                            peers.aggLevels);
    for (std::uint32_t e = 0; e < plan.workers.size(); ++e)
        peers.peers[e] = net::UdpPeer{"127.0.0.1", 0};
    return peers;
}

} // namespace

TEST(AllocBudget, OneHostOverSimTransport)
{
    net::SimTransport net;
    rt::WorkerHost host(loadScenario(), depth4Peers(), /*process=*/0,
                        kSeed, net);
    ASSERT_EQ(host.runPeriods(kWarmupPeriods), kWarmupPeriods);
    const std::size_t leaves = host.plan().leafWorkers;
    ASSERT_GT(leaves, 0u);

    const std::size_t before = g_allocs.load();
    ASSERT_EQ(host.runPeriods(kMeasuredPeriods), kMeasuredPeriods);
    const std::size_t allocs = g_allocs.load() - before;

    const double per_leaf =
        static_cast<double>(allocs)
        / static_cast<double>(leaves * kMeasuredPeriods);
    EXPECT_LE(per_leaf, kMaxAllocsPerLeafPeriod)
        << allocs << " allocations over " << kMeasuredPeriods
        << " periods and " << leaves << " leaves";
    EXPECT_EQ(host.stats().defaultBudgets, 0u);
    EXPECT_EQ(host.stats().staleReuses, 0u);
}

TEST(AllocBudget, TwoHostsOverUdp)
{
    if (std::getenv("CAPMAESTRO_NO_NET") != nullptr)
        GTEST_SKIP() << "CAPMAESTRO_NO_NET is set";
    config::WorkerPeers peers = depth4Peers();
    const auto plan =
        core::TreePlan::build(*loadScenario().system, peers.aggLevels);
    // Leaves in two contiguous halves, each interior worker with its
    // first child: the cut runs through the tree's upper tiers.
    for (std::uint32_t e = 0; e < plan.workers.size(); ++e) {
        peers.processOf[e] =
            e < plan.leafWorkers
                ? static_cast<std::uint32_t>(2 * e / plan.leafWorkers)
                : peers.processOf.at(plan.workers[e].children.front());
    }

    std::vector<std::unique_ptr<rt::WorkerHost>> hosts;
    for (std::uint32_t p = 0; p < 2; ++p)
        hosts.push_back(
            std::make_unique<rt::WorkerHost>(loadScenario(), peers, p, kSeed));
    for (auto &dst : hosts) {
        for (auto &src : hosts) {
            if (dst == src)
                continue;
            for (const auto ep : src->endpoints()) {
                dst->udp()->setPeer(
                    ep, net::UdpPeer{"127.0.0.1", src->udp()->boundPort(ep)});
            }
        }
    }

    // Both hosts finish their warm-up before the window opens, and
    // both finish the window before it closes.
    std::size_t before = 0;
    std::size_t after = 0;
    std::barrier sync(2);
    auto run = [&](rt::WorkerHost &host, bool counter) {
        host.runPeriods(kWarmupPeriods);
        sync.arrive_and_wait();
        if (counter)
            before = g_allocs.load();
        sync.arrive_and_wait();
        host.runPeriods(kMeasuredPeriods);
        sync.arrive_and_wait();
        if (counter)
            after = g_allocs.load();
    };
    std::thread other(run, std::ref(*hosts[1]), false);
    run(*hosts[0], true);
    other.join();

    const double per_leaf =
        static_cast<double>(after - before)
        / static_cast<double>(plan.leafWorkers * kMeasuredPeriods);
    EXPECT_LE(per_leaf, kMaxAllocsPerLeafPeriod)
        << after - before << " allocations over " << kMeasuredPeriods
        << " periods and " << plan.leafWorkers << " leaves";
    for (const auto &host : hosts) {
        EXPECT_EQ(host->lastEpoch(), kWarmupPeriods + kMeasuredPeriods);
        EXPECT_EQ(host->stats().defaultBudgets, 0u);
        EXPECT_GT(host->transport().stats().framesSent, 0u);
    }
}
