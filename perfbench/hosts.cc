/**
 * @file
 * The multi-process workloads, deep-10k and table4-room. One coordinator
 * process forks the rt::WorkerHost processes of a control-tree
 * deployment over loopback UDP (at most nproc of them) and sits in pipe
 * reads while they run. The peer table is the layout
 * `capmaestro_worker --print-peers-template` emits: leaf workers in
 * contiguous chunks, every interior role with its first child — except
 * that table4-room gives the room root a host of its own, so the root's
 * CPU is the measured §5 room-worker cost.
 *
 * Each host talks to the coordinator over a control pipe (in), a result
 * pipe (out) and a shared ready pipe:
 *   1. it builds its scenario and WorkerHost, binding every socket it
 *      hosts, and writes one ready byte;
 *   2. the coordinator answers 'q' (a set-up repetition: exit) or 'g';
 *   3. on 'g' it runs the warm-up periods, stamping CLOCK_MONOTONIC
 *      around each runPeriods(1), and reports the stamps;
 *   4. the coordinator, holding every warm-up report, sends the window length
 *      in periods, sized from the warm-up period time and --seconds;
 *   5. the host runs the window the same way, timing the reference kernel
 *      after every kScaleBlock periods and after the last, then reports
 *      its stamps, kernel times, CPU (less the kernel's), frame and byte
 *      counts, applied edge budgets and (traced) its layer counters and
 *      replays, and exits.
 * The barrier between 3 and 5 holds no frame back: a host reports only
 * after finishing the epoch, so no neighbour waits on it.
 */

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <malloc.h>

#include "bench.hh"
#include "core/tree_plan.hh"
#include "core/worker.hh"
#include "net/udp_transport.hh"
#include "replay.hh"
#include "rt/host.hh"
#include "scenarios.hh"
#include "timed_transport.hh"

namespace perfbench {

using namespace capmaestro;

namespace {

constexpr std::size_t kWarmupPeriods = 10;
/** Set-ups per measurement; setup_s is their median. The traced
 *  measurement only needs its hosts, and reports its set-up for the
 *  tracing cost alone. */
constexpr std::size_t kSetupRounds = 5;
constexpr std::size_t kTracedSetupRounds = 3;
/** The window holds at least this many periods, so that p90 has ten
 *  periods beyond it once the first period of every scaling block but
 *  the first is left out. */
constexpr std::size_t kMinWindowPeriods = 115;
/** Periods of plant replay on host 0 (traced runs). */
constexpr std::size_t kPlantReplayPeriods = 10;
/** Give up on hosts that have not reported by then (run start +). */
constexpr double kRunDeadlineMs = 150000.0;
/** First loopback port, below the usual ephemeral range; the second
 *  base is tried when a host cannot bind the first. */
constexpr int kPortBases[] = {20000, 9000};

/** One multi-process workload. */
struct Job
{
    config::LoadedScenario (*make)(std::uint64_t seed);
    std::vector<std::uint32_t> aggLevels;
    /** Give the root worker a host process of its own. */
    bool rootAlone = false;
};

config::LoadedScenario
makeTable4Room(std::uint64_t seed)
{
    return table4Scenario(seed, table4Params(3, 15), -1.0);
}

// ---------------------------------------------------------------------
// Pipe plumbing.

bool
writeAll(int fd, const void *data, std::size_t n)
{
    const auto *p = static_cast<const char *>(data);
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0 && errno == EINTR)
            continue;
        if (w <= 0)
            return false;
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/** Read exactly @p n bytes, giving up at monotonic time @p deadline. */
bool
readAll(int fd, void *data, std::size_t n, double deadline)
{
    auto *p = static_cast<char *>(data);
    while (n > 0) {
        const double left = deadline - monoMs();
        if (left <= 0.0)
            return false;
        pollfd pfd{fd, POLLIN, 0};
        const int r =
            ::poll(&pfd, 1, static_cast<int>(std::min(left, 1e6)) + 1);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false;
        const ssize_t got = ::read(fd, p, n);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        p += got;
        n -= static_cast<std::size_t>(got);
    }
    return true;
}

/** A length-prefixed message of trivially copyable values. */
class Message
{
  public:
    template <class T>
    void put(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto *p = reinterpret_cast<const char *>(&v);
        buf_.insert(buf_.end(), p, p + sizeof(T));
    }

    template <class T>
    void putVec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        put<std::uint64_t>(v.size());
        const auto *p = reinterpret_cast<const char *>(v.data());
        buf_.insert(buf_.end(), p, p + v.size() * sizeof(T));
    }

    bool send(int fd) const
    {
        const std::uint64_t n = buf_.size();
        return writeAll(fd, &n, sizeof(n)) && writeAll(fd, buf_.data(), n);
    }

    bool recv(int fd, double deadline)
    {
        std::uint64_t n = 0;
        if (!readAll(fd, &n, sizeof(n), deadline) || n > (1ull << 30))
            return false;
        buf_.resize(n);
        pos_ = 0;
        return readAll(fd, buf_.data(), n, deadline);
    }

    template <class T>
    T get()
    {
        T v{};
        if (pos_ + sizeof(T) > buf_.size()) {
            ok_ = false;
            return v;
        }
        std::memcpy(&v, buf_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

    template <class T>
    std::vector<T> getVec()
    {
        const auto n = get<std::uint64_t>();
        if (!ok_ || n > (buf_.size() - pos_) / sizeof(T)) {
            ok_ = false;
            return {};
        }
        std::vector<T> v(n);
        std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(T));
        pos_ += n * sizeof(T);
        return v;
    }

    bool ok() const { return ok_; }

  private:
    std::vector<char> buf_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

// ---------------------------------------------------------------------
// What a host reports.

/** Fixed part of a host's final report. */
struct HostTotals
{
    std::uint64_t periodsRun = 0;
    std::uint64_t budgetsApplied = 0;
    std::uint64_t defaults = 0;
    std::uint64_t stale = 0;
    std::uint64_t lost = 0;
    std::uint64_t orphans = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t catchUps = 0;
    /** Window deltas. */
    std::uint64_t windowFrames = 0;
    std::uint64_t windowBytes = 0;
    std::uint64_t windowFallbacks = 0;
    std::uint64_t windowRetries = 0;
    double userUs = 0.0;
    double sysUs = 0.0;
    double maxRssKb = 0.0;
    /** Sum of the window's runPeriods(1) wall times. */
    double runWallMs = 0.0;
    /** Traced runs only. */
    TimedTransport::Counters layer{};
    CodecTiming codec{};
    double plantUsPerPeriod = 0.0;
};

struct EdgeBudget
{
    std::uint64_t tree = 0;
    std::int64_t node = 0;
    double watts = 0.0;
};

/** Everything the coordinator knows about the deployment it launches. */
struct Layout
{
    config::WorkerPeers peers;
    core::TreePlan plan;
    std::vector<Watts> rootBudgets;
    std::map<std::pair<std::size_t, topo::NodeId>, Watts> edgeLimit;
    std::size_t servers = 0;
    std::uint32_t rootHost = 0;
};

Layout
buildLayout(const Job &job, std::uint64_t seed, std::uint32_t hosts,
            int port_base)
{
    Layout out;
    {
        const auto scenario = job.make(seed);
        const auto &system = *scenario.system;
        out.plan = core::TreePlan::build(system, job.aggLevels);
        out.rootBudgets = scenario.rootBudgets;
        out.servers = scenario.servers.size();
        for (const auto &edges :
             core::DistributedControlPlane::partitionEdges(system)) {
            for (const auto &[tree, node] : edges)
                out.edgeLimit[{tree, node}] =
                    system.tree(tree).node(node).limit();
        }
    }
    // The hosts inherit this process's pages: hand the scenario's
    // memory back so their resident sets start from the same baseline.
    ::malloc_trim(0);

    const core::TreePlan &plan = out.plan;
    config::WorkerPeers &peers = out.peers;
    peers.periodMs = 1000.0;
    peers.aggLevels = job.aggLevels;
    for (std::size_t e = 0; e < plan.workers.size(); ++e) {
        net::UdpPeer peer;
        peer.host = "127.0.0.1";
        peer.port =
            static_cast<std::uint16_t>(port_base + static_cast<int>(e));
        peers.peers[static_cast<net::Transport::Endpoint>(e)] = peer;
    }
    const bool root_alone = job.rootAlone && hosts > 1;
    const std::uint32_t leaf_hosts = root_alone ? hosts - 1 : hosts;
    for (std::size_t e = 0; e < plan.workers.size(); ++e) {
        const auto ep = static_cast<net::Transport::Endpoint>(e);
        if (e < plan.leafWorkers) {
            peers.processOf[ep] = static_cast<std::uint32_t>(
                e * leaf_hosts / plan.leafWorkers);
        } else {
            // Tiers are numbered bottom-up, so the first child already
            // has its host.
            peers.processOf[ep] = peers.processOf.at(
                static_cast<net::Transport::Endpoint>(
                    plan.workers[e].children.front()));
        }
    }
    if (root_alone)
        peers.processOf[plan.rootEndpoint()] = hosts - 1;
    out.rootHost = peers.processOf.at(plan.rootEndpoint());
    return out;
}

// ---------------------------------------------------------------------
// The host process.

[[noreturn]] void
hostMain(const Job &job, const Options &opts, const Layout &layout,
         std::uint32_t process, bool traced, int ready_fd, int ctl_fd,
         int res_fd)
{
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    constexpr double kForever = std::numeric_limits<double>::infinity();

    std::unique_ptr<TimedTransport> timed;
    std::unique_ptr<rt::WorkerHost> host;
    {
        auto scenario = job.make(opts.seed);
        if (traced) {
            // Built exactly as WorkerHost builds its own transport.
            net::UdpConfig udp;
            udp.peers = layout.peers.peers;
            udp.local = layout.peers.endpointsOf(process);
            udp.bufferBytes = 4 << 20;
            timed = std::make_unique<TimedTransport>(
                std::make_unique<net::UdpTransport>(std::move(udp)));
            host = std::make_unique<rt::WorkerHost>(
                std::move(scenario), layout.peers, process, opts.seed,
                *timed);
        } else {
            host = std::make_unique<rt::WorkerHost>(
                std::move(scenario), layout.peers, process, opts.seed);
        }
    }
    const char ready = 1;
    char cmd = 0;
    if (!writeAll(ready_fd, &ready, 1)
        || !readAll(ctl_fd, &cmd, 1, kForever) || cmd != 'g')
        ::_exit(0);

    std::vector<double> starts, ends;
    const auto period = [&] {
        const double a = monoMs();
        host->runPeriods(1);
        starts.push_back(a);
        ends.push_back(monoMs());
    };
    for (std::size_t i = 0; i < kWarmupPeriods; ++i)
        period();
    Message warm;
    warm.putVec(starts);
    warm.putVec(ends);
    std::uint64_t window = 0;
    if (!warm.send(res_fd)
        || !readAll(ctl_fd, &window, sizeof(window), kForever))
        ::_exit(3);

    starts.clear();
    ends.clear();
    starts.reserve(window);
    ends.reserve(window);
    const rt::RuntimeStats s0 = host->stats();
    const net::TransportStats t0 = host->transport().stats();
    const TimedTransport::Counters l0 =
        timed ? timed->counters() : TimedTransport::Counters{};
    std::vector<double> kernel_ms;
    double kernel_cpu_us = 0.0;
    const CpuSample c0 = cpuNow();
    for (std::uint64_t i = 0; i < window; ++i) {
        if (timed)
            timed->setCapture(i == window / 2);
        period();
        // Every host is at the same epoch boundary here, so the kernel
        // runs on all of them at once; the next epoch is left out.
        if (i % kScaleBlock == kScaleBlock - 1 || i + 1 == window)
            kernel_ms.push_back(referenceKernelMs(kernel_cpu_us));
    }
    if (timed)
        timed->setCapture(false);
    const CpuSample c1 = cpuNow();
    const rt::RuntimeStats &s1 = host->stats();
    const net::TransportStats &t1 = host->transport().stats();

    HostTotals t;
    t.periodsRun = s1.periodsRun;
    t.budgetsApplied = s1.budgetsApplied;
    t.defaults = s1.defaultBudgets;
    t.stale = s1.staleReuses;
    t.lost = s1.metricsLost;
    t.orphans = s1.orphanFrames;
    t.corrupt = s1.corruptFrames;
    t.catchUps = s1.catchUpPeriods;
    t.windowFrames = t1.framesSent - t0.framesSent;
    t.windowBytes = t1.bytesSent - t0.bytesSent;
    t.windowFallbacks = (s1.defaultBudgets - s0.defaultBudgets)
                        + (s1.staleReuses - s0.staleReuses)
                        + (s1.metricsLost - s0.metricsLost);
    t.windowRetries = s1.retries - s0.retries;
    t.userUs = c1.userUs - c0.userUs - kernel_cpu_us;
    t.sysUs = c1.sysUs - c0.sysUs;
    t.maxRssKb = c1.maxRssKb;
    for (std::size_t i = 0; i < starts.size(); ++i)
        t.runWallMs += ends[i] - starts[i];

    std::vector<EdgeBudget> edges;
    for (const auto &[key, watts] : host->lastEdgeBudgets())
        edges.push_back({key.first, key.second, watts});

    if (timed) {
        const TimedTransport::Counters &l1 = timed->counters();
        t.layer.sendNs = l1.sendNs - l0.sendNs;
        t.layer.sendCalls = l1.sendCalls - l0.sendCalls;
        t.layer.drainNs = l1.drainNs - l0.drainNs;
        t.layer.drainCalls = l1.drainCalls - l0.drainCalls;
        t.layer.drainEmpty = l1.drainEmpty - l0.drainEmpty;
        t.layer.waitNs = l1.waitNs - l0.waitNs;
        t.layer.waitCalls = l1.waitCalls - l0.waitCalls;
        t.codec = replayCodec(timed->captured());
        if (process == 0) {
            std::vector<std::size_t> leaves;
            for (const auto ep : host->endpoints()) {
                if (host->plan().workers[ep].isLeaf())
                    leaves.push_back(ep);
            }
            t.plantUsPerPeriod =
                replayPlants(job.make(opts.seed), leaves,
                             host->lastEdgeBudgets(), opts.seed,
                             kPlantReplayPeriods);
        }
    }

    Message done;
    done.put(t);
    done.putVec(starts);
    done.putVec(ends);
    done.putVec(kernel_ms);
    done.putVec(edges);
    ::_exit(done.send(res_fd) ? 0 : 3);
}

// ---------------------------------------------------------------------
// The coordinator side.

/** Forked hosts and the coordinator's ends of their pipes. */
class Fleet
{
  public:
    Fleet() = default;
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    ~Fleet() { stop(); }

    /** Fork every host and wait until all are bound and ready. */
    bool launch(const Job &job, const Options &opts, const Layout &layout,
                std::uint32_t hosts, bool traced, double deadline)
    {
        int ready[2];
        if (::pipe(ready) != 0)
            return false;
        std::fflush(stdout);
        std::fflush(stderr);
        for (std::uint32_t p = 0; p < hosts; ++p) {
            int ctl[2], res[2];
            if (::pipe(ctl) != 0 || ::pipe(res) != 0)
                return false;
            const pid_t pid = ::fork();
            if (pid < 0)
                return false;
            if (pid == 0) {
                ::close(ready[0]);
                for (const int fd : ctl_)
                    ::close(fd);
                for (const int fd : res_)
                    ::close(fd);
                ::close(ctl[1]);
                ::close(res[0]);
                hostMain(job, opts, layout, p, traced, ready[1], ctl[0],
                         res[1]);
            }
            ::close(ctl[0]);
            ::close(res[1]);
            pids_.push_back(pid);
            ctl_.push_back(ctl[1]);
            res_.push_back(res[0]);
        }
        ::close(ready[1]);

        std::uint32_t got = 0;
        bool ok = true;
        while (ok && got < hosts) {
            char buf[64];
            // Short slices: a host that died before binding leaves the
            // pipe open through its siblings, so poll for exits too.
            const double slice = std::min(deadline, monoMs() + 100.0);
            if (readAll(ready[0], buf, 1, slice))
                ++got;
            else
                ok = monoMs() < deadline && !anyExited();
        }
        ::close(ready[0]);
        return ok;
    }

    /** Send @p cmd ('g' or 'q') to every host. */
    bool command(char cmd)
    {
        bool ok = true;
        for (const int fd : ctl_)
            ok = writeAll(fd, &cmd, 1) && ok;
        return ok;
    }

    bool sendWindow(std::uint64_t periods)
    {
        bool ok = true;
        for (const int fd : ctl_)
            ok = writeAll(fd, &periods, sizeof(periods)) && ok;
        return ok;
    }

    int resultFd(std::size_t i) const { return res_[i]; }

    /** Wait for every host and forget it; true when all exited with
     *  status 0. */
    bool reap()
    {
        bool clean = true;
        for (const pid_t pid : pids_) {
            if (!reaped_.count(pid)) {
                int status = 0;
                while (::waitpid(pid, &status, 0) < 0 && errno == EINTR)
                    ;
                reaped_[pid] = status;
            }
            const int status = reaped_[pid];
            clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        }
        closeFds();
        pids_.clear();
        reaped_.clear();
        return clean;
    }

    /** Kill and reap whatever still runs. */
    void stop()
    {
        for (const pid_t pid : pids_) {
            if (!reaped_.count(pid))
                ::kill(pid, SIGKILL);
        }
        reap();
    }

  private:
    bool anyExited()
    {
        for (const pid_t pid : pids_) {
            if (reaped_.count(pid))
                return true;
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                reaped_[pid] = status;
                return true;
            }
        }
        return false;
    }

    void closeFds()
    {
        for (const int fd : ctl_)
            ::close(fd);
        for (const int fd : res_)
            ::close(fd);
        ctl_.clear();
        res_.clear();
    }

    std::vector<pid_t> pids_;
    std::vector<int> ctl_;
    std::vector<int> res_;
    std::map<pid_t, int> reaped_;
};

/** Per-epoch wall times: earliest host start to latest host end. */
std::vector<double>
epochTimes(const std::vector<std::vector<double>> &starts,
           const std::vector<std::vector<double>> &ends)
{
    std::vector<double> out;
    if (starts.empty())
        return out;
    for (std::size_t i = 0; i < starts[0].size(); ++i) {
        double s = std::numeric_limits<double>::infinity();
        double e = -s;
        for (std::size_t h = 0; h < starts.size(); ++h) {
            s = std::min(s, starts[h][i]);
            e = std::max(e, ends[h][i]);
        }
        out.push_back(e - s);
    }
    return out;
}

/** One measurement: set-ups, warm-up, window, and its metrics. */
struct Measurement
{
    Metrics e2e;
    Metrics layers;
    std::uint64_t attempted = 0;
    std::uint64_t fallbacks = 0;
    double rootCpuMs = 0.0;
    std::vector<std::string> violations;
};

Measurement
measure(const Job &job, const Options &opts, std::uint32_t hosts,
        bool traced, double seconds, std::size_t setup_rounds)
{
    Measurement m;
    const double deadline = startMs() + kRunDeadlineMs;

    std::vector<double> setup_ms;
    Layout layout;
    Fleet fleet;
    for (std::size_t round = 0; round < setup_rounds; ++round) {
        const double t0 =
            round == 0 && !traced ? startMs() : monoMs();
        bool up = false;
        for (const int base : kPortBases) {
            layout = buildLayout(job, opts.seed, hosts, base);
            up = fleet.launch(job, opts, layout, hosts, traced, deadline);
            if (up)
                break;
            fleet.stop();
            if (monoMs() >= deadline)
                break;
        }
        if (!up) {
            m.violations.push_back("hosts failed to start");
            return m;
        }
        setup_ms.push_back(monoMs() - t0);
        if (round + 1 < setup_rounds) {
            fleet.command('q');
            fleet.reap();
        }
    }

    fleet.command('g');
    std::vector<std::vector<double>> starts(hosts), ends(hosts);
    for (std::uint32_t h = 0; h < hosts; ++h) {
        Message warm;
        if (!warm.recv(fleet.resultFd(h), deadline)) {
            m.violations.push_back("host " + std::to_string(h)
                                   + " sent no warm-up report");
            return m;
        }
        starts[h] = warm.getVec<double>();
        ends[h] = warm.getVec<double>();
        if (!warm.ok() || starts[h].size() != kWarmupPeriods
            || ends[h].size() != kWarmupPeriods) {
            m.violations.push_back("host " + std::to_string(h)
                                   + " sent a malformed warm-up report");
            return m;
        }
    }
    // Size the window from the settled half of the warm-up.
    auto warm_times = epochTimes(starts, ends);
    warm_times.erase(warm_times.begin(),
                     warm_times.begin()
                         + static_cast<std::ptrdiff_t>(warm_times.size() / 2));
    const double warm_ms = std::max(median(warm_times), 0.01);
    const auto window = std::max<std::uint64_t>(
        kMinWindowPeriods,
        static_cast<std::uint64_t>(std::ceil(seconds * 1000.0 / warm_ms)));
    fleet.sendWindow(window);

    std::vector<HostTotals> totals(hosts);
    const std::size_t blocks = (window + kScaleBlock - 1) / kScaleBlock;
    std::vector<double> block_kernel_ms(blocks, 0.0);
    std::map<std::pair<std::size_t, topo::NodeId>, Watts> budgets;
    std::size_t edge_reports = 0;
    for (std::uint32_t h = 0; h < hosts; ++h) {
        Message done;
        if (!done.recv(fleet.resultFd(h), deadline)) {
            m.violations.push_back("host " + std::to_string(h)
                                   + " sent no result");
            return m;
        }
        totals[h] = done.get<HostTotals>();
        starts[h] = done.getVec<double>();
        ends[h] = done.getVec<double>();
        const auto kernel_ms = done.getVec<double>();
        for (std::size_t b = 0; b < kernel_ms.size() && b < blocks; ++b)
            block_kernel_ms[b] += kernel_ms[b] / hosts;
        for (const EdgeBudget &e : done.getVec<EdgeBudget>()) {
            budgets[{e.tree, static_cast<topo::NodeId>(e.node)}] = e.watts;
            ++edge_reports;
        }
        if (!done.ok() || starts[h].size() != window
            || ends[h].size() != window || kernel_ms.size() != blocks) {
            m.violations.push_back("host " + std::to_string(h)
                                   + " sent a malformed result");
            return m;
        }
    }
    if (!fleet.reap())
        m.violations.push_back("a host exited with an error");

    // ---- the correctness gate.
    const std::size_t edges = layout.edgeLimit.size();
    const std::uint64_t periods_run = kWarmupPeriods + window;
    HostTotals sum;
    for (const HostTotals &t : totals) {
        if (t.periodsRun != periods_run)
            m.violations.push_back("a host ran " + std::to_string(t.periodsRun)
                                   + " periods, not "
                                   + std::to_string(periods_run));
        sum.budgetsApplied += t.budgetsApplied;
        sum.defaults += t.defaults;
        sum.stale += t.stale;
        sum.lost += t.lost;
        sum.orphans += t.orphans;
        sum.corrupt += t.corrupt;
        sum.catchUps += t.catchUps;
        sum.windowFrames += t.windowFrames;
        sum.windowBytes += t.windowBytes;
        sum.windowFallbacks += t.windowFallbacks;
        sum.windowRetries += t.windowRetries;
        sum.userUs += t.userUs;
        sum.sysUs += t.sysUs;
        sum.maxRssKb = std::max(sum.maxRssKb, t.maxRssKb);
        sum.runWallMs += t.runWallMs;
        sum.layer.sendNs += t.layer.sendNs;
        sum.layer.sendCalls += t.layer.sendCalls;
        sum.layer.drainNs += t.layer.drainNs;
        sum.layer.drainCalls += t.layer.drainCalls;
        sum.layer.drainEmpty += t.layer.drainEmpty;
        sum.layer.waitNs += t.layer.waitNs;
        sum.layer.waitCalls += t.layer.waitCalls;
        sum.codec.frames += t.codec.frames;
        sum.codec.mismatches += t.codec.mismatches;
        sum.codec.decodeNsPerFrame +=
            t.codec.decodeNsPerFrame * static_cast<double>(t.codec.frames);
        sum.codec.encodeNsPerFrame +=
            t.codec.encodeNsPerFrame * static_cast<double>(t.codec.frames);
    }
    if (sum.budgetsApplied != edges * periods_run)
        m.violations.push_back(
            "budgets applied " + std::to_string(sum.budgetsApplied)
            + " != leaves x periods "
            + std::to_string(edges * periods_run));
    const std::pair<const char *, std::uint64_t> zero_counts[] = {
        {"default budgets", sum.defaults},
        {"stale reuses", sum.stale},
        {"lost metrics", sum.lost},
        {"orphan frames", sum.orphans},
        {"corrupt frames", sum.corrupt},
        {"catch-up periods", sum.catchUps},
    };
    for (const auto &[what, count] : zero_counts) {
        if (count != 0)
            m.violations.push_back(std::string(what) + ": "
                                   + std::to_string(count));
    }
    if (edge_reports != edges || budgets.size() != edges)
        m.violations.push_back("edge budgets reported for "
                               + std::to_string(budgets.size()) + " of "
                               + std::to_string(edges) + " edges");
    std::vector<Watts> tree_sum(layout.rootBudgets.size(), 0.0);
    for (const auto &[key, watts] : budgets) {
        const auto limit = layout.edgeLimit.find(key);
        if (limit == layout.edgeLimit.end() || key.first >= tree_sum.size()) {
            m.violations.push_back("budget for an unknown edge");
            continue;
        }
        if (!(watts <= limit->second + 1e-6))
            m.violations.push_back("edge budget above its derated limit");
        tree_sum[key.first] += watts;
    }
    for (std::size_t t = 0; t < tree_sum.size(); ++t) {
        if (!(tree_sum[t] <= layout.rootBudgets[t] * (1.0 + 1e-12) + 1e-6))
            m.violations.push_back("tree " + std::to_string(t)
                                   + " edge budgets exceed the root budget");
    }
    if (sum.codec.mismatches != 0)
        m.violations.push_back("codec replay: "
                               + std::to_string(sum.codec.mismatches)
                               + " frames did not round-trip");

    // ---- metrics.
    // Each block's epochs are scaled by the mean of the hosts' kernel
    // times after it; CPU and set-up time by the mean over the run.
    const auto n = static_cast<double>(window);
    const auto times = epochTimes(starts, ends);
    const auto scaled = atReferenceSpeed(times, block_kernel_ms, true);
    double scaled_sum = 0.0;
    for (const double t : scaled)
        scaled_sum += t;
    double kernel_ms = 0.0;
    for (const double k : block_kernel_ms)
        kernel_ms += k / static_cast<double>(blocks);
    const double cpu_us = sum.userUs + sum.sysUs;
    put(m.e2e, "period_p50_ms", median(scaled), "ms");
    put(m.e2e, "period_p90_ms", nearestRank(scaled, 0.9), "ms");
    put(m.e2e, "periods_per_s",
        static_cast<double>(scaled.size()) / (scaled_sum / 1000.0), "1/s");
    put(m.e2e, "cpu_us_per_server_period",
        cpu_us * kRefKernelMs / kernel_ms
            / (static_cast<double>(layout.servers) * n),
        "us");
    put(m.e2e, "frames_per_period",
        static_cast<double>(sum.windowFrames) / n, "count");
    put(m.e2e, "bytes_per_period", static_cast<double>(sum.windowBytes) / n,
        "B");
    put(m.e2e, "setup_s",
        median(setup_ms) / 1000.0 * kRefKernelMs / kernel_ms, "s");
    put(m.e2e, "peak_rss_mb", sum.maxRssKb / 1024.0, "MB");

    m.attempted = edges * window;
    m.fallbacks = sum.windowFallbacks;
    const HostTotals &root = totals[layout.rootHost];
    m.rootCpuMs = (root.userUs + root.sysUs) / 1000.0 / n;

    put(m.layers, "wall.period_p50_ms", median(times), "ms");
    put(m.layers, "wall.period_p90_ms", nearestRank(times, 0.9), "ms");
    put(m.layers, "host.ref_kernel_ms", kernel_ms, "ms");
    put(m.layers, "fallback_ratio",
        static_cast<double>(m.fallbacks) / static_cast<double>(m.attempted),
        "ratio");
    put(m.layers, "net.retries_per_period",
        static_cast<double>(sum.windowRetries) / n, "count");
    put(m.layers, "core.stale_reuses", static_cast<double>(sum.stale),
        "count");
    put(m.layers, "core.default_budgets", static_cast<double>(sum.defaults),
        "count");
    put(m.layers, "host.sys_share", cpu_us > 0.0 ? sum.sysUs / cpu_us : 0.0,
        "ratio");
    put(m.layers, "rt.root_cpu_ms", m.rootCpuMs, "ms");
    if (traced) {
        const TimedTransport::Counters &l = sum.layer;
        const double per = 1.0 / n;
        put(m.layers, "net.send_us", static_cast<double>(l.sendNs) / 1e3 * per,
            "us");
        put(m.layers, "net.send_calls", static_cast<double>(l.sendCalls) * per,
            "count");
        put(m.layers, "net.drain_us",
            static_cast<double>(l.drainNs) / 1e3 * per, "us");
        put(m.layers, "net.drain_calls",
            static_cast<double>(l.drainCalls) * per, "count");
        put(m.layers, "net.drain_empty_ratio",
            l.drainCalls ? static_cast<double>(l.drainEmpty)
                               / static_cast<double>(l.drainCalls)
                         : 0.0,
            "ratio");
        put(m.layers, "net.wait_us", static_cast<double>(l.waitNs) / 1e3 * per,
            "us");
        put(m.layers, "net.wait_calls", static_cast<double>(l.waitCalls) * per,
            "count");
        put(m.layers, "rt.self_us",
            (sum.runWallMs * 1e3
             - static_cast<double>(l.sendNs + l.drainNs + l.waitNs) / 1e3)
                * per,
            "us");
        const double frames = static_cast<double>(sum.codec.frames);
        put(m.layers, "net.decode_ns_per_frame",
            frames > 0.0 ? sum.codec.decodeNsPerFrame / frames : 0.0, "ns");
        put(m.layers, "net.encode_ns_per_frame",
            frames > 0.0 ? sum.codec.encodeNsPerFrame / frames : 0.0, "ns");
        put(m.layers, "device.plant_us", totals[0].plantUsPerPeriod, "us");
    }
    return m;
}

/** Host processes: four, but never more than this box's processors. */
std::uint32_t
hostCount()
{
    return std::min<std::uint32_t>(4, usableCpus());
}

/** Let every host bind thousands of sockets. */
void
raiseFdLimit()
{
    rlimit rl{};
    if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
        rl.rlim_cur = rl.rlim_max;
        ::setrlimit(RLIMIT_NOFILE, &rl);
    }
}

RunResult
runPlane(const Job &job, const Options &opts)
{
    raiseFdLimit();
    RunResult r;
    r.hostProcesses = hostCount();
    const double untraced_s = opts.trace ? opts.seconds / 2.0 : opts.seconds;
    const Measurement plain =
        measure(job, opts, r.hostProcesses, false, untraced_s, kSetupRounds);
    r.e2e = plain.e2e;
    r.attempted = plain.attempted;
    r.fallbacks = plain.fallbacks;
    r.violations = plain.violations;
    r.layers = plain.layers;
    double root_cpu_ms = plain.rootCpuMs;

    if (opts.trace && r.violations.empty()) {
        const Measurement traced =
            measure(job, opts, r.hostProcesses, true, opts.seconds / 2.0,
                    kTracedSetupRounds);
        r.tracedE2e = traced.e2e;
        r.layers = traced.layers;
        // Wall times and kernel speed belong with the untraced e2e.
        for (const char *name :
             {"wall.period_p50_ms", "wall.period_p90_ms", "host.ref_kernel_ms"})
            r.layers[name] = plain.layers.at(name);
        root_cpu_ms = traced.rootCpuMs;
        for (const auto &v : traced.violations)
            r.violations.push_back("traced: " + v);
        // The decorator must leave the wire untouched.
        for (const char *name : {"frames_per_period", "bytes_per_period"}) {
            const double a = r.e2e[name].value;
            const double b = r.tracedE2e[name].value;
            char line[160];
            std::snprintf(line, sizeof(line),
                          "timing decorator: %s %.1f untraced, %.1f traced",
                          name, a, b);
            r.notes.push_back(line);
            if (a != b && traced.violations.empty())
                r.violations.push_back(std::string("timing decorator changed ")
                                       + name);
        }
    }

    if (job.rootAlone) {
        // §5: the room worker's cost, measured on the running plane,
        // next to the paper's claim and the model the repo used to print.
        core::WorkerCosts costs;
        costs.gatherPerChildUs = 2.0;
        costs.budgetPerChildUs = 2.0;
        core::DeploymentShape at162;
        core::DeploymentShape at500;
        at500.racks = 500;
        char line[256];
        std::snprintf(
            line, sizeof(line),
            "section 5 room worker: measured rt.root_cpu_ms %.2f ms/period "
            "at 162 racks (root alone in host %u); paper: < 300 ms at 500 "
            "racks; modeled core::planWorkers: %.1f ms at 162 racks, "
            "%.1f ms at 500 racks",
            root_cpu_ms, r.hostProcesses - 1,
            core::planWorkers(at162, costs).roomComputeMs,
            core::planWorkers(at500, costs).roomComputeMs);
        r.notes.push_back(line);
    }
    return r;
}

} // namespace

RunResult
runDeep10k(const Options &opts)
{
    static const Job job{deepScenario, deepAggLevels(), false};
    return runPlane(job, opts);
}

RunResult
runTable4Room(const Options &opts)
{
    static const Job job{makeTable4Room, {}, true};
    return runPlane(job, opts);
}

} // namespace perfbench
