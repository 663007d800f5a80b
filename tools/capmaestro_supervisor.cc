/**
 * @file
 * capmaestro_supervisor — keeps a whole worker deployment alive on one
 * host (docs/distributed.md failover quickstart). The supervisor
 * fork/execs one capmaestro_worker per endpoint of the peer table's
 * worker plan (core::TreePlan: every rack, any aggregators, the
 * root), then sits in a waitpid loop: a child that exits is restarted
 * with per-child exponential backoff, and the §4.5/checkpoint
 * machinery inside the workers re-homes the restarted process within a
 * few control periods. Every child that supervises leaf children (the
 * root at depth 2, the lowest aggregators in a deep plan)
 * automatically gets --state-dir, so its checkpoint store survives its
 * own restarts.
 *
 * Usage:
 *   capmaestro_supervisor <config.json> --peers=peers.json [options]
 *
 * Options:
 *   --periods=N        pass --periods=N to every worker; the
 *                      supervisor exits when all children have
 *                      completed normally (exit 0) instead of
 *                      restarting them
 *   --seed=N           sensor-noise seed forwarded to workers
 *   --log-dir=DIR      per-child stdout/stderr under DIR (default: a
 *                      mktemp directory, printed at startup)
 *   --worker-bin=PATH  worker binary (default: capmaestro_worker next
 *                      to this executable)
 *
 * Backoff and restart limits come from the optional "supervisor"
 * object in peers.json (config::SupervisorConfig): the first restart
 * waits backoffInitialMs, each subsequent crash doubles the wait up to
 * backoffMaxMs, and a child that stays up for backoffResetAfterMs gets
 * its backoff reset. maxRestarts > 0 caps restarts per child; a child
 * over the cap is abandoned (logged, not respawned).
 *
 * Every spawn is logged as "spawn role=R pid=P restarts=K" on stderr —
 * chaos scripts (scripts/failover_smoke.sh) parse these lines to pick
 * a victim. SIGTERM/SIGINT is forwarded to all children and the
 * supervisor exits after reaping them.
 *
 * The supervisor also drives the elasticity plane (docs/distributed.md,
 * "Online elasticity"). The peers file's "membership" block decides the
 * initial fleet: "absent" slots get no process, "join" slots spawn with
 * --shadow (the worker boots clamped until the root commits it Live).
 * On SIGHUP the supervisor re-reads the peers file, spawns a shadowed
 * worker for every newly joining slot, marks every "drain" slot
 * retiring (its child exits on its own after acking the committed Left
 * state and is never respawned), and forwards the SIGHUP to the root
 * worker, which re-reads the same file and announces the transitions —
 * one file edit plus one signal is a complete join or drain.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "config/loader.hh"
#include "core/tree_plan.hh"
#include "util/json.hh"
#include "util/logging.hh"

using namespace capmaestro;

namespace {

volatile sig_atomic_t g_terminate = 0;
volatile sig_atomic_t g_reload = 0;

extern "C" void
onSignal(int)
{
    g_terminate = 1;
}

extern "C" void
onReload(int)
{
    g_reload = 1;
}

const char *
flagValue(int argc, char **argv, const char *name)
{
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 2; i < argc; ++i) {
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
            return argv[i] + prefix.size();
    }
    return nullptr;
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: capmaestro_supervisor <config.json> --peers=FILE\n"
        "                             [--periods=N] [--seed=N]\n"
        "                             [--log-dir=DIR] "
        "[--worker-bin=PATH]\n");
    std::exit(2);
}

std::uint64_t
monotonicMs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000u
           + static_cast<std::uint64_t>(ts.tv_nsec) / 1000000u;
}

/** Worker binary living next to this executable. */
std::string
siblingWorkerPath()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "capmaestro_worker"; // fall back to PATH lookup
    buf[n] = '\0';
    return (std::filesystem::path(buf).parent_path()
            / "capmaestro_worker")
        .string();
}

/** One supervised child process. */
struct Child
{
    std::uint32_t role = 0;
    pid_t pid = -1;
    /** Completed its --periods run; never restarted. */
    bool finished = false;
    /** Over maxRestarts; never restarted. */
    bool abandoned = false;
    /** Slot not deployed (membership "absent"); no process exists
     *  until a reload moves the slot to "join". */
    bool absent = false;
    /** Next spawn passes --shadow (first boot of a joining slot);
     *  cleared after the spawn so a crash-restart boots normally. */
    bool shadow = false;
    /** Draining: the child exits on its own once it acked Left and is
     *  treated as finished on any exit, never respawned. */
    bool retiring = false;
    /** Supervises leaf children: spawned with --state-dir. */
    bool supervising = false;
    int restarts = 0;
    double backoffMs = 0.0;
    std::uint64_t startedAtMs = 0;
    /** 0 = not waiting; else monotonic ms of the next respawn. */
    std::uint64_t respawnAtMs = 0;
};

struct SpawnArgs
{
    std::string workerBin;
    std::string configPath;
    std::string peersPath;
    std::string logDir;
    std::string stateDir;
    const char *periods = nullptr;
    const char *seed = nullptr;
};

void
spawn(Child &child, const SpawnArgs &args)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        util::fatal("supervisor: fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        // Child: redirect stdout/stderr to per-role logs, exec worker.
        const std::string base =
            args.logDir + "/role" + std::to_string(child.role);
        const int out = ::open((base + ".out").c_str(),
                               O_WRONLY | O_CREAT | O_APPEND, 0644);
        const int err = ::open((base + ".err").c_str(),
                               O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (out >= 0)
            ::dup2(out, STDOUT_FILENO);
        if (err >= 0)
            ::dup2(err, STDERR_FILENO);

        std::vector<std::string> argstrs;
        argstrs.push_back(args.workerBin);
        argstrs.push_back(args.configPath);
        argstrs.push_back("--peers=" + args.peersPath);
        argstrs.push_back("--role=" + std::to_string(child.role));
        if (args.periods != nullptr)
            argstrs.push_back(std::string("--periods=") + args.periods);
        if (args.seed != nullptr)
            argstrs.push_back(std::string("--seed=") + args.seed);
        if (child.supervising && !args.stateDir.empty())
            argstrs.push_back("--state-dir=" + args.stateDir);
        if (child.shadow)
            argstrs.push_back("--shadow");

        std::vector<char *> argv;
        for (std::string &s : argstrs)
            argv.push_back(s.data());
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        std::fprintf(stderr, "supervisor: execv %s failed: %s\n",
                     argv[0], std::strerror(errno));
        std::_Exit(127);
    }
    child.pid = pid;
    child.startedAtMs = monotonicMs();
    child.respawnAtMs = 0;
    std::fprintf(stderr, "spawn role=%u pid=%d restarts=%d%s\n",
                 child.role, static_cast<int>(pid), child.restarts,
                 child.shadow ? " shadow" : "");
    std::fflush(stderr);
    // One shadowed boot per join: a later crash-restart boots with the
    // static all-Live replica — already correct once the join
    // committed, and superseded by the root's ongoing re-broadcast
    // while the adopt is still in flight.
    child.shadow = false;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argv[1][0] == '-')
        usage();
    const char *peers_path = flagValue(argc, argv, "peers");
    if (peers_path == nullptr)
        usage();

    auto scenario = config::loadScenarioFile(argv[1]);
    std::ifstream peers_in(peers_path);
    if (!peers_in)
        util::fatal("cannot read %s", peers_path);
    const std::string peers_text(
        (std::istreambuf_iterator<char>(peers_in)),
        std::istreambuf_iterator<char>());
    const auto peers =
        config::loadWorkerPeers(util::parseJson(peers_text));
    const config::SupervisorConfig &cfg = peers.supervisor;

    const core::TreePlan plan =
        core::TreePlan::build(*scenario.system, peers.aggLevels);
    const std::size_t workers = plan.workers.size();
    if (peers.peers.size() != workers) {
        util::fatal("supervisor: peer table has %zu endpoints; the "
                    "worker plan needs %zu",
                    peers.peers.size(), workers);
    }

    SpawnArgs args;
    const char *worker_bin = flagValue(argc, argv, "worker-bin");
    args.workerBin = worker_bin ? worker_bin : siblingWorkerPath();
    args.configPath = argv[1];
    args.peersPath = peers_path;
    args.periods = flagValue(argc, argv, "periods");
    args.seed = flagValue(argc, argv, "seed");

    const char *log_dir = flagValue(argc, argv, "log-dir");
    if (log_dir != nullptr) {
        args.logDir = log_dir;
        std::error_code ec;
        std::filesystem::create_directories(args.logDir, ec);
        if (ec) {
            util::fatal("cannot create %s: %s", log_dir,
                        ec.message().c_str());
        }
    } else {
        char tmpl[] = "/tmp/capmaestro_supervisor.XXXXXX";
        const char *dir = ::mkdtemp(tmpl);
        if (dir == nullptr)
            util::fatal("mkdtemp failed: %s", std::strerror(errno));
        args.logDir = dir;
    }
    args.stateDir =
        cfg.stateDir.empty() ? args.logDir + "/state" : cfg.stateDir;

    std::fprintf(stderr,
                 "supervisor: %zu rack workers, %zu aggregators + root, "
                 "logs in %s, checkpoint state in %s\n",
                 plan.leafWorkers, workers - plan.leafWorkers - 1,
                 args.logDir.c_str(), args.stateDir.c_str());

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGHUP, onReload);

    const auto in_list = [](const std::vector<std::uint32_t> &list,
                            std::uint32_t role) {
        for (const std::uint32_t ep : list)
            if (ep == role)
                return true;
        return false;
    };

    std::vector<Child> children(workers);
    for (std::size_t e = 0; e < workers; ++e) {
        Child &child = children[e];
        child.role = static_cast<std::uint32_t>(e);
        child.backoffMs = cfg.backoffInitialMs;
        for (const std::uint32_t c : plan.workers[e].children)
            child.supervising = child.supervising || plan.workers[c].isLeaf();
        if (in_list(peers.membership.absent, child.role)) {
            child.absent = true;
            continue; // slot not deployed yet; a reload brings it in
        }
        // Boot-time join: shadowed first spawn; the root announces the
        // adopt from the same peers file.
        child.shadow = in_list(peers.membership.join, child.role);
        child.retiring = in_list(peers.membership.drain, child.role);
        spawn(child, args);
    }

    int exit_code = 0;
    for (;;) {
        if (g_reload) {
            g_reload = 0;
            // Re-read the peers file; its membership block is the
            // desired fleet. Spawn newly joining slots (shadowed),
            // mark draining ones retiring, and forward the SIGHUP to
            // the root worker so it announces the transitions.
            std::ifstream reload_in(peers_path);
            if (!reload_in) {
                std::fprintf(stderr, "supervisor: reload: cannot "
                             "read %s\n", peers_path);
            } else {
                const std::string text(
                    (std::istreambuf_iterator<char>(reload_in)),
                    std::istreambuf_iterator<char>());
                const auto reloaded =
                    config::loadWorkerPeers(util::parseJson(text));
                for (Child &child : children) {
                    if (in_list(reloaded.membership.join, child.role)
                        && child.pid < 0 && !child.retiring) {
                        child.absent = false;
                        child.finished = false;
                        child.abandoned = false;
                        child.shadow = true;
                        child.restarts = 0;
                        child.backoffMs = cfg.backoffInitialMs;
                        spawn(child, args);
                    }
                    if (in_list(reloaded.membership.drain, child.role)
                        && !child.retiring) {
                        child.retiring = true;
                        std::fprintf(stderr,
                                     "supervisor: role %u retiring\n",
                                     child.role);
                    }
                }
                Child &room = children[plan.rootEndpoint()];
                if (room.pid > 0)
                    ::kill(room.pid, SIGHUP);
                std::fprintf(stderr, "supervisor: reloaded %s\n",
                             peers_path);
            }
        }
        if (g_terminate) {
            for (Child &child : children) {
                if (child.pid > 0)
                    ::kill(child.pid, SIGTERM);
            }
            for (Child &child : children) {
                if (child.pid > 0) {
                    ::waitpid(child.pid, nullptr, 0);
                    child.pid = -1;
                }
            }
            std::fprintf(stderr, "supervisor: terminated\n");
            break;
        }

        // Reap any exited children.
        int status = 0;
        pid_t reaped;
        while ((reaped = ::waitpid(-1, &status, WNOHANG)) > 0) {
            for (Child &child : children) {
                if (child.pid != reaped)
                    continue;
                child.pid = -1;
                const bool clean = WIFEXITED(status)
                                   && WEXITSTATUS(status) == 0;
                const std::uint64_t uptime =
                    monotonicMs() - child.startedAtMs;
                if (child.retiring) {
                    // A drained worker exits on its own after acking
                    // the committed Left state; either way the slot is
                    // done — never respawn it.
                    child.finished = true;
                    std::fprintf(stderr,
                                 "supervisor: role %u drained "
                                 "(status %d)\n",
                                 child.role, status);
                    break;
                }
                if (clean && args.periods != nullptr) {
                    child.finished = true;
                    std::fprintf(stderr,
                                 "supervisor: role %u completed\n",
                                 child.role);
                    break;
                }
                // Crash (or an unexpected exit in daemon mode): plan a
                // restart with exponential backoff. A long, healthy
                // uptime resets the backoff first.
                if (uptime
                    >= static_cast<std::uint64_t>(
                           cfg.backoffResetAfterMs)) {
                    child.backoffMs = cfg.backoffInitialMs;
                }
                ++child.restarts;
                if (cfg.maxRestarts > 0
                    && child.restarts > cfg.maxRestarts) {
                    child.abandoned = true;
                    std::fprintf(stderr,
                                 "supervisor: role %u exceeded %d "
                                 "restarts; abandoned\n",
                                 child.role, cfg.maxRestarts);
                    exit_code = 1;
                    break;
                }
                child.respawnAtMs =
                    monotonicMs()
                    + static_cast<std::uint64_t>(child.backoffMs);
                std::fprintf(stderr,
                             "supervisor: role %u exited (status %d) "
                             "after %llu ms; restart in %.0f ms\n",
                             child.role, status,
                             static_cast<unsigned long long>(uptime),
                             child.backoffMs);
                child.backoffMs = std::min(child.backoffMs * 2.0,
                                           cfg.backoffMaxMs);
                break;
            }
        }

        // Respawn children whose backoff has elapsed.
        const std::uint64_t now = monotonicMs();
        for (Child &child : children) {
            if (child.pid < 0 && !child.finished && !child.abandoned
                && child.respawnAtMs != 0 && now >= child.respawnAtMs) {
                spawn(child, args);
            }
        }

        // Done when nobody is left to supervise. Absent slots do not
        // count — they have no process until a reload brings them in.
        bool anything_left = false;
        for (const Child &child : children) {
            if (child.pid > 0
                || (!child.finished && !child.abandoned
                    && !child.absent))
                anything_left = true;
        }
        if (!anything_left) {
            std::fprintf(stderr, "supervisor: all workers done\n");
            break;
        }

        ::usleep(20 * 1000);
    }
    return exit_code;
}
