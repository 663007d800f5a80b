/**
 * @file
 * Declarative scenario configuration: JSON in, a runnable CapMaestro
 * deployment out. This is the adoption surface for operators: describe
 * the power topology, the server fleet and its workloads, and the
 * control-plane settings in one file, then run it with the bundled
 * `capmaestro_run` tool or embed the loader in your own harness.
 *
 * Schema (see configs/ for complete examples):
 *
 * {
 *   "feeds": 2,
 *   "trees": [
 *     { "feed": 0, "phase": 0, "name": "X",
 *       "root": { "kind": "breaker", "name": "top", "rating": 1400,
 *                 "children": [
 *                   { "kind": "supply", "server": 0, "supply": 0 } ] } }
 *   ],
 *   "servers": [
 *     { "name": "S0", "idle": 160, "capMin": 270, "capMax": 490,
 *       "priority": 1,
 *       "supplies": [ { "share": 0.5 }, { "share": 0.5 } ],
 *       "workload": { "type": "constant", "utilization": 0.9 } }
 *   ],
 *   "service": { "policy": "global", "controlPeriodSeconds": 8,
 *                "spo": true },
 *   "budgets": { "totalPerPhase": 1400 }   // or "perTree": [700, 700]
 * }
 *
 * Node kinds: contractual, ats, transformer, ups, rpp, cdu, breaker,
 * supply. A rating of "unlimited" (or an omitted rating) means the node
 * imposes no limit. Workload types: constant, steps, sine, randomwalk.
 *
 * An optional top-level "workload" block enables the job/tenant traffic
 * layer (src/workload, docs/workload.md). All keys optional except
 * "enabled":
 *
 *   "workload": {
 *     "enabled": true,
 *     "seed": 42, "arrivalRate": 0.5,
 *     "diurnalPeriodSeconds": 86400, "diurnalAmplitude": 0.3,
 *     "flash": { "startChance": 0.001, "durationSeconds": 30,
 *                "multiplier": 4 },
 *     "placement": "loadBalanced",   // firstFit/loadBalanced/
 *                                    // phaseAware/powerHeadroom
 *     "priorityMode": "max",         // off/max/weighted
 *     "queueTimeoutSeconds": 120,
 *     "backgroundUtilization": -1,   // < 0: sample the Barroso profile
 *     "backgroundJitter": 0.05, "phaseCount": 0,
 *     "tenants": [ { "name": "batch", "priority": 0, "weight": 1,
 *                    "cpuDemand": 0.25, "meanDurationSeconds": 60,
 *                    "durationSpread": 0.5, "sloSlowdown": 2 } ]
 *   }
 */

#ifndef CAPMAESTRO_CONFIG_LOADER_HH
#define CAPMAESTRO_CONFIG_LOADER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/service.hh"
#include "sim/closed_loop.hh"
#include "topology/power_system.hh"
#include "util/json.hh"
#include "workload/engine.hh"

namespace capmaestro::config {

/** Everything needed to instantiate a deployment or simulation. */
struct LoadedScenario
{
    std::unique_ptr<topo::PowerSystem> system;
    std::vector<sim::ServerSetup> servers;
    core::ServiceConfig service;
    /** Root budget per tree (resolved from either budgets form). */
    std::vector<Watts> rootBudgets;
    /** Present when the config used the totalPerPhase form. */
    std::optional<Watts> totalPerPhase;
    /** Present when the config enabled the workload traffic layer. */
    std::optional<workload::Params> workload;
};

/** Build a scenario from a parsed JSON document. */
LoadedScenario loadScenario(const util::Json &doc);

/**
 * Parse a single power tree from its JSON spec (the element format of
 * the top-level "trees" array). Used by tools that work on topologies
 * without a full scenario (e.g., capmaestro_audit).
 */
std::unique_ptr<topo::PowerTree> loadPowerTree(const util::Json &spec);

/**
 * Serialize a power tree back to the config schema (the inverse of
 * loadPowerTree). Round-trips structure, names, ratings, derates, and
 * supply references.
 */
util::Json powerTreeToJson(const topo::PowerTree &tree);

/**
 * Apply a "transport" JSON block to a service config: enables the
 * message plane (unless "enabled": false) and sets the SimTransport
 * fault model plus the §4.5 protocol tunables. Keys (all optional):
 * enabled, backend ("sim" or "udp"), dropRate, dupRate, latencyMs,
 * jitterMs, reorderRate, reorderExtraMs, seed, gatherDeadlineMs,
 * budgetDeadlineMs, spoGatherDeadlineMs, spoBudgetDeadlineMs,
 * retryTimeoutMs, maxAttempts, staleAgeCap, heartbeatFailAfter. The
 * fault-model keys apply to the sim backend only — the udp backend's
 * faults are the real network's.
 * Also the element format of the top-level "transport" scenario block.
 */
void applyTransportJson(core::ServiceConfig &service,
                        const util::Json &spec);

/**
 * Parse a "workload" block (see the schema in the file comment) into
 * workload-layer parameters. Ignores the "enabled" key — the caller
 * decides whether the layer is attached.
 */
workload::Params workloadParamsFromJson(const util::Json &spec);

/**
 * Serialize workload parameters back to the config schema (with
 * "enabled": true). Round-trips through workloadParamsFromJson.
 */
util::Json workloadParamsToJson(const workload::Params &params);

/**
 * The multi-process deployment's shared peer table (docs/distributed.md
 * quickstart). One file is distributed to every worker process:
 *
 * {
 *   "periodMs": 1000,             // wall-clock control period
 *   "originMs": 1754380000000,    // shared epoch origin, unix ms
 *   "peers": [
 *     { "endpoint": 0, "host": "127.0.0.1", "port": 9810 },  // rack 0
 *     { "endpoint": 1, "host": "127.0.0.1", "port": 9811 },  // rack 1
 *     { "endpoint": 2, "host": "127.0.0.1", "port": 9812 }   // room
 *   ]
 * }
 *
 * Endpoints are rack indices under the partitioning rule; the room is
 * endpoint rackWorkerCount. originMs anchors the control-period epoch
 * all processes must agree on: epoch = (now - originMs) / periodMs.
 *
 * An optional "aggLevels" array (ascending heights above the edge
 * level, see core/tree_plan) makes the deployment a deep control tree:
 * endpoints then follow the TreePlan numbering — leaf workers first,
 * aggregator tiers bottom-up, the root worker last — and every process
 * must be given the same levels. An optional per-peer "process" key
 * assigns the endpoint to a host process (capmaestro_worker
 * --process=K runs every endpoint assigned to K in one event loop);
 * endpoints without the key belong to process 0.
 *
 * An optional "supervisor" object tunes capmaestro_supervisor (all
 * fields optional):
 *
 *   "supervisor": {
 *     "backoffInitialMs": 250,    // first restart delay
 *     "backoffMaxMs": 5000,       // exponential backoff ceiling
 *     "backoffResetAfterMs": 10000, // uptime that resets the backoff
 *     "maxRestarts": 0,           // per child; 0 = unlimited
 *     "stateDir": ""              // room checkpoint directory
 *   }
 *
 * An optional "observability" object turns on the live scrape plane
 * (all fields optional; see docs/observability.md):
 *
 *   "observability": {
 *     "httpPortBase": 19970,   // 0 = no endpoints; role/process i
 *                              // serves 127.0.0.1:base+i
 *     "tracezKeep": 32         // period traces kept for /tracez
 *   }
 *
 * An optional "membership" object scripts the elasticity plane (see
 * docs/distributed.md, "Online elasticity"). The peer table always
 * lists every slot the deployment may ever hold; membership says which
 * slots are in play right now:
 *
 *   "membership": {
 *     "absent": [3],           // not yet deployed: root counts no
 *                              // floor, no parent supervises it,
 *                              // supervisor spawns no process
 *     "join": [2],             // announce Joining (two-phase adopt)
 *     "drain": [1]             // announce Draining
 *   }
 *
 * The root worker applies join/drain on boot and again on every
 * SIGHUP-triggered reload of the file; capmaestro_supervisor reloads
 * the same file on SIGHUP, spawns workers for newly joining slots,
 * stops reaping retired ones, and forwards the SIGHUP to the root.
 */
struct SupervisorConfig
{
    /** Delay before the first restart of a crashed child, ms. */
    double backoffInitialMs = 250.0;
    /** Ceiling of the exponential restart backoff, ms. */
    double backoffMaxMs = 5000.0;
    /** A child alive this long gets its backoff reset, ms. */
    double backoffResetAfterMs = 10000.0;
    /** Restarts allowed per child before giving up; 0 = unlimited. */
    int maxRestarts = 0;
    /** Where each worker that supervises leaves persists their
     *  checkpoints ("" = disabled). */
    std::string stateDir;
};

/** Elasticity directives for the root worker and the supervisor. */
struct MembershipConfig
{
    /** Endpoints not yet deployed: every worker marks them absent
     *  pre-run (the root counts no floor and sends no broadcast, a
     *  parent supervises nothing there) and the supervisor spawns no
     *  process for them. */
    std::vector<std::uint32_t> absent;
    /** Endpoints the root announces Joining when (re)loading (it
     *  holds them absent at boot until then). */
    std::vector<std::uint32_t> join;
    /** Endpoints the root announces Draining when (re)loading. */
    std::vector<std::uint32_t> drain;

    /** True when every list is empty (static deployment). */
    bool empty() const
    {
        return absent.empty() && join.empty() && drain.empty();
    }
};

/** Live scrape-plane tunables (see docs/observability.md). */
struct ObservabilityConfig
{
    /**
     * First HTTP scrape port: worker role N (or host process K)
     * serves /metrics, /healthz, and /tracez on 127.0.0.1:base+N
     * (base+K). 0 disables the endpoints entirely.
     */
    std::uint16_t httpPortBase = 0;
    /** Completed period traces retained for /tracez. */
    std::size_t tracezKeep = 32;
};

struct WorkerPeers
{
    std::map<net::Transport::Endpoint, net::UdpPeer> peers;
    /** Wall-clock control period in milliseconds. */
    double periodMs = 1000.0;
    /** Epoch origin in unix milliseconds (realtime clock). */
    std::uint64_t originMs = 0;
    /**
     * Aggregation levels of the deployment's tree plan (empty = the
     * classic 2-level rack/room layout). Must match the endpoint
     * numbering of core::TreePlan::build on the scenario's topology.
     */
    std::vector<std::uint32_t> aggLevels;
    /**
     * Endpoint -> host process index (endpoints absent from the map
     * belong to process 0). Purely a deployment grouping hint for
     * capmaestro_worker --process=K; the protocol ignores it.
     */
    std::map<net::Transport::Endpoint, std::uint32_t> processOf;
    /** capmaestro_supervisor tunables (defaults when absent). */
    SupervisorConfig supervisor;
    /** Scrape-plane tunables (endpoints off when absent). */
    ObservabilityConfig observability;
    /** Elasticity directives (static deployment when empty). */
    MembershipConfig membership;

    /** Host processes implied by processOf (>= 1). */
    std::uint32_t processCount() const;
    /** Endpoints assigned to host process @p process, ascending. */
    std::vector<net::Transport::Endpoint>
    endpointsOf(std::uint32_t process) const;
};

/** Parse a peer-table document (the format above). */
WorkerPeers loadWorkerPeers(const util::Json &doc);

/** Serialize a peer table back to its document format. */
util::Json workerPeersToJson(const WorkerPeers &peers);

/** Convenience: parse @p path and build the scenario. */
LoadedScenario loadScenarioFile(const std::string &path);

/** Instantiate a ClosedLoopSim from a loaded scenario. */
sim::ClosedLoopSim makeSimulation(LoadedScenario scenario,
                                  std::uint64_t seed = 1);

} // namespace capmaestro::config

#endif // CAPMAESTRO_CONFIG_LOADER_HH
