#!/usr/bin/env bash
# Repo verification: the tier-1 build + test line from ROADMAP.md, plus
# an ASan+UBSan build of the net-layer tests (wire codec, transport,
# message-plane protocol) to catch memory and UB bugs in the frame
# parsing paths that handle untrusted bytes.
#
# Usage: scripts/check.sh [--tier1-only]

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: full build + test suite =="
# The tier-1 build is rebuilt from clean, one job per CPU, so every
# translation unit is compiled and any warning it raises is seen. A warning located in
# this repository's own files fails the check; the GCC 12
# -Wrestrict/-Wmaybe-uninitialized reports located in the system's
# libstdc++ headers stay allowed and are still printed.
cmake -B build -S . > /dev/null
build_log="$(mktemp)"
trap 'rm -f "$build_log"' EXIT
cmake --build build -j "$(nproc)" --clean-first 2>&1 | tee "$build_log"
repo_root="$(pwd -P)"
own_warnings="$(grep -E '^[^: ]+:[0-9]+:([0-9]+:)? warning:' "$build_log" \
    | awk -F: -v root="$repo_root/" \
        'substr($1, 1, 1) != "/" || index($1, root) == 1' || true)"
if [ -n "$own_warnings" ]; then
    echo "tier 1: compiler warnings in this repository's files:" >&2
    printf '%s\n' "$own_warnings" >&2
    exit 1
fi
(cd build && ctest --output-on-failure -j)

if [[ "${1:-}" == "--tier1-only" ]]; then
    exit 0
fi

echo
echo "== udp tier: multi-process loopback smoke (capmaestro_worker) =="
# One room + two rack daemons over real 127.0.0.1 sockets, one rack
# killed mid-run; asserts the §4.5 heartbeat failover from outside the
# processes. Skips itself (exit 77) when CAPMAESTRO_NO_NET=1.
smoke_rc=0
sh scripts/udp_smoke.sh build || smoke_rc=$?
if [ "$smoke_rc" -eq 77 ]; then
    echo "udp smoke: skipped"
elif [ "$smoke_rc" -ne 0 ]; then
    exit "$smoke_rc"
fi

echo
echo "== failover tier: supervisor restart + checkpoint re-home =="
# capmaestro_supervisor forks the full deployment, one rack worker is
# SIGKILLed, and the script asserts the respawn, the §4.5 failover,
# and the checkpoint replay from the daemons' logs. Skips itself
# (exit 77) when CAPMAESTRO_NO_NET=1.
failover_rc=0
sh scripts/failover_smoke.sh build || failover_rc=$?
if [ "$failover_rc" -eq 77 ]; then
    echo "failover smoke: skipped"
elif [ "$failover_rc" -ne 0 ]; then
    exit "$failover_rc"
fi

echo
echo "== tree tier: multi-process depth-3 aggregator-kill smoke =="
# Three event-loop host processes run the depth-3 scenario
# (configs/tree_depth3.json); the process hosting a mid-tier
# aggregator is SIGKILLed and the script asserts the survivors
# degrade (stale -> lost upstream, Pcap_min defaults on the orphaned
# subtree) and exit cleanly. Skips itself (exit 77) when
# CAPMAESTRO_NO_NET=1.
tree_rc=0
sh scripts/tree_smoke.sh build || tree_rc=$?
if [ "$tree_rc" -eq 77 ]; then
    echo "tree smoke: skipped"
elif [ "$tree_rc" -ne 0 ]; then
    exit "$tree_rc"
fi

echo
echo "== observability tier: scrape endpoints + capmaestro_top smoke =="
# Three depth-3 host processes with the HTTP scrape plane on: every
# /metrics must pass the Prometheus exposition grammar check, every
# /healthz must be ok, the hop-latency histograms and fleet gauges
# must be present, and capmaestro_top must render a clean snapshot.
# Skips itself (exit 77) when CAPMAESTRO_NO_NET=1.
obs_rc=0
sh scripts/obs_smoke.sh build || obs_rc=$?
if [ "$obs_rc" -eq 77 ]; then
    echo "obs smoke: skipped"
elif [ "$obs_rc" -ne 0 ]; then
    exit "$obs_rc"
fi

echo
echo "== membership tier: live join/drain/rolling-restart smoke =="
# capmaestro_supervisor boots the deployment with one slot scripted
# absent, then the script joins it (peers.json edit + SIGHUP, two-
# phase shadow adopt watched through /healthz generations), drains it
# (clean self-exit, supervisor retires the slot), and rolls the
# survivors. capmaestro_top must show the absent slot as a DOWN row
# before the join and none after. Skips itself (exit 77) when
# CAPMAESTRO_NO_NET=1.
membership_rc=0
sh scripts/membership_smoke.sh build || membership_rc=$?
if [ "$membership_rc" -eq 77 ]; then
    echo "membership smoke: skipped"
elif [ "$membership_rc" -ne 0 ]; then
    exit "$membership_rc"
fi

echo
echo "== sanitizers: ASan+UBSan run of the net + udp + tree tiers =="
# The message-plane tier is labeled "net" in tests/CMakeLists.txt: wire
# codec fuzzers, transport fault model, distributed protocol, closed
# loop, and the SPO equivalence suite. The "udp" tier adds the
# real-socket backend and the worker runtime, the "failover" tier the
# checkpoint/re-homing chaos suite plus the supervisor smoke, the
# "tree" tier the deep-control-tree equivalence property test, and the
# "membership" tier the elasticity table unit suite plus the live
# join/drain smoke (the socket-bound members skip via
# CAPMAESTRO_NO_NET=1). All are fast enough to run under sanitizers on
# every check.
cmake -B build-asan -S . -DCAPMAESTRO_SANITIZE=ON > /dev/null
cmake --build build-asan -j --target \
    test_wire test_transport test_distributed test_net_closed_loop \
    test_spo_equivalence test_udp_transport test_udp_closed_loop \
    test_worker_runtime test_failover test_tree_depth test_membership \
    capmaestro_run capmaestro_worker capmaestro_supervisor \
    capmaestro_top
(cd build-asan && \
    ctest -L 'net|udp|failover|tree|membership' --output-on-failure -j)

echo
echo "== sanitizers: ASan+UBSan run of the telemetry tier =="
# The observability tier (label "telemetry"): registry/tracer units,
# the closed-loop trace contract, the scrape plane and both runtimes'
# shared observability module (test_observability), and the export
# tools end to end.
cmake --build build-asan -j --target \
    test_telemetry test_observability capmaestro_run capmaestro_trace \
    capmaestro_audit
(cd build-asan && ctest -L telemetry --output-on-failure -j)
build-asan/tools/capmaestro_run configs/dual_feed_spo.json \
    --duration=32 --drop-rate=0.1 \
    --telemetry-out=build-asan/telemetry_smoke > /dev/null
build-asan/tools/capmaestro_trace \
    build-asan/telemetry_smoke/trace.jsonl --summary > /dev/null

echo
echo "== sanitizers: ASan+UBSan run of the workload tier =="
# The workload tier (label "workload"): the job/tenant traffic layer,
# placement policies, SLO accounting, the closed-loop priority path,
# and the bench_workload smoke sweep. Its Sim/UDP equivalence test
# skips itself under CAPMAESTRO_NO_NET=1 like the socket tiers.
cmake --build build-asan -j --target test_workload bench_workload \
    capmaestro_gen
(cd build-asan && ctest -L workload --output-on-failure -j)

echo
echo "All checks passed."
