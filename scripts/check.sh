#!/usr/bin/env bash
# Repo verification: the tier-1 build + test line from ROADMAP.md, a
# build (not a run) of the frozen perfbench/ benchmark, the multi-process
# smokes, plus an ASan+UBSan build of the net-layer tests (wire codec,
# transport, message-plane protocol) to catch memory and UB bugs in the
# frame parsing paths that handle untrusted bytes.
#
# Usage: scripts/check.sh [--tier1-only]
#        scripts/check.sh --perf <baseline-records-dir>
#
# --perf skips the test tiers and compares performance instead: it runs
# every workload of BENCHMARK.json for 3 seeds (the benchmark's own
# run_seconds, tracing off), copies the records of those runs into
# .bench_build/perf-<git sha>/, and exits with the verdict of
# `perfbench/run.py --report <baseline> <new>`: nonzero when a workload
# has an incorrect run, a spread or a median drift beyond its bound.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--perf" ]]; then
    baseline="${2:-}"
    if [[ -z "$baseline" || ! -d "$baseline" ]]; then
        echo "usage: scripts/check.sh --perf <baseline-records-dir>" >&2
        exit 2
    fi
    read -r seconds workloads < <(python3 -c '
import json
spec = json.load(open("BENCHMARK.json"))
print(spec["run_seconds"], " ".join(w["name"] for w in spec["workloads"]))')
    sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
    if [[ -n "$(git status --porcelain -- src 2>/dev/null)" ]]; then
        sha="$sha-dirty"
    fi
    out=".bench_build/perf-$sha"
    mkdir -p .bench_build/results
    rm -rf "$out"
    mkdir -p "$out"
    # Records written after this marker are the ones this run made.
    marker="$(mktemp -p .bench_build)"
    trap 'rm -f "$marker"' EXIT
    echo "== perf: $workloads x seeds 1 2 3, ${seconds} s each =="
    for workload in $workloads; do
        for seed in 1 2 3; do
            python3 perfbench/run.py --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0 | tail -n 1
        done
    done
    find .bench_build/results -name '*.json' -newer "$marker" \
        -exec cp {} "$out/" \;
    echo "== perf: $baseline vs $out =="
    rc=0
    python3 perfbench/run.py --report "$baseline" "$out" || rc=$?
    exit "$rc"
fi

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
echo "== perfbench tier: build the frozen benchmark (not run) =="
# perfbench/ calls rt's plant helpers, nominalEdgeFloors and
# WorkerHost's public API, and tier 1 never compiles it. Building
# perfbench_plane here catches an rt change that breaks those calls
# before the benchmark pipeline does. It gets a directory of its own:
# .bench_build/perfbench belongs to perfbench/run.py.
cmake -S perfbench -B build-perfbench > /dev/null
cmake --build build-perfbench -j "$(nproc)" --target perfbench_plane

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
# loop, the message-plane soak, and the SPO equivalence suite. The
# "udp" tier adds the real-socket backend and the worker runtime, the
# "failover" tier the checkpoint/re-homing chaos suite (both engines
# on the discrete-event harness, the stall replay included) plus the
# supervisor smoke, the "tree" tier the deep-control-tree equivalence
# tests (test_tree_depth: one-process WorkerHosts at depths 2-4 checked
# against the flat ControlTree every period, and against WorkerRuntimes
# on the chaos harness), and the "membership" tier the elasticity table unit
# suite plus the live join/drain smoke (the socket-bound members skip
# via CAPMAESTRO_NO_NET=1). All are fast enough to run under sanitizers
# on every check.
cmake -B build-asan -S . -DCAPMAESTRO_SANITIZE=ON > /dev/null
cmake --build build-asan -j --target \
    test_wire test_transport test_distributed test_net_closed_loop \
    test_sim_golden test_soak test_spo_equivalence test_udp_transport \
    test_udp_closed_loop test_worker_runtime test_failover \
    test_tree_depth test_membership test_roles \
    capmaestro_run capmaestro_worker capmaestro_supervisor \
    capmaestro_top
# A gtest target missing from the list above registers only an
# unlabelled <target>_NOT_BUILT placeholder, which the label filter
# skips without a word. Fail unless the sanitized tree lists every
# labelled test the tier-1 tree does.
asan_labels='net|udp|failover|tree|membership'
count_tests() {
    (cd "$1" && ctest -N -L "$asan_labels" | sed -n 's/^Total Tests: //p')
}
want="$(count_tests build)"
got="$(count_tests build-asan)"
if [ "$got" -lt "$want" ]; then
    echo "sanitizers: build-asan lists $got tests labelled" \
        "'$asan_labels', build lists $want; a target is missing" \
        "from the ASan build list" >&2
    exit 1
fi
(cd build-asan && ctest -L "$asan_labels" --output-on-failure -j)

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
