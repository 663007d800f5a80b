#!/bin/sh
# Supervisor + checkpoint/re-home smoke test: run the whole deployment
# under capmaestro_supervisor on loopback UDP, SIGKILL one rack worker
# mid-run, and assert (a) the supervisor restarts it, (b) the rack's
# parent detects the restart and re-homes the new instance from its
# latest checkpoint, and (c) a survivor rack never falls back to
# Pcap_min defaults. Two passes: depth 2 (the parent is the root) and
# depth 3 (--agg-levels=1: the parent is a row aggregator).
#
# Usage: scripts/failover_smoke.sh [build-dir]     (default: build)
# Exit:  0 pass, 77 skipped (CAPMAESTRO_NO_NET=1), 1 fail.

set -u
cd "$(dirname "$0")/.."

if [ -n "${CAPMAESTRO_NO_NET:-}" ]; then
    echo "failover_smoke: skipped (CAPMAESTRO_NO_NET is set)"
    exit 77
fi

BUILD="${1:-build}"
WORKER="$BUILD/tools/capmaestro_worker"
SUPERVISOR="$BUILD/tools/capmaestro_supervisor"
for bin in "$WORKER" "$SUPERVISOR"; do
    if [ ! -x "$bin" ]; then
        echo "failover_smoke: $bin not built" >&2
        exit 1
    fi
done

DIR="$(mktemp -d "${TMPDIR:-/tmp}/capmaestro_failover.XXXXXX")"
trap 'rm -rf "$DIR"' EXIT

# dump_logs: print what a failed pass leaves behind before the trap
# removes it — the supervisor log and the parent's and the victim's
# stdout/stderr.
dump_logs() {
    echo "--- $NAME supervisor log" >&2
    cat "$PASS/supervisor.log" >&2
    for role in "$PARENT" "$VICTIM"; do
        for ext in out err; do
            echo "--- $NAME role$role.$ext" >&2
            cat "$PASS/logs/role$role.$ext" >&2 2> /dev/null
        done
    done
}

# run_pass NAME CONFIG PERIOD_MS VICTIM PARENT SURVIVOR [template flags]
run_pass() {
    NAME="$1" CONFIG="$2" PERIOD="$3" VICTIM="$4" PARENT="$5"
    SURVIVOR="$6"
    shift 6
    PASS="$DIR/$NAME"
    mkdir -p "$PASS"

    "$WORKER" "$CONFIG" --print-peers-template \
        --port-base=0 --period-ms="$PERIOD" "$@" \
        > "$PASS/peers.json" 2> /dev/null || return 1

    # Pick a restart backoff longer than the parent's heartbeat-fail
    # window (3 periods) so the kill is observed as a real failover,
    # but short enough that the rack re-homes well inside the
    # 20-period run. The template already carries a supervisor block
    # with the defaults; rewrite the two backoff knobs in place.
    BACKOFF=$((PERIOD * 5))
    sed -e "s/\"backoffInitialMs\": [0-9.]*/\"backoffInitialMs\": $BACKOFF/" \
        -e "s/\"backoffMaxMs\": [0-9.]*/\"backoffMaxMs\": $BACKOFF/" \
        "$PASS/peers.json" > "$PASS/peers_sup.json"

    "$SUPERVISOR" "$CONFIG" --peers="$PASS/peers_sup.json" --periods=20 \
        --log-dir="$PASS/logs" 2> "$PASS/supervisor.log" &
    SUP=$!

    # Find the victim's pid from the supervisor spawn log, then SIGKILL
    # it after a few healthy periods so the checkpoint store is warm.
    sleep 2.0
    VICTIM_PID="$(sed -n "s/^spawn role=$VICTIM pid=\([0-9]*\).*/\1/p" \
        "$PASS/supervisor.log" | head -n 1)"
    if [ -z "$VICTIM_PID" ]; then
        echo "failover_smoke[$NAME]: no spawn line for role $VICTIM" >&2
        cat "$PASS/supervisor.log"
        return 1
    fi
    kill -KILL "$VICTIM_PID" 2> /dev/null

    wait "$SUP" || {
        echo "failover_smoke[$NAME]: supervisor failed" >&2
        cat "$PASS/supervisor.log"
        return 1
    }

    echo "--- $NAME supervisor log"
    cat "$PASS/supervisor.log"

    # The supervisor must have restarted the victim (a second spawn
    # line)...
    RESPAWNS="$(grep -c "^spawn role=$VICTIM " "$PASS/supervisor.log")"
    if [ "$RESPAWNS" -lt 2 ]; then
        echo "failover_smoke[$NAME]: rack $VICTIM was never restarted" >&2
        dump_logs
        return 1
    fi
    # ...its parent must have detected the dead rack and re-homed the
    # new instance from a checkpoint...
    for event in worker-failover worker-rehomed; do
        grep -q "$event" "$PASS/logs/role$PARENT.out" || {
            echo "failover_smoke[$NAME]: no $event event in the" \
                "output of parent role $PARENT" >&2
            dump_logs
            return 1
        }
    done
    # ...the restarted rack must have replayed the checkpoint...
    grep -q 'checkpoint-replayed' "$PASS/logs/role$VICTIM.out" || {
        echo "failover_smoke[$NAME]: restarted rack never replayed" \
            "a checkpoint" >&2
        dump_logs
        return 1
    }
    # ...and the survivor rack stayed on real budgets throughout.
    grep -q ' 0 defaults' "$PASS/logs/role$SURVIVOR.err" || {
        echo "failover_smoke[$NAME]: rack $SURVIVOR fell back to" \
            "default budgets" >&2
        cat "$PASS/logs/role$SURVIVOR.err" >&2
        dump_logs
        return 1
    }
    echo "failover_smoke[$NAME]: restart + checkpoint re-home verified"
}

# Depth 2: racks 0-1 under the root (endpoint 2).
run_pass depth2 configs/dual_feed_spo.json 300 1 2 0 || exit 1
# Depth 3: racks 0-3, row aggregators 4-5 (rack 1 under 4), root 6.
# Wall pacing needs a period longer than the 3-tier deadline cascade.
run_pass depth3 configs/tree_depth3.json 500 1 4 2 --agg-levels=1 \
    || exit 1

echo "failover_smoke: PASS (restart + checkpoint re-home at depths 2 and 3)"
exit 0
