#!/bin/sh
# Online-elasticity smoke test: run a 3-slot deployment (2 racks +
# room) under capmaestro_supervisor on loopback UDP with rack 1
# scripted absent, then drive the full membership lifecycle from the
# outside exactly as an operator would — one file edit plus one SIGHUP
# per step (docs/distributed.md, "Online elasticity"):
#
#   1. live join: peers.json membership -> { "join": [1] }, SIGHUP;
#      the supervisor spawns the worker shadowed and forwards the
#      signal to the root, which announces and commits the adopt
#      (watched live through /healthz generations);
#   2. live drain: membership -> { "drain": [1] }, SIGHUP; the root
#      commits Left, the worker exits cleanly on its own, and the
#      supervisor retires (never respawns) it;
#   3. rolling restart: SIGKILL the surviving rack and then the room;
#      the supervisor must respawn both and the deployment must keep
#      making control progress;
#   4. host-mode drain: two capmaestro_worker --process hosts started
#      directly (the supervisor spawns only --role workers), racks 0
#      and 1 in process 0 and the root alone in process 1. The same
#      file edit plus SIGHUP to the root's host drains rack 1, and
#      process 0 keeps running rack 0 on real budgets.
#
# Along the way capmaestro_top must render the absent slot as an
# explicit DOWN row (the fleet gap an operator watches during a join)
# and show the converged generation once the join commits.
#
# Usage: scripts/membership_smoke.sh [build-dir]     (default: build)
# Exit:  0 pass, 77 skipped (CAPMAESTRO_NO_NET=1), 1 fail.

set -u
cd "$(dirname "$0")/.."

if [ -n "${CAPMAESTRO_NO_NET:-}" ]; then
    echo "membership_smoke: skipped (CAPMAESTRO_NO_NET is set)"
    exit 77
fi

BUILD="${1:-build}"
WORKER="$BUILD/tools/capmaestro_worker"
SUPERVISOR="$BUILD/tools/capmaestro_supervisor"
TOP="$BUILD/tools/capmaestro_top"
CONFIG=configs/dual_feed_spo.json
for bin in "$WORKER" "$SUPERVISOR" "$TOP"; do
    if [ ! -x "$bin" ]; then
        echo "membership_smoke: $bin not built" >&2
        exit 1
    fi
done

DIR="$(mktemp -d "${TMPDIR:-/tmp}/capmaestro_member.XXXXXX")"
SUP=""
HOSTS=""
cleanup() {
    [ -n "$SUP" ] && kill -TERM "$SUP" 2> /dev/null
    [ -n "$SUP" ] && wait "$SUP" 2> /dev/null
    for PID in $HOSTS; do
        kill -TERM "$PID" 2> /dev/null
        wait "$PID" 2> /dev/null
    done
    rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
    echo "membership_smoke: $1" >&2
    echo "--- supervisor log" >&2
    cat "$DIR/supervisor.log" >&2 2> /dev/null
    echo "--- root stderr" >&2
    cat "$DIR/logs/role2.err" >&2 2> /dev/null
    exit 1
}

# Poll until a command succeeds (the deployment runs on 300 ms
# periods; every step below lands well inside a few seconds).
wait_until() { # deadline_s what cmd...
    _deadline="$1"; _what="$2"; shift 2
    _i=0
    while ! "$@" 2> /dev/null; do
        [ "$_i" -ge "$(( _deadline * 10 ))" ] \
            && fail "timed out waiting for $_what"
        sleep 0.1
        _i=$(( _i + 1 ))
    done
}

# A top-level number of the /healthz document served on a port.
healthz_num() { # port key
    curl -sf "http://127.0.0.1:$1/healthz" 2> /dev/null \
        | sed -n "s/.*\"$2\": \([0-9]*\),.*/\1/p" | head -n 1
}

# The /healthz generation on a port: the membership plane's clock.
gen_at_least() { # port n
    GEN="$(healthz_num "$1" generation)"
    [ -n "$GEN" ] && [ "$GEN" -ge "$2" ]
}
root_gen_at_least() { gen_at_least "$(( HTTP_BASE + 2 ))" "$1"; }

grep_file() { grep -q "$2" "$1"; }

# Scrape ports must be fixed up front (the peer table carries the
# base); derive them from the PID so parallel runs rarely collide.
HTTP_BASE=$(( 20000 + $$ % 20000 ))

# --port-base=0 probes free ephemeral UDP ports per endpoint; rack 1
# is scripted absent, so the supervisor boots a 2-process fleet with a
# hole where the third slot will join.
"$WORKER" "$CONFIG" --print-peers-template \
    --port-base=0 --period-ms=300 --http-port-base="$HTTP_BASE" \
    > "$DIR/peers_base.json" 2> /dev/null || exit 1
sed '1s/{/{ "membership": { "absent": [1] },/' \
    "$DIR/peers_base.json" > "$DIR/peers.json"

"$SUPERVISOR" "$CONFIG" --peers="$DIR/peers.json" \
    --log-dir="$DIR/logs" 2> "$DIR/supervisor.log" &
SUP=$!

wait_until 10 "room spawn" \
    grep_file "$DIR/supervisor.log" '^spawn role=2 '
wait_until 10 "root /healthz" root_gen_at_least 1
sleep 1.0
if grep -q '^spawn role=1 ' "$DIR/supervisor.log"; then
    fail "absent slot 1 was spawned at boot"
fi

# The absent slot must show as an explicit DOWN row, not vanish.
PORTS="$HTTP_BASE,$(( HTTP_BASE + 1 )),$(( HTTP_BASE + 2 ))"
"$TOP" --ports="$PORTS" --iterations=1 --plain \
    > "$DIR/top_before.out" 2>&1 \
    || fail "capmaestro_top (pre-join) exited nonzero"
grep -q 'DOWN' "$DIR/top_before.out" \
    || fail "capmaestro_top hid the absent slot instead of DOWN"

# ---- step 1: live join. Edit the membership block and signal.
sed '1s/"absent": \[1\]/"join": [1]/' "$DIR/peers.json" \
    > "$DIR/peers.tmp" && mv "$DIR/peers.tmp" "$DIR/peers.json"
kill -HUP "$SUP"
wait_until 10 "shadowed spawn of the joiner" \
    grep_file "$DIR/supervisor.log" '^spawn role=1 .* shadow$'
# Announce bumps the root to generation 2; the commit (ack + shadow
# window) to 3.
wait_until 15 "join commit (generation 3)" root_gen_at_least 3

# The committed fleet: no DOWN rows, and the joiner reports itself
# live at the root's generation.
"$TOP" --ports="$PORTS" --iterations=1 --plain \
    > "$DIR/top_after.out" 2>&1 \
    || fail "capmaestro_top (post-join) exited nonzero"
grep -q 'DOWN' "$DIR/top_after.out" \
    && fail "DOWN row survived the join commit"
wait_until 10 "joiner adopting the commit" sh -c \
    "curl -sf http://127.0.0.1:$(( HTTP_BASE + 1 ))/healthz \
        | grep -q '\"self\": \"live\"'"

# ---- step 2: live drain of the unit that just joined.
sed '1s/"join": \[1\]/"drain": [1]/' "$DIR/peers.json" \
    > "$DIR/peers.tmp" && mv "$DIR/peers.tmp" "$DIR/peers.json"
kill -HUP "$SUP"
wait_until 10 "retire mark" \
    grep_file "$DIR/supervisor.log" 'role 1 retiring'
# Drain announce -> 4, commit Left -> 5; the drained worker then
# exits its loop on its own and the supervisor must retire it.
wait_until 15 "drain commit (generation 5)" root_gen_at_least 5
wait_until 20 "clean self-exit of the drained worker" \
    grep_file "$DIR/supervisor.log" 'role 1 drained (status 0)'

# ---- step 3: supervisor-driven rolling restart of the survivors.
# Roll the rack with SIGKILL (crash path) and the root with SIGTERM
# (graceful path — the root flushes its event log, which the final
# lifecycle assertions below read back from the O_APPEND child log).
for ROLL in "0 KILL" "2 TERM"; do
    ROLE="${ROLL% *}"
    SIG="${ROLL#* }"
    PID="$(sed -n "s/^spawn role=$ROLE pid=\([0-9]*\).*/\1/p" \
        "$DIR/supervisor.log" | tail -n 1)"
    [ -n "$PID" ] || fail "no spawn line for role $ROLE"
    BEFORE="$(grep -c "^spawn role=$ROLE " "$DIR/supervisor.log")"
    kill -"$SIG" "$PID" 2> /dev/null
    _i=0
    while [ "$(grep -c "^spawn role=$ROLE " "$DIR/supervisor.log")" \
            -le "$BEFORE" ]; do
        [ "$_i" -ge 100 ] && fail "role $ROLE was never respawned"
        sleep 0.1
        _i=$(( _i + 1 ))
    done
done
# A drained slot must stay retired through the rolling restart.
if [ "$(grep -c '^spawn role=1 ' "$DIR/supervisor.log")" -ne 1 ]; then
    fail "drained role 1 was respawned"
fi
# ...and the rolled deployment must come back and make progress (the
# restarted root re-serves /healthz once its period loop runs again).
wait_until 20 "control progress after the roll" root_gen_at_least 1

kill -TERM "$SUP"
wait "$SUP" || fail "supervisor exited nonzero"
SUP=""

# The root's event log (flushed at exit) must record the lifecycle.
grep -q '"kind": "membership-join"' "$DIR/logs/role2.out" \
    || fail "no membership-join event in the root log"
grep -q '"kind": "membership-committed"' "$DIR/logs/role2.out" \
    || fail "no membership-committed event in the root log"
grep -q '"kind": "membership-drain"' "$DIR/logs/role2.out" \
    || fail "no membership-drain event in the root log"

# ---- step 4: drain from a WorkerHost root. Process 0 hosts racks 0
# and 1, process 1 the root alone; each serves /healthz on
# HOST_BASE + its process index.
HOST_BASE=$(( HTTP_BASE + 10 ))
"$WORKER" "$CONFIG" --print-peers-template \
    --port-base=0 --period-ms=300 --http-port-base="$HOST_BASE" \
    > "$DIR/hosts_base.json" 2> /dev/null || exit 1
sed '/"endpoint": 2,/a\
      "process": 1,' "$DIR/hosts_base.json" > "$DIR/hosts.json"
for P in 0 1; do
    "$WORKER" "$CONFIG" --peers="$DIR/hosts.json" --process="$P" \
        > "$DIR/host$P.out" 2> "$DIR/host$P.err" &
    HOSTS="$HOSTS $!"
done
ROOT_HOST="${HOSTS##* }"
RACK_HOST="$(echo $HOSTS | cut -d' ' -f1)"
wait_until 10 "host root /healthz" gen_at_least "$(( HOST_BASE + 1 ))" 1

sed '1s/{/{ "membership": { "drain": [1] },/' "$DIR/hosts.json" \
    > "$DIR/hosts.tmp" && mv "$DIR/hosts.tmp" "$DIR/hosts.json"
kill -HUP "$ROOT_HOST" "$RACK_HOST"
# Drain announce -> 2, commit Left -> 3, at the root and in the
# replica of the drained rack's host, which then counts one Left unit.
wait_until 15 "host drain commit (generation 3)" \
    gen_at_least "$(( HOST_BASE + 1 ))" 3
wait_until 10 "rack host adopting the commit" \
    gen_at_least "$HOST_BASE" 3
[ "$(healthz_num "$HOST_BASE" left)" = 1 ] \
    || fail "the rack host's table does not show rack 1 Left"
# The rack host survived the SIGHUP and keeps running rack 0.
PERIODS="$(healthz_num "$HOST_BASE" periods)"
APPLIED="$(healthz_num "$HOST_BASE" budgetsApplied)"
sleep 1
kill -0 "$RACK_HOST" 2> /dev/null || fail "the drained rack's host exited"
[ "$(healthz_num "$HOST_BASE" periods)" -gt "$PERIODS" ] \
    || fail "the drained rack's host stopped running periods"
[ "$(healthz_num "$HOST_BASE" budgetsApplied)" -gt "$APPLIED" ] \
    || fail "rack 0 stopped getting budgets after the drain"
for PID in $HOSTS; do
    kill -TERM "$PID"
    wait "$PID" || fail "a host exited nonzero"
done
HOSTS=""
grep -q '"kind": "membership-drain"' "$DIR/host1.out" \
    || fail "no membership-drain event in the host root's log"
grep -q '"kind": "membership-committed"' "$DIR/host1.out" \
    || fail "no membership-committed event in the host root's log"

echo "--- supervisor log"
cat "$DIR/supervisor.log"
echo "membership_smoke: PASS (join, drain, rolling restart, host-mode" \
    "drain clean)"
exit 0
