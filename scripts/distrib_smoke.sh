#!/usr/bin/env bash
#===- distrib_smoke.sh - Routed serving smoke ------------------------------===#
#
# Part of the USpec reproduction (PLDI 2019). MIT license.
#
# End-to-end smoke of the DESIGN.md §14–15 router through the real binary:
#
#   1. `uspec route` in front of two serve replicas: routed `query analyze`
#      responses are byte-identical to one-shot `analyze --json`; stats fan
#      out; a broadcast `reload` swaps both replicas live.
#   2. kill -9 of a replica: the routed query answers `replica_down` once,
#      and `query --retries` deterministically fails over to the survivor.
#   3. A routed `shutdown` broadcast drains replicas and router cleanly.
#   4. `route --supervise --respawn-cmd`: the supervisor cold-starts the
#      replica, survives a kill -9 (respawn + warm rejoin, byte-identical
#      answers before/after), and the final shutdown drains the respawned
#      replica it owns.
#
# Usage: scripts/distrib_smoke.sh [path/to/uspec]
#
#===----------------------------------------------------------------------===#
set -euo pipefail

USPEC=${1:-build/tools/uspec}

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for p in "${PIDS[@]:-}"; do
    kill "$p" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail=0

echo "== corpus + model"
"$USPEC" gen --profile java -n 20 -o "$WORK/corpus" --seed 23
"$USPEC" train "$WORK/corpus"/*.mini -o "$WORK/single.uspb" --seed 23

echo "== routed serving: 2 replicas behind uspec route"
for i in 0 1; do
  "$USPEC" serve --model "$WORK/single.uspb" --socket "$WORK/r$i.sock" \
    --workers 2 2>/dev/null &
  PIDS+=("$!")
done
R0=${PIDS[0]}
R1=${PIDS[1]}
for _ in $(seq 100); do
  [ -S "$WORK/r0.sock" ] && [ -S "$WORK/r1.sock" ] && break
  sleep 0.1
done
"$USPEC" route --socket "$WORK/router.sock" \
  --replicas "$WORK/r0.sock,$WORK/r1.sock" 2>/dev/null &
ROUTER=$!
PIDS+=("$ROUTER")
for _ in $(seq 100); do
  [ -S "$WORK/router.sock" ] && break
  sleep 0.1
done
[ -S "$WORK/router.sock" ] || {
  echo "FAIL: router socket never appeared" >&2
  exit 1
}

echo "== routed queries match one-shot analyze --json"
for i in 0 1 2 3; do
  "$USPEC" analyze "$WORK/corpus/prog$i.mini" --model "$WORK/single.uspb" \
    --json > "$WORK/expected.$i.json"
  "$USPEC" query --socket "$WORK/router.sock" \
    analyze "$WORK/corpus/prog$i.mini" > "$WORK/routed.$i.json"
  if ! cmp -s "$WORK/expected.$i.json" "$WORK/routed.$i.json"; then
    echo "FAIL: routed response $i differs from analyze --json" >&2
    fail=1
  fi
done
[ "$fail" -eq 0 ] && echo "   4 routed responses byte-identical"

echo "== stats fan-out"
stats=$("$USPEC" query --socket "$WORK/router.sock" stats)
echo "$stats" | grep -q '"router"' || {
  echo "FAIL: aggregated stats missing router section" >&2
  fail=1
}
echo "$stats" | grep -q "r1.sock" || {
  echo "FAIL: aggregated stats missing replica entry" >&2
  fail=1
}

echo "== broadcast reload (live model swap on every replica)"
reload=$("$USPEC" query --socket "$WORK/router.sock" reload \
  "$WORK/single.uspb")
echo "$reload" | grep -q '"reloaded":2' || {
  echo "FAIL: broadcast reload did not confirm both replicas: $reload" >&2
  fail=1
}

echo "== replica kill -9: structured replica_down + deterministic failover"
kill -9 "$R1" 2>/dev/null || true
wait "$R1" 2>/dev/null || true
# With --retries, the transient replica_down answer is retried and the ring
# walk (now skipping the dead replica) lands every program on the survivor.
for i in 0 1 2 3; do
  "$USPEC" query --socket "$WORK/router.sock" --retries 3 \
    analyze "$WORK/corpus/prog$i.mini" > "$WORK/failover.$i.json"
  if ! cmp -s "$WORK/expected.$i.json" "$WORK/failover.$i.json"; then
    echo "FAIL: post-failover response $i differs" >&2
    fail=1
  fi
done
stats=$("$USPEC" query --socket "$WORK/router.sock" stats)
echo "$stats" | grep -q '"down":\[1\]' || {
  echo "FAIL: router stats do not report the dead replica: $stats" >&2
  fail=1
}
[ "$fail" -eq 0 ] && echo "   failover byte-identical, dead replica reported"

echo "== routed shutdown drains the fleet"
"$USPEC" query --socket "$WORK/router.sock" shutdown > /dev/null
rc=0
wait "$ROUTER" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: router exited with status $rc after shutdown" >&2
  fail=1
fi
rc=0
wait "$R0" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: replica exited with status $rc after broadcast shutdown" >&2
  fail=1
fi
PIDS=()

echo "== supervised router: cold start -> kill -9 -> respawn -> rejoin"
# The supervisor owns the replica outright: no replica process exists yet;
# the first failed probe respawns it via the {socket} command template.
RESPAWN_CMD="$USPEC serve --socket {socket} --model $WORK/single.uspb"
"$USPEC" route --socket "$WORK/sup_router.sock" \
  --replicas "$WORK/sup0.sock" --supervise \
  --respawn-cmd "$RESPAWN_CMD" --probe-interval-ms 100 --respawn-seed 7 \
  2>/dev/null &
SUP=$!
PIDS+=("$SUP")
for _ in $(seq 100); do
  [ -S "$WORK/sup_router.sock" ] && break
  sleep 0.1
done
[ -S "$WORK/sup_router.sock" ] || {
  echo "FAIL: supervised router socket never appeared" >&2
  exit 1
}
# Routed answers must converge to the baseline bytes once the supervisor
# brings the replica up.
ok=0
for _ in $(seq 100); do
  if "$USPEC" query --socket "$WORK/sup_router.sock" --retries 3 \
      analyze "$WORK/corpus/prog0.mini" > "$WORK/sup.before.json" \
      2>/dev/null &&
      cmp -s "$WORK/expected.0.json" "$WORK/sup.before.json"; then
    ok=1
    break
  fi
  sleep 0.1
done
if [ "$ok" -ne 1 ]; then
  echo "FAIL: supervisor never brought the replica up" >&2
  fail=1
else
  echo "   cold start: supervisor spawned the replica, bytes match"
fi

# kill -9 the supervised replica (found by its socket argument); the
# supervisor must respawn it and answers must stay byte-identical.
pkill -9 -f "serve --socket $WORK/sup0.sock" || true
sleep 0.2
ok=0
for _ in $(seq 100); do
  if "$USPEC" query --socket "$WORK/sup_router.sock" --retries 3 \
      analyze "$WORK/corpus/prog0.mini" > "$WORK/sup.after.json" \
      2>/dev/null &&
      cmp -s "$WORK/expected.0.json" "$WORK/sup.after.json"; then
    ok=1
    break
  fi
  sleep 0.1
done
if [ "$ok" -ne 1 ]; then
  echo "FAIL: supervisor did not recover the killed replica" >&2
  fail=1
else
  echo "   kill -9: respawned + rejoined, bytes identical"
fi
stats=$("$USPEC" query --socket "$WORK/sup_router.sock" stats)
echo "$stats" | grep -Eq '"respawns":[1-9]' || {
  echo "FAIL: router stats report no respawns: $stats" >&2
  fail=1
}
echo "$stats" | grep -Eq '"rejoins":[1-9]' || {
  echo "FAIL: router stats report no rejoins: $stats" >&2
  fail=1
}

"$USPEC" query --socket "$WORK/sup_router.sock" shutdown > /dev/null
rc=0
wait "$SUP" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: supervised router exited with status $rc" >&2
  fail=1
fi
# The broadcast shutdown drains the supervised replica too (it is not our
# child — poll its socket until it unlinks on clean exit).
for _ in $(seq 50); do
  [ -S "$WORK/sup0.sock" ] || break
  sleep 0.1
done
if [ -S "$WORK/sup0.sock" ]; then
  echo "FAIL: supervised replica still alive after broadcast shutdown" >&2
  pkill -9 -f "serve --socket $WORK/sup0.sock" || true
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "distrib smoke FAILED" >&2
  exit 1
fi
echo "distrib smoke OK"
