#!/usr/bin/env bash
#===- service_smoke.sh - End-to-end smoke test of the query service ------===#
#
# Part of the USpec reproduction (PLDI 2019). MIT license.
#
# Trains an artifact, starts `uspec serve` on a Unix socket, hits it with
# concurrent `uspec query` clients, and asserts that every response is
# byte-identical to the one-shot `uspec analyze --json` output for the same
# (program, artifact) pair — the service determinism contract, exercised
# through the real binary and the real transport. Finishes with a `shutdown`
# and verifies the server drains cleanly (exit 0), then checks that a
# nesting bomb on stdin gets a parse error and leaves `serve` answering.
#
# Usage: scripts/service_smoke.sh [path/to/uspec]
#
#===----------------------------------------------------------------------===#
set -euo pipefail

USPEC=${1:-build/tools/uspec}
NPROGS=8
NCLIENTS=4

WORK=$(mktemp -d)
SERVER=
cleanup() {
  [ -n "$SERVER" ] && kill "$SERVER" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== train"
"$USPEC" gen --profile java -n 30 -o "$WORK/corpus" --seed 11
"$USPEC" train "$WORK/corpus"/*.mini -o "$WORK/run.uspb" --seed 11

echo "== reference: one-shot analyze --json"
for i in $(seq 0 $((NPROGS - 1))); do
  "$USPEC" analyze "$WORK/corpus/prog$i.mini" --model "$WORK/run.uspb" \
    --json > "$WORK/expected.$i.json"
done

echo "== serve"
"$USPEC" serve --model "$WORK/run.uspb" --socket "$WORK/uspec.sock" \
  --workers 4 &
SERVER=$!
for _ in $(seq 100); do
  [ -S "$WORK/uspec.sock" ] && break
  sleep 0.1
done
[ -S "$WORK/uspec.sock" ] || {
  echo "FAIL: server socket never appeared" >&2
  exit 1
}

echo "== $NCLIENTS concurrent clients x $NPROGS programs"
pids=()
for c in $(seq 1 "$NCLIENTS"); do
  (
    for i in $(seq 0 $((NPROGS - 1))); do
      "$USPEC" query --socket "$WORK/uspec.sock" \
        analyze "$WORK/corpus/prog$i.mini" > "$WORK/client$c.$i.json"
    done
  ) &
  pids+=("$!")
done
for p in "${pids[@]}"; do
  wait "$p"
done

fail=0
for c in $(seq 1 "$NCLIENTS"); do
  for i in $(seq 0 $((NPROGS - 1))); do
    if ! cmp -s "$WORK/expected.$i.json" "$WORK/client$c.$i.json"; then
      echo "FAIL: client $c / program $i differs from analyze --json:" >&2
      diff "$WORK/expected.$i.json" "$WORK/client$c.$i.json" >&2 || true
      fail=1
    fi
  done
done
[ "$fail" -eq 0 ] && echo "all $((NCLIENTS * NPROGS)) responses byte-identical"

echo "== stats"
stats=$("$USPEC" query --socket "$WORK/uspec.sock" stats)
echo "$stats"
echo "$stats" | grep -q '"hit_rate":' || {
  echo "FAIL: stats payload missing hit_rate" >&2
  fail=1
}

echo "== shutdown + clean drain"
"$USPEC" query --socket "$WORK/uspec.sock" shutdown
rc=0
wait "$SERVER" || rc=$?
SERVER=
if [ "$rc" -ne 0 ]; then
  echo "FAIL: server exited with status $rc after shutdown" >&2
  fail=1
fi

echo "== nesting bomb on stdin: structured parse error, next answer, exit 0"
# 20,000 nested argument lists: 60 KB, far under the line cap. The front
# end refuses it past its nesting limit instead of overflowing a stack.
opens=$(printf 'f(%.0s' $(seq 20000))
closes=$(printf ')%.0s' $(seq 20000))
bomb="class C { def m() { a.put(${opens}a${closes}); } }"
tiny="class Main { def main() { var m = new Map(); m.put(1, 2); } }"
rc=0
out=$(printf '%s\n%s\n' \
  "{\"id\":\"bomb\",\"verb\":\"analyze\",\"program\":\"$bomb\"}" \
  "{\"id\":\"next\",\"verb\":\"analyze\",\"program\":\"$tiny\"}" |
  "$USPEC" serve --model "$WORK/run.uspb") || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: serve exited with status $rc on a nesting bomb" >&2
  fail=1
fi
if ! echo "$out" | sed -n 1p |
  grep -q '^{"id":"bomb","ok":false,"error":{"kind":"parse_error"'; then
  echo "FAIL: the nesting bomb did not get a structured parse error:" >&2
  echo "$out" | sed -n 1p | cut -c1-300 >&2
  fail=1
fi
if ! echo "$out" | sed -n 2p | grep -q '^{"id":"next","ok":true'; then
  echo "FAIL: the request after the nesting bomb was not answered:" >&2
  echo "$out" | sed -n 2p | cut -c1-300 >&2
  fail=1
fi
[ "$fail" -eq 0 ] && echo "nesting bomb: parse error, next request answered"

echo "== fault-injected serve: worker death must not break byte-identity"
USPEC_FAULT=service.worker:1 "$USPEC" serve --model "$WORK/run.uspb" \
  --socket "$WORK/uspec2.sock" --workers 2 2>/dev/null &
SERVER=$!
for _ in $(seq 100); do
  [ -S "$WORK/uspec2.sock" ] && break
  sleep 0.1
done
[ -S "$WORK/uspec2.sock" ] || {
  echo "FAIL: fault-injected server socket never appeared" >&2
  exit 1
}
# First request hits the armed fault: a structured internal error, answered
# (not a hung or dropped connection). --retries only retries transient
# errors, so the internal error surfaces on the first attempt.
first=$("$USPEC" query --socket "$WORK/uspec2.sock" --retries 2 specs \
  2>&1 || true)
if ! echo "$first" | grep -q '"kind":"internal"'; then
  echo "FAIL: dying worker did not answer a structured internal error:" >&2
  echo "$first" >&2
  fail=1
fi
# The replacement worker serves byte-identical payloads.
for i in 0 1 2; do
  "$USPEC" query --socket "$WORK/uspec2.sock" \
    analyze "$WORK/corpus/prog$i.mini" > "$WORK/afterfault.$i.json"
  if ! cmp -s "$WORK/expected.$i.json" "$WORK/afterfault.$i.json"; then
    echo "FAIL: program $i differs from analyze --json after worker death" >&2
    fail=1
  fi
done
"$USPEC" query --socket "$WORK/uspec2.sock" shutdown >/dev/null
rc=0
wait "$SERVER" || rc=$?
SERVER=
if [ "$rc" -ne 0 ]; then
  echo "FAIL: fault-injected server exited with status $rc" >&2
  fail=1
fi
[ "$fail" -eq 0 ] && echo "worker death: answered, recovered, byte-identical"

if [ "$fail" -eq 0 ]; then
  echo "service smoke: OK"
else
  echo "service smoke: FAILED" >&2
fi
exit "$fail"
