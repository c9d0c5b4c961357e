#!/usr/bin/env bash
# End-to-end smoke test of the oblxd daemon (docs/SERVER.md): boot it on
# its Unix socket and on authenticated loopback TCP, prove the token gate
# (the right token answered, a wrong one refused), prove the compile cache
# hits on a repeated topology, check stats sum the finished jobs' moves
# and evaluations, prove cancellation propagates cut_reason,
# serve two clients at once, answer stats and a corpus lookup over TCP,
# survive a kill -9 with the job log answering for pre-restart ids (a
# finished job's result byte-identical, a traced job's events included,
# no journal line rejected) and the winner corpus rebuilt from it
# byte-identical, resynthesize a replayed job warm from its winner, and
# shut down leaving neither listener behind and no state file beside the
# job log and the job records. CI runs this as
# the serve-smoke job; locally it is `make serve-smoke`. Everything lives
# in a temp dir, nothing is left behind.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bin/oblxd.exe bin/astrx.exe

OBLXD=_build/default/bin/oblxd.exe
ASTRX=_build/default/bin/astrx.exe
DIR=$(mktemp -d)
SOCK="$DIR/oblxd.sock"

fail() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }
cleanup() {
  if [ -n "${DAEMON_PID:-}" ]; then kill "$DAEMON_PID" 2>/dev/null || true; fi
  rm -rf "$DIR"
}
trap cleanup EXIT

echo serve-smoke-secret > "$DIR/token"
echo wrong-secret > "$DIR/bad-token"
# The token gates both transports, so every client call presents it.
AUTH=(--auth-token-file "$DIR/token")

# Boot the daemon on the socket plus an ephemeral TCP port, and scrape the
# port from its banner into $TCP.
boot() {
  "$OBLXD" --socket "$SOCK" --tcp 127.0.0.1:0 "${AUTH[@]}" --workers 1 \
    --state-dir "$DIR/state" > "$DIR/oblxd.log" 2>&1 &
  DAEMON_PID=$!
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^oblxd: tcp on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$DIR/oblxd.log" | head -1)
    if [ -n "$port" ] && [ -S "$SOCK" ]; then break; fi
    sleep 0.1
  done
  [ -n "$port" ] && [ -S "$SOCK" ] || fail "daemon never reported its socket and TCP port"
  TCP="tcp:127.0.0.1:$port"
}

boot

echo "== auth gate =="
"$ASTRX" stats --socket "$TCP" "${AUTH[@]}" --json >/dev/null || fail "correct token refused"
if "$ASTRX" stats --socket "$TCP" --auth-token-file "$DIR/bad-token" --json \
    > "$DIR/bad.out" 2>&1; then
  fail "wrong token accepted"
fi
grep -q "authentication failed" "$DIR/bad.out" || fail "refusal does not name auth"

echo "== first submission (compile miss) =="
OUT1=$("$ASTRX" submit simple-ota --socket "$SOCK" "${AUTH[@]}" --moves 500 --wait --json)
echo "$OUT1"
echo "$OUT1" | grep -q '"state":"done"' || fail "first job did not finish"
echo "$OUT1" | grep -q '"cache":"miss"' || fail "first job should miss the cache"

echo "== second submission (cache hit) =="
OUT2=$("$ASTRX" submit simple-ota --socket "$SOCK" "${AUTH[@]}" --seed 2 --moves 500 --wait --json)
echo "$OUT2" | grep -q '"state":"done"' || fail "second job did not finish"
echo "$OUT2" | grep -q '"cache":"hit"' || fail "second submission should hit the compile cache"

echo "== stats sum the finished jobs =="
# num KEY JSON: the first integer member KEY of JSON.
num() { echo "$2" | grep -o "\"$1\":[0-9]*" | sed -n '1s/.*://p'; }
STATS=$("$ASTRX" stats --socket "$SOCK" "${AUTH[@]}" --json)
TELEMETRY=$(echo "$STATS" | grep -o '"telemetry":{[^}]*}')
EVALS=$(echo "$STATS" | grep -o '"evals":{[^}]*}')
MOVES=$(( $(num moves "$OUT1") + $(num moves "$OUT2") ))
[ "$(num moves "$TELEMETRY")" = "$MOVES" ] \
  || fail "stats $TELEMETRY, but the two jobs made $MOVES moves"
# Each exact evaluation counts one full or one incremental, and each
# resync one more full.
JOB_EVALS=$(( $(num evals "$OUT1") + $(num evals "$OUT2") ))
COUNTED=$(( $(num full "$EVALS") + $(num incremental "$EVALS") - $(num resyncs "$EVALS") ))
[ "$COUNTED" = "$JOB_EVALS" ] \
  || fail "stats $EVALS count $COUNTED evaluations, but the two jobs made $JOB_EVALS"

echo "== cancellation propagates cut_reason =="
ID=$("$ASTRX" submit simple-ota --socket "$SOCK" "${AUTH[@]}" --moves 20000000 --json | sed 's/[^0-9]//g')
sleep 0.5
"$ASTRX" cancel "$ID" --socket "$SOCK" "${AUTH[@]}"
RES=""
for _ in $(seq 1 100); do
  RES=$("$ASTRX" result "$ID" --socket "$SOCK" "${AUTH[@]}" --json)
  if echo "$RES" | grep -q '"state":"cancelled"'; then break; fi
  sleep 0.1
done
echo "$RES" | grep -q '"state":"cancelled"' || fail "cancelled job never reached state=cancelled"
echo "$RES" | grep -q '"cut_reason":"cancelled"' || fail "cut_reason not propagated to the job record"

echo "== stats =="
"$ASTRX" stats --socket "$SOCK" "${AUTH[@]}"
"$ASTRX" stats --socket "$SOCK" "${AUTH[@]}" --json | grep -q '"hit_rate"' || fail "stats carry no cache hit rate"
"$ASTRX" stats --socket "$SOCK" "${AUTH[@]}" --json | grep -q '"connections"' || fail "stats carry no connection counters"

echo "== two concurrent clients =="
"$ASTRX" submit simple-ota --socket "$SOCK" "${AUTH[@]}" --seed 11 --moves 4000 --wait --json > "$DIR/c1.json" &
C1=$!
"$ASTRX" submit simple-ota --socket "$TCP" "${AUTH[@]}" --seed 12 --moves 4000 --events --wait --json > "$DIR/c2.json" &
C2=$!
# A third client must be answered while both waiters are in flight.
"$ASTRX" stats --socket "$SOCK" "${AUTH[@]}" --json >/dev/null || fail "stats blocked behind in-flight clients"
wait "$C1" || fail "first concurrent client failed"
wait "$C2" || fail "second concurrent client failed"
grep -q '"state":"done"' "$DIR/c1.json" || fail "first concurrent job did not finish"
grep -q '"state":"done"' "$DIR/c2.json" || fail "second concurrent job did not finish"
grep -q '"events":\[{' "$DIR/c2.json" || fail "the --events job carries no stage events"

echo "== stats and corpus over tcp =="
"$ASTRX" stats --socket "$TCP" "${AUTH[@]}" --json | grep -q '"jobs"' || fail "stats over tcp carry no jobs block"
# Recording into the winner corpus is always on, so the finished
# simple-ota jobs are in it under their shape hash.
SHAPE=$("$ASTRX" hash simple-ota | sed -n 's/^shape //p')
[ -n "$SHAPE" ] || fail "astrx hash printed no shape"
"$ASTRX" corpus "$SHAPE" --socket "$TCP" "${AUTH[@]}" --json | grep -q '"shape"' \
  || fail "corpus over tcp is empty for shape $SHAPE"

echo "== kill -9, restart, job-log replay =="
DONE_ID=$(grep -o '"id":[0-9]*' "$DIR/c1.json" | head -1 | sed 's/[^0-9]//g')
TRACED_ID=$(grep -o '"id":[0-9]*' "$DIR/c2.json" | head -1 | sed 's/[^0-9]//g')
for id in "$DONE_ID" "$TRACED_ID"; do
  "$ASTRX" result "$id" --socket "$SOCK" "${AUTH[@]}" --json > "$DIR/done-$id-before.json" \
    || fail "no result for job $id before the restart"
done
"$ASTRX" corpus "$SHAPE" --socket "$SOCK" "${AUTH[@]}" --json > "$DIR/corpus-before.json" \
  || fail "no corpus before the restart"
# Leave a job running when the daemon dies: it cannot be resumed and must
# be replayed as failed("daemon restarted").
ORPHAN_ID=$("$ASTRX" submit simple-ota --socket "$SOCK" "${AUTH[@]}" --moves 20000000 --json | sed 's/[^0-9]//g')
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
rm -f "$DIR/oblxd.log"
boot
for id in "$DONE_ID" "$TRACED_ID"; do
  "$ASTRX" result "$id" --socket "$SOCK" "${AUTH[@]}" --json > "$DIR/done-$id-after.json" \
    || fail "restarted daemon does not know job $id"
  cmp -s "$DIR/done-$id-before.json" "$DIR/done-$id-after.json" \
    || { diff "$DIR/done-$id-before.json" "$DIR/done-$id-after.json" >&2 || true
         fail "replayed job $id's result is not byte-identical"; }
done
# The corpus is rebuilt from the replayed job log, entry for entry.
"$ASTRX" corpus "$SHAPE" --socket "$SOCK" "${AUTH[@]}" --json > "$DIR/corpus-after.json" \
  || fail "no corpus after the restart"
cmp -s "$DIR/corpus-before.json" "$DIR/corpus-after.json" \
  || { diff "$DIR/corpus-before.json" "$DIR/corpus-after.json" >&2 || true
       fail "the rebuilt corpus for shape $SHAPE is not byte-identical"; }
ORES=$("$ASTRX" result "$ORPHAN_ID" --socket "$SOCK" "${AUTH[@]}" --json) || fail "restarted daemon does not know job $ORPHAN_ID"
echo "$ORES" | grep -q '"state":"failed"' || fail "interrupted job $ORPHAN_ID not failed on replay"
echo "$ORES" | grep -q 'daemon restarted' || fail "interrupted job $ORPHAN_ID lacks the restart verdict"
STATS=$("$ASTRX" stats --socket "$SOCK" "${AUTH[@]}" --json)
echo "$STATS" | grep -q '"restored_jobs"' || fail "stats carry no restored_jobs"
echo "$STATS" | grep -o '"journal":{[^}]*}' | grep -q '"rejected":0[,}]' \
  || fail "replay rejected journal lines: $(echo "$STATS" | grep -o '"journal":{[^}]*}')"

echo "== resynthesize a replayed job =="
# Rerun the replayed job with a tweaked ugf target, warm from its recorded
# winner. --runs 1: the single restart is the warm-seeded one, so the
# winner's recorded seed label is deterministic.
RZ=$("$ASTRX" resynthesize "$DONE_ID" --socket "$SOCK" "${AUTH[@]}" --set ugf=45meg --runs 1 --wait --json)
echo "$RZ" | grep -q '"state":"done"' || fail "resynthesize job did not finish: $RZ"
echo "$RZ" | grep -q '"warm":' || fail "resynthesize result records no warm seed"
echo "$RZ" | grep -q '#resynth:'"$DONE_ID" || fail "resynthesize job does not name its parent"

echo "== clean shutdown =="
"$ASTRX" shutdown --socket "$SOCK" "${AUTH[@]}"
for _ in $(seq 1 100); do
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then break; fi
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then fail "daemon still alive after shutdown"; fi
DAEMON_PID=
if [ -S "$SOCK" ]; then fail "socket file not removed on shutdown"; fi
if "$ASTRX" stats --socket "$TCP" "${AUTH[@]}" --json >/dev/null 2>&1; then
  fail "TCP listener survived the shutdown"
fi
ls "$DIR/state" | grep -q '^job-' || fail "no job records in the state dir"
# One journal: the state dir holds jobs.log and the job records, nothing else.
EXTRA=$(ls "$DIR/state" | grep -v -e '^jobs\.log$' -e '^job-[0-9]*\.json$' || true)
[ -z "$EXTRA" ] || fail "the state dir holds more than the job log and records: $EXTRA"

echo "serve-smoke: OK"
