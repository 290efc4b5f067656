#!/usr/bin/env bash
# Follow-mode smoke: tail a corpus that is being written incrementally
# (appends cut mid-line, one mid-flight rotation), then require
#   1. the follow snapshot's analysis_json is byte-identical to a batch
#      `sdchecker analyze` of the final directory,
#   2. every --watch ndjson record passes `sdchecker followcheck`,
#   3. the eviction path actually ran (follow.apps_retired > 0),
# then re-follow the finished directory with `--serve` and require
#   4. /metrics passes `promcheck` and carries the delay histograms,
#   5. /analysis is byte-identical to the batch analysis,
#   6. /healthz answers 200 normally and flips to 503 when the poll
#      loop is wedged with --stall-polls-after.
# Usage: scripts/follow_smoke.sh [BUILD_DIR]  (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
SDCHECKER="$BUILD_DIR/tools/sdchecker"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/sdc-follow-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
STAGE="$WORK/stage"
LIVE="$WORK/live"
mkdir -p "$LIVE"

# `follow` and `analyze` exit 3 when the corpus carries diagnostics (the
# rotation handoff is reported as one) — that is expected here.
ok_or_diag() {
  local rc=0
  "$@" || rc=$?
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 3 ]; then
    echo "follow_smoke: '$*' exited $rc" >&2
    exit 1
  fi
}

"$SDCHECKER" simulate "$STAGE" --jobs 8 --seed 11

# Incremental writer: every stream arrives in byte slices (split is not
# line-aligned, so polls see partial lines); the first stream is rotated
# to `.1` halfway through its life.  The slices are cut before the
# follower starts, so it cannot drain an empty directory to quiescence
# while they are being cut.
ROTATED=""
ROUNDS=6
for f in "$STAGE"/*; do
  name="$(basename "$f")"
  [ -n "$ROTATED" ] || ROTATED="$name"
  split -d -n "$ROUNDS" "$f" "$WORK/slices.$name."
done

# Tail the live directory in the background while the writer below is
# still producing it.
ok_or_diag "$SDCHECKER" follow "$LIVE" --watch --interval 0.2 \
  --poll-ms 50 --exit-quiescent 8 --retire-quiet 2 \
  --json "$WORK/follow.json" >"$WORK/watch.ndjson" &
FOLLOW_PID=$!

for r in $(seq 0 $((ROUNDS - 1))); do
  for f in "$STAGE"/*; do
    name="$(basename "$f")"
    cat "$WORK/slices.$name.0$r" >>"$LIVE/$name"
    if [ "$name" = "$ROTATED" ] && [ "$r" -eq 2 ]; then
      mv "$LIVE/$name" "$LIVE/$name.1"
    fi
  done
  sleep 0.3
done

wait "$FOLLOW_PID" && FOLLOW_RC=0 || FOLLOW_RC=$?
if [ "$FOLLOW_RC" -ne 0 ] && [ "$FOLLOW_RC" -ne 3 ]; then
  echo "follow_smoke: follow exited $FOLLOW_RC" >&2
  exit 1
fi

# 1. Streaming/batch parity at quiescence: byte-identical analysis.
ok_or_diag "$SDCHECKER" analyze "$LIVE" --json "$WORK/batch.json"
cmp "$WORK/follow.json" "$WORK/batch.json"

# 2. Watch stream is schema-valid ndjson.
"$SDCHECKER" followcheck "$WORK/watch.ndjson"

# 3. Terminal applications were retired while following.
grep -q '"follow.apps_retired":[1-9]' "$WORK/watch.ndjson"
# ... and the rotation handoff was observed live.
grep -q '"follow.rotations":[1-9]' "$WORK/watch.ndjson"

# --- serve phase -------------------------------------------------------
# Re-follow the (now final) directory with the embedded observability
# server on an ephemeral port.  Without --exit-quiescent the process
# runs until SIGINT, so the endpoints stay scrapeable.
PROMCHECK="$BUILD_DIR/tools/promcheck"

# Start a backgrounded `follow --serve`, wait for the "serving
# http://..." stderr line, and export SERVE_PID / SERVE_PORT.
start_serve() {
  local errfile="$1"
  shift
  "$SDCHECKER" follow "$LIVE" --poll-ms 50 "$@" \
    >/dev/null 2>"$errfile" &
  SERVE_PID=$!
  SERVE_PORT=""
  for _ in $(seq 1 100); do
    SERVE_PORT="$(sed -n \
      's|^serving http://127\.0\.0\.1:\([0-9]*\)/$|\1|p' "$errfile")"
    [ -z "$SERVE_PORT" ] || return 0
    sleep 0.1
  done
  echo "follow_smoke: no 'serving http://...' line in $errfile" >&2
  exit 1
}

# http_get PATH OUTFILE -> prints the status code ("000" on refusal).
http_get() {
  curl -s -o "$2" -w '%{http_code}' --max-time 5 \
    "http://127.0.0.1:$SERVE_PORT$1" || true
}

stop_serve() {
  kill -INT "$SERVE_PID"
  wait "$SERVE_PID" && local rc=0 || local rc=$?
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 3 ]; then
    echo "follow_smoke: follow --serve exited $rc" >&2
    exit 1
  fi
}

start_serve "$WORK/serve.err" --serve 127.0.0.1:0

# The publisher starts with an empty placeholder document; wait for the
# first non-quiescent poll to publish the real analysis.
for _ in $(seq 1 100); do
  code="$(http_get /analysis "$WORK/serve.analysis.json")"
  if [ "$code" = "200" ] &&
     [ "$(cat "$WORK/serve.analysis.json")" != "{}" ]; then
    break
  fi
  sleep 0.1
done

# 4. /metrics is a valid exposition carrying the catalog + delay series.
test "$(http_get /metrics "$WORK/serve.metrics")" = "200"
"$PROMCHECK" "$WORK/serve.metrics"
grep -q 'sdc_delay_total_bucket{le="+Inf"}' "$WORK/serve.metrics"
grep -q '^obs_http_requests ' "$WORK/serve.metrics"

# 5. The live analysis document equals the batch one, byte for byte.
cmp "$WORK/serve.analysis.json" "$WORK/batch.json"

# /healthz is green while polls are fresh; /varz is the raw snapshot;
# unknown paths are 404.
test "$(http_get /healthz "$WORK/serve.healthz")" = "200"
grep -q '"status":"ok"' "$WORK/serve.healthz"
test "$(http_get /varz "$WORK/serve.varz")" = "200"
grep -q '"mine.lines"' "$WORK/serve.varz"
test "$(http_get /bogus /dev/null)" = "404"
stop_serve

# 6. Wedge the poll loop after two polls: /healthz must flip to 503
# once the poll age passes the (tiny) stall threshold.
start_serve "$WORK/stall.err" --serve 127.0.0.1:0 \
  --stall-polls-after 2 --serve-stall-ms 200
STALLED=""
for _ in $(seq 1 100); do
  code="$(http_get /healthz "$WORK/stall.healthz")"
  if [ "$code" = "503" ]; then
    STALLED=yes
    break
  fi
  sleep 0.1
done
test -n "$STALLED"
grep -q '"status":"stalled"' "$WORK/stall.healthz"
stop_serve

echo "follow smoke ok: parity, watch schema, eviction, rotation," \
  "serve endpoints, prom exposition, stall 503"
