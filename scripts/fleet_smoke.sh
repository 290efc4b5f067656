#!/usr/bin/env bash
# Fleet-mode smoke: run the pipelined multi-corpus pipeline over four
# simulated corpora and require
#   1. every per-corpus JSON written by `fleet --out-dir` is
#      byte-identical to a standalone `sdchecker analyze --json` of the
#      same directory (the fleet pipeline is an invisible optimization),
#   2. the regression gate passes against the fleet's own summary
#      (no self-drift: exit 0/3, never 4),
#   3. the gate trips (exit 4) against a baseline recorded from a
#      deliberately shifted fleet (same seeds, 16 executors and 2 GB
#      inputs instead of the defaults, so every delay distribution
#      moves),
#   4. a malformed baseline is a hard error (exit 1), not a silent pass.
# Usage: scripts/fleet_smoke.sh [BUILD_DIR]  (default: build; ctest runs
# it as `fleet_smoke` with the build tree's path)
set -euo pipefail

BUILD_DIR="${1:-build}"
SDCHECKER="$BUILD_DIR/tools/sdchecker"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/sdc-fleet-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# `fleet` and `analyze` exit 3 when corpora carry diagnostics — fine
# here; anything else (including 4, drift) is a failure at these sites.
ok_or_diag() {
  local rc=0
  "$@" || rc=$?
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 3 ]; then
    echo "fleet_smoke: '$*' exited $rc" >&2
    exit 1
  fi
}

# Four corpora of different sizes under one root.
ROOT="$WORK/fleet"
for i in 0 1 2 3; do
  "$SDCHECKER" simulate "$ROOT/corpus$i" \
    --jobs $((3 + i * 2)) --seed $((21 + i))
done

# One fleet pass: per-corpus documents plus the summary baseline.
ok_or_diag "$SDCHECKER" fleet "$ROOT" --threads 4 \
  --out-dir "$WORK/out" --json "$WORK/fleet.json"

# 1. Byte parity: fleet output == standalone analyze, per corpus.
for i in 0 1 2 3; do
  ok_or_diag "$SDCHECKER" analyze "$ROOT/corpus$i" \
    --json "$WORK/standalone$i.json"
  cmp "$WORK/out/corpus$i.json" "$WORK/standalone$i.json"
done

# 2. Self-gate: a fleet compared against its own summary has no drift.
ok_or_diag "$SDCHECKER" fleet "$ROOT" --baseline "$WORK/fleet.json"

# 3. Seeded drift: same seeds, heavier cluster shape (more executors,
# 2 GB inputs) shifts every component distribution; gating the original
# fleet against this baseline must exit 4.
DRIFT_ROOT="$WORK/drift"
for i in 0 1 2 3; do
  "$SDCHECKER" simulate "$DRIFT_ROOT/corpus$i" \
    --jobs $((3 + i * 2)) --seed $((21 + i)) \
    --executors 16 --input-mb 2048
done
ok_or_diag "$SDCHECKER" fleet "$DRIFT_ROOT" --json "$WORK/drift.json"
RC=0
"$SDCHECKER" fleet "$ROOT" --baseline "$WORK/drift.json" \
  >"$WORK/gate.out" || RC=$?
if [ "$RC" -ne 4 ]; then
  echo "fleet_smoke: drift gate exited $RC, want 4" >&2
  cat "$WORK/gate.out" >&2
  exit 1
fi
grep -q 'DRIFT' "$WORK/gate.out"

# 4. A malformed baseline is a load error, not a silent pass.
echo '{"fleet":{}}' >"$WORK/bad.json"
RC=0
"$SDCHECKER" fleet "$ROOT" --baseline "$WORK/bad.json" >/dev/null 2>&1 || RC=$?
if [ "$RC" -ne 1 ]; then
  echo "fleet_smoke: malformed baseline exited $RC, want 1" >&2
  exit 1
fi

echo "fleet smoke ok: per-corpus byte parity, self-gate clean," \
  "seeded drift trips exit 4, malformed baseline rejected"
