#!/usr/bin/env bash
# Renders and traces every damaged corpus the corpus mutator writes.
#
# For each SEED it runs `sdchecker fuzz CORPUS --seed SEED --out DIR`:
# every damage class in batch and through the follow leg, which must
# report follow=batch (fuzz exits 1 otherwise).  Then, for every class
# DIR/<class>:
#   - `analyze DIR/<class> --json F` must exit 0 or 3 (3: the corpus
#     diagnostics the damage caused), and F must parse as JSON
#     (`python3 -m json.tool`);
#   - `trace DIR/<class> --check` must exit 0 or 3: damage leaves
#     components undrawn, which the check allows, but never a broken
#     trace.
# Exits 1 naming the first failure, 0 when every class of every seed
# passes, 2 on a usage error.
#
# Usage:
#   scripts/damage_sweep.sh SDCHECKER CORPUS SEED [SEED...]
# Example, the seeds of CI's sanitized sweep:
#   scripts/damage_sweep.sh build/tools/sdchecker testdata/golden_small \
#       1 20170703
set -euo pipefail

usage() {
  echo "usage: $0 SDCHECKER CORPUS SEED [SEED...]" >&2
  exit 2
}
[ "$#" -ge 3 ] || usage
SDCHECKER="$1"
CORPUS="$2"
shift 2

WORK="$(mktemp -d "${TMPDIR:-/tmp}/damage-sweep.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "damage_sweep: $*" >&2
  exit 1
}

# expect_0_or_3 WHAT COMMAND...: runs COMMAND and fails the sweep,
# showing its stderr, unless it exits 0 or 3.
expect_0_or_3() {
  local what="$1" code=0
  shift
  "$@" > "$WORK/stdout" 2> "$WORK/stderr" || code=$?
  if [ "$code" -ne 0 ] && [ "$code" -ne 3 ]; then
    cat "$WORK/stderr" >&2
    fail "$what exited $code"
  fi
}

for seed in "$@"; do
  mutants="$WORK/seed-$seed"
  "$SDCHECKER" fuzz "$CORPUS" --seed "$seed" --out "$mutants"
  classes=0
  for dir in "$mutants"/*/; do
    class="$(basename "$dir")"
    doc="$WORK/$class.analysis.json"
    expect_0_or_3 "seed $seed $class: analyze" \
      "$SDCHECKER" analyze "$dir" --json "$doc"
    python3 -m json.tool "$doc" > /dev/null ||
      fail "seed $seed $class: the analysis document does not parse"
    expect_0_or_3 "seed $seed $class: trace --check" \
      "$SDCHECKER" trace "$dir" --out "$WORK/$class.trace.json" --check
    classes=$((classes + 1))
  done
  [ "$classes" -gt 0 ] || fail "seed $seed: fuzz wrote no mutants"
  echo "damage_sweep: seed $seed: $classes class(es) analyzed and traced"
done
