#!/usr/bin/env bash
# Byte-identity of two sdchecker binaries over the same corpora: the
# check a change that must not move any output (a refactor, a speed-up)
# is judged by.
#
# Each side runs in its own working directory, where corpora/N is a
# symlink to the Nth CORPUS and every output file goes under out/STEP/,
# so the paths a run prints are the same on both sides.  For each step
# the script compares the step's stdout, its exit status and every file
# it wrote.  Steps, on each corpus N:
#   - `analyze` with --json --csv --delays-csv --containers-csv
#     --events-csv, at --threads/--analyze-shards 1/1, 4/4 and 3/7;
#   - `trace --out`;
#   - `timeline` and `graph --out` of the corpus's first application;
#   - `diff` against the next corpus given (the first after the last);
#   - `follow --exit-quiescent 3 --poll-ms 20 --json`;
#   - `fuzz --seed S --out` at seeds 1, 42 and 20170703: the damage
#     sweep's report and every mutant file (a 2,000-job corpus's eight
#     mutants take about 44 MB per side);
# then `fleet --json --out-dir` over corpora/ itself, at --threads 1
# and 4.  A step's outputs are deleted once they are compared, when the
# next step starts.  Exits 1 naming the first output that differs, 0
# when all are equal, 2 on a usage error.  stderr is not compared.
#
# Usage:
#   scripts/outputs_equal.sh BASE_SDCHECKER CANDIDATE_SDCHECKER CORPUS...
# Example, a parent build against this tree's:
#   scripts/outputs_equal.sh ../parent/build/tools/sdchecker \
#       build/tools/sdchecker testdata/golden_small
set -euo pipefail

usage() {
  echo "usage: $0 BASE_SDCHECKER CANDIDATE_SDCHECKER CORPUS..." >&2
  exit 2
}
[ "$#" -ge 3 ] || usage

# abs PATH: PATH made absolute (its last component is kept as given).
abs() {
  printf '%s/%s\n' "$(cd "$(dirname "$1")" && pwd)" "$(basename "$1")"
}

BASE="$(abs "$1")"
CANDIDATE="$(abs "$2")"
shift 2
for bin in "$BASE" "$CANDIDATE"; do
  [ -x "$bin" ] || { echo "outputs_equal: not executable: $bin" >&2; usage; }
done
CORPORA=()
for corpus in "$@"; do
  [ -d "$corpus" ] || { echo "outputs_equal: no directory: $corpus" >&2; usage; }
  CORPORA+=("$(abs "$corpus")")
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/sdc-outputs-equal.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
# A signal ends the script through its EXIT trap too.
trap 'exit 1' INT TERM
for side in base candidate; do
  mkdir -p "$WORK/$side/corpora" "$WORK/$side/out"
  for n in "${!CORPORA[@]}"; do
    ln -s "${CORPORA[$n]}" "$WORK/$side/corpora/$n"
  done
done

steps=0
previous=
# step NAME ARG...: deletes the previous step's outputs, runs
# `sdchecker ARG...` on both sides, an ARG that starts with OUT/ naming a
# path under out/NAME/, then compares everything the two runs left in
# out/NAME/ (one `diff -rq`: a file on one side only differs too).
step() {
  local name="$1"
  shift
  if [ -n "$previous" ]; then
    rm -rf "$WORK/base/out/$previous" "$WORK/candidate/out/$previous"
  fi
  previous="$name"
  local args=("${@/#OUT\//out/$name/}")
  local side bin rc
  for side in base candidate; do
    bin="$BASE"
    [ "$side" = candidate ] && bin="$CANDIDATE"
    mkdir -p "$WORK/$side/out/$name"
    rc=0
    (cd "$WORK/$side" &&
       "$bin" "${args[@]}" > "out/$name/stdout" 2> /dev/null) || rc=$?
    echo "$rc" > "$WORK/$side/out/$name/exit-status"
  done
  local differs
  if ! differs="$(cd "$WORK" &&
                  diff -rq "base/out/$name" "candidate/out/$name")"; then
    echo "outputs_equal: differs: ${differs%%$'\n'*}" \
         "(sdchecker ${args[*]})" >&2
    exit 1
  fi
  steps=$((steps + 1))
}

count="${#CORPORA[@]}"
for n in "${!CORPORA[@]}"; do
  corpus="corpora/$n"
  # 1/1 runs last, so its delays.csv is still there to name the first
  # application.
  for shape in 4/4 3/7 1/1; do
    step "analyze-$n-${shape/\//-}" analyze "$corpus" \
      --threads "${shape%/*}" --analyze-shards "${shape#*/}" \
      --json OUT/analysis.json --csv OUT/aggregate.csv \
      --delays-csv OUT/delays.csv --containers-csv OUT/containers.csv \
      --events-csv OUT/events.csv
  done
  app="$(sed -n '2s/,.*//p' "$WORK/base/out/analyze-$n-1-1/delays.csv")"
  step "trace-$n" trace "$corpus" --out OUT/trace.json
  if [ -n "$app" ]; then
    step "timeline-$n" timeline "$corpus" "$app"
    step "graph-$n" graph "$corpus" "$app" --out OUT/graph.dot
  fi
  step "diff-$n" diff "$corpus" "corpora/$(((n + 1) % count))"
  step "follow-$n" follow "$corpus" --exit-quiescent 3 --poll-ms 20 \
    --json OUT/follow.json
  for seed in 1 42 20170703; do
    step "fuzz-$n-$seed" fuzz "$corpus" --seed "$seed" --out OUT/mutants
  done
done
for threads in 1 4; do
  step "fleet-$threads" fleet corpora --threads "$threads" \
    --json OUT/fleet.json --out-dir OUT/corpora
done
echo "outputs_equal: $steps steps over $count corpora, all outputs equal"
