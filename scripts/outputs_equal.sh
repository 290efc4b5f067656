#!/usr/bin/env bash
# Byte-identity of two sdchecker binaries over the same corpora: the
# check a change that must not move any output (a refactor, a speed-up)
# is judged by.
#
# Each side runs in its own working directory, where corpora/N is a
# symlink to the Nth CORPUS and every output file goes under out/STEP/,
# so the paths a run prints are the same on both sides.  For each step
# the script cmps the step's stdout, its exit status and every file it
# wrote.  Steps, on each corpus N:
#   - `analyze` with --json --csv --delays-csv --containers-csv
#     --events-csv, at --threads/--analyze-shards 1/1, 4/4 and 3/7;
#   - `trace --out`;
#   - `timeline` and `graph --out` of the corpus's first application;
#   - `diff` against the next corpus given (the first after the last);
#   - `follow --exit-quiescent 3 --poll-ms 20 --json`;
# then `fleet --json --out-dir` over corpora/ itself, at --threads 1
# and 4.  Exits 1 naming the first output that differs, 0 when all are
# equal, 2 on a usage error.  stderr is not compared.
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
for side in base candidate; do
  mkdir -p "$WORK/$side/corpora" "$WORK/$side/out"
  for n in "${!CORPORA[@]}"; do
    ln -s "${CORPORA[$n]}" "$WORK/$side/corpora/$n"
  done
done

steps=0
# step NAME ARG...: runs `sdchecker ARG...` on both sides, an ARG that
# starts with OUT/ naming a file under out/NAME/, then cmps everything
# the two runs left in out/NAME/.
step() {
  local name="$1"
  shift
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
  local files=()
  for side in base candidate; do
    files+=("$(cd "$WORK/$side/out/$name" && find . -type f | sort)")
  done
  if [ "${files[0]}" != "${files[1]}" ]; then
    echo "outputs_equal: differs: $name wrote different files" \
         "(sdchecker ${args[*]})" >&2
    exit 1
  fi
  local file
  while read -r file; do
    if ! cmp -s "$WORK/base/out/$name/$file" \
         "$WORK/candidate/out/$name/$file"; then
      echo "outputs_equal: differs: $name: ${file#./}" \
           "(sdchecker ${args[*]})" >&2
      exit 1
    fi
  done <<< "${files[0]}"
  steps=$((steps + 1))
}

count="${#CORPORA[@]}"
for n in "${!CORPORA[@]}"; do
  corpus="corpora/$n"
  for shape in 1/1 4/4 3/7; do
    step "analyze-$n-${shape/\//-}" analyze "$corpus" \
      --threads "${shape%/*}" --analyze-shards "${shape#*/}" \
      --json OUT/analysis.json --csv OUT/aggregate.csv \
      --delays-csv OUT/delays.csv --containers-csv OUT/containers.csv \
      --events-csv OUT/events.csv
  done
  step "trace-$n" trace "$corpus" --out OUT/trace.json
  app="$(sed -n '2s/,.*//p' "$WORK/base/out/analyze-$n-1-1/delays.csv")"
  if [ -n "$app" ]; then
    step "timeline-$n" timeline "$corpus" "$app"
    step "graph-$n" graph "$corpus" "$app" --out OUT/graph.dot
  fi
  step "diff-$n" diff "$corpus" "corpora/$(((n + 1) % count))"
  step "follow-$n" follow "$corpus" --exit-quiescent 3 --poll-ms 20 \
    --json OUT/follow.json
done
for threads in 1 4; do
  step "fleet-$threads" fleet corpora --threads "$threads" \
    --json OUT/fleet.json --out-dir OUT/corpora
done
echo "outputs_equal: $steps steps over $count corpora, all outputs equal"
