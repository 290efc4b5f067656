#!/usr/bin/env bash
# Paired sdbench runs of two checkouts, judged by `sdbench compare`.
#
# For each seed it runs `bench/sdbench/run.py --workload WORKLOAD --seed
# SEED --seconds SECONDS --out FILE` in the base checkout and in the
# candidate checkout, one after the other.  The side that goes first
# alternates from seed to seed (the base on the 1st, 3rd, ... seed), so
# a drift of a shared host lands on both sides.  Each checkout builds
# its own sdbench from its own sources into its `.bench_build/`; nothing
# under bench/sdbench/ is changed.  Arguments after `--` go to every
# run (e.g. `-- --trace 1`); a traced run keeps its Perfetto trace as
# SIDE-SEED.trace.json next to the results.  At the end it prints
# `sdbench compare BASE CANDIDATE` (the candidate checkout's sdbench and
# BENCHMARK.json) and exits with its status.
#
# Usage:
#   scripts/sdbench_pairs.sh BASE_DIR CANDIDATE_DIR WORKLOAD SECONDS \
#       SEED [SEED...] [-- RUN_ARGS...]
# Example, ten collection pairs at the benchmark's run length:
#   scripts/sdbench_pairs.sh ../parent . collection 20 1 2 3 4 5 6 7 8 9 10
#
# Results go to a new directory under ${TMPDIR:-/tmp}, printed first:
# base.jsonl and candidate.jsonl, one line per run.  Benchmark copies of
# the trees, not a checkout being edited: run.py rebuilds from the live
# sources at every run.
set -euo pipefail

usage() {
  echo "usage: $0 BASE_DIR CANDIDATE_DIR WORKLOAD SECONDS SEED [SEED...]" \
       "[-- RUN_ARGS...]" >&2
  exit 2
}
[ "$#" -ge 5 ] || usage
BASE="$(cd "$1" && pwd)"
CANDIDATE="$(cd "$2" && pwd)"
WORKLOAD="$3"
SECONDS_PER_RUN="$4"
shift 4
SEEDS=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
  SEEDS+=("$1")
  shift
done
[ "$#" -gt 0 ] && shift  # the `--`
RUN_ARGS=("$@")
[ "${#SEEDS[@]}" -gt 0 ] || usage

OUT="$(mktemp -d "${TMPDIR:-/tmp}/sdbench-pairs.XXXXXX")"
echo "sdbench_pairs: results in $OUT"

# run SIDE DIR SEED: one sdbench run in checkout DIR, appended to
# $OUT/SIDE.jsonl; its summary line goes to stderr.
run() {
  local side="$1" dir="$2" seed="$3"
  echo "sdbench_pairs: $WORKLOAD seed $seed, $side" >&2
  (cd "$dir" && python3 bench/sdbench/run.py --workload "$WORKLOAD" \
     --seed "$seed" --seconds "$SECONDS_PER_RUN" --out "$OUT/$side.jsonl" \
     --trace-out "$OUT/$side-$seed.trace.json" ${RUN_ARGS[@]+"${RUN_ARGS[@]}"} \
     2>/dev/null | tail -n 1) >&2
}

i=0
for seed in "${SEEDS[@]}"; do
  if [ $((i % 2)) -eq 0 ]; then
    run base "$BASE" "$seed"
    run candidate "$CANDIDATE" "$seed"
  else
    run candidate "$CANDIDATE" "$seed"
    run base "$BASE" "$seed"
  fi
  i=$((i + 1))
done

exec "$CANDIDATE/.bench_build/sdbench" compare "$OUT/base.jsonl" \
  "$OUT/candidate.jsonl" --benchmark "$CANDIDATE/BENCHMARK.json"
