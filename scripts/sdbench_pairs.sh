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
# BENCHMARK.json), then for each end-to-end metric how many pairs the
# candidate won: runs are paired by workload and `header.seed`, the
# direction is the metric's `better` in BENCHMARK.json, and a tie counts
# for neither side.  Traced and incorrect runs pair with nothing, as
# compare ignores them.  Then, per workload and end-to-end metric, each
# side's median and quartiles over the paired runs, and the claim rule:
# `claim met` when the candidate won at least nine tenths of the pairs
# and its median beats the base's by more than the base's interquartile
# distance, `not met` otherwise.  Last it names every run recorded with
# `correct: false` (workload, seed, side) and prints its `errors`, so a
# failed gate is on record.  The script exits with compare's status.
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
  # A failed or incorrect run is in $side.jsonl too (compare counts it
  # in error_rate), so it does not stop the remaining pairs.
  (cd "$dir" && python3 bench/sdbench/run.py --workload "$WORKLOAD" \
     --seed "$seed" --seconds "$SECONDS_PER_RUN" --out "$OUT/$side.jsonl" \
     --trace-out "$OUT/$side-$seed.trace.json" ${RUN_ARGS[@]+"${RUN_ARGS[@]}"} \
     2>/dev/null | tail -n 1) >&2 ||
    echo "sdbench_pairs: $WORKLOAD seed $seed, $side: run exited non-zero" >&2
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

status=0
"$CANDIDATE/.bench_build/sdbench" compare "$OUT/base.jsonl" \
  "$OUT/candidate.jsonl" --benchmark "$CANDIDATE/BENCHMARK.json" ||
  status=$?

python3 - "$OUT/base.jsonl" "$OUT/candidate.jsonl" \
  "$CANDIDATE/BENCHMARK.json" <<'PY' || true
import json
import sys


def records(path):
    """Every run record of a results file, in file order."""
    try:
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]
    except FileNotFoundError:
        return []


def percentile(values, p):
    """Linear interpolation between the closest ranks, as sdbench's."""
    values = sorted(values)
    rank = p / 100 * (len(values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (rank - lo)


def runs(path):
    """(workload, seed) -> the end-to-end values of each untraced,
    correct run, in file order."""
    out = {}
    for run in records(path):
        if run.get("trace") or not run.get("correct"):
            continue
        key = (run["workload"], run["header"]["seed"])
        values = {k: v["value"] for k, v in run["metrics"].items()}
        out.setdefault(key, []).append(values)
    return out


base, candidate = runs(sys.argv[1]), runs(sys.argv[2])
with open(sys.argv[3]) as f:
    metrics = json.load(f)["end_to_end"]
pairs = {}
for key in sorted(base.keys() & candidate.keys()):
    pairs.setdefault(key[0], []).extend(zip(base[key], candidate[key]))
print("\npairs won by the candidate (paired by seed; ties count for neither)")
if not pairs:
    print("  no untraced pairs")
tallies = []
for workload, runs_of in pairs.items():
    for metric in metrics:
        name = metric["name"]
        sign = 1 if metric["better"] == "higher" else -1
        both = [(a[name], b[name]) for a, b in runs_of if name in a and name in b]
        won = sum(sign * (b - a) > 0 for a, b in both)
        lost = sum(sign * (b - a) < 0 for a, b in both)
        print(f"  {workload:<12} {name:<14} won {won}/{len(both)}, "
              f"lost {lost}/{len(both)}")
        if both:
            tallies.append((workload, name, sign, won, both))

print("\nclaim rule: median [quartiles] of the paired runs; `claim met` when "
      "the candidate won >= 9/10 of the pairs\nand the medians differ, in "
      "the better direction, by more than the base's interquartile distance")
if not tallies:
    print("  no untraced pairs")
for workload, name, sign, won, both in tallies:
    base_q = [percentile([a for a, _ in both], p) for p in (25, 50, 75)]
    cand_q = [percentile([b for _, b in both], p) for p in (25, 50, 75)]
    met = (won * 10 >= 9 * len(both) and
           sign * (cand_q[1] - base_q[1]) > base_q[2] - base_q[0])
    ratio = f"x{cand_q[1] / base_q[1]:.3f}" if base_q[1] else "x-"
    print(f"  {workload:<12} {name:<14} "
          f"base {base_q[1]:.6g} [{base_q[0]:.6g}, {base_q[2]:.6g}]  "
          f"candidate {cand_q[1]:.6g} [{cand_q[0]:.6g}, {cand_q[2]:.6g}]  "
          f"{ratio}  {'claim met' if met else 'not met'}")

print("\nruns recorded with correct: false")
failed = 0
for side, path in (("base", sys.argv[1]), ("candidate", sys.argv[2])):
    for run in records(path):
        if run.get("correct"):
            continue
        failed += 1
        seed = run.get("header", {}).get("seed")
        print(f"  {run.get('workload')} seed {seed} {side}: "
              f"{json.dumps(run.get('errors', []))}")
if not failed:
    print("  none")
PY
exit "$status"
