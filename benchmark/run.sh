#!/usr/bin/env bash
# GridVine benchmark. Builds benchmark/ (which compiles the library from
# ../src) into build/benchmark/ on first use, then runs workloads, each in
# its own process.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--smoke] [--out DIR]
#
#   --workload W   lookup_planetlab | selforg_mediation | serving_flash_crowd
#                  | scale_sharded; all four when omitted
#   --seed N       input seed (default 1)
#   --seconds S    measuring time per run (default 30)
#   --trace [0|1]  1 (or bare --trace): traced run, reports per-layer metrics
#   --smoke        tiny inputs, every workload untraced and traced, and the
#                  printed results checked against BENCHMARK.json
#   --out DIR      result JSON directory (default build/benchmark/results)
#
# Each run prints "name value unit" per metric and, as its last line, one
# JSON object {correct, attempted, failed, metrics}. The exit status is
# non-zero when the build or any correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build/benchmark"
all_workloads=(lookup_planetlab selforg_mediation serving_flash_crowd
               scale_sharded)

workload=""
seed=1
seconds=30
trace=0
smoke=0
out="$build/results"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ $# -gt 1 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=1; shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p "$build"
log="$build/build.log"
jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$jobs"; } >"$log" 2>&1; then
  echo "run.sh: build failed; the end of $log:" >&2
  tail -n 20 "$log" >&2
  exit 1
fi

mkdir -p "$out"
out="$(cd "$out" && pwd)"
sha=unknown
dirty=-1
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
  sha="$(git -C "$root" rev-parse HEAD)"
  dirty=0
  [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]] && dirty=1
fi

run_one() {  # workload trace extra-args...
  "$build/gridvine_bench" --workload "$1" --seed "$seed" --seconds "$seconds" \
    --trace "$2" --out "$out" --git-sha "$sha" --git-dirty "$dirty" "${@:3}"
}

if [[ "$smoke" == 1 ]]; then
  status=0
  for w in "${all_workloads[@]}"; do
    for t in 0 1; do
      echo "== smoke $w trace=$t"
      if ! run_one "$w" "$t" --smoke --seconds 0.1 | tee "$build/smoke.out" ||
         ! tail -n 1 "$build/smoke.out" |
           python3 "$here/compare.py" check --trace "$t"; then
        echo "run.sh: smoke run of $w (trace=$t) failed" >&2
        status=1
      fi
    done
  done
  exit "$status"
fi

if [[ -n "$workload" ]]; then
  run_one "$workload" "$trace"
  exit $?
fi
status=0
for w in "${all_workloads[@]}"; do
  echo "== $w"
  run_one "$w" "$trace" || status=1
done
exit "$status"
