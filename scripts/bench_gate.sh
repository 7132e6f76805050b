#!/usr/bin/env bash
# CI perf gate, two halves:
#
# 1. Behavioral gate — run the DV3-Small smoke benchmark and fail on a
#    >10% *simulated-makespan* regression against the committed baseline.
#    Simulated makespan is deterministic for a fixed (workload, seed), so
#    this catches scheduling/staging/recovery changes, not runner noise.
#
# 2. Throughput gate (ISSUE 10) — run dv3-small, dv3-full, and agc-scale
#    three times each, keep the best (lowest) wall-clock of the simulation
#    proper, write the per-workload array to BENCH_ci.json, and fail on a
#    >25% sim_wall_ms regression against the baseline array. Wall clock is
#    noisy on shared runners, hence best-of-three and the wide margin; the
#    tracked fields are sim_wall_ms and sim_events_per_wall_sec.
#
#    The same section gates the exact work counters of the flow fabric
#    (fabric_changes, fabric_solves, solver_iterations,
#    solver_link_visits, solver_fixes) and of placement (peer_wait_visits,
#    pick_visits):
#    they are deterministic for a fixed (workload, seed), so any rise
#    above the baseline fails, with no noise margin.
#
#    The serving path gets the same wall-clock gate: `vine-fig check
#    fig-shards` (federated facility admissions over the shared store
#    tier) runs three times, and the best wall_ms is written to the same
#    array as the "fig-shards-check" entry and fails above 1.25x the
#    baseline's.
#
# Also runs the no-observer streaming digest gate and the registry
# checks (`vine-fig check all`) — see the sections below.
#
# Usage: scripts/bench_gate.sh [--throughput-only|--no-throughput]
#                              [baseline.json] [out.json]
#   --throughput-only  build + throughput section only (the perf-gate CI job)
#   --no-throughput    everything except the throughput section (bench-gate
#                      CI job; measures makespan from a single run and does
#                      not rewrite BENCH_ci.json)
# To refresh the baseline after an intentional change:
#   scripts/bench_gate.sh && cp BENCH_ci.json results/bench_baseline.json
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=all
POS=()
for arg in "$@"; do
  case "$arg" in
    --throughput-only) MODE=throughput ;;
    --no-throughput) MODE=classic ;;
    *) POS+=("$arg") ;;
  esac
done
BASELINE=${POS[0]-results/bench_baseline.json}
OUT=${POS[1]-BENCH_ci.json}

if [ ! -s "$BASELINE" ]; then
  echo "bench gate: no baseline at $BASELINE" >&2
  exit 1
fi

cargo build --release -p vine-bench --bin vine-sim

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# extract KEY FILE — first value of KEY in a single-object JSON file.
extract() {
  awk -F'[:,]' -v key="\"$1\"" '$0 ~ key { gsub(/[ \t]/, "", $2); print $2; exit }' "$2"
}

# extract_wl KEY WORKLOAD FILE — value of KEY inside the entry of a
# per-workload JSON array whose "workload" field equals WORKLOAD.
# Relies on vine-sim's one-field-per-line output; "workload" opens each
# entry, so tracking the most recent one scopes the key match.
extract_wl() {
  awk -v key="\"$1\"" -v wl="$2" '
    /"workload"/ { cur = $0; sub(/.*: *"/, "", cur); sub(/".*/, "", cur) }
    $0 ~ key && cur == wl {
      v = $0; sub(/.*: */, "", v); gsub(/[ ,\t]/, "", v); print v; exit
    }' "$3"
}

# bench_best WORKLOAD [vine-sim args...] — run the workload three times,
# keep the JSON of the run with the lowest sim_wall_ms (wall-clock of the
# simulation proper) in $TMP/WORKLOAD.best.json.
bench_best() {
  wl=$1
  shift
  best_ms=""
  for i in 1 2 3; do
    ./target/release/vine-sim --workload "$wl" "$@" --no-preflight \
      --bench-json "$TMP/run.json" > /dev/null
    ms=$(extract sim_wall_ms "$TMP/run.json")
    if [ -z "$best_ms" ] || awk -v a="$ms" -v b="$best_ms" 'BEGIN { exit !(a + 0 < b + 0) }'; then
      best_ms=$ms
      cp "$TMP/run.json" "$TMP/$wl.best.json"
    fi
  done
  echo "throughput: $wl best-of-3 sim_wall ${best_ms}ms" \
    "($(extract sim_events_per_wall_sec "$TMP/$wl.best.json") events/s)"
}

WORKLOADS="dv3-small dv3-full agc-scale"

if [ "$MODE" != classic ]; then
  # ---- Throughput section: best-of-3 wall clock per workload ----------
  # dv3-small's gate cell simulates in ~0.5ms, far below timer noise, so
  # it averages 200 in-process repetitions per invocation (--bench-reps);
  # the campus-scale workloads run long enough to be measured singly.
  bench_best dv3-small --scale 4 --workers 6 --stack 3 --bench-reps 200
  bench_best dv3-full
  bench_best agc-scale

  # Serving path: best-of-3 wall clock of the fig-shards check, which
  # also fails (and so fails the gate) if its outputs drift.
  cargo build --release -p vine-bench --bin vine-fig
  shards_ms=""
  for i in 1 2 3; do
    t0=$(date +%s%N)
    ./target/release/vine-fig check fig-shards > /dev/null
    ms=$((($(date +%s%N) - t0) / 1000000))
    if [ -z "$shards_ms" ] || [ "$ms" -lt "$shards_ms" ]; then
      shards_ms=$ms
    fi
  done
  echo "throughput: fig-shards-check best-of-3 wall ${shards_ms}ms"

  {
    echo '['
    n=0
    for wl in $WORKLOADS; do
      n=$((n + 1))
      [ "$n" -gt 1 ] && echo ','
      sed 's/^/  /' "$TMP/$wl.best.json"
    done
    echo ','
    echo '  {'
    echo '    "workload": "fig-shards-check",'
    echo "    \"wall_ms\": $shards_ms"
    echo '  }'
    echo ']'
  } > "$OUT"
  echo "throughput: wrote $OUT"

  new=$(extract_wl wall_ms fig-shards-check "$OUT")
  old=$(extract_wl wall_ms fig-shards-check "$BASELINE")
  if [ -z "$old" ]; then
    echo "throughput gate: fig-shards-check missing from baseline $BASELINE (refresh it)" >&2
    exit 1
  fi
  awk -v new="$new" -v old="$old" 'BEGIN {
    if (old + 0 <= 0) { print "throughput gate: bad baseline wall_ms for fig-shards-check"; exit 1 }
    ratio = new / old
    printf "throughput gate: fig-shards-check wall %dms vs baseline %dms (ratio %.3f, fails above 1.25)\n", new, old, ratio
    exit (ratio > 1.25) ? 1 : 0
  }'

  for wl in $WORKLOADS; do
    new=$(extract_wl sim_wall_ms "$wl" "$OUT")
    old=$(extract_wl sim_wall_ms "$wl" "$BASELINE")
    if [ -z "$old" ]; then
      echo "throughput gate: $wl missing from baseline $BASELINE (refresh it)" >&2
      exit 1
    fi
    awk -v wl="$wl" -v new="$new" -v old="$old" 'BEGIN {
      if (old + 0 <= 0) { print "throughput gate: bad baseline sim_wall_ms for " wl; exit 1 }
      ratio = new / old
      printf "throughput gate: %s sim_wall %.3fms vs baseline %.3fms (ratio %.3f, fails above 1.25)\n", wl, new, old, ratio
      exit (ratio > 1.25) ? 1 : 0
    }'
    for key in fabric_changes fabric_solves solver_iterations solver_link_visits \
               solver_fixes peer_wait_visits pick_visits; do
      new=$(extract_wl "$key" "$wl" "$OUT")
      old=$(extract_wl "$key" "$wl" "$BASELINE")
      if [ -z "$old" ]; then
        echo "work gate: $wl $key missing from baseline $BASELINE (refresh it)" >&2
        exit 1
      fi
      if [ "$new" -gt "$old" ]; then
        echo "work gate: $wl $key rose to $new from baseline $old" >&2
        exit 1
      fi
    done
    echo "work gate: $wl fabric/solver/placement counters at or below baseline"
  done
fi

if [ "$MODE" = throughput ]; then
  echo "bench gate: throughput ok"
  exit 0
fi

# ---- Behavioral gate: simulated makespan is deterministic -------------
if [ "$MODE" = classic ]; then
  # No throughput section ran; take makespan from a fresh single run so
  # this job does not rewrite $OUT.
  ./target/release/vine-sim --workload dv3-small --scale 4 --workers 6 \
    --stack 3 --bench-json "$TMP/makespan.json" > /dev/null
  new=$(extract makespan_s "$TMP/makespan.json")
else
  new=$(extract_wl makespan_s dv3-small "$OUT")
fi
old=$(extract_wl makespan_s dv3-small "$BASELINE")
echo "makespan: baseline ${old}s, current ${new}s"

awk -v new="$new" -v old="$old" 'BEGIN {
  if (old + 0 <= 0) { print "bench gate: bad baseline makespan"; exit 1 }
  ratio = new / old
  printf "bench gate: ratio %.4f (fails above 1.10)\n", ratio
  exit (ratio > 1.10) ? 1 : 0
}'

# Streaming gate 1: a run with no observer must replay byte-identical to
# the pre-streaming baseline digest — streaming is strictly pay-for-play.
STREAM_BASELINE=results/stream_baseline_digest.txt
if [ -s "$STREAM_BASELINE" ]; then
  rm -rf stream-gate-traces
  ./target/release/vine-sim --workload dv3-small --scale 4 --workers 6 \
    --stack 3 --trace-out stream-gate-traces
  cmp "$STREAM_BASELINE" stream-gate-traces/dv3-small-stack3-seed42.digest.txt
  echo "stream gate: no-observer digest byte-identical"
else
  echo "stream gate: no baseline at $STREAM_BASELINE" >&2
  exit 1
fi

# Registry checks: `vine-fig check all` runs every gated entry's
# CI-sized check. Each fails on a false claim (the stream early stop
# saves >= 20% core-seconds on the stragglers preset, speculation beats
# `default` there, the watch cell saves >= 60% of task executions) or on
# any check file that differs byte for byte from its results/ copy: the
# facility's two exports, chaos.csv, stream.csv, and the shard and watch
# CI cells' lines in shards_gate.txt and watch_gate.txt. Both processes
# must match those files, so the cells also replay across processes.
# To refresh a file after an intentional change, rerun its entry
# (`vine-fig facility`, `vine-fig fig-chaos`, `vine-fig fig-stream`), or
# run `vine-fig check fig-shards` (or fig-watch) and copy the printed
# `digest=` line into results/shards_gate.txt (or watch_gate.txt).
cargo build --release -p vine-bench --bin vine-fig
./target/release/vine-fig check all
./target/release/vine-fig check all
echo "registry checks: every check matches results/ in two processes"

echo "bench gate: ok"
