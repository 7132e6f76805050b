#!/bin/bash
# Regenerate every table/figure at paper scale, then the serving, chaos
# and streaming sweeps. Writes console output to results/logs/<name>.log
# and CSVs to results/.
#
# The tables and figures are the entries `vine-fig list` prints, each run
# as `vine-fig <name>` at its defaults.
#
# Optional: OBS_OUT=dir ./run_all_experiments.sh
#   passes `--trace-out dir --metrics` to vine-fig and facility, so each
#   also exports Chrome traces, span/counter CSVs, attribution rows,
#   digests, and metrics dumps for the runs it marks as recorded.
set -u
cd "$(dirname "$0")"
mkdir -p results/logs
need() {
  if [ ! -x "./target/release/$1" ]; then
    echo "error: ./target/release/$1 not found or not executable." >&2
    echo "       Build the experiment binaries first:  cargo build --release" >&2
    exit 1
  fi
}
# run LOG BIN [ARGS...] [--obs] — --obs appends the OBS_OUT flags.
run() {
  log=$1; bin=./target/release/$2; shift 2
  args=()
  for a in "$@"; do
    if [ "$a" = --obs ]; then
      [ -n "${OBS_OUT:-}" ] && args+=(--trace-out "$OBS_OUT" --metrics)
    else
      args+=("$a")
    fi
  done
  echo "=== $log ($(date +%H:%M:%S)) ==="
  "$bin" ${args[@]+"${args[@]}"} > results/logs/"$log".log 2>&1
  echo "    exit=$? ($(date +%H:%M:%S))"
}
for b in vine-fig facility fig-shards fig-chaos fig-stream fig-watch; do need "$b"; done
for name in $(./target/release/vine-fig list); do
  run "$name" vine-fig "$name" --obs
done
run facility facility --obs
run fig-shards fig-shards
run fig-chaos fig-chaos
run fig-stream fig-stream
run fig-watch fig-watch
echo "ALL EXPERIMENTS DONE"
