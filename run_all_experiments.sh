#!/bin/bash
# Regenerate every table, figure and sweep at its defaults: each entry
# `vine-fig list` prints, run as `vine-fig <name>`. Writes console output
# to results/logs/<name>.log and CSVs to results/.
#
# Optional: OBS_OUT=dir ./run_all_experiments.sh
#   passes `--trace-out dir --metrics` to every entry, so each also
#   exports Chrome traces, span/counter CSVs, attribution rows, digests,
#   and metrics dumps for the runs it marks as recorded.
set -u
cd "$(dirname "$0")"
mkdir -p results/logs
fig=./target/release/vine-fig
if [ ! -x "$fig" ]; then
  echo "error: $fig not found or not executable." >&2
  echo "       Build it first:  cargo build --release" >&2
  exit 1
fi
obs=()
[ -n "${OBS_OUT:-}" ] && obs=(--trace-out "$OBS_OUT" --metrics)
for name in $("$fig" list); do
  echo "=== $name ($(date +%H:%M:%S)) ==="
  "$fig" "$name" ${obs[@]+"${obs[@]}"} > results/logs/"$name".log 2>&1
  echo "    exit=$? ($(date +%H:%M:%S))"
done
echo "ALL EXPERIMENTS DONE"
