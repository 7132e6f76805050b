#!/usr/bin/env bash
# Simulated-output identity check against another revision, for changes
# that should only make the simulator faster.
#
#   scripts/sim_identity.sh <rev>
#
# Builds perfbench and `vine-sim` at <rev> (offline, in a temporary
# checkout made with `git archive`) and in the working tree, then:
#
# 1. runs perfbench with `--seconds 0 --trace 0` on seeds 1, 7 and 4242
#    for every workload with both builds, and fails on any stdout
#    difference outside the host-timing lines (`host reference kernel`,
#    `wall_s`, `setup_s`, `peak_rss_mb`) and the JSON summary line. What
#    is left is the per-instance lines (makespan, events, executions,
#    preemptions, retries), the simulated metrics and the attempted and
#    failed counts;
# 2. runs `vine-sim --workload W --no-preflight` for W in dv3-full and
#    agc-scale with both builds, fails on any stdout difference (minus
#    the `[wrote ...]` line), and prints the fabric work counters that
#    `--bench-json` writes, old and new, with their change.
#
# It only runs perfbench; it never edits it. Scratch space comes from
# `mktemp -d` (set TMPDIR to move it). The working tree's perfbench
# builds into `perfbench/target`, as its README does. It builds the
# workspace twice, so it is a local check, not a CI step.
set -euo pipefail

if [[ $# -ne 1 || $1 == -* ]]; then
    echo "usage: scripts/sim_identity.sh <rev>" >&2
    exit 2
fi
rev=$1

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

workloads="dv3-campus agc-fanout facility-warm"
seeds="1 7 4242"
sims="dv3-full agc-scale"
counters="fabric_changes fabric_solves solver_iterations solver_link_visits solver_fixes"

# build DIR TARGET OUT: build perfbench and vine-sim from checkout DIR
# into cargo target TARGET, and copy both binaries to OUT. Cargo reads
# `.cargo/config.toml` (the vendored stubs) from the current directory,
# so each build runs inside its own checkout.
build() {
    local dir=$1 target=$2 out=$3
    mkdir -p "$out"
    (cd "$dir" && cargo build --release --offline -q -p vine-bench --bin vine-sim)
    cp "${CARGO_TARGET_DIR:-$dir/target}/release/vine-sim" "$out/vine-sim"
    (cd "$dir" && CARGO_TARGET_DIR=$target \
        cargo build --release --offline -q --manifest-path perfbench/Cargo.toml)
    cp "$target/release/perfbench" "$out/perfbench"
}

echo "== building perfbench and vine-sim at $rev =="
mkdir -p "$tmp/src"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
CARGO_TARGET_DIR="$tmp/src/target" build "$tmp/src" "$tmp/src/target" "$tmp/old"
rm -rf "$tmp/src"

echo "== building perfbench and vine-sim in the working tree =="
build "$root" "$root/perfbench/target" "$tmp/new"

failed=0

# Keep the lines a speed-only change must not move.
simulated_lines() {
    grep -v -e '^host reference kernel' -e '^wall_s ' -e '^setup_s ' \
        -e '^peak_rss_mb ' -e '^{' "$1" || true
}

for wl in $workloads; do
    for seed in $seeds; do
        for side in old new; do
            (cd "$tmp" && "$tmp/$side/perfbench" --workload "$wl" --seed "$seed" \
                --seconds 0 --trace 0) >"$tmp/$side.out" 2>&1 || true
            simulated_lines "$tmp/$side.out" >"$tmp/$side.sim"
        done
        if cmp -s "$tmp/old.sim" "$tmp/new.sim" && grep -q '"correct": true' "$tmp/new.out"; then
            echo "ok    perfbench $wl seed $seed"
        else
            echo "DIFF  perfbench $wl seed $seed"
            diff "$tmp/old.sim" "$tmp/new.sim" | head -20 || true
            failed=1
        fi
    done
done

# json_value KEY FILE: the value of KEY in vine-sim's one-field-per-line
# --bench-json output.
json_value() {
    awk -v key="\"$1\"" '$0 ~ key { v = $0; sub(/.*: */, "", v); gsub(/[ ,]/, "", v); print v; exit }' "$2"
}

for wl in $sims; do
    for side in old new; do
        (cd "$tmp" && "$tmp/$side/vine-sim" --workload "$wl" --no-preflight \
            --bench-json "$tmp/$side.$wl.json") >"$tmp/$side.$wl.out" 2>&1 || true
        grep -v '^ *\[wrote ' "$tmp/$side.$wl.out" >"$tmp/$side.$wl.stdout" || true
    done
    if cmp -s "$tmp/old.$wl.stdout" "$tmp/new.$wl.stdout"; then
        echo "ok    vine-sim $wl"
    else
        echo "DIFF  vine-sim $wl"
        diff "$tmp/old.$wl.stdout" "$tmp/new.$wl.stdout" | head -20 || true
        failed=1
    fi
    for key in $counters; do
        old=$(json_value "$key" "$tmp/old.$wl.json")
        new=$(json_value "$key" "$tmp/new.$wl.json")
        awk -v wl="$wl" -v key="$key" -v old="$old" -v new="$new" 'BEGIN {
            pct = old > 0 ? 100 * (new - old) / old : 0
            printf "      %-10s %-19s %12d -> %12d (%+.1f %%)\n", wl, key, old, new, pct
        }'
    done
done

if [[ $failed != 0 ]]; then
    echo "sim_identity: simulated output differs from $rev" >&2
    exit 1
fi
echo "sim_identity: every simulated output identical to $rev"
