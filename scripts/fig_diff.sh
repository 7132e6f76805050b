#!/usr/bin/env bash
# Byte-identity check of every table and figure against another revision.
#
#   scripts/fig_diff.sh <rev> [--scaled] [vine-fig args...]
#
# Builds `vine-fig` at <rev> (offline, in a temporary checkout made with
# `git archive`) and in the working tree, then runs each `vine-fig list`
# entry with both builds, each run in a fresh directory. Fails on any
# difference: `diff -r` of the two run directories (`results/`, plus a
# relative `--trace-out DIR`), stdout with the `[wrote ...]` lines
# removed, or the exit status.
#
# Extra arguments go to every entry, after its own. `--scaled` first
# gives each entry a scaled-down argument set: 10 for the paper entries
# that take a scale, `fig10 1500`, `fig11 4 10`, `fig13 4 20 10`,
# `ablations 20`, `fig15 20`, `facility 40`, `fig-chaos 8`,
# `fig-stream 8` and `fig-shards 1000` (its smallest population only).
# For example:
#
#   scripts/fig_diff.sh HEAD~
#   scripts/fig_diff.sh HEAD~ --scaled --trace-out traces --metrics
#
# Scratch space comes from `mktemp -d` (set TMPDIR to move it). It builds
# the workspace twice, so it is a local check, not a CI step.
set -euo pipefail

if [[ $# -lt 1 || $1 == -* ]]; then
    echo "usage: scripts/fig_diff.sh <rev> [--scaled] [vine-fig args...]" >&2
    exit 2
fi
rev=$1
shift
scaled=false
if [[ ${1:-} == --scaled ]]; then
    scaled=true
    shift
fi

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

scaled_args() {
    case $1 in
        table2 | fig-watch) ;;
        fig10) echo 1500 ;;
        fig11) echo 4 10 ;;
        fig13) echo 4 20 10 ;;
        fig15 | ablations) echo 20 ;;
        facility) echo 40 ;;
        fig-chaos | fig-stream) echo 8 ;;
        fig-shards) echo 1000 ;;
        *) echo 10 ;;
    esac
}

echo "== building vine-fig at $rev =="
mkdir -p "$tmp/src" "$tmp/bin"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
# Cargo reads `.cargo/config.toml` (the vendored stubs) from the
# current directory, so each build runs inside its own checkout.
(cd "$tmp/src" && CARGO_TARGET_DIR="$tmp/src/target" \
    cargo build --release --offline -q -p vine-bench --bin vine-fig)
cp "$tmp/src/target/release/vine-fig" "$tmp/bin/old"
rm -rf "$tmp/src"

echo "== building vine-fig in the working tree =="
(cd "$root" && cargo build --release --offline -q -p vine-bench --bin vine-fig)
cp "${CARGO_TARGET_DIR:-$root/target}/release/vine-fig" "$tmp/bin/new"

entries=$("$tmp/bin/new" list)
if [[ $entries != "$("$tmp/bin/old" list)" ]]; then
    echo "FAIL: vine-fig list differs between $rev and the working tree" >&2
    exit 1
fi

failed=0
for entry in $entries; do
    args=()
    if $scaled; then
        read -r -a args <<<"$(scaled_args "$entry")"
    fi
    args+=("$@")
    for side in old new; do
        mkdir -p "$tmp/$side/$entry"
        status=0
        (cd "$tmp/$side/$entry" && "$tmp/bin/$side" "$entry" "${args[@]}") \
            >"$tmp/$side.$entry.out" 2>"$tmp/$side.$entry.err" || status=$?
        echo "$status" >"$tmp/$side.$entry.status"
        grep -v '^ *\[wrote ' "$tmp/$side.$entry.out" >"$tmp/$side.$entry.stdout" || true
    done
    if diff -r "$tmp/old/$entry" "$tmp/new/$entry" >/dev/null &&
        cmp -s "$tmp/old.$entry.stdout" "$tmp/new.$entry.stdout" &&
        cmp -s "$tmp/old.$entry.status" "$tmp/new.$entry.status"; then
        echo "ok    $entry ${args[*]}"
    else
        echo "DIFF  $entry ${args[*]}"
        diff -r "$tmp/old/$entry" "$tmp/new/$entry" | head -20 || true
        diff "$tmp/old.$entry.stdout" "$tmp/new.$entry.stdout" | head -20 || true
        diff "$tmp/old.$entry.status" "$tmp/new.$entry.status" || true
        failed=1
    fi
done

if [[ $failed != 0 ]]; then
    echo "fig_diff: outputs differ from $rev" >&2
    exit 1
fi
echo "fig_diff: every entry byte-identical to $rev"
