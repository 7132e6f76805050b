#!/usr/bin/env bash
# Workspace hygiene gate: formatting, clippy (warnings are errors), tests.
# Run from the repository root. Pass extra cargo args through, e.g.
#   scripts/check.sh --offline
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets "$@" -- -D warnings

echo "== cargo build --all-targets =="
cargo build --workspace --all-targets "$@"

echo "== cargo test =="
cargo test --workspace -q "$@"

echo "== perfbench unit tests (a separate workspace) =="
cargo test -q --manifest-path perfbench/Cargo.toml "$@"

echo "== criterion microbench smoke (--test mode) =="
cargo bench -q -p vine-bench --bench arena_lookup --bench substrates "$@" -- --test

echo "== vine-audit (determinism/concurrency gate, ratcheted baseline) =="
cargo run -q -p vine-audit "$@" -- --deny --baseline results/audit_baseline.txt

echo "check.sh: all green"
