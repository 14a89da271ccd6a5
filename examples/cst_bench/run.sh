#!/usr/bin/env bash
# Build the cst-serve daemon and the benchmark from source, then run the
# benchmark. Run from the repository root:
#
#   bash examples/cst_bench/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0
#   bash examples/cst_bench/run.sh compare <dirA> <dirB>
#
# Cargo output goes to stderr; stdout carries only the benchmark's report,
# whose last line is the JSON summary.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cst-serve ]]; then
    echo "run.sh: run from the repository root (Cargo.toml and crates/ not found)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p cst-tools >&2
cargo build --release --offline --quiet --manifest-path examples/cst_bench/Cargo.toml >&2

export CST_TOOLS="$CARGO_TARGET_DIR/release/cst-tools"
exec "$CARGO_TARGET_DIR/release/cst_bench" "$@"
