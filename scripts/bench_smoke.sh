#!/usr/bin/env bash
# Smoke-run the benchmark suite: every bench binary executes one
# abbreviated pass (criterion `--test` mode: no statistics, just "does
# it run and produce sane numbers"). e5/e6/e13/e14 write their timings
# and bench-serve its e15/e16 figures as flat JSON under the output
# directory; `cst-tools bench-gate` then checks those files and the
# checked-in BENCH_*.json (crates/cst-tools/src/bench_gate.rs holds every
# check and its limit).
#
# Usage: scripts/bench_smoke.sh [output-dir]   (default: target/bench-smoke)
#
# A failing cargo command aborts at once. bench-gate runs every check,
# prints one line per check, then lists the failed checks and exits 1
# if any failed.
set -euo pipefail

cd "$(dirname "$0")/.."
out_dir="${1:-target/bench-smoke}"
# cargo bench runs bench binaries with the package dir as cwd, so the
# CRITERION_JSON path must be absolute.
case "$out_dir" in /*) ;; *) out_dir="$PWD/$out_dir" ;; esac
mkdir -p "$out_dir"

for b in e5_scheduler_throughput e6_stream_throughput e13_compiled_replay e14_decomp; do
    json="$out_dir/BENCH_${b%%_*}.json"
    echo "== bench smoke: $b (JSON -> $json) =="
    CRITERION_JSON="$json" cargo bench -p bench --bench "$b" -- --test
done

echo "== bench smoke: e15_serve (JSON -> $out_dir/BENCH_e15.json) =="
# bench-serve self-hosts a daemon on an ephemeral loopback port and
# drives it uncached / cached / soak / floor; --bench-json emits the headline
# numbers in the BENCH id scheme. Regenerate the checked-in file with:
#   cargo run --release -q -p cst-tools -- bench-serve \
#       --bench-json BENCH_e15.json
cargo run --release -q -p cst-tools -- bench-serve --clients 1 --reset \
    --bench-json "$out_dir/BENCH_e15.json"

echo "== bench smoke: e16_herd (JSON -> $out_dir/BENCH_e16.json) =="
# The thundering-herd phase barrier-releases 8 connections onto one
# fresh key: single-flight coalescing must cost exactly one engine
# computation, and the contended warm-hit percentiles are those of the
# first probe (a shard's LRU under its read lock). Regenerate the
# checked-in file with:
#   cargo run --release -q -p cst-tools -- bench-serve --clients 1 \
#       --reset --herd 8 --bench-json BENCH_e16.json
cargo run --release -q -p cst-tools -- bench-serve --clients 1 --reset \
    --herd 8 --bench-json "$out_dir/BENCH_e16.json"

echo "== bench smoke: remaining benches =="
for b in e1_rounds_optimality e2_config_changes e3_total_power \
         e4_control_overhead e6_change_histogram e7_segmentable_bus \
         e8_ablation_selection e9_applications e10_sessions \
         e11_bus_emulation e12_motivation substrate_micro; do
    cargo bench -p bench --bench "$b" -- --test
done

echo "== bench smoke: trace emitter zero-cost when disabled =="
# The E5/E13 throughput numbers rest on the warm scheduling path never
# touching the heap; the protocol-trace instrumentation (cst-model
# conformance) threads an Option through that path and must stay free
# when disabled. The allocation gate asserts exactly that.
cargo test --quiet --test alloc_gate

echo "== bench smoke: gate (checked-in BENCH_*.json and $out_dir) =="
cargo run --release -q -p cst-tools -- bench-gate "$out_dir"
echo "== bench smoke: OK (JSON under $out_dir) =="
