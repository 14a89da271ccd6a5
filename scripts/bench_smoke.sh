#!/usr/bin/env bash
# Smoke-run the benchmark suite: every bench binary executes one
# abbreviated pass (criterion `--test` mode — no statistics, just "does
# it run and produce sane numbers"). The E5 scheduler-throughput bench
# additionally emits its measurements as JSON next to this script's
# output directory, so CI can diff against the checked-in BENCH_e5.json
# baselines without a full measurement run.
#
# Usage: scripts/bench_smoke.sh [output-dir]   (default: target/bench-smoke)
set -euo pipefail

cd "$(dirname "$0")/.."
out_dir="${1:-target/bench-smoke}"
# cargo bench runs bench binaries with the package dir as cwd, so the
# CRITERION_JSON path must be absolute.
case "$out_dir" in /*) ;; *) out_dir="$PWD/$out_dir" ;; esac
mkdir -p "$out_dir"

# The engine registry is the single source of truth for router names;
# bench IDs must match it (checked against the E5 JSON below).
echo "== bench smoke: router registry =="
routers="$(cargo run -q -p cst-tools -- list-routers --names)"
printf '%s\n' "$routers"

echo "== bench smoke: e5_scheduler_throughput (JSON -> $out_dir/BENCH_e5.json) =="
CRITERION_JSON="$out_dir/BENCH_e5.json" \
    cargo bench -p bench --bench e5_scheduler_throughput -- --test

echo "== bench smoke: e5 bench IDs resolve in the registry =="
grep -o '"e5_schedulers/[^"]*"' "$out_dir/BENCH_e5.json" | tr -d '"' \
    | while IFS= read -r key; do
    name=${key#e5_schedulers/}
    name=${name%/*}
    # here-string, not a pipe: grep -q exits at the first match, and
    # under pipefail printf's SIGPIPE would read as a spurious failure
    if ! grep -qx "$name" <<< "$routers"; then
        echo "bench id '$name' is not a registry router name" >&2
        exit 1
    fi
done

echo "== bench smoke: e5 timings vs checked-in baseline =="
# Smoke timings are one cold pass, so this is a catastrophic-regression
# guard, not a measurement: every fault-free router/size must stay
# within E5_SMOKE_FACTOR x (default 20) of the checked-in warm median.
factor="${E5_SMOKE_FACTOR:-20}"
awk -v factor="$factor" '
    FNR == 1 { file++ }
    file == 1 && /"current"/ { in_cur = 1 }
    file == 1 && in_cur && /"e5_schedulers\// {
        key = $1; gsub(/[",:]/, "", key); base[key] = $2 + 0
    }
    file == 2 && /"e5_schedulers\// {
        key = $1; gsub(/[",:]/, "", key)
        if (key in base) {
            smoke = $2 + 0
            if (smoke > factor * base[key]) {
                printf "e5 regression: %s took %.0f ns (baseline %.0f ns, limit %.0fx)\n", \
                    key, smoke, base[key], factor > "/dev/stderr"
                bad = 1
            }
            checked++
        }
    }
    END {
        if (checked == 0) {
            print "e5 smoke gate: no comparable bench keys found" > "/dev/stderr"
            exit 1
        }
        if (bad) exit 1
        printf "e5 smoke gate: %d keys within %sx of baseline\n", checked, factor
    }
' BENCH_e5.json "$out_dir/BENCH_e5.json"

echo "== bench smoke: e6_stream_throughput (JSON -> $out_dir/BENCH_e6.json) =="
CRITERION_JSON="$out_dir/BENCH_e6.json" \
    cargo bench -p bench --bench e6_stream_throughput -- --test

echo "== bench smoke: e6 stream bench IDs =="
# The five stream ids are the cache's public contract: the checked-in
# BENCH_e6.json and a fresh smoke run must both carry exactly this set.
e6_ids="e6_stream/cached/1024
e6_stream/cold-baseline/1024
e6_stream/cold/1024
e6_stream/incremental-delta/1024
e6_stream/uncached/1024"
for f in BENCH_e6.json "$out_dir/BENCH_e6.json"; do
    got="$(grep -o '"e6_stream/[^"]*"' "$f" | tr -d '"' | sort -u)"
    if [ "$got" != "$e6_ids" ]; then
        echo "$f: e6_stream ids drifted from the expected set:" >&2
        diff <(printf '%s\n' "$e6_ids") <(printf '%s\n' "$got") >&2 || true
        exit 1
    fi
done
echo "e6 id gate: both files carry the five stream ids"

echo "== bench smoke: e6 cold path vs e5 baseline =="
# Two catastrophic-regression guards on the cache's miss path, in the
# same one-cold-pass spirit as the e5 gate above:
#  1. cold must stay within E6_COLD_FACTOR x (default 3) of cold-baseline
#     measured in the SAME smoke run (insert overhead, apples to apples);
#  2. the fixed-request uncached id must stay within E5_SMOKE_FACTOR x
#     (default 20) of the checked-in BENCH_e5.json csa/1024 warm median
#     (the two ids share the workload shape, so this anchors the e6 run
#     against the cross-file e5 baseline).
cold_factor="${E6_COLD_FACTOR:-3}"
awk -v cold_factor="$cold_factor" -v e5_factor="$factor" '
    FNR == 1 { file++ }
    file == 1 && /"current"/ { in_cur = 1 }
    file == 1 && in_cur && /"e5_schedulers\/csa\/1024"/ {
        e5_base = $2 + 0
    }
    file == 2 && /"e6_stream\// {
        key = $1; gsub(/[",:]/, "", key); sub(/^e6_stream\//, "", key)
        sub(/\/1024$/, "", key)
        val[key] = $2 + 0
    }
    END {
        if (e5_base == 0 || !("cold" in val) || !("cold-baseline" in val) || !("uncached" in val)) {
            print "e6 cold gate: missing bench keys" > "/dev/stderr"
            exit 1
        }
        if (val["cold"] > cold_factor * val["cold-baseline"]) {
            printf "e6 cold regression: cold %.0f ns vs cold-baseline %.0f ns (limit %.1fx)\n", \
                val["cold"], val["cold-baseline"], cold_factor > "/dev/stderr"
            exit 1
        }
        if (val["uncached"] > e5_factor * e5_base) {
            printf "e6/e5 anchor regression: uncached %.0f ns vs e5 csa/1024 %.0f ns (limit %.0fx)\n", \
                val["uncached"], e5_base, e5_factor > "/dev/stderr"
            exit 1
        }
        printf "e6 cold gate: cold/cold-baseline = %.2fx (limit %.1fx), uncached/e5 = %.2fx (limit %.0fx)\n", \
            val["cold"] / val["cold-baseline"], cold_factor, val["uncached"] / e5_base, e5_factor
    }
' BENCH_e5.json "$out_dir/BENCH_e6.json"

echo "== bench smoke: e13_compiled_replay (JSON -> $out_dir/BENCH_e13.json) =="
CRITERION_JSON="$out_dir/BENCH_e13.json" \
    cargo bench -p bench --bench e13_compiled_replay -- --test

echo "== bench smoke: e13 bench IDs =="
# The eleven ids are the compile-and-replay contract: interpreter /
# compiled / compile at each size plus the compile-once-replay-many
# stream pair. The checked-in BENCH_e13.json and a fresh smoke run must
# both carry exactly this set.
e13_ids="e13_compiled_replay/compile/1024
e13_compiled_replay/compile/256
e13_compiled_replay/compile/4096
e13_compiled_replay/compiled/1024
e13_compiled_replay/compiled/256
e13_compiled_replay/compiled/4096
e13_compiled_replay/interpreter/1024
e13_compiled_replay/interpreter/256
e13_compiled_replay/interpreter/4096
e13_compiled_replay/stream-compiled/1024
e13_compiled_replay/stream-interpreter/1024"
for f in BENCH_e13.json "$out_dir/BENCH_e13.json"; do
    got="$(grep -o '"e13_compiled_replay/[^"]*"' "$f" | tr -d '"' | sort -u)"
    if [ "$got" != "$e13_ids" ]; then
        echo "$f: e13_compiled_replay ids drifted from the expected set:" >&2
        diff <(printf '%s\n' "$e13_ids") <(printf '%s\n' "$got") >&2 || true
        exit 1
    fi
done
echo "e13 id gate: both files carry the eleven replay ids"

echo "== bench smoke: e13 compiled must be no slower than the interpreter =="
# Replay of a pre-lowered program must never lose to the event-driven
# interpreter at any size — in the fresh smoke run (one cold pass; the
# real gap is ~10x, so even cold noise cannot legitimately invert it)
# and in the checked-in warm medians.
for f in BENCH_e13.json "$out_dir/BENCH_e13.json"; do
    awk -v file="$f" '
        /"e13_compiled_replay\// {
            key = $1; gsub(/[",:]/, "", key)
            sub(/^e13_compiled_replay\//, "", key)
            val[key] = $2 + 0
        }
        END {
            checked = 0
            for (k in val) {
                if (k !~ /^(compiled|stream-compiled)\//) continue
                ref = k; sub(/^stream-compiled/, "stream-interpreter", ref)
                sub(/^compiled/, "interpreter", ref)
                if (!(ref in val)) {
                    printf "%s: missing interpreter id %s\n", file, ref > "/dev/stderr"
                    exit 1
                }
                if (val[k] > val[ref]) {
                    printf "%s: %s (%.0f ns) slower than %s (%.0f ns)\n", \
                        file, k, val[k], ref, val[ref] > "/dev/stderr"
                    exit 1
                }
                checked++
            }
            if (checked != 4) {
                printf "%s: e13 gate checked %d pairs, expected 4\n", file, checked > "/dev/stderr"
                exit 1
            }
            printf "%s: compiled <= interpreter at every size\n", file
        }
    ' "$f"
done

echo "== bench smoke: e14_decomp (JSON -> $out_dir/BENCH_e14.json) =="
CRITERION_JSON="$out_dir/BENCH_e14.json" \
    cargo bench -p bench --bench e14_decomp -- --test

echo "== bench smoke: e14 bench IDs =="
# The twelve ids are the layered front-end's contract: decompose /
# certificate / route-layers / warm-cached at each size. The checked-in
# BENCH_e14.json and a fresh smoke run must both carry exactly this set.
e14_ids="e14_decomp/certificate/1024
e14_decomp/certificate/256
e14_decomp/certificate/4096
e14_decomp/decompose/1024
e14_decomp/decompose/256
e14_decomp/decompose/4096
e14_decomp/route-layers/1024
e14_decomp/route-layers/256
e14_decomp/route-layers/4096
e14_decomp/warm-cached/1024
e14_decomp/warm-cached/256
e14_decomp/warm-cached/4096"
for f in BENCH_e14.json "$out_dir/BENCH_e14.json"; do
    got="$(grep -o '"e14_decomp/[^"]*"' "$f" | tr -d '"' | sort -u)"
    if [ "$got" != "$e14_ids" ]; then
        echo "$f: e14_decomp ids drifted from the expected set:" >&2
        diff <(printf '%s\n' "$e14_ids") <(printf '%s\n' "$got") >&2 || true
        exit 1
    fi
done
echo "e14 id gate: both files carry the twelve layering ids"

echo "== bench smoke: e14 warm path must beat fresh layer routing =="
# A warm cached general route (memo + per-layer cache hits) must never
# lose to re-routing every layer — in the fresh smoke run and in the
# checked-in warm medians (the real gap is ~8x; cold noise cannot
# legitimately invert it). The checked-in medians must also keep
# decomposition at or below layer routing at n=4096, and the certificate
# at or below a third of decomposition at n=1024 (it was over half before
# the bound-pruned crossing-clique sweep).
for f in BENCH_e14.json "$out_dir/BENCH_e14.json"; do
    awk -v file="$f" '
        /"e14_decomp\// {
            key = $1; gsub(/[",:]/, "", key)
            sub(/^e14_decomp\//, "", key)
            val[key] = $2 + 0
        }
        END {
            checked = 0
            for (k in val) {
                if (k !~ /^warm-cached\//) continue
                ref = k; sub(/^warm-cached/, "route-layers", ref)
                if (!(ref in val)) {
                    printf "%s: missing route-layers id %s\n", file, ref > "/dev/stderr"
                    exit 1
                }
                if (val[k] > val[ref]) {
                    printf "%s: %s (%.0f ns) slower than %s (%.0f ns)\n", \
                        file, k, val[k], ref, val[ref] > "/dev/stderr"
                    exit 1
                }
                checked++
            }
            if (checked != 3) {
                printf "%s: e14 gate checked %d pairs, expected 3\n", file, checked > "/dev/stderr"
                exit 1
            }
            printf "%s: warm-cached <= route-layers at every size\n", file
            # Checked-in medians only: one cold smoke pass is too noisy
            # to order two figures within 2x of each other.
            if (file == "BENCH_e14.json" && val["decompose/4096"] > val["route-layers/4096"]) {
                printf "%s: decompose/4096 above route-layers/4096\n", file > "/dev/stderr"
                exit 1
            }
            if (file == "BENCH_e14.json" && 3 * val["certificate/1024"] > val["decompose/1024"]) {
                printf "%s: certificate/1024 (%.0f ns) above decompose/1024 / 3 (%.0f ns)\n", \
                    file, val["certificate/1024"], val["decompose/1024"] / 3 > "/dev/stderr"
                exit 1
            }
        }
    ' "$f"
done

echo "== bench smoke: e15_serve (JSON -> $out_dir/BENCH_e15.json) =="
# bench-serve self-hosts a daemon on an ephemeral loopback port and
# drives it uncached / cached / soak; --bench-json emits the headline
# numbers in the BENCH id scheme. Regenerate the checked-in file with:
#   cargo run --release -q -p cst-tools -- bench-serve \
#       --bench-json BENCH_e15.json
cargo run --release -q -p cst-tools -- bench-serve --clients 1 --reset \
    --bench-json "$out_dir/BENCH_e15.json"

echo "== bench smoke: e15 bench IDs =="
# Both the fresh smoke run and the checked-in baseline must carry
# exactly the four serve ids at the default 1024-PE size.
e15_ids="e15_serve/cached/1024
e15_serve/soak-p50/1024
e15_serve/soak-p99/1024
e15_serve/uncached/1024"
for f in BENCH_e15.json "$out_dir/BENCH_e15.json"; do
    got="$(grep -o '"e15_serve/[^"]*"' "$f" | tr -d '"' | sort -u)"
    if [ "$got" != "$e15_ids" ]; then
        echo "$f: e15_serve ids drifted from the expected set:" >&2
        diff <(printf '%s\n' "$e15_ids") <(printf '%s\n' "$got") >&2 || true
        exit 1
    fi
done
echo "e15 id gate: both files carry the four serve ids"

echo "== bench smoke: e15 cached serve must beat uncached =="
# A cache hit is a fingerprint probe plus an Arc clone; a miss is a full
# route plus serialization. The fresh smoke run must keep cached at or
# under uncached, and the checked-in baseline must hold the 5x
# acceptance floor (the measured gap is ~18x single-core).
for spec in "BENCH_e15.json 5" "$out_dir/BENCH_e15.json 1"; do
    set -- $spec
    awk -v file="$1" -v factor="$2" '
        /"e15_serve\// {
            key = $1; gsub(/[",:]/, "", key)
            sub(/^e15_serve\//, "", key)
            val[key] = $2 + 0
        }
        END {
            if (!("cached/1024" in val) || !("uncached/1024" in val)) {
                printf "%s: missing cached/uncached ids\n", file > "/dev/stderr"
                exit 1
            }
            if (val["cached/1024"] * factor > val["uncached/1024"]) {
                printf "%s: cached (%.0f ns) x%d exceeds uncached (%.0f ns)\n", \
                    file, val["cached/1024"], factor, val["uncached/1024"] > "/dev/stderr"
                exit 1
            }
            printf "%s: cached x%d <= uncached\n", file, factor
        }
    ' "$1"
done

echo "== bench smoke: e16_herd (JSON -> $out_dir/BENCH_e16.json) =="
# The thundering-herd phase barrier-releases 8 connections onto one
# fresh key: single-flight coalescing must cost exactly one engine
# computation, and the contended warm-hit percentiles are the lock-free
# hit tier's headline numbers. Regenerate the checked-in file with:
#   cargo run --release -q -p cst-tools -- bench-serve --clients 1 \
#       --reset --herd 8 --bench-json BENCH_e16.json
cargo run --release -q -p cst-tools -- bench-serve --clients 1 --reset \
    --herd 8 --bench-json "$out_dir/BENCH_e16.json"

echo "== bench smoke: e16 bench IDs =="
# Both the fresh smoke run and the checked-in baseline must carry
# exactly the three herd ids at the default 1024-PE size.
e16_ids="e16_herd/computations-per-key/1024
e16_herd/contended-hit-p50/1024
e16_herd/contended-hit-p99/1024"
for f in BENCH_e16.json "$out_dir/BENCH_e16.json"; do
    got="$(grep -o '"e16_herd/[^"]*"' "$f" | tr -d '"' | sort -u)"
    if [ "$got" != "$e16_ids" ]; then
        echo "$f: e16_herd ids drifted from the expected set:" >&2
        diff <(printf '%s\n' "$e16_ids") <(printf '%s\n' "$got") >&2 || true
        exit 1
    fi
done
echo "e16 id gate: both files carry the three herd ids"

echo "== bench smoke: e16 exactly-one-computation and contended-hit floor =="
# Two gates per (e16, e15) file pair:
#  1. computations-per-key must be exactly 1 — the single-flight layer's
#     hard property, deterministic on any box however the herd
#     interleaves;
#  2. the contended hit p50 must stay under the same environment's e15
#     uncached route time: x5 floor for the checked-in pair, x1 for the
#     fresh smoke run (a contended cache hit beating a fresh route is
#     the minimum bar everywhere, including single-core runners where
#     the herd serializes).
for spec in "BENCH_e16.json BENCH_e15.json 5" \
            "$out_dir/BENCH_e16.json $out_dir/BENCH_e15.json 1"; do
    set -- $spec
    awk -v e16_file="$1" -v factor="$3" '
        FNR == 1 { file++ }
        file == 1 && /"e16_herd\// {
            key = $1; gsub(/[",:]/, "", key); sub(/^e16_herd\//, "", key)
            v16[key] = $2 + 0
        }
        file == 2 && /"e15_serve\/uncached\/1024"/ { unc = $2 + 0 }
        END {
            if (!("computations-per-key/1024" in v16) || !("contended-hit-p50/1024" in v16)) {
                printf "%s: missing e16 herd ids\n", e16_file > "/dev/stderr"
                exit 1
            }
            if (v16["computations-per-key/1024"] != 1) {
                printf "%s: herd cost %.0f computations per key, want exactly 1\n", \
                    e16_file, v16["computations-per-key/1024"] > "/dev/stderr"
                exit 1
            }
            if (unc == 0) {
                printf "%s: no e15 uncached baseline to anchor against\n", e16_file > "/dev/stderr"
                exit 1
            }
            if (v16["contended-hit-p50/1024"] * factor > unc) {
                printf "%s: contended hit p50 (%.0f ns) x%d exceeds e15 uncached (%.0f ns)\n", \
                    e16_file, v16["contended-hit-p50/1024"], factor, unc > "/dev/stderr"
                exit 1
            }
            printf "%s: 1 computation per herd key, contended p50 x%d <= uncached\n", \
                e16_file, factor
        }
    ' "$1" "$2"
done

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

echo "== bench smoke: OK (E5/E6/E13 JSON under $out_dir) =="
