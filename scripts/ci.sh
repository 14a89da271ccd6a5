#!/usr/bin/env bash
# Full local CI: build, the whole workspace test suite (the root
# package's `cargo test` alone misses the member crates — see
# README.md), then the zero-warning lint gate.
set -eu
cd "$(dirname "$0")/.."

echo "== ci: build =="
cargo build --workspace --all-targets

echo "== ci: test (--workspace) =="
cargo test --workspace --quiet

echo "== ci: engine scratch-reuse stress =="
cargo test --quiet --test engine_reuse

echo "== ci: engine allocation gate =="
cargo test --quiet --test alloc_gate

echo "== ci: fault campaign soak (determinism + golden) =="
# The seeded campaign must be a pure function of its config: two runs
# byte-identical, and both matching the checked-in golden summary.
# Regenerate after an intentional change with:
#   cargo run -q -p cst-tools -- campaign --quick --seed 7 > scripts/campaign_golden.json
campaign_a="$(mktemp)"
campaign_b="$(mktemp)"
stream_a="$(mktemp)"
stream_b="$(mktemp)"
model_a="$(mktemp)"
model_b="$(mktemp)"
trap 'rm -f "$campaign_a" "$campaign_b" "$stream_a" "$stream_b" "$model_a" "$model_b"' EXIT
cargo run -q -p cst-tools -- campaign --quick --seed 7 > "$campaign_a"
cargo run -q -p cst-tools -- campaign --quick --seed 7 > "$campaign_b"
if ! cmp -s "$campaign_a" "$campaign_b"; then
    echo "fault campaign is nondeterministic under a fixed seed" >&2
    exit 1
fi
if ! diff -u scripts/campaign_golden.json "$campaign_a"; then
    echo "fault campaign drifted from scripts/campaign_golden.json" >&2
    exit 1
fi
# The per-trial execution cross-check defaults to compiled replay; the
# event-driven interpreter must produce the same bytes (the report is a
# pure function of the config, never of the sim backend).
cargo run -q -p cst-tools -- campaign --quick --seed 7 --interpreted > "$campaign_b"
if ! cmp -s "$campaign_a" "$campaign_b"; then
    echo "campaign report differs between compiled and interpreted backends" >&2
    exit 1
fi
echo "fault campaign: deterministic, matches golden, backend-independent"

echo "== ci: stream replay soak (determinism + golden) =="
# The seeded request stream must be a pure function of its flags once the
# wall-clock fields are stripped: two runs identical, and both matching
# the checked-in golden hit/miss counts. Regenerate after an intentional
# change (new stream model, new cache policy) with:
#   cargo run -q -p cst-tools -- stream --requests 400 --pes 256 --working 6 \
#       --repeat 0.7 --delta 2 --seed 11 --cache-cap 32 --json \
#       | grep -vE '"(elapsed_ns|requests_per_sec)"' > scripts/stream_golden.json
stream_cmd() {
    cargo run -q -p cst-tools -- stream --requests 400 --pes 256 --working 6 \
        --repeat 0.7 --delta 2 --seed 11 --cache-cap 32 --json \
        | grep -vE '"(elapsed_ns|requests_per_sec)"'
}
stream_cmd > "$stream_a"
stream_cmd > "$stream_b"
if ! cmp -s "$stream_a" "$stream_b"; then
    echo "stream replay is nondeterministic under a fixed seed" >&2
    exit 1
fi
if ! diff -u scripts/stream_golden.json "$stream_a"; then
    echo "stream replay drifted from scripts/stream_golden.json" >&2
    exit 1
fi
echo "stream replay: deterministic, matches golden"

echo "== ci: layered decomposition sweep (determinism + golden) =="
# The seeded arbitrary-set sweep (layering + per-layer routing + full
# CST3xx/static/model audit per request) must be a pure function of its
# flags: two runs byte-identical, both matching the checked-in golden
# (layer counts vs certified lower bounds included). Regenerate after an
# intentional change (new coloring order, new certificate) with:
#   cargo run -q -p cst-tools -- decomp --report > scripts/decomp_golden.json
decomp_a="$(mktemp)"
decomp_b="$(mktemp)"
trap 'rm -f "$campaign_a" "$campaign_b" "$stream_a" "$stream_b" "$model_a" "$model_b" "$decomp_a" "$decomp_b"' EXIT
cargo run -q -p cst-tools -- decomp --report > "$decomp_a"
cargo run -q -p cst-tools -- decomp --report > "$decomp_b"
if ! cmp -s "$decomp_a" "$decomp_b"; then
    echo "decomposition sweep is nondeterministic under a fixed seed" >&2
    exit 1
fi
if ! diff -u scripts/decomp_golden.json "$decomp_a"; then
    echo "decomposition sweep drifted from scripts/decomp_golden.json" >&2
    exit 1
fi
echo "decomposition sweep: deterministic, audits clean, matches golden"

echo "== ci: reference-model exhaustive enumeration =="
# The tentpole correctness gate: every right-oriented well-nested set on
# n <= 8 leaves (334 sets, Motzkin-enumerated), every reachable protocol
# state, cross-checked transition-for-transition against switch_logic —
# plus the seeded shape-exhaustive sweep at n = 16. Exit 0 means zero
# divergences; the summary must also be byte-identical across two runs.
cargo run -q -p cst-tools -- model enumerate > "$model_a"
cargo run -q -p cst-tools -- model enumerate > "$model_b"
if ! cmp -s "$model_a" "$model_b"; then
    echo "model enumeration is nondeterministic" >&2
    exit 1
fi
cat "$model_a"

echo "== ci: reference-model conformance sweep =="
# Seeded random sets replayed through the model via the host scheduler's
# trace emitter; same determinism contract.
model_conform() {
    cargo run -q -p cst-tools -- model conform --requests 40 --pes 64 \
        --density 0.5 --seed 11
}
model_conform > "$model_a"
model_conform > "$model_b"
if ! cmp -s "$model_a" "$model_b"; then
    echo "model conformance sweep is nondeterministic under a fixed seed" >&2
    exit 1
fi
cat "$model_a"

echo "== ci: serve daemon soak (unix socket, determinism + golden) =="
# One cst-serve daemon on a Unix socket, two seeded single-client
# bench-serve runs against it. With --clients 1 --reset every stats
# field in the report is a pure function of the flags: the two runs must
# be byte-identical once the wall-clock fields are stripped, and both
# must match the checked-in golden. Regenerate after an intentional
# change (new counters, new cache policy, new wire layout) by re-running
# the serve_cmd pipeline below against a fresh daemon:
#   cargo run -q -p cst-tools -- serve --unix target/ci-serve.sock &
#   cargo run -q -p cst-tools -- bench-serve --unix target/ci-serve.sock \
#       --clients 1 --reset --json | <strip> > scripts/serve_golden.json
serve_a="$(mktemp)"
serve_b="$(mktemp)"
serve_sock="target/ci-serve.sock"
serve_ready="target/ci-serve.ready"
serve_pid=""
rm -f "$serve_sock" "$serve_ready"
trap 'rm -f "$campaign_a" "$campaign_b" "$stream_a" "$stream_b" "$model_a" "$model_b" "$decomp_a" "$decomp_b" "$serve_a" "$serve_b" "$serve_sock" "$serve_ready"; if [ -n "$serve_pid" ]; then kill "$serve_pid" 2>/dev/null || true; fi' EXIT
cargo build -q -p cst-tools
target/debug/cst-tools serve --unix "$serve_sock" --ready-file "$serve_ready" --max-seconds 600 &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -f "$serve_ready" ] && break
    sleep 0.1
done
if [ ! -f "$serve_ready" ]; then
    echo "cst-serve daemon did not come up on $serve_sock" >&2
    exit 1
fi
# Timing fields are stripped by BenchServeReport's naming rule (`*_ns*`,
# `*_per_sec`, `speedup`, plus the host's `available_parallelism`).
serve_cmd() {
    target/debug/cst-tools bench-serve --unix "$serve_sock" --clients 1 --reset --json \
        | grep -vE '"([a-z0-9_]*_ns[a-z0-9_]*|[a-z0-9_]*_per_sec|speedup|available_parallelism)":'
}
serve_cmd > "$serve_a"
serve_cmd > "$serve_b"
if ! cmp -s "$serve_a" "$serve_b"; then
    echo "serve daemon stats are nondeterministic under a fixed seed" >&2
    exit 1
fi
if ! diff -u scripts/serve_golden.json "$serve_a"; then
    echo "serve daemon stats drifted from scripts/serve_golden.json" >&2
    exit 1
fi
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
echo "serve daemon: deterministic over the wire, matches golden"

echo "== ci: end-to-end benchmark smoke =="
# examples/cst_bench is a package outside the workspace, so the build
# above never compiles it: an engine or serve API change that breaks the
# benchmark only shows up here. 1 s windows, every output audited.
bash examples/cst_bench/run.sh --smoke

echo "== ci: lint =="
scripts/lint.sh

echo "== ci: ok =="
