//! E14 — the layered decomposition front-end: what does routing an
//! *arbitrary* communication set cost, and where does the time go?
//!
//! Workload: random perfect matchings (`arbitrary_permutation`) at
//! n ∈ {256, 1024, 4096} — n/2 pairs with no well-nested structure,
//! the worst realistic case for the layering stage. Three figures:
//!
//! * `decompose/<n>`    — the coloring alone (first-fit orders + DSATUR
//!   + iterated greedy), no routing: the front-end's added cost;
//! * `certificate/<n>`  — the lower-bound certificate alone (endpoint
//!   cliques + the bound-pruned crossing-clique sweep), one stage of
//!   `decompose`;
//! * `route-layers/<n>` — full `route_general` on a warm context with
//!   the decomposition memoized but every layer routed fresh: the
//!   per-layer scheduling cost the front-end fans out to;
//! * `warm-cached/<n>`  — `route_general` on a cache-enabled context,
//!   steady state: memo hit
//!   plus per-layer schedule-cache hits plus pooled assembly (the
//!   streaming figure; tests/alloc_gate.rs pins it allocation-free).
//!
//! Each size also prints `decompose`'s stage split (certificate /
//! conflict graph / first-fit / DSATUR / iterated greedy / exact /
//! build) to stderr.
//!
//! `scripts/bench_smoke.sh` gates the id set, warm-cached ≤
//! route-layers, and — from the checked-in `BENCH_e14.json` —
//! decompose/4096 ≤ route-layers/4096 and certificate/1024 ≤
//! decompose/1024 ÷ 3.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cst_core::CstTopology;
use cst_decomp::{certificate, decompose, decompose_timed, DecompTimings};
use cst_engine::{Csa, EngineCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_e14(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_decomp");

    for n in [256usize, 1024, 4096] {
        let topo = CstTopology::with_leaves(n);
        let mut rng = StdRng::seed_from_u64(0xE14);
        let gset = cst_workloads::arbitrary_permutation(&mut rng, n);
        group.throughput(Throughput::Elements(gset.len() as u64));

        group.bench_with_input(BenchmarkId::new("decompose", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(decompose(&gset).num_layers()))
        });

        group.bench_with_input(BenchmarkId::new("certificate", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(certificate(&gset).lower_bound))
        });

        let mut stages = DecompTimings::default();
        for _ in 0..5 {
            stages += decompose_timed(&gset).1;
        }
        eprintln!("e14 n={n}: decompose stages summed over 5 runs: {stages}");

        let mut ctx = EngineCtx::new();
        let out = ctx.route_general(&Csa, &topo, &gset).unwrap();
        eprintln!(
            "e14 n={n}: {} pairs -> {} layers (bound {}{}), {} rounds, {} power units",
            gset.len(),
            out.num_layers,
            out.lower_bound,
            if out.proven_optimal { ", optimal" } else { "" },
            out.rounds,
            out.power.total_units,
        );
        ctx.recycle_general(out);
        group.bench_with_input(BenchmarkId::new("route-layers", n), &n, |b, _| {
            b.iter(|| {
                let out = ctx.route_general(&Csa, &topo, &gset).unwrap();
                let rounds = out.rounds;
                ctx.recycle_general(out);
                std::hint::black_box(rounds)
            })
        });

        let mut cached_ctx = EngineCtx::new();
        cached_ctx.enable_cache(cst_engine::DEFAULT_CACHE_CAPACITY);
        // Warm: first call misses and inserts, second settles the pools.
        for _ in 0..2 {
            let out = cached_ctx.route_general(&Csa, &topo, &gset).unwrap();
            cached_ctx.recycle_general(out);
        }
        group.bench_with_input(BenchmarkId::new("warm-cached", n), &n, |b, _| {
            b.iter(|| {
                let out = cached_ctx.route_general(&Csa, &topo, &gset).unwrap();
                let rounds = out.rounds;
                cached_ctx.recycle_general(out);
                std::hint::black_box(rounds)
            })
        });
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_e14
}
criterion_main!(benches);
