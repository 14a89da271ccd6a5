//! E6-stream — streaming front-end throughput: what the schedule cache
//! buys over route-per-request.
//!
//! Four ids, all n = 1024, density 0.5:
//!
//! * `cached`        — warm cache hit (`route` on a cache-enabled
//!   context, resident entry):
//!   the locality-heavy steady state of a request stream;
//! * `uncached`      — the same request through plain `route` every time
//!   (the pre-cache baseline; this is `BENCH_e5.json`'s `csa/1024`
//!   workload shape, which the smoke script sanity-checks against);
//! * `cold`          — cache-enabled `route` forced to miss every iteration
//!   (capacity-1 cache, two alternating requests): fingerprint + probe +
//!   schedule + insert + copy-out — the full cold-path cost;
//! * `cold-baseline` — the **same alternating stream** through plain
//!   `route`: the apples-to-apples no-regression baseline for `cold`
//!   (alternation alone perturbs the CPU caches, so comparing `cold`
//!   against the fixed-request `uncached` overstates the overhead).

use bench::workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cst_engine::{Csa, EngineCtx, DEFAULT_CACHE_CAPACITY};

fn bench_e6_stream(c: &mut Criterion) {
    let n = 1024usize;
    let (topo, set) = workload(n, 0.5, 0xE6_57);
    let (_, other) = workload(n, 0.5, 0xE6_58);
    assert_ne!(set, other, "the cold path needs two distinct requests");

    let mut group = c.benchmark_group("e6_stream");
    group.throughput(Throughput::Elements(set.len() as u64));

    // Warm hit: first call inserts, second sizes the pooled shells; the
    // measured steady state never touches the scheduler (or the heap —
    // tests/alloc_gate.rs pins that).
    let mut ctx = EngineCtx::new();
    ctx.enable_cache(DEFAULT_CACHE_CAPACITY);
    for _ in 0..2 {
        let out = ctx.route(&Csa, &topo, &set).unwrap();
        ctx.recycle(out);
    }
    group.bench_with_input(BenchmarkId::new("cached", n), &n, |b, _| {
        b.iter(|| {
            let out = ctx.route(&Csa, &topo, &set).unwrap();
            let rounds = out.rounds;
            ctx.recycle(out);
            std::hint::black_box(rounds)
        })
    });

    // Route-per-request baseline: the identical request, scheduler every
    // time (what a stream cost before the cache existed).
    let mut ctx = EngineCtx::new();
    group.bench_with_input(BenchmarkId::new("uncached", n), &n, |b, _| {
        b.iter(|| {
            let out = ctx.route(&Csa, &topo, &set).unwrap();
            let rounds = out.rounds;
            ctx.recycle(out);
            std::hint::black_box(rounds)
        })
    });

    // Forced miss: a capacity-1 cache and two alternating requests evict
    // each other every iteration, so every call pays fingerprint + probe
    // + full schedule + insert (one request per measured iteration).
    let mut ctx = EngineCtx::new();
    ctx.enable_cache(1);
    let mut flip = false;
    group.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
        b.iter(|| {
            flip = !flip;
            let req = if flip { &set } else { &other };
            let out = ctx.route(&Csa, &topo, req).unwrap();
            let rounds = out.rounds;
            ctx.recycle(out);
            std::hint::black_box(rounds)
        })
    });

    // The same alternating stream, no cache: cold's fair baseline.
    let mut ctx = EngineCtx::new();
    let mut flip2 = false;
    group.bench_with_input(BenchmarkId::new("cold-baseline", n), &n, |b, _| {
        b.iter(|| {
            flip2 = !flip2;
            let req = if flip2 { &set } else { &other };
            let out = ctx.route(&Csa, &topo, req).unwrap();
            let rounds = out.rounds;
            ctx.recycle(out);
            std::hint::black_box(rounds)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_e6_stream
}
criterion_main!(benches);
