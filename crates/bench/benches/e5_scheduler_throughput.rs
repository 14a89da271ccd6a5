//! E5 — host-side scheduler throughput: the criterion-precise version of
//! the E5 table. Times CSA, Roy, greedy and the layered front ends end to
//! end across sizes, all dispatched through the engine registry with one
//! warm [`EngineCtx`] (the steady-state cost a repeated caller sees;
//! benchmark ids are the registry router names). `e5_masked/csa/<n>`
//! times the masked CSA route (partition, CSA, half-duplex split) under
//! one fixed mask per size, sampled at the serve-miss fault rate.
//! Each CSA id's Phase-2 sweep cost per switch step goes to stderr.

use bench::{emit, workload};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cst_engine::{Csa, EngineCtx, RouteExtra};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-component fault rate of the masked ids (the serve-miss rate).
const MASK_RATE: f64 = 0.002;

fn bench_e5(c: &mut Criterion) {
    let table = cst_analysis::experiments::e5_throughput::run(
        &cst_analysis::experiments::e5_throughput::Config {
            sizes: vec![256, 1024, 4096],
            density: 0.5,
            repeats: 3,
            seed: 5,
        },
    );
    emit(&table);

    let mut ctx = EngineCtx::new();
    let mut group = c.benchmark_group("e5_schedulers");
    for n in [256usize, 1024, 4096] {
        let (topo, set) = workload(n, 0.5, 0xE5);
        group.throughput(Throughput::Elements(set.len() as u64));
        for name in [
            "csa",
            "roy",
            "greedy",
            "csa-no-prune",
            "layered",
            "universal",
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    let out = ctx.route_named(name, &topo, &set).unwrap();
                    let rounds = out.rounds;
                    ctx.recycle(out);
                    std::hint::black_box(rounds)
                })
            });
        }
    }
    group.finish();

    // Phase-2 cost per switch step: the sweep's rounds time (median of
    // 51 routes) over its switch steps.
    for n in [256usize, 1024, 4096] {
        let (topo, set) = workload(n, 0.5, 0xE5);
        for name in ["csa", "csa-no-prune"] {
            let (mut rounds_ns, mut steps) = (Vec::new(), 0);
            for _ in 0..51 {
                let out = ctx.route_named(name, &topo, &set).unwrap();
                rounds_ns.push(out.timings.rounds_ns);
                if let RouteExtra::Csa { metrics, .. } = &out.extra {
                    steps = metrics.switch_steps;
                }
                ctx.recycle(out);
            }
            rounds_ns.sort_unstable();
            let median = rounds_ns[rounds_ns.len() / 2];
            eprintln!(
                "e5 {name}/{n}: {steps} switch steps, Phase 2 {median} ns (median of 51), \
                 {:.1} ns per step",
                median as f64 / steps.max(1) as f64
            );
        }
    }

    let mut group = c.benchmark_group("e5_masked");
    for n in [256usize, 1024, 4096] {
        let (topo, set) = workload(n, 0.5, 0xE5);
        // The first seeded mask that degrades an edge, so every id runs
        // the half-duplex check.
        let mask = (0u64..)
            .map(|seed| cst_faults::sample_mask(&mut StdRng::seed_from_u64(seed), &topo, MASK_RATE))
            .find(|mask| mask.has_degraded())
            .expect("some seed degrades an edge");
        group.throughput(Throughput::Elements(set.len() as u64));
        group.bench_with_input(BenchmarkId::new("csa", n), &n, |b, _| {
            b.iter(|| {
                let out = ctx.route_masked(&Csa, &topo, &set, &mask).unwrap();
                let rounds = out.rounds;
                ctx.recycle(out);
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
    targets = bench_e5
}
criterion_main!(benches);
