//! E13 — compiled schedule replay vs the event-driven interpreter.
//!
//! A verified schedule can be lowered once into a [`CompiledProgram`] —
//! flat switch-state buffer, per-round config-delta instruction streams
//! (exactly the transitions Theorem 8 charges for), flat delivery table —
//! and then replayed without any event queue or per-switch control logic.
//! This bench quantifies the gap, at n ∈ {256, 1024, 4096}, density 0.5:
//!
//! * `interpreter/<n>` — `simulate_schedule` on a pre-routed schedule
//!   with prebuilt payloads (the event-driven baseline);
//! * `compiled/<n>`    — `replay_with` of the pre-lowered program with
//!   the same payloads into a warm [`ReplayScratch`] (zero allocations;
//!   tests/alloc_gate.rs pins that);
//! * `compile/<n>`     — the one-time `recompile` lowering cost, to show
//!   how quickly replay amortizes it;
//! * `stream-interpreter/1024`, `stream-compiled/1024` — the
//!   compile-once-replay-many figure: 32 executions of one schedule per
//!   iteration, compiling (once) inside the compiled variant's loop.
//!
//! `cst-tools bench-gate` (run by `scripts/bench_smoke.sh`) gates the id
//! set and compiled ≤ interpreter per size, in both the checked-in
//! `BENCH_e13.json` and the fresh smoke run.

use bench::workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cst_engine::{Csa, EngineCtx};
use cst_sim::{default_payloads, simulate_schedule, CompiledProgram, ReplayScratch};

/// Replays of one schedule per iteration in the stream figure.
const STREAM_REPS: usize = 32;

fn bench_e13(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_compiled_replay");
    let mut ctx = EngineCtx::new();

    for n in [256usize, 1024, 4096] {
        let (topo, set) = workload(n, 0.5, 0xE13);
        let out = ctx.route(&Csa, &topo, &set).unwrap();
        let payloads = default_payloads(&set);
        group.throughput(Throughput::Elements(set.len() as u64));

        group.bench_with_input(BenchmarkId::new("interpreter", n), &n, |b, _| {
            b.iter(|| {
                let sim =
                    simulate_schedule(&topo, &set, &out.schedule, Some(payloads.clone())).unwrap();
                std::hint::black_box(sim.cycles)
            })
        });

        let prog = CompiledProgram::compile(&topo, &set, &out.schedule).unwrap();
        let mut scratch = ReplayScratch::new();
        // Warm the scratch shells so the measured loop is steady-state.
        let sim = prog.replay_with(&mut scratch, &payloads).unwrap();
        scratch.recycle(sim);
        group.bench_with_input(BenchmarkId::new("compiled", n), &n, |b, _| {
            b.iter(|| {
                let sim = prog.replay_with(&mut scratch, &payloads).unwrap();
                let cycles = sim.cycles;
                scratch.recycle(sim);
                std::hint::black_box(cycles)
            })
        });

        let mut pooled = CompiledProgram::compile(&topo, &set, &out.schedule).unwrap();
        group.bench_with_input(BenchmarkId::new("compile", n), &n, |b, _| {
            b.iter(|| {
                pooled.recompile(&topo, &set, &out.schedule).unwrap();
                std::hint::black_box(pooled.num_instrs())
            })
        });

        ctx.recycle(out);
    }

    // Compile-once-replay-many: the stream shape the schedule cache
    // serves (one resident schedule, many executions). The compiled
    // variant pays the lowering once per iteration and still wins.
    let n = 1024usize;
    let (topo, set) = workload(n, 0.5, 0xE13);
    let out = ctx.route(&Csa, &topo, &set).unwrap();
    let payloads = default_payloads(&set);
    group.throughput(Throughput::Elements((STREAM_REPS * set.len()) as u64));

    group.bench_with_input(BenchmarkId::new("stream-interpreter", n), &n, |b, _| {
        b.iter(|| {
            let mut total = 0u64;
            for _ in 0..STREAM_REPS {
                let sim =
                    simulate_schedule(&topo, &set, &out.schedule, Some(payloads.clone())).unwrap();
                total += sim.cycles;
            }
            std::hint::black_box(total)
        })
    });

    let mut pooled = CompiledProgram::compile(&topo, &set, &out.schedule).unwrap();
    let mut scratch = ReplayScratch::new();
    group.bench_with_input(BenchmarkId::new("stream-compiled", n), &n, |b, _| {
        b.iter(|| {
            pooled.recompile(&topo, &set, &out.schedule).unwrap();
            let mut total = 0u64;
            for _ in 0..STREAM_REPS {
                let sim = pooled.replay_with(&mut scratch, &payloads).unwrap();
                total += sim.cycles;
                scratch.recycle(sim);
            }
            std::hint::black_box(total)
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
    targets = bench_e13
}
criterion_main!(benches);
