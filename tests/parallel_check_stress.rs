//! Seeded stress for the threaded parallel driver, audited statically.
//!
//! The bench host has a single core, so the adaptive "csa-parallel"
//! router normally runs the decomposition inline and the cross-thread
//! channel path goes unexercised. The "csa-threaded" router forces real
//! worker threads; every outcome is then fed through the `cst-check`
//! analyzer, whose double-stamp pass (`CST070`) is aimed precisely at the
//! race class a parallel writer could introduce — two threads claiming one
//! switch in the same round. Everything dispatches through the engine
//! (one warm `EngineCtx` reused across all seeds — the stress doubles as
//! a scratch-reuse soak).

use cst::check::{analyze, analyze_with_faults, CheckOptions};
use cst::core::CstTopology;
use cst::engine::{CsaThreaded, EngineCtx, Router};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn threaded_outcomes_survive_static_analysis() {
    let mut ctx = EngineCtx::new();
    for n in [8usize, 16, 32] {
        let topo = CstTopology::with_leaves(n);
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(seed * 31 + n as u64);
            let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.7);
            for threads in [2usize, 4] {
                let router = CsaThreaded { threads };
                let out = ctx
                    .route(&router, &topo, &set)
                    .unwrap_or_else(|e| panic!("n={n} seed={seed} threads={threads}: {e}"));
                let report = analyze(&topo, &set, &out.schedule, &CheckOptions::strict());
                assert!(
                    report.is_clean(),
                    "threaded CSA flagged (n={n}, seed={seed}, threads={threads}):\n{}",
                    report.render_text()
                );
                ctx.recycle(out);
            }
        }
    }
}

#[test]
fn threaded_and_serial_schedules_agree() {
    // Beyond "no diagnostics": the threaded driver must produce the same
    // rounds as the serial CSA, so a race that happens to stay legal is
    // still caught as a divergence.
    let n = 32;
    let topo = CstTopology::with_leaves(n);
    let mut ctx = EngineCtx::new();
    let threaded4 = CsaThreaded { threads: 4 };
    assert_eq!(threaded4.name(), "csa-threaded");
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed + 7000);
        let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.8);
        let serial = ctx.route_named("csa", &topo, &set).unwrap();
        let threaded = ctx.route(&threaded4, &topo, &set).unwrap();
        assert_eq!(serial.schedule, threaded.schedule, "seed={seed}");
        ctx.recycle(serial);
        ctx.recycle(threaded);
    }
}

#[test]
fn threaded_outcomes_survive_fault_masks() {
    // The same race-hunting soak, but with every case additionally run
    // under a seeded fault mask: worker threads schedule the survivor
    // subset, the engine remaps ids and splits half-duplex rounds, and
    // the analyzer's fault pass audits the result. The fault-free and
    // masked runs share one warm context, so survivor-set scheduling also
    // soaks scratch reuse across differently-sized sets.
    let mut ctx = EngineCtx::new();
    for n in [8usize, 16, 32] {
        let topo = CstTopology::with_leaves(n);
        for seed in 0..15u64 {
            let mut rng = StdRng::seed_from_u64(seed * 131 + n as u64);
            let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.7);
            let mask = cst::faults::sample_mask(&mut rng, &topo, 0.08);
            for threads in [2usize, 4] {
                let router = CsaThreaded { threads };
                let out = ctx
                    .route_masked(&router, &topo, &set, &mask)
                    .unwrap_or_else(|e| panic!("n={n} seed={seed} threads={threads}: {e}"));
                let report = out.degradation.as_ref().expect("masked route reports");
                assert_eq!(
                    report.routed + report.dropped,
                    set.len(),
                    "n={n} seed={seed} threads={threads}: conservation violated"
                );
                let dropped: Vec<usize> = report.drops.iter().map(|d| d.comm).collect();
                let audit = analyze_with_faults(
                    &topo,
                    &set,
                    &out.schedule,
                    &CheckOptions::lenient(),
                    &mask,
                    &dropped,
                );
                assert!(
                    audit.is_clean(),
                    "masked threaded CSA flagged (n={n}, seed={seed}, threads={threads}):\n{}",
                    audit.render_text()
                );
                // Serial CSA must agree with the threaded driver under the
                // same mask — drop partition and rounds alike.
                let serial = ctx.route_masked(&cst::engine::Csa, &topo, &set, &mask).unwrap();
                assert_eq!(serial.schedule, out.schedule, "n={n} seed={seed}");
                ctx.recycle(serial);
                ctx.recycle(out);
            }
        }
    }
}
