//! Routing a set that PE changes drift step by step, as `cst-tools
//! stream` and bench-serve drift their working sets: after every step
//! the cached path (miss, then hit) returns exactly the bytes a fresh
//! CSA routes, clean under the strict analyzer, and a traced route of
//! the evolved set replays on the reference model.

use cst::check::{analyze, CheckOptions};
use cst::comm::{CommSet, Schedule, SchedulePool};
use cst::core::{CstTopology, LeafId, ProtocolTrace};
use cst::engine::{Csa, EngineCtx, RouteExtra, DEFAULT_CACHE_CAPACITY};
use cst::padr::CsaScratch;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bytes(s: &Schedule) -> String {
    serde_json::to_string(s).unwrap()
}

/// Apply `k` random PE changes to `set`; each change touches two leaves.
fn drift(rng: &mut StdRng, set: &mut CommSet, k: usize, touched: &mut Vec<LeafId>) {
    let changes = cst::workloads::random_changes(rng, set, k);
    touched.clear();
    set.apply_changes(&changes, touched).unwrap();
    assert_eq!(touched.len(), 2 * changes.len());
}

#[test]
fn cached_and_incremental_paths_agree() {
    // After every drift step a cache miss and the hit that follows
    // return the bytes a fresh CSA routes for the evolved set.
    let n = 128;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let mut set = cst::workloads::well_nested_with_density(&mut rng, n, 0.5);
    let mut ctx = EngineCtx::new();
    ctx.enable_cache(DEFAULT_CACHE_CAPACITY);
    let mut touched = Vec::new();
    for step in 0..8 {
        drift(&mut rng, &mut set, 2, &mut touched);
        let (mut csa, mut pool) = (CsaScratch::new(), SchedulePool::new());
        let fresh = bytes(&csa.schedule(&topo, &set, &mut pool).unwrap().schedule);
        let miss = ctx.route(&Csa, &topo, &set).unwrap();
        let hit = ctx.route(&Csa, &topo, &set).unwrap();
        assert!(
            !matches!(miss.extra, RouteExtra::Cached { .. }),
            "step {step}"
        );
        assert!(
            matches!(hit.extra, RouteExtra::Cached { .. }),
            "step {step}"
        );
        for out in [&miss, &hit] {
            assert_eq!(bytes(&out.schedule), fresh, "step {step}");
            let report = analyze(&topo, &set, &out.schedule, &CheckOptions::strict());
            assert!(
                report.is_clean(),
                "step {step}: analyzer findings:\n{}",
                report.render_text()
            );
        }
        ctx.recycle(miss);
        ctx.recycle(hit);
    }
}

#[test]
fn traced_deltas_conform_to_the_reference_model() {
    // One `CsaScratch` traces the set before and after every drift step:
    // each trace replays cleanly on the independent reference model
    // (CST2xx family), and tracing does not change the schedule.
    let n = 64;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0x7EACE);
    let mut set = cst::workloads::well_nested_with_density(&mut rng, n, 0.4);
    let (mut csa, mut pool) = (CsaScratch::new(), SchedulePool::new());
    let (mut touched, mut trace) = (Vec::new(), ProtocolTrace::new());
    for step in 0..7 {
        if step > 0 {
            drift(&mut rng, &mut set, 2, &mut touched);
        }
        let fresh = bytes(
            &CsaScratch::new()
                .schedule(&topo, &set, &mut SchedulePool::new())
                .unwrap()
                .schedule,
        );
        let traced = csa
            .schedule_traced(&topo, &set, &mut pool, &mut trace)
            .unwrap();
        assert_eq!(
            bytes(&traced.schedule),
            fresh,
            "step {step}: tracing changed the schedule"
        );
        let report = cst::model::conform_trace(&set, &trace);
        assert!(
            report.is_clean(),
            "step {step}: trace fails conformance:\n{}",
            report.render_text()
        );
        pool.put_schedule(traced.schedule);
        pool.put_meter(traced.meter);
    }
}
