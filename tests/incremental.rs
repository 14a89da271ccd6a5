//! Incremental-vs-scratch equivalence: an [`IncrementalCsa`] session fed
//! random mutation chains must produce, after every delta, a schedule
//! byte-identical (serde) to routing the mutated set from scratch — and
//! that schedule must pass the static analyzer. Proptest drives the
//! chains; a `csa-threaded` case checks the session agrees with the
//! registry's alias names too.

use cst::check::{analyze, CheckOptions};
use cst::comm::{CommSet, Schedule, SchedulePool};
use cst::core::CstTopology;
use cst::engine::EngineCtx;
use cst::padr::{CsaScratch, IncrementalCsa};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bytes(s: &Schedule) -> String {
    serde_json::to_string(s).unwrap()
}

/// Route `set` from scratch with a fresh serial CSA.
fn scratch_route(topo: &CstTopology, set: &CommSet) -> Schedule {
    let (mut csa, mut pool) = (CsaScratch::new(), SchedulePool::new());
    csa.schedule(topo, set, &mut pool).unwrap().schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 1–8 random deltas: after each, the incremental route matches the
    /// from-scratch route byte-for-byte and the analyzer finds nothing.
    #[test]
    fn incremental_matches_scratch_under_mutation_chains(
        seed in 0u64..1_000_000,
        steps in 1usize..=8,
    ) {
        let n = 128;
        let topo = CstTopology::with_leaves(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.4);
        let mut session = IncrementalCsa::new(&topo, &set).unwrap();
        let mut pool = SchedulePool::new();
        for step in 0..steps {
            let changes = cst::workloads::random_changes(&mut rng, session.set(), 1);
            let out = session.route_delta(&topo, &changes, &mut pool).unwrap();
            let fresh = scratch_route(&topo, &session.set().clone());
            prop_assert_eq!(
                bytes(&out.schedule), bytes(&fresh),
                "seed {} step {}: incremental != scratch", seed, step
            );
            let report = analyze(&topo, session.set(), &out.schedule, &CheckOptions::strict());
            prop_assert!(
                report.is_clean(),
                "seed {} step {}: analyzer findings:\n{}", seed, step, report.render_text()
            );
            pool.put_schedule(out.schedule);
            pool.put_meter(out.meter);
        }
    }

    /// Larger deltas in one batch (up to 8 changes per `route_delta`).
    #[test]
    fn batched_deltas_match_scratch(seed in 0u64..1_000_000, k in 2usize..=8) {
        let n = 256;
        let topo = CstTopology::with_leaves(n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD317A);
        let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.5);
        let mut session = IncrementalCsa::new(&topo, &set).unwrap();
        let mut pool = SchedulePool::new();
        let changes = cst::workloads::random_changes(&mut rng, session.set(), k);
        let out = session.route_delta(&topo, &changes, &mut pool).unwrap();
        let fresh = scratch_route(&topo, &session.set().clone());
        prop_assert_eq!(bytes(&out.schedule), bytes(&fresh), "seed {}", seed);
    }
}

#[test]
fn incremental_agrees_with_the_threaded_router() {
    // `csa-threaded` is an alias of the serial CSA; an incremental
    // session evolving the same set must agree with it after every
    // delta — streaming clients may mix the two freely.
    let n = 256;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0x7472EAD);
    let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.5);
    let mut session = IncrementalCsa::new(&topo, &set).unwrap();
    let mut pool = SchedulePool::new();
    let mut ctx = EngineCtx::new();
    for step in 0..6 {
        let changes = cst::workloads::random_changes(&mut rng, session.set(), 2);
        let inc = session.route_delta(&topo, &changes, &mut pool).unwrap();
        let threaded = ctx.route_named("csa-threaded", &topo, &session.set().clone()).unwrap();
        assert_eq!(
            bytes(&inc.schedule),
            bytes(&threaded.schedule),
            "step {step}: incremental != csa-threaded"
        );
        ctx.recycle(threaded);
        pool.put_schedule(inc.schedule);
        pool.put_meter(inc.meter);
    }
}

#[test]
fn cached_and_incremental_paths_agree() {
    // Close the loop between the two streaming features: routing the
    // evolved set through the schedule cache (miss, then hit) returns the
    // same bytes the incremental session produced.
    let n = 128;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.5);
    let mut session = IncrementalCsa::new(&topo, &set).unwrap();
    let mut pool = SchedulePool::new();
    let mut ctx = EngineCtx::new();
    ctx.enable_cache(cst::engine::DEFAULT_CACHE_CAPACITY);
    for step in 0..4 {
        let changes = cst::workloads::random_changes(&mut rng, session.set(), 2);
        let inc = session.route_delta(&topo, &changes, &mut pool).unwrap();
        let evolved = session.set().clone();
        let miss = ctx.route(&cst::engine::Csa, &topo, &evolved).unwrap();
        let hit = ctx.route(&cst::engine::Csa, &topo, &evolved).unwrap();
        assert_eq!(bytes(&inc.schedule), bytes(&miss.schedule), "step {step}");
        assert_eq!(bytes(&inc.schedule), bytes(&hit.schedule), "step {step}");
        pool.put_schedule(inc.schedule);
        pool.put_meter(inc.meter);
    }
}

#[test]
fn traced_deltas_conform_to_the_reference_model() {
    // PR satellite: `route_delta` used to be the one scheduling path with
    // no ProtocolTrace emission. Every delta's trace must now replay
    // cleanly on the independent reference model (CST2xx family), and
    // tracing must not change the schedule.
    let n = 64;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0x7EACE);
    let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.4);
    let mut session = IncrementalCsa::new(&topo, &set).unwrap();
    let mut pool = SchedulePool::new();
    let mut trace = cst::core::ProtocolTrace::new();

    // The session's full route traces too.
    let full = session.route_traced(&topo, &mut pool, &mut trace).unwrap();
    let report = cst::model::conform_trace(session.set(), &trace);
    assert!(report.is_clean(), "full route trace:\n{}", report.render_text());
    pool.put_schedule(full.schedule);
    pool.put_meter(full.meter);

    for step in 0..6 {
        let changes = cst::workloads::random_changes(&mut rng, session.set(), 2);
        let out = session.route_delta_traced(&topo, &changes, &mut pool, &mut trace).unwrap();
        let report = cst::model::conform_trace(session.set(), &trace);
        assert!(
            report.is_clean(),
            "step {step}: delta trace fails conformance:\n{}",
            report.render_text()
        );
        let fresh = scratch_route(&topo, &session.set().clone());
        assert_eq!(bytes(&out.schedule), bytes(&fresh), "step {step}: tracing changed bytes");
        pool.put_schedule(out.schedule);
        pool.put_meter(out.meter);
    }
}
