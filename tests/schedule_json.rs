//! `Schedule::write_json` against the serde reference.
//!
//! The serve daemon writes every miss's schedule JSON with
//! `Schedule::write_json`, while clients, audits and goldens decode it
//! with serde. This suite routes every registry router at every size,
//! plain and under sampled fault masks (dropped communications
//! included), plus the empty schedule and a `route_general` composite,
//! and requires the writer's bytes to equal `serde_json::to_string`
//! exactly and to decode back to the same schedule.

use cst::comm::Schedule;
use cst::core::CstTopology;
use cst::engine::EngineCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZES: [usize; 6] = [2, 4, 16, 64, 256, 1024];

/// Assert the direct writer matches serde on `sched` and round-trips.
fn assert_identical(sched: &Schedule, what: &str) {
    let mut direct = Vec::new();
    sched.write_json(&mut direct);
    let serde = serde_json::to_string(sched).unwrap();
    assert!(direct == serde.as_bytes(), "{what}: write_json differs from serde_json::to_string");
    let back: Schedule = serde_json::from_str(std::str::from_utf8(&direct).unwrap()).unwrap();
    assert_eq!(&back, sched, "{what}: decoded schedule differs");
}

#[test]
fn empty_schedule_matches_serde() {
    assert_identical(&Schedule::default(), "empty schedule");
}

#[test]
fn every_router_at_every_size_matches_serde_plain_and_masked() {
    let mut ctx = EngineCtx::new();
    let mut rng = StdRng::seed_from_u64(0x0150_4a50);
    let (mut outcomes, mut with_drops) = (0, 0);
    for n in SIZES {
        let topo = CstTopology::with_leaves(n);
        let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.5);
        let mask = cst::faults::sample_mask(&mut rng, &topo, 0.02);
        for name in cst::engine::names() {
            let router = cst::engine::find(name).unwrap();
            let plain = ctx.route(router.as_ref(), &topo, &set).unwrap();
            assert_identical(&plain.schedule, &format!("{name} n={n} plain"));
            ctx.recycle(plain);

            let masked = ctx.route_masked(router.as_ref(), &topo, &set, &mask).unwrap();
            assert_identical(&masked.schedule, &format!("{name} n={n} masked"));
            if masked.degradation.as_ref().is_some_and(|d| d.dropped > 0) {
                with_drops += 1;
            }
            ctx.recycle(masked);
            outcomes += 2;
        }
    }
    assert_eq!(outcomes, 2 * SIZES.len() * cst::engine::names().len());
    assert!(with_drops > 0, "no masked outcome dropped a communication");
}

#[test]
fn route_general_composite_matches_serde() {
    let n = 256;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0x0c0a_7051);
    let set = cst::workloads::arbitrary_permutation(&mut rng, n);
    let mut ctx = EngineCtx::new();
    let out = ctx.route_general(&cst::engine::Csa, &topo, &set).unwrap();
    assert!(out.layer_rounds.len() > 1, "the composite must span several layers");
    assert_identical(&out.schedule, "route_general composite");
}
