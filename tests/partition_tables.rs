//! Round tables are a function of the round partition.
//!
//! A 3-sided switch never connects an input to its own side's output, so
//! each communication has exactly one circuit on the CST, and a round's
//! switch table is the union of its members' circuits.
//! `Schedule::from_partition` writes exactly that table from the round
//! membership alone. These tests hold every producer to it: rebuilding an
//! outcome's schedule from its per-round ids must give the outcome's
//! schedule back, comm order and table bytes included.
//!
//! * `every_router_plain_and_masked`: every registry router on seeded
//!   well-nested sets, fault-free and under sampled fault masks (dropped
//!   communications and rounds split at half-duplex edges included);
//! * `mixed_orientation_front_ends`: `general`, `general-merged` and
//!   `universal` on sets with both orientations;
//! * `decomposed_general_sets`: `route_general` on matching, hotspot and
//!   bipartite sets, whose ids index the general set's pairs.

use cst::comm::{CommId, CommSet, Schedule};
use cst::core::{CstTopology, FaultMask, LeafId};
use cst::engine::EngineCtx;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Rebuild `schedule` from its round membership and compare.
fn assert_rebuilds(
    topo: &CstTopology,
    endpoints: impl Fn(CommId) -> Option<(LeafId, LeafId)>,
    schedule: &Schedule,
    what: &str,
) {
    let rebuilt =
        Schedule::from_partition(topo, endpoints, schedule.rounds.iter().map(|r| &r.comms))
            .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(&rebuilt, schedule, "{what}");
}

fn set_endpoints(set: &CommSet) -> impl Fn(CommId) -> Option<(LeafId, LeafId)> + '_ {
    |id| set.get(id).map(|c| (c.source, c.dest))
}

/// Route `set` plainly and under `mask`; returns whether the masked
/// outcome (split, dropped) any communication.
fn check_router(
    ctx: &mut EngineCtx,
    name: &str,
    topo: &CstTopology,
    set: &CommSet,
    mask: &FaultMask,
) -> (bool, bool) {
    let router = cst::engine::find(name).unwrap();
    let n = topo.num_leaves();
    let out = ctx.route(router.as_ref(), topo, set).unwrap();
    assert_rebuilds(topo, set_endpoints(set), &out.schedule, &format!("{name} n={n}"));
    ctx.recycle(out);
    let out = ctx.route_masked(router.as_ref(), topo, set, mask).unwrap();
    assert_rebuilds(topo, set_endpoints(set), &out.schedule, &format!("{name} n={n} masked"));
    let report = out.degradation.clone().unwrap();
    ctx.recycle(out);
    (report.extra_rounds > 0, report.dropped > 0)
}

#[test]
fn every_router_plain_and_masked() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0030);
    let mut ctx = EngineCtx::new();
    let (mut split, mut dropped, mut outcomes) = (0, 0, 0);
    for n in [16usize, 64, 256, 1024] {
        let topo = CstTopology::with_leaves(n);
        for (density, rate) in [(0.3, 0.01), (1.0, 0.03)] {
            let set = cst::workloads::well_nested_with_density(&mut rng, n, density);
            let mask = cst::faults::sample_mask(&mut rng, &topo, rate);
            for name in cst::engine::names() {
                let (s, d) = check_router(&mut ctx, name, &topo, &set, &mask);
                split += usize::from(s);
                dropped += usize::from(d);
                outcomes += 1;
            }
        }
    }
    assert!(split > 0, "no masked outcome was split by a degraded edge");
    assert!(dropped > 0, "no masked outcome dropped a communication");
    assert_eq!(outcomes, 4 * 2 * cst::engine::names().len());
}

/// `pairs` communications between random distinct PEs, crossings
/// allowed; each flipped to left-oriented with probability `flip`.
fn crossing_set(rng: &mut StdRng, n: usize, pairs: usize, flip: f64) -> CommSet {
    let mut pes = cst::workloads::sample_positions(rng, n, 2 * pairs);
    pes.shuffle(rng);
    let pairs: Vec<(usize, usize)> = pes
        .chunks(2)
        .map(|p| (p[0].min(p[1]), p[0].max(p[1])))
        .map(|(s, d)| if rng.gen_bool(flip) { (d, s) } else { (s, d) })
        .collect();
    CommSet::from_pairs(n, &pairs)
}

/// A well-nested set with a share `flip` of its directions reversed.
fn mixed_well_nested(rng: &mut StdRng, n: usize, density: f64, flip: f64) -> CommSet {
    let base = cst::workloads::well_nested_with_density(rng, n, density);
    let pairs: Vec<(usize, usize)> = base
        .comms()
        .iter()
        .map(|c| (c.source.0, c.dest.0))
        .map(|(s, d)| if rng.gen_bool(flip) { (d, s) } else { (s, d) })
        .collect();
    CommSet::from_pairs(n, &pairs)
}

#[test]
fn mixed_orientation_front_ends() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0031);
    let mut ctx = EngineCtx::new();
    let mut left_rounds = 0;
    for n in [16usize, 64, 256, 1024] {
        let topo = CstTopology::with_leaves(n);
        for density in [0.3, 1.0] {
            let nested = mixed_well_nested(&mut rng, n, density, 0.4);
            let crossing = crossing_set(&mut rng, n, n / 4, 0.4);
            let mask = cst::faults::sample_mask(&mut rng, &topo, 0.01);
            for name in ["general", "general-merged", "universal"] {
                check_router(&mut ctx, name, &topo, &nested, &mask);
            }
            check_router(&mut ctx, "universal", &topo, &crossing, &mask);
            let out = ctx.route_named("general", &topo, &nested).unwrap();
            if let cst::engine::RouteExtra::General { left_rounds: l, .. } = out.extra {
                left_rounds += l;
            }
            ctx.recycle(out);
        }
    }
    assert!(left_rounds > 0, "no left-oriented half was scheduled");
}

#[test]
fn decomposed_general_sets() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0032);
    let mut ctx = EngineCtx::new();
    let csa = cst::engine::find("csa").unwrap();
    for n in [16usize, 64, 256, 1024] {
        let topo = CstTopology::with_leaves(n);
        for family in ["matching", "hotspot", "bipartite"] {
            let gset = match family {
                "matching" => cst::workloads::arbitrary_permutation(&mut rng, n),
                "hotspot" => cst::workloads::hotspot(&mut rng, n, n / 2),
                _ => cst::workloads::random_bipartite(&mut rng, n, n),
            };
            let out = ctx.route_general(csa.as_ref(), &topo, &gset).unwrap();
            let pairs = gset.pairs();
            assert_rebuilds(
                &topo,
                |id| pairs.get(id.0).copied(),
                &out.schedule,
                &format!("route_general {family} n={n}"),
            );
            ctx.recycle_general(out);
        }
    }
}
