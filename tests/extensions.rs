//! Integration tests for the extension layers: universal scheduling
//! (layering + mirroring), orientation composition and packing, SRGA
//! routing and the computational algorithms — everything past the
//! paper's core.

use cst::comm::CommSet;
use cst::core::CstTopology;
use cst::engine::{EngineCtx, RouteExtra};
use cst::srga::{Comm2d, Coord, SrgaGrid};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Random arbitrary sets (any orientation, crossings) always schedule and
/// verify under the universal front end.
#[test]
fn universal_scheduler_handles_random_arbitrary_sets() {
    let n = 128;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(11);
    let mut ctx = EngineCtx::new();
    for _ in 0..25 {
        // random matching over a random subset of PEs, random directions
        let mut pes: Vec<usize> = (0..n).collect();
        pes.shuffle(&mut rng);
        let k = rng.gen_range(1..=n / 4);
        let pairs: Vec<(usize, usize)> = (0..k)
            .map(|i| {
                let (a, b) = (pes[2 * i], pes[2 * i + 1]);
                if rng.gen_bool(0.5) {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        let set = CommSet::from_pairs(n, &pairs);
        let out =
            ctx.route_named("universal", &topo, &set).expect("universal schedules anything");
        out.schedule.verify(&topo, &set).expect("and it verifies");
        let ids: std::collections::BTreeSet<usize> =
            out.schedule.scheduled_ids().map(|c| c.0).collect();
        assert_eq!(ids.len(), set.len());
        ctx.recycle(out);
    }
}

/// Round merging never increases the round count and always verifies.
#[test]
fn merging_is_sound_and_never_worse() {
    let n = 64;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(21);
    let mut ctx = EngineCtx::new();
    for _ in 0..20 {
        // build a mixed well-nested set: right-oriented random half on the
        // left side, mirrored version on the right side
        let m = rng.gen_range(1..=8);
        let right = cst::workloads::well_nested_set(&mut rng, n / 2, m);
        let mut pairs: Vec<(usize, usize)> =
            right.comms().iter().map(|c| (c.source.0, c.dest.0)).collect();
        pairs.extend(right.comms().iter().map(|c| (n - 1 - c.source.0, n - 1 - c.dest.0)));
        let set = CommSet::from_pairs(n, &pairs);

        let sequential = ctx.route_named("general", &topo, &set).unwrap();
        let merged = ctx.route_named("general-merged", &topo, &set).unwrap();
        assert!(merged.rounds <= sequential.rounds);
        merged.schedule.verify(&topo, &set).unwrap();
        // mirror-symmetric halves interleave perfectly
        let &RouteExtra::General { right_rounds, left_rounds } = &sequential.extra else {
            panic!("general router carries half-rounds extras");
        };
        assert_eq!(merged.rounds, right_rounds.max(left_rounds));
        ctx.recycle(sequential);
        ctx.recycle(merged);
    }
}

/// The `general` router on the orientation cases: a pure-left set runs
/// through the mirror alone, a mixed set runs its halves back to back,
/// and a crossing between the halves is rejected.
#[test]
fn general_router_composes_the_oriented_halves() {
    let mut ctx = EngineCtx::new();
    let topo = CstTopology::with_leaves(8);
    let left = CommSet::from_pairs(8, &[(3, 0), (7, 4)]);
    let out = ctx.route_named("general", &topo, &left).unwrap();
    out.schedule.verify(&topo, &left).unwrap();
    assert_eq!(out.rounds, 1);
    assert!(matches!(out.extra, RouteExtra::General { right_rounds: 0, left_rounds: 1 }));
    ctx.recycle(out);

    let topo = CstTopology::with_leaves(16);
    // right: (0,7),(1,6); left: (15,8),(14,9) — each half width 2
    let mixed = CommSet::from_pairs(16, &[(0, 7), (1, 6), (15, 8), (14, 9)]);
    let out = ctx.route_named("general", &topo, &mixed).unwrap();
    out.schedule.verify(&topo, &mixed).unwrap();
    assert_eq!(out.rounds, 4);
    assert!(matches!(out.extra, RouteExtra::General { right_rounds: 2, left_rounds: 2 }));
    // the right half's rounds come first
    assert!(out.schedule.rounds[..2].iter().flat_map(|r| &r.comms).all(|c| c.0 < 2));
    ctx.recycle(out);

    let topo = CstTopology::with_leaves(8);
    let crossing = CommSet::from_pairs(8, &[(0, 4), (6, 2)]);
    assert!(ctx.route_named("general", &topo, &crossing).is_err());
}

/// `general-merged` packs the two halves into shared rounds: down to
/// `max(w_right, w_left)` when they never collide, never more than
/// `general`'s `w_right + w_left`.
#[test]
fn general_merged_interleaves_the_halves() {
    let mut ctx = EngineCtx::new();
    // (leaves, pairs, expected rounds or None for "at most general's")
    let fully: Vec<(usize, usize)> =
        (0..8).map(|i| (i, 15 - i)).chain((0..8).map(|i| (31 - i, 16 + i))).collect();
    let cases = [
        // right nest on the left half, mirrored left nest on the right
        (16, vec![(0, 7), (1, 6), (2, 5), (15, 8), (14, 9), (13, 10)], Some(3)),
        // width-8 nest and its mirror
        (32, fully, Some(8)),
        (8, vec![(0, 7), (1, 6)], Some(2)),
        // both halves fight over the root's subtrees
        (16, vec![(0, 15), (2, 13), (14, 1), (12, 3)], None),
    ];
    for (n, pairs, expected) in cases {
        let topo = CstTopology::with_leaves(n);
        let set = CommSet::from_pairs(n, &pairs);
        let general = ctx.route_named("general", &topo, &set).unwrap();
        let merged = ctx.route_named("general-merged", &topo, &set).unwrap();
        merged.schedule.verify(&topo, &set).unwrap();
        assert!(merged.rounds <= general.rounds, "{pairs:?}");
        if let Some(rounds) = expected {
            assert_eq!(merged.rounds, rounds, "{pairs:?}");
        }
        ctx.recycle(general);
        ctx.recycle(merged);
    }
}

/// SRGA random permutation campaign: every batch routes, respects the
/// one-role-per-PE-per-phase rule (enforced internally, re-verified per
/// 1D schedule), and completes all communications.
#[test]
fn srga_random_permutations_route_completely() {
    let grid = SrgaGrid::square(8);
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..10 {
        let mut perm: Vec<usize> = (0..64).collect();
        perm.shuffle(&mut rng);
        let out = cst::srga::permutation(&grid, &perm).unwrap();
        let moved = perm.iter().enumerate().filter(|&(i, &d)| i != d).count();
        let scheduled: usize = out.waves.iter().map(|w| w.comms.len()).sum();
        assert_eq!(scheduled, moved);
        assert!(out.total_rounds() >= 1);
    }
}

/// SRGA rectangular grids work end to end.
#[test]
fn srga_rectangular_grid() {
    let grid = SrgaGrid::new(4, 16).unwrap();
    let comms: Vec<Comm2d> = (0..4)
        .map(|r| Comm2d::new(Coord::at(r, r), Coord::at(3 - r, 15 - r)))
        .collect();
    let out = cst::srga::route(&grid, &comms).unwrap();
    let scheduled: usize = out.waves.iter().map(|w| w.comms.len()).sum();
    assert_eq!(scheduled, 4);
}

/// Algorithms compose: sorted prefix sums of random data match the
/// sequential computation.
#[test]
fn apps_compose_sort_then_prefix() {
    let mut rng = StdRng::seed_from_u64(41);
    let mut data: Vec<i64> = (0..64).map(|_| rng.gen_range(-100..100)).collect();
    let sorted = cst::apps::odd_even_sort(data.clone()).unwrap();
    data.sort_unstable();
    assert_eq!(sorted.values, data);
    let prefix = cst::apps::prefix_sums(sorted.values).unwrap();
    let mut expect = data.clone();
    for i in 1..expect.len() {
        expect[i] += expect[i - 1];
    }
    assert_eq!(prefix.values, expect);
}

/// Fault campaign at integration scope: nothing silently misroutes.
#[test]
fn fault_campaign_never_verifies_wrong_output() {
    let topo = CstTopology::with_leaves(32);
    let mut rng = StdRng::seed_from_u64(51);
    let set = cst::workloads::well_nested_set(&mut rng, 32, 10);
    let (during, by_verifier, masked) = cst::sim::campaign(&topo, &set);
    // Every injection lands in one of the three sound buckets; the
    // classifier itself re-verifies schedules, so reaching here means no
    // wrong output was ever accepted.
    assert_eq!(during + by_verifier + masked, topo.num_switches() * 5 * 2);
    assert!(during > 0);
}

/// Layered scheduling on the comb: spanning comm and teeth in 2 rounds.
#[test]
fn layers_on_comb() {
    let topo = CstTopology::with_leaves(64);
    let set = cst::workloads::comb(64, 10);
    let out = cst::engine::route_once("layered", &topo, &set).unwrap();
    let RouteExtra::Layered { num_layers } = out.extra else {
        panic!("layered router carries layer-count extras");
    };
    assert_eq!(num_layers, 1, "a comb is well-nested: one layer");
    assert_eq!(out.rounds, 2);
    out.schedule.verify(&topo, &set).unwrap();
}
