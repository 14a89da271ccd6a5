//! Routers that share a scheduling path serve the same payload.
//!
//! `csa-parallel` and `csa-threaded` are aliases of the serial CSA, kept
//! so requests and tables that name them keep working. `layered`,
//! `general` and `universal` all compose through one routine, so on the
//! sets two of them accept, they schedule alike. A served payload is the
//! router name, the rounds, the `PowerReport` fields, the degradation
//! summary and the schedule JSON; this suite encodes each outcome with
//! the serve wire encoder and requires the bytes to be equal once the
//! router string is set aside, plain and under sampled fault masks.

use cst::comm::CommSet;
use cst::core::{CstError, CstTopology, LeafId};
use cst::engine::{EngineCtx, RouteOutcome};
use cst::serve::wire::encode_outcome_payload;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const ALIASES: [&str; 2] = ["csa-parallel", "csa-threaded"];

/// Payload bytes of `outcome` under router `name`, its name set aside.
fn payload(name: &str, mut outcome: RouteOutcome) -> Vec<u8> {
    assert_eq!(outcome.router, name);
    outcome.router = "csa";
    let mut buf = Vec::new();
    encode_outcome_payload(&mut buf, &outcome);
    buf
}

/// Assert routers `a` and `b` serve the same payload for `set`, plain
/// and under a mask sampled from `rng`; returns whether the mask dropped
/// a communication.
fn assert_same_payload(
    ctx: &mut EngineCtx,
    [a, b]: [&str; 2],
    topo: &CstTopology,
    set: &CommSet,
    rng: &mut StdRng,
    case: &str,
) -> bool {
    let [ra, rb] = [a, b].map(|name| cst::engine::find(name).unwrap());
    let plain_a = payload(a, ctx.route(ra.as_ref(), topo, set).unwrap());
    let plain_b = payload(b, ctx.route(rb.as_ref(), topo, set).unwrap());
    assert!(plain_a == plain_b, "{a} vs {b} {case}: plain payload differs");
    let mask = cst::faults::sample_mask(rng, topo, 0.02);
    let masked_a = ctx.route_masked(ra.as_ref(), topo, set, &mask).unwrap();
    let dropped = masked_a.degradation.as_ref().is_some_and(|d| d.dropped > 0);
    let masked_a = payload(a, masked_a);
    let masked_b = payload(b, ctx.route_masked(rb.as_ref(), topo, set, &mask).unwrap());
    assert!(masked_a == masked_b, "{a} vs {b} {case}: masked payload differs");
    dropped
}

#[test]
fn aliases_encode_the_csa_payload_plain_and_masked() {
    let mut ctx = EngineCtx::new();
    let mut masked_with_drops = 0;
    for n in [64usize, 256, 1024] {
        let topo = CstTopology::with_leaves(n);
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed * 7919 + n as u64);
            let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.6);
            for name in ALIASES {
                let case = format!("n={n} seed={seed}");
                let dropped =
                    assert_same_payload(&mut ctx, ["csa", name], &topo, &set, &mut rng, &case);
                masked_with_drops += usize::from(dropped);
            }
        }
    }
    assert!(masked_with_drops > 0, "no masked request dropped a communication");
}

#[test]
fn layered_encodes_the_universal_payload_on_right_oriented_sets() {
    let mut ctx = EngineCtx::new();
    let (mut crossing, mut masked_with_drops) = (0, 0);
    for n in [64usize, 256, 1024] {
        let topo = CstTopology::with_leaves(n);
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed * 104_729 + n as u64);
            let nested = cst::workloads::well_nested_with_density(&mut rng, n, 0.6);
            // A random right-oriented matching of half the PEs.
            let mut pes: Vec<usize> = (0..n).collect();
            pes.shuffle(&mut rng);
            let pairs: Vec<(usize, usize)> =
                pes[..n / 2].chunks(2).map(|p| (p[0].min(p[1]), p[0].max(p[1]))).collect();
            let matching = CommSet::from_pairs(n, &pairs);
            crossing += usize::from(!matching.is_well_nested());
            for (kind, set) in [("well-nested", &nested), ("matching", &matching)] {
                let case = format!("{kind} n={n} seed={seed}");
                let pair = ["layered", "universal"];
                let dropped = assert_same_payload(&mut ctx, pair, &topo, set, &mut rng, &case);
                masked_with_drops += usize::from(dropped);
            }
        }
    }
    assert!(crossing > 0, "no sampled matching crossed");
    assert!(masked_with_drops > 0, "no masked request dropped a communication");
}

#[test]
fn general_encodes_the_universal_payload_on_mixed_well_nested_sets() {
    let mut ctx = EngineCtx::new();
    let (mut mixed, mut masked_with_drops) = (0, 0);
    for n in [64usize, 256, 1024] {
        let topo = CstTopology::with_leaves(n);
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed * 7_919 + n as u64 + 1);
            let base = cst::workloads::well_nested_with_density(&mut rng, n, 0.6);
            // Flip 40% of the directions; intervals, so nesting, are kept.
            let pairs: Vec<(usize, usize)> = base
                .comms()
                .iter()
                .map(|c| (c.source.0, c.dest.0))
                .map(|(s, d)| if rng.gen_bool(0.4) { (d, s) } else { (s, d) })
                .collect();
            let set = CommSet::from_pairs(n, &pairs);
            mixed += usize::from(!set.is_right_oriented());
            let case = format!("n={n} seed={seed}");
            let pair = ["general", "universal"];
            let dropped = assert_same_payload(&mut ctx, pair, &topo, &set, &mut rng, &case);
            masked_with_drops += usize::from(dropped);
        }
    }
    assert!(mixed > 0, "no sampled set mixed orientations");
    assert!(masked_with_drops > 0, "no masked request dropped a communication");
}

#[test]
fn strict_front_ends_keep_their_errors() {
    let mut ctx = EngineCtx::new();
    let topo = CstTopology::with_leaves(8);
    // A right- and a left-oriented pair whose intervals cross.
    let crossing = CommSet::from_pairs(8, &[(0, 4), (6, 2)]);
    let err = ctx.route_named("general", &topo, &crossing).unwrap_err();
    assert_eq!(err, CstError::NotWellNested { a: 0, b: 1 });
    let err = ctx.route_named("general-merged", &topo, &crossing).unwrap_err();
    assert_eq!(err, CstError::NotWellNested { a: 0, b: 1 });
    assert!(ctx.route_named("universal", &topo, &crossing).is_ok());
    // `layered` takes crossings but only right-oriented sets.
    let left = CommSet::from_pairs(8, &[(0, 1), (5, 2)]);
    let err = ctx.route_named("layered", &topo, &left).unwrap_err();
    assert_eq!(err, CstError::NotRightOriented { source: LeafId(5), dest: LeafId(2) });
    assert!(ctx.route_named("general", &topo, &left).is_ok());
}
