//! End-to-end gates for the layered decomposition front-end
//! (`cst-decomp`): the certified lower bound and the optimality verdict
//! against a brute-force minimum-coloring oracle at small sizes, layer
//! counts and packed rounds against their bounds at production sizes,
//! and full-stack composition audits — `cst-check`'s `CST3xx` pass plus
//! reference-model conformance of every layer, rebuilt from the packed
//! composite's provenance — across every registered router.

use cst::core::{CstTopology, GeneralCommSet};
use cst::decomp::{decompose, layer_schedule};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Exact chromatic number of the conflict graph by branch-and-bound:
/// assign pairs in order, each to an existing color it doesn't conflict
/// with or to one fresh color (symmetry breaking). Exponential — only
/// for oracle duty at `m <= 12`.
fn brute_force_min_layers(set: &GeneralCommSet) -> usize {
    fn go(set: &GeneralCommSet, colors: &mut Vec<usize>, used: usize, best: &mut usize) {
        let i = colors.len();
        if used >= *best {
            return; // can't beat the incumbent
        }
        if i == set.len() {
            *best = used;
            return;
        }
        for c in 0..=used.min(*best - 1) {
            if c < used && (0..i).any(|j| colors[j] == c && set.conflicts(i, j)) {
                continue;
            }
            colors.push(c);
            go(set, colors, used.max(c + 1), best);
            colors.pop();
        }
    }
    if set.is_empty() {
        return 0;
    }
    let mut best = set.len();
    go(set, &mut Vec::with_capacity(set.len()), 0, &mut best);
    best
}

/// A random general set: `m` pairs over `n` leaves, arbitrary topology
/// (crossings and endpoint sharing both likely).
fn random_general(rng: &mut StdRng, n: usize, m: usize) -> GeneralCommSet {
    let mut set = GeneralCommSet::empty(n);
    let mut budget = 8 * m + 16;
    while set.len() < m && budget > 0 {
        budget -= 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            let _ = set.push(a, b);
        }
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// At oracle sizes (`m <= 12`) the true chromatic number of the
    /// conflict graph sits between the certificate and the layer count,
    /// and the optimality verdict is set exactly when the two meet —
    /// so a set verdict is never wrong.
    #[test]
    fn small_decompositions_match_the_coloring_oracle(
        seed in 0u64..1_000_000,
        n in 4usize..=12,
        m in 1usize..=12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let set = random_general(&mut rng, n, m);
        if set.is_empty() {
            return Ok(());
        }
        let d = decompose(&set);
        let oracle = brute_force_min_layers(&set);
        prop_assert!(d.lower_bound <= oracle, "certificate must never exceed the optimum");
        prop_assert!(oracle <= d.num_layers(), "no layering beats the optimum");
        prop_assert_eq!(d.proven_optimal, d.num_layers() == d.lower_bound);
        if d.proven_optimal {
            prop_assert_eq!(d.num_layers(), oracle, "a proven layering is a minimum coloring");
        }
    }

    /// The clique certificate is sound at any size: the witness pairs
    /// are mutually conflicting, so no layering can use fewer layers.
    #[test]
    fn certificate_witness_is_a_real_clique(
        seed in 0u64..1_000_000,
        n in 8usize..=64,
        m in 2usize..=40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let set = random_general(&mut rng, n.max(m / 2 + 2), m);
        let d = decompose(&set);
        prop_assert_eq!(d.witness.len(), d.lower_bound);
        for (x, &i) in d.witness.iter().enumerate() {
            for &j in &d.witness[x + 1..] {
                prop_assert!(set.conflicts(i, j), "witness pairs {i},{j} must conflict");
            }
        }
        prop_assert!(d.lower_bound <= d.num_layers() || set.is_empty());
    }
}

#[test]
fn production_size_layering_stays_within_one_of_the_bound() {
    // The n=64 acceptance gate on the `cst-tools decomp` sweep
    // instances (fresh rng per request, seed = request index, families
    // cycling): the layering lands within lower_bound + 1 on every one
    // — the window the checked-in golden report locks in. The clique
    // certificate is not tight on *all* random inputs (circle graphs
    // can need more colors than their largest clique: bipartite
    // requests 14/20/26 are optimally layered yet sit at bound + 2),
    // so this gates the seeded production sweep, while the oracle
    // proptest above pins the bound and the verdict against the true
    // minimum.
    let n = 64;
    for i in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(i);
        let (name, set) = match i % 3 {
            0 => ("matching", cst::workloads::arbitrary_permutation(&mut rng, n)),
            1 => ("hotspot", cst::workloads::hotspot(&mut rng, n, 24)),
            _ => ("bipartite", cst::workloads::random_bipartite(&mut rng, n, 24)),
        };
        let d = decompose(&set);
        assert!(
            d.num_layers() <= d.lower_bound + 1,
            "request {i} {name}: {} layers vs lower bound {}",
            d.num_layers(),
            d.lower_bound
        );
    }
}

#[test]
fn production_size_routes_meet_the_round_bound() {
    // The same seeded n=64 sweep instances: whatever the layer count,
    // packing the concatenated layers must bring the CSA's general route
    // down to the congestion bound on every one.
    let n = 64;
    let topo = CstTopology::with_leaves(n);
    let mut ctx = cst::engine::EngineCtx::new();
    for i in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(i);
        let (name, set) = match i % 3 {
            0 => ("matching", cst::workloads::arbitrary_permutation(&mut rng, n)),
            1 => ("hotspot", cst::workloads::hotspot(&mut rng, n, 24)),
            _ => ("bipartite", cst::workloads::random_bipartite(&mut rng, n, 24)),
        };
        let out = ctx.route_general(&cst::engine::Csa, &topo, &set).unwrap();
        assert_eq!(
            out.rounds, out.rounds_lower_bound,
            "request {i} {name}: {} packed rounds vs round bound {}",
            out.rounds, out.rounds_lower_bound
        );
        ctx.recycle_general(out);
    }
}

#[test]
fn composed_schedules_audit_clean_for_every_registry_router() {
    // The full-stack gate: route an arbitrary set through *every*
    // registered router's layered path; the packed composite must pass
    // the CST3xx composition audit, stay within the concatenation's
    // length, and every layer rebuilt from provenance must pass both the
    // static analyzer and the executable reference model.
    let n = 32;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0xDEC0);
    let sets = [
        cst::workloads::arbitrary_permutation(&mut rng, n),
        cst::workloads::hotspot(&mut rng, n, 10),
        cst::workloads::random_bipartite(&mut rng, n, 16),
        random_general(&mut rng, n, 20),
    ];
    for router_name in cst::engine::names() {
        let router = cst::engine::find(router_name).unwrap();
        let mut ctx = cst::engine::EngineCtx::new();
        for (k, gset) in sets.iter().enumerate() {
            let out = ctx.route_general(router.as_ref(), &topo, gset).unwrap();
            let d = ctx.decomposition_for(gset);
            let report =
                cst::check::check_decomposition(&topo, gset, d, &out.schedule, &out.layer_rounds);
            assert!(
                report.is_clean(),
                "{router_name} set {k}: composition audit:\n{}",
                report.render_text()
            );
            let opts = if router_name == "csa" {
                cst::check::CheckOptions::strict()
            } else {
                cst::check::CheckOptions::lenient()
            };
            assert!(out.rounds_lower_bound <= out.rounds);
            assert!(out.rounds <= out.layer_rounds.iter().sum::<usize>());
            for (j, layer_set) in d.layer_sets.iter().enumerate() {
                let layer = layer_schedule(
                    &topo,
                    gset,
                    &d.layers[j],
                    &out.layer_round,
                    out.layer_rounds[j],
                );
                // Provenance rebuilds the router's own layer schedule:
                // same rounds, same members, same switch settings.
                let direct = cst::engine::route_once(router_name, &topo, layer_set).unwrap();
                assert_eq!(layer.num_rounds(), direct.rounds, "{router_name} set {k} layer {j}");
                for (r, (rebuilt, routed)) in layer.rounds.iter().zip(&direct.schedule.rounds).enumerate() {
                    let mut members = routed.comms.clone();
                    members.sort_unstable();
                    assert_eq!(rebuilt.comms, members, "{router_name} set {k} layer {j} round {r}");
                    assert_eq!(rebuilt.configs, routed.configs, "{router_name} set {k} layer {j} round {r}");
                }
                let static_report = cst::check::analyze(&topo, layer_set, &layer, &opts);
                assert!(
                    !static_report.has_errors(),
                    "{router_name} set {k} layer {j}: static analysis:\n{}",
                    static_report.render_text()
                );
                let model_report = cst::model::conform_schedule(layer_set, &layer, &[]);
                assert!(
                    model_report.is_clean(),
                    "{router_name} set {k} layer {j}: model conformance:\n{}",
                    model_report.render_text()
                );
            }
            ctx.recycle_general(out);
        }
    }
}

#[test]
fn already_well_nested_sets_decompose_to_one_layer() {
    // A right-oriented well-nested set has a conflict-free graph; the
    // front-end must pass it through as a single layer whose schedule
    // matches the direct (non-layered) route byte for byte.
    let n = 64;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0x1A1E5);
    let wn = cst::workloads::well_nested_with_density(&mut rng, n, 0.6);
    let pairs: Vec<(usize, usize)> =
        wn.comms().iter().map(|c| (c.source.0, c.dest.0)).collect();
    let gset = GeneralCommSet::new(n, &pairs).unwrap();
    let d = decompose(&gset);
    assert_eq!(d.num_layers(), 1, "well-nested input must not be split");
    assert!(d.proven_optimal);

    let mut ctx = cst::engine::EngineCtx::new();
    let layered = ctx.route_general(&cst::engine::Csa, &topo, &gset).unwrap();
    let direct = cst::engine::route_once("csa", &topo, &wn).unwrap();
    assert_eq!(
        serde_json::to_string(&layered.schedule).unwrap(),
        serde_json::to_string(&direct.schedule).unwrap(),
        "single-layer composite must equal the direct schedule"
    );
    ctx.recycle_general(layered);
}
