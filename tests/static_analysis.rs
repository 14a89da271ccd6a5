//! Clean-schedule guarantee: every schedule the workspace's generators
//! and schedulers produce must sail through the static analyzer with zero
//! diagnostics at the contract level the scheduler actually promises —
//! the acceptance criterion complementing the mutation harness (which
//! proves corrupted schedules do NOT pass).

use cst::check::{analyze, CheckOptions};
use cst::comm::examples;
use cst::core::CstTopology;
use cst::engine::{route_once, EngineCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn csa_outcomes_are_strictly_clean() {
    let mut ctx = EngineCtx::new();
    for n in [8usize, 32, 128] {
        let topo = CstTopology::with_leaves(n);
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.6);
            let out = ctx.route_named("csa", &topo, &set).unwrap();
            let report = analyze(&topo, &set, &out.schedule, &CheckOptions::strict());
            assert!(
                report.is_clean(),
                "CSA schedule flagged (n={n}, seed={seed}):\n{}",
                report.render_text()
            );
            ctx.recycle(out);
        }
    }
}

#[test]
fn csa_phase1_counters_are_clean() {
    let topo = CstTopology::with_leaves(64);
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed + 100);
        let set = cst::workloads::well_nested_with_density(&mut rng, 64, 0.7);
        let p1 = cst::padr::phase1::run(&topo, &set).unwrap();
        cst::padr::verify_phase1(&topo, &set, &p1).unwrap();
    }
}

#[test]
fn paper_figures_are_strictly_clean() {
    for (n, set) in [
        (16, examples::paper_figure_2()),
        (16, examples::paper_figure_3b()),
        (32, examples::full_nest(32)),
        (32, examples::sibling_pairs(32)),
    ] {
        let topo = CstTopology::with_leaves(n);
        let out = route_once("csa", &topo, &set).unwrap();
        let report = analyze(&topo, &set, &out.schedule, &CheckOptions::strict());
        assert!(report.is_clean(), "{}", report.render_text());
    }
}

#[test]
fn greedy_outermost_meets_its_weaker_contract() {
    // Greedy promises correctness and width-many rounds, but neither the
    // per-switch selection order nor the O(1) transition budget.
    let options = CheckOptions {
        require_right_oriented: true,
        optimal_rounds: true,
        selection_order: false,
        transition_bound: None,
    };
    let topo = CstTopology::with_leaves(64);
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed + 200);
        let set = cst::workloads::well_nested_with_density(&mut rng, 64, 0.6);
        let out = route_once("greedy", &topo, &set).unwrap();
        let report = analyze(&topo, &set, &out.schedule, &options);
        assert!(report.is_clean(), "greedy (seed={seed}):\n{}", report.render_text());
    }
}

#[test]
fn roy_baseline_is_correct_under_lenient_analysis() {
    // Roy's ID scheduler promises only Theorem 4 correctness (more rounds,
    // no power bound): lenient analysis must find no errors.
    let topo = CstTopology::with_leaves(64);
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed + 300);
        let set = cst::workloads::well_nested_with_density(&mut rng, 64, 0.6);
        let out = route_once("roy", &topo, &set).unwrap();
        let report = analyze(&topo, &set, &out.schedule, &CheckOptions::lenient());
        assert!(!report.has_errors(), "roy (seed={seed}):\n{}", report.render_text());
    }
}

#[test]
fn merged_mixed_orientation_schedules_are_correct() {
    // The "general-merged" router interleaves the two orientation halves;
    // correctness is re-checked at link granularity by the analyzer.
    let topo = CstTopology::with_leaves(16);
    let set = cst::comm::CommSet::from_pairs(16, &[(0, 7), (1, 6), (2, 5), (15, 8), (14, 9)]);
    let merged = route_once("general-merged", &topo, &set).unwrap();
    let report = analyze(&topo, &set, &merged.schedule, &CheckOptions::lenient());
    assert!(!report.has_errors(), "{}", report.render_text());

    // Seeded mixed sets: each communication of a well-nested set flipped
    // with probability 0.4. The packed schedule is clean and never longer
    // than `general`'s concatenation.
    let mut ctx = EngineCtx::new();
    let (mut shorter, mut cases) = (0, 0);
    for n in [16usize, 64, 256] {
        let topo = CstTopology::with_leaves(n);
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed + 700);
            let base = cst::workloads::well_nested_with_density(&mut rng, n, 0.6);
            let pairs: Vec<(usize, usize)> = base
                .comms()
                .iter()
                .map(|c| (c.source.0, c.dest.0))
                .map(|(s, d)| if rng.gen_bool(0.4) { (d, s) } else { (s, d) })
                .collect();
            let set = cst::comm::CommSet::from_pairs(n, &pairs);
            let general = ctx.route_named("general", &topo, &set).unwrap();
            let merged = ctx.route_named("general-merged", &topo, &set).unwrap();
            let report = analyze(&topo, &set, &merged.schedule, &CheckOptions::lenient());
            assert!(report.is_clean(), "n={n} seed={seed}:\n{}", report.render_text());
            assert!(merged.rounds <= general.rounds, "n={n} seed={seed}");
            shorter += usize::from(merged.rounds < general.rounds);
            cases += 1;
            ctx.recycle(general);
            ctx.recycle(merged);
        }
    }
    assert!(shorter > 0, "no sampled set let the halves share a round ({cases} sets)");
}
