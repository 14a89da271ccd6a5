//! Small-scope check of the packed composite against the true optimum.
//!
//! Every set in each scope is routed through `route_general` (CSA per
//! layer) and held to
//! `rounds_lower_bound <= optimum <= rounds <= Σ layer_rounds`, where the
//! optimum is the exact chromatic number of the set's conflict graph
//! under link-or-PE conflict (two pairs may share a round iff they use
//! no common directed link and no common PE), found by brute force. The
//! `CST3xx` audit must be clean on every composite. How often packing
//! lands on the optimum is printed (run with `--nocapture`), not
//! asserted: first-fit in composite order is a heuristic.
//!
//! Scopes: every set on 4 PEs; every set of at most 5 pairs over PEs
//! 0..6 of an 8-PE tree (tree sizes are powers of two, so "6 PEs" is
//! the first six leaves of 8); every perfect matching on 8 PEs; 2,000
//! seeded arbitrary sets on 8 PEs.

use cst::core::{Circuit, CstTopology, GeneralCommSet};
use cst::engine::{Csa, EngineCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-scope tallies.
#[derive(Default)]
struct Tally {
    sets: usize,
    optimal: usize,
    at_bound: usize,
    layered_rounds: usize,
    packed_rounds: usize,
}

/// Conflict rows: bit `j` of `rows[i]` set iff pairs `i` and `j` share a
/// directed link or a PE.
fn conflict_rows(topo: &CstTopology, gset: &GeneralCommSet) -> Vec<u64> {
    let uses: Vec<(u64, u64)> = gset
        .pairs()
        .iter()
        .map(|&(s, d)| {
            let links = Circuit::right_oriented(topo, s, d)
                .links
                .iter()
                .fold(0u64, |acc, l| acc | 1 << l.dense_index());
            (links, 1 << s.0 | 1 << d.0)
        })
        .collect();
    uses.iter()
        .enumerate()
        .map(|(i, &(li, pi))| {
            uses.iter().enumerate().fold(0u64, |row, (j, &(lj, pj))| {
                if i != j && (li & lj != 0 || pi & pj != 0) {
                    row | 1 << j
                } else {
                    row
                }
            })
        })
        .collect()
}

/// Exact chromatic number by branch and bound: color pairs in order,
/// each with a color none of its colored neighbours holds or one fresh
/// color, pruning at the incumbent. `lower` and `upper` are known bounds.
fn chromatic_number(rows: &[u64], lower: usize, upper: usize) -> usize {
    fn go(rows: &[u64], classes: &mut Vec<u64>, i: usize, best: &mut usize, lower: usize) {
        if classes.len() >= *best || *best == lower {
            return;
        }
        if i == rows.len() {
            *best = classes.len();
            return;
        }
        for c in 0..classes.len() {
            if classes[c] & rows[i] == 0 {
                classes[c] |= 1 << i;
                go(rows, classes, i + 1, best, lower);
                classes[c] &= !(1 << i);
            }
        }
        classes.push(1 << i);
        go(rows, classes, i + 1, best, lower);
        classes.pop();
    }
    let mut best = upper;
    if lower < upper {
        go(rows, &mut Vec::new(), 0, &mut best, lower);
    }
    best
}

fn check(ctx: &mut EngineCtx, topo: &CstTopology, gset: &GeneralCommSet, tally: &mut Tally) {
    let out = ctx.route_general(&Csa, topo, gset).unwrap();
    let layered: usize = out.layer_rounds.iter().sum();
    let optimum = chromatic_number(&conflict_rows(topo, gset), out.rounds_lower_bound, out.rounds);
    assert!(
        out.rounds_lower_bound <= optimum && optimum <= out.rounds && out.rounds <= layered,
        "{:?}: bound {} optimum {optimum} packed {} layered {layered}",
        gset.pairs(),
        out.rounds_lower_bound,
        out.rounds
    );
    let report = cst::check::check_decomposition(
        topo,
        gset,
        ctx.decomposition_for(gset),
        &out.schedule,
        &out.layer_rounds,
    );
    assert!(report.is_clean(), "{:?}:\n{}", gset.pairs(), report.render_text());
    tally.sets += 1;
    tally.optimal += usize::from(out.rounds == optimum);
    tally.at_bound += usize::from(out.rounds == out.rounds_lower_bound);
    tally.layered_rounds += layered;
    tally.packed_rounds += out.rounds;
    ctx.recycle_general(out);
}

fn report(scope: &str, t: &Tally) {
    println!(
        "{scope}: {} sets, packed optimal on {} ({:.2}%), at the congestion bound on {}, \
         rounds {} packed vs {} layered",
        t.sets,
        t.optimal,
        100.0 * t.optimal as f64 / t.sets as f64,
        t.at_bound,
        t.packed_rounds,
        t.layered_rounds
    );
}

/// Every subset of `candidates` with at most `max_pairs` pairs.
fn every_subset(
    n: usize,
    candidates: &[(usize, usize)],
    max_pairs: usize,
    mut visit: impl FnMut(GeneralCommSet),
) {
    fn go(
        n: usize,
        candidates: &[(usize, usize)],
        max_pairs: usize,
        from: usize,
        chosen: &mut Vec<(usize, usize)>,
        visit: &mut dyn FnMut(GeneralCommSet),
    ) {
        visit(GeneralCommSet::from_pairs(n, chosen));
        if chosen.len() == max_pairs {
            return;
        }
        for k in from..candidates.len() {
            chosen.push(candidates[k]);
            go(n, candidates, max_pairs, k + 1, chosen, visit);
            chosen.pop();
        }
    }
    go(n, candidates, max_pairs, 0, &mut Vec::new(), &mut visit);
}

fn pairs_among(leaves: usize) -> Vec<(usize, usize)> {
    (0..leaves).flat_map(|a| (a + 1..leaves).map(move |b| (a, b))).collect()
}

#[test]
fn every_set_on_four_pes() {
    let topo = CstTopology::with_leaves(4);
    let (mut ctx, mut tally) = (EngineCtx::new(), Tally::default());
    every_subset(4, &pairs_among(4), 6, |g| check(&mut ctx, &topo, &g, &mut tally));
    assert_eq!(tally.sets, 64);
    report("n=4, every set", &tally);
}

#[test]
fn every_set_of_five_pairs_on_six_pes() {
    let topo = CstTopology::with_leaves(8);
    let (mut ctx, mut tally) = (EngineCtx::new(), Tally::default());
    every_subset(8, &pairs_among(6), 5, |g| check(&mut ctx, &topo, &g, &mut tally));
    assert_eq!(tally.sets, 1 + 15 + 105 + 455 + 1365 + 3003);
    report("PEs 0..6 of 8, every set of <= 5 pairs", &tally);
}

#[test]
fn every_perfect_matching_on_eight_pes() {
    fn matchings(
        free: &mut Vec<usize>,
        chosen: &mut Vec<(usize, usize)>,
        out: &mut Vec<Vec<(usize, usize)>>,
    ) {
        if free.is_empty() {
            out.push(chosen.clone());
            return;
        }
        let a = free.remove(0);
        for k in 0..free.len() {
            let b = free.remove(k);
            chosen.push((a, b));
            matchings(free, chosen, out);
            chosen.pop();
            free.insert(k, b);
        }
        free.insert(0, a);
    }
    let mut all = Vec::new();
    matchings(&mut (0..8).collect(), &mut Vec::new(), &mut all);
    assert_eq!(all.len(), 105);
    let topo = CstTopology::with_leaves(8);
    let (mut ctx, mut tally) = (EngineCtx::new(), Tally::default());
    for pairs in &all {
        check(&mut ctx, &topo, &GeneralCommSet::from_pairs(8, pairs), &mut tally);
    }
    report("n=8, every perfect matching", &tally);
}

#[test]
fn seeded_arbitrary_sets_on_eight_pes() {
    let topo = CstTopology::with_leaves(8);
    let candidates = pairs_among(8);
    let (mut ctx, mut tally) = (EngineCtx::new(), Tally::default());
    let mut rng = StdRng::seed_from_u64(0x5A11);
    for _ in 0..2000 {
        let m = rng.gen_range(1..=candidates.len());
        let mut gset = GeneralCommSet::empty(8);
        while gset.len() < m {
            let (a, b) = candidates[rng.gen_range(0..candidates.len())];
            let _ = gset.push(a, b); // duplicates are rejected; draw again
        }
        check(&mut ctx, &topo, &gset, &mut tally);
    }
    report("n=8, 2000 seeded arbitrary sets", &tally);
}
