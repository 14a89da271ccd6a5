//! Exhaustive validation on *every* well-nested pattern over a small
//! tree: no sampling, no seeds — the full space.
//!
//! 1. **Exact optimality**: CSA rounds == the conflict graph's true
//!    chromatic number (computed by brute force) == the width. This is
//!    stronger than checking `rounds == width`: it certifies the width
//!    bound itself is tight on every instance.
//! 2. **Implementation agreement**: the serial driver, the RTL machine
//!    and the event-driven simulator produce identical schedules on
//!    every instance.

use cst::comm::{from_paren_string, width_on_topology, CommSet};
use cst::core::{Circuit, CstTopology};

/// Enumerate every pattern of '(', ')', '.' of length `n` that parses as
/// a balanced, non-empty set.
fn all_patterns(n: usize) -> Vec<CommSet> {
    let mut out = Vec::new();
    let symbols = ['(', ')', '.'];
    let mut pattern = vec!['.'; n];
    fn rec(
        pattern: &mut Vec<char>,
        pos: usize,
        depth: usize,
        symbols: &[char; 3],
        out: &mut Vec<CommSet>,
    ) {
        let n = pattern.len();
        if pos == n {
            if depth == 0 {
                let s: String = pattern.iter().collect();
                if let Ok(set) = from_paren_string(&s) {
                    if !set.is_empty() {
                        out.push(set);
                    }
                }
            }
            return;
        }
        for &ch in symbols {
            match ch {
                '(' if depth < n - pos - 1 => {
                    pattern[pos] = '(';
                    rec(pattern, pos + 1, depth + 1, symbols, out);
                }
                ')' if depth > 0 => {
                    pattern[pos] = ')';
                    rec(pattern, pos + 1, depth - 1, symbols, out);
                }
                '.' => {
                    pattern[pos] = '.';
                    rec(pattern, pos + 1, depth, symbols, out);
                }
                _ => {}
            }
            pattern[pos] = '.';
        }
    }
    rec(&mut pattern, 0, 0, &symbols, &mut out);
    out
}

/// Exact chromatic number of the conflict graph (comms sharing a
/// directed link conflict) by branch-and-bound over k = 1..M.
fn chromatic_number(topo: &CstTopology, set: &CommSet) -> usize {
    let m = set.len();
    let circuits: Vec<Circuit> = set
        .comms()
        .iter()
        .map(|c| Circuit::between(topo, c.source, c.dest))
        .collect();
    let mut conflict = vec![vec![false; m]; m];
    for i in 0..m {
        let links: std::collections::HashSet<_> = circuits[i].links.iter().collect();
        for j in i + 1..m {
            if circuits[j].links.iter().any(|l| links.contains(l)) {
                conflict[i][j] = true;
                conflict[j][i] = true;
            }
        }
    }
    fn colorable(
        conflict: &[Vec<bool>],
        colors: &mut Vec<usize>,
        v: usize,
        k: usize,
    ) -> bool {
        if v == conflict.len() {
            return true;
        }
        for c in 0..k {
            if (0..v).all(|u| !conflict[v][u] || colors[u] != c) {
                colors[v] = c;
                if colorable(conflict, colors, v + 1, k) {
                    return true;
                }
            }
        }
        false
    }
    for k in 1..=m {
        let mut colors = vec![usize::MAX; m];
        if colorable(&conflict, &mut colors, 0, k) {
            return k;
        }
    }
    m
}

#[test]
fn exhaustive_8_leaves_optimality_and_agreement() {
    let topo = CstTopology::with_leaves(8);
    let sets = all_patterns(8);
    let mut ctx = cst::engine::EngineCtx::new();
    assert!(sets.len() > 300, "expected a substantial space, got {}", sets.len());
    let mut max_width_seen = 0;
    for set in &sets {
        let w = width_on_topology(&topo, set) as usize;
        max_width_seen = max_width_seen.max(w);

        // exact optimality
        let chi = chromatic_number(&topo, set);
        assert_eq!(chi, w, "width is the exact chromatic number: {set:?}");

        // serial CSA
        let serial = ctx.route_named("csa", &topo, set).unwrap();
        assert_eq!(serial.rounds, w, "CSA meets the exact optimum: {set:?}");
        serial.schedule.verify(&topo, set).unwrap();

        // RTL machine agrees
        let mut rtl = cst::sim::RtlMachine::new(&topo, set);
        let rtl_schedule = rtl.run_to_completion(set).unwrap();
        assert_eq!(rtl_schedule, serial.schedule, "rtl drift: {set:?}");

        // event-driven simulator agrees and delivers everything
        let sim = cst::sim::simulate(&topo, set, None).unwrap();
        assert_eq!(sim.schedule, serial.schedule, "sim drift: {set:?}");
        assert_eq!(sim.deliveries.len(), set.len());
        ctx.recycle(serial);
    }
    assert_eq!(max_width_seen, 4, "the space includes full-width instances");
    println!("validated {} sets exhaustively", sets.len());
}

#[test]
fn exhaustive_width_equals_chromatic_on_10_leaf_sample() {
    // 10-leaf space is large; check the full-pairing subspace (no dots):
    // every balanced parenthesization of 10 positions (Catalan(5) = 42).
    let topo = CstTopology::with_leaves(16);
    let mut count = 0;
    fn gen(cur: &mut String, open: usize, close: usize, n: usize, out: &mut Vec<String>) {
        if cur.len() == n {
            out.push(cur.clone());
            return;
        }
        if open < n / 2 {
            cur.push('(');
            gen(cur, open + 1, close, n, out);
            cur.pop();
        }
        if close < open {
            cur.push(')');
            gen(cur, open, close + 1, n, out);
            cur.pop();
        }
    }
    let mut patterns = Vec::new();
    gen(&mut String::new(), 0, 0, 10, &mut patterns);
    assert_eq!(patterns.len(), 42);
    let mut ctx = cst::engine::EngineCtx::new();
    for p in patterns {
        let padded = format!("{p}......");
        let set = from_paren_string(&padded).unwrap();
        let w = width_on_topology(&topo, &set) as usize;
        assert_eq!(chromatic_number(&topo, &set), w);
        let out = ctx.route_named("csa", &topo, &set).unwrap();
        assert_eq!(out.rounds, w);
        ctx.recycle(out);
        count += 1;
    }
    assert_eq!(count, 42);
}
