//! Differential conformance: every trace emitter and every registry
//! router against the independent reference model (`cst-model`).
//!
//! The model re-derives the switch protocol from the paper with identity
//! lists and linear search — no shared code with `cst-padr` beyond the
//! neutral trace vocabulary — so agreement here means the implementation
//! and an independent reading of Definitions 1–2 / Lemmas 1–3 coincide,
//! on exhaustively-enumerated small sets and on random large ones.

use cst::comm::{from_paren_string, CommSet};
use cst::core::{CstTopology, ProtocolTrace};
use cst::engine::EngineCtx;
use cst::faults::sample_mask;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random balanced-paren pattern over `n` positions (shared construction
/// with `tests/proptests.rs`): a vector of moves with the stack
/// discipline enforced inline, so every sample is a valid word.
fn paren_pattern(n: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..3, n).prop_map(move |choices| {
        let mut out = String::with_capacity(n);
        let mut depth = 0usize;
        for (i, c) in choices.into_iter().enumerate() {
            let left_after = n - i - 1;
            if depth > left_after {
                out.push(')');
                depth -= 1;
            } else {
                match c {
                    0 if depth < left_after => {
                        out.push('(');
                        depth += 1;
                    }
                    1 if depth > 0 => {
                        out.push(')');
                        depth -= 1;
                    }
                    _ => out.push('.'),
                }
            }
        }
        out
    })
}

fn valid_set(pattern: &str) -> Option<CommSet> {
    from_paren_string(pattern).ok().filter(|s| !s.is_empty())
}

/// The exhaustive gate: every right-oriented well-nested set on 2, 4 and
/// 8 leaves (Motzkin enumeration — 2 + 9 + 323 sets), every reachable
/// protocol state, cross-checked transition-for-transition against
/// `switch_logic::step`.
#[test]
fn exhaustive_small_n_has_zero_divergences() {
    let report = cst::model::explore_all(8);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.sets, 334, "Motzkin counts changed?");
}

/// The three trace emitters on the paper's running example: host CSA,
/// event-driven simulator, RTL machine. One round-trip each.
#[test]
fn all_emitters_conform_on_the_paper_example() {
    let topo = CstTopology::with_leaves(8);
    let set = CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)]);
    let mut trace = ProtocolTrace::new();

    let mut scratch = cst::padr::CsaScratch::new();
    let mut pool = cst::comm::SchedulePool::new();
    scratch.schedule_traced(&topo, &set, &mut pool, &mut trace).unwrap();
    let report = cst::model::conform_trace(&set, &trace);
    assert!(report.is_clean(), "csa: {}", report.render_text());
    assert_eq!(trace.rounds.len(), 3, "Theorem 5: width-3 set takes 3 rounds");

    cst::sim::simulate_traced(&topo, &set, None, &mut trace).unwrap();
    let report = cst::model::conform_trace(&set, &trace);
    assert!(report.is_clean(), "sim: {}", report.render_text());

    cst::sim::RtlMachine::new(&topo, &set).run_to_completion_traced(&set, &mut trace).unwrap();
    let report = cst::model::conform_trace(&set, &trace);
    assert!(report.is_clean(), "rtl: {}", report.render_text());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Differential: a random routable set, scheduled by the host CSA
    /// with tracing on and executed on the simulator with tracing on —
    /// both wire records replay cleanly through the model.
    #[test]
    fn random_sets_trace_conformant(pattern in paren_pattern(32)) {
        let Some(set) = valid_set(&pattern) else { return Ok(()); };
        let topo = CstTopology::with_leaves(32);
        let mut trace = ProtocolTrace::new();

        let mut scratch = cst::padr::CsaScratch::new();
        let mut pool = cst::comm::SchedulePool::new();
        scratch.schedule_traced(&topo, &set, &mut pool, &mut trace).unwrap();
        let report = cst::model::conform_trace(&set, &trace);
        prop_assert!(report.is_clean(), "csa: {}", report.render_text());

        cst::sim::simulate_traced(&topo, &set, None, &mut trace).unwrap();
        let report = cst::model::conform_trace(&set, &trace);
        prop_assert!(report.is_clean(), "sim: {}", report.render_text());
    }

    /// Every router in the registry — baselines and greedy variants
    /// included — produces a schedule the model's independent circuit
    /// computation accepts: each communication exactly once, no two
    /// circuits of a round sharing a directed link.
    #[test]
    fn every_registry_router_schedule_conforms(pattern in paren_pattern(32)) {
        let Some(set) = valid_set(&pattern) else { return Ok(()); };
        let topo = CstTopology::with_leaves(32);
        let mut ctx = EngineCtx::new();
        for router in cst::engine::registry() {
            let out = ctx.route(router.as_ref(), &topo, &set).unwrap();
            let report = cst::model::conform_schedule(&set, &out.schedule, &[]);
            prop_assert!(
                report.is_clean(),
                "router {}: {}", router.name(), report.render_text()
            );
            ctx.recycle(out);
        }
    }

    /// Degradation-aware routing under a random fault mask: the surviving
    /// schedule conforms once the reported drops are allowed for, and the
    /// drop list is exactly the complement of the scheduled ids.
    #[test]
    fn masked_routing_conforms_with_drop_allowance(
        pattern in paren_pattern(32),
        seed in 0u64..u64::MAX,
        rate in 0.0f64..0.25,
    ) {
        let Some(set) = valid_set(&pattern) else { return Ok(()); };
        let topo = CstTopology::with_leaves(32);
        let mask = sample_mask(&mut StdRng::seed_from_u64(seed), &topo, rate);
        let mut ctx = EngineCtx::new();
        for name in ["csa", "greedy", "roy"] {
            let router = cst::engine::find(name).unwrap();
            let out = ctx.route_masked(router.as_ref(), &topo, &set, &mask).unwrap();
            let dropped: Vec<usize> = out
                .degradation
                .as_ref()
                .expect("masked route reports degradation")
                .drops
                .iter()
                .map(|d| d.comm)
                .collect();
            let report = cst::model::conform_schedule(&set, &out.schedule, &dropped);
            prop_assert!(
                report.is_clean(),
                "router {name}: {}", report.render_text()
            );
            ctx.recycle(out);
        }
    }
}
