//! Property-based tests for the fault-injection subsystem (`cst-faults`).
//!
//! Strategy: random well-nested sets (the same Dyck-word construction as
//! `tests/proptests.rs`) paired with random seeded [`FaultMask`]s, then
//! the degradation invariants the workspace promises:
//!
//! * conservation — every communication is either routed or dropped;
//! * honesty — dropped comms really are blocked by the mask, routed
//!   comms really are not, and no emitted round ever drives masked
//!   hardware (audited by `cst-check`'s fault pass);
//! * transparency — an empty mask produces byte-identical schedules to
//!   the fault-free path for every registry router.

use cst::check::{analyze_with_faults, CheckOptions};
use cst::comm::{from_paren_string, CommSet};
use cst::core::{CstTopology, FaultMask};
use cst::engine::{EngineCtx, CANONICAL};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation and honesty under random masks, for a spread of
    /// routers: `routed + dropped == |set|`, the drop partition agrees
    /// with the exact per-communication reachability oracle, the
    /// surviving schedule covers exactly the non-dropped ids, and the
    /// full `cst-check` fault audit finds nothing.
    #[test]
    fn masked_routing_is_conservative_and_clean(
        pattern in paren_pattern(32),
        seed in 0u64..u64::MAX,
        rate in 0.0f64..0.25,
    ) {
        let Some(set) = valid_set(&pattern) else { return Ok(()); };
        let topo = CstTopology::with_leaves(32);
        let mask = sample_mask(&mut StdRng::seed_from_u64(seed), &topo, rate);
        let mut ctx = EngineCtx::new();
        for name in ["csa", "greedy", "roy", "sequential"] {
            let router = cst::engine::find(name).unwrap();
            let out = ctx.route_masked(router.as_ref(), &topo, &set, &mask).unwrap();
            let report = out.degradation.as_ref().expect("masked route reports");
            prop_assert_eq!(report.total, set.len(), "{}", name);
            prop_assert_eq!(
                report.routed + report.dropped, set.len(),
                "{} leaks communications", name
            );

            // Drop honesty against the exact oracle.
            let dropped: Vec<usize> = report.drops.iter().map(|d| d.comm).collect();
            for (id, c) in set.iter() {
                let blocked = mask.blocking_fault(&topo, c.source, c.dest).is_some();
                prop_assert_eq!(
                    blocked, dropped.contains(&id.0),
                    "{}: comm {} oracle/partition disagreement", name, id.0
                );
            }

            // Exact coverage: scheduled ids == survivors, each once.
            let mut ids: Vec<usize> =
                out.schedule.scheduled_ids().map(|c| c.0).collect();
            ids.sort_unstable();
            let expect: Vec<usize> =
                (0..set.len()).filter(|i| !dropped.contains(i)).collect();
            prop_assert_eq!(ids, expect, "{} coverage drift", name);

            // And the analyzer's fault pass agrees end to end (no masked
            // hardware used, no half-duplex violation, no bogus drop).
            let audit = analyze_with_faults(
                &topo, &set, &out.schedule, &CheckOptions::lenient(), &mask, &dropped,
            );
            prop_assert!(
                audit.is_clean(),
                "{} failed fault audit: {:?}", name, audit.diagnostics
            );
            ctx.recycle(out);
        }
    }

    /// A saturated mask (every switch dead) drops every communication:
    /// no router may emit a single round.
    #[test]
    fn full_mask_drops_everything(pattern in paren_pattern(32), seed in 0u64..u64::MAX) {
        let Some(set) = valid_set(&pattern) else { return Ok(()); };
        let topo = CstTopology::with_leaves(32);
        let mask = sample_mask(&mut StdRng::seed_from_u64(seed), &topo, 1.0);
        let out = EngineCtx::new().route_masked(&cst::engine::Csa, &topo, &set, &mask).unwrap();
        let report = out.degradation.as_ref().unwrap();
        prop_assert_eq!(report.dropped, set.len());
        prop_assert_eq!(report.routed, 0);
        prop_assert_eq!(out.rounds, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault transparency: with an empty mask, `route_masked` produces a
    /// byte-identical schedule to the plain fault-free path for every
    /// canonical registry router, and reports a clean degradation.
    #[test]
    fn empty_mask_is_byte_identical_for_every_router(pattern in paren_pattern(32)) {
        let Some(set) = valid_set(&pattern) else { return Ok(()); };
        let topo = CstTopology::with_leaves(32);
        let mask = FaultMask::empty(&topo);
        let mut ctx = EngineCtx::new();
        for name in CANONICAL {
            let plain = ctx.route_named(name, &topo, &set).unwrap();
            let router = cst::engine::find(name).unwrap();
            let masked = ctx.route_masked(router.as_ref(), &topo, &set, &mask).unwrap();
            let a = serde_json::to_string(&plain.schedule).unwrap();
            let b = serde_json::to_string(&masked.schedule).unwrap();
            prop_assert_eq!(a, b, "{} schedule drifted under the empty mask", name);
            let report = masked.degradation.as_ref().unwrap();
            prop_assert!(report.is_clean(), "{} reported degradation", name);
            prop_assert_eq!(report.total, set.len());
            ctx.recycle(plain);
            ctx.recycle(masked);
        }
    }
}
