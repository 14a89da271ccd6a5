//! Differential tests for compiled schedule replay: a verified schedule
//! lowered into a [`CompiledProgram`] and replayed must produce a
//! [`SimOutcome`] *identical in every field* — schedule, cycles,
//! per-round timings, deliveries (payloads, hops), power meter — to the
//! event-driven interpreter (`simulate_schedule`), across random
//! well-nested sets, custom payload variants, and fault-degraded
//! schedules. The replayed schedule must also pass the same `cst-check`
//! audit as the routed one.

use bytes::Bytes;
use cst::check::{analyze, analyze_with_faults, CheckOptions};
use cst::comm::{from_paren_string, CommSet};
use cst::core::CstTopology;
use cst::engine::EngineCtx;
use cst::faults::sample_mask;
use cst::sim::{default_payloads, simulate_schedule, CompiledProgram, ReplayScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random balanced-paren pattern over `n` positions (shared construction
/// with `tests/proptests.rs`).
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

    /// Compiled replay is byte-identical to the interpreter for every
    /// scheduler family, and the replayed schedule passes the analyzer.
    #[test]
    fn replay_matches_interpreter_across_routers(pattern in paren_pattern(32)) {
        let Some(set) = valid_set(&pattern) else { return Ok(()); };
        let topo = CstTopology::with_leaves(32);
        let mut ctx = EngineCtx::new();
        let mut scratch = ReplayScratch::new();
        for name in ["csa", "greedy", "roy"] {
            let out = ctx.route_named(name, &topo, &set).unwrap();
            let reference = simulate_schedule(&topo, &set, &out.schedule, None).unwrap();
            let prog = CompiledProgram::compile(&topo, &set, &out.schedule).unwrap();
            let payloads = default_payloads(&set);
            let replayed = prog.replay_with(&mut scratch, &payloads).unwrap();
            prop_assert_eq!(&replayed, &reference, "{} replay drifted", name);
            // The delta streams are exactly the hold-semantics power
            // units the routed outcome was charged for (Theorem 8's
            // size bound on the compiled form).
            prop_assert_eq!(prog.num_instrs() as u64, out.power.total_units, "{}", name);
            // And the replayed schedule is the verified schedule: same
            // analyzer verdict as the routed artifact.
            let audit = analyze(&topo, &set, &replayed.schedule, &CheckOptions::lenient());
            prop_assert!(audit.is_clean(), "{} replayed schedule failed audit", name);
            scratch.recycle(replayed);
            ctx.recycle(out);
        }
    }

    /// Custom payload variants flow through both paths untouched.
    #[test]
    fn payload_variants_are_identical(pattern in paren_pattern(32), tag in 0u64..1000) {
        let Some(set) = valid_set(&pattern) else { return Ok(()); };
        let topo = CstTopology::with_leaves(32);
        let mut ctx = EngineCtx::new();
        let out = ctx.route_named("csa", &topo, &set).unwrap();
        let payloads: Vec<Bytes> = (0..set.len())
            .map(|i| Bytes::from(format!("blob-{tag}-{i}")))
            .collect();
        let reference =
            simulate_schedule(&topo, &set, &out.schedule, Some(payloads.clone())).unwrap();
        let prog = CompiledProgram::compile(&topo, &set, &out.schedule).unwrap();
        let replayed = prog.replay(Some(payloads)).unwrap();
        prop_assert_eq!(&replayed, &reference);
        ctx.recycle(out);
    }

    /// Degraded schedules (dead switches/links, half-duplex split rounds)
    /// compile and replay identically to the interpreter, and the replay
    /// passes the fault audit exactly like the routed schedule.
    #[test]
    fn masked_replay_matches_interpreter(
        pattern in paren_pattern(32),
        seed in 0u64..u64::MAX,
        rate in 0.0f64..0.25,
    ) {
        let Some(set) = valid_set(&pattern) else { return Ok(()); };
        let topo = CstTopology::with_leaves(32);
        let mask = sample_mask(&mut StdRng::seed_from_u64(seed), &topo, rate);
        let mut ctx = EngineCtx::new();
        let mut scratch = ReplayScratch::new();
        for name in ["csa", "greedy"] {
            let router = cst::engine::find(name).unwrap();
            let out = ctx.route_masked(router.as_ref(), &topo, &set, &mask).unwrap();
            let report = out.degradation.as_ref().expect("masked route reports");
            let reference = simulate_schedule(&topo, &set, &out.schedule, None).unwrap();
            let prog = CompiledProgram::compile(&topo, &set, &out.schedule).unwrap();
            let payloads = default_payloads(&set);
            let replayed = prog.replay_with(&mut scratch, &payloads).unwrap();
            prop_assert_eq!(&replayed, &reference, "{} masked replay drifted", name);
            prop_assert_eq!(
                replayed.deliveries.len(), report.routed,
                "{} delivered a dropped communication", name
            );
            let dropped: Vec<usize> = report.drops.iter().map(|d| d.comm).collect();
            let audit = analyze_with_faults(
                &topo, &set, &replayed.schedule, &CheckOptions::lenient(), &mask, &dropped,
            );
            prop_assert!(audit.is_clean(), "{} masked replay failed fault audit", name);
            scratch.recycle(replayed);
            ctx.recycle(out);
        }
    }
}

/// A schedule served by a cache-enabled context — cold miss, then warm
/// hits — lowers and replays identically to the interpreter on the
/// paper's running example, with the replay buffers pooled across runs.
#[test]
fn cached_route_replays_identically_to_interpreter() {
    let topo = CstTopology::with_leaves(16);
    let set = CommSet::from_pairs(16, &[(0, 7), (1, 6), (2, 5), (8, 15)]);
    let mut ctx = EngineCtx::new();
    ctx.enable_cache(8);
    let mut scratch = ReplayScratch::new();
    let payloads = default_payloads(&set);
    for _ in 0..3 {
        let out = ctx.route(&cst::engine::Csa, &topo, &set).unwrap();
        let reference = simulate_schedule(&topo, &set, &out.schedule, None).unwrap();
        let prog = CompiledProgram::compile(&topo, &set, &out.schedule).unwrap();
        let sim = prog.replay_with(&mut scratch, &payloads).unwrap();
        assert_eq!(sim, reference);
        ctx.recycle(out);
        scratch.recycle(sim);
    }
    assert_eq!(ctx.cache_stats().unwrap().hits, 2);
}
