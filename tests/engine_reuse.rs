//! Scratch-reuse soundness for the engine: one [`EngineCtx`] serving
//! 100+ mixed requests — every canonical router, several tree sizes,
//! several seeds, interleaved — must produce schedules byte-identical
//! (serde) to fresh-context runs, and every outcome must come out clean
//! under the `cst-check` static analyzer. A stale counter, an
//! under-cleared pool buffer, or a scratch that survives re-targeting to
//! a different topology would all surface here as a diff or a diagnostic.

use cst::check::{analyze, CheckOptions, CounterTable};
use cst::comm::CommSet;
use cst::core::{CstTopology, PowerReport};
use cst::engine::{route_once, Csa, EngineCtx, RouteExtra, CANONICAL};
use cst::padr::ControlMetrics;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strictness per router family: the CSA drivers promise every analyzer
/// invariant (right-oriented configs, width-optimal rounds, outermost
/// selection, the Theorem-8 transition bound); the front ends and
/// baselines promise legality, not optimality.
fn options_for(router: &str) -> CheckOptions {
    match router {
        "csa" | "csa-parallel" | "csa-threaded" => CheckOptions::strict(),
        _ => CheckOptions::lenient(),
    }
}

#[test]
fn one_context_across_mixed_requests_matches_fresh_runs() {
    let mut ctx = EngineCtx::new();
    let mut requests = 0usize;
    // Deliberately interleave sizes so the scratch re-targets between
    // topologies mid-stream instead of growing once and staying put.
    for seed in 0..4u64 {
        for n in [8usize, 64, 16, 128] {
            let topo = CstTopology::with_leaves(n);
            let mut rng = StdRng::seed_from_u64(seed * 131 + n as u64);
            let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.7);
            for name in CANONICAL {
                let warm = ctx
                    .route_named(name, &topo, &set)
                    .unwrap_or_else(|e| panic!("{name} warm (n={n}, seed={seed}): {e}"));
                let fresh = route_once(name, &topo, &set)
                    .unwrap_or_else(|e| panic!("{name} fresh (n={n}, seed={seed}): {e}"));
                assert_eq!(
                    serde_json::to_string(&warm.schedule).unwrap().into_bytes(),
                    serde_json::to_string(&fresh.schedule).unwrap().into_bytes(),
                    "{name} (n={n}, seed={seed}): warm-context schedule drifted from fresh"
                );
                let report = analyze(&topo, &set, &warm.schedule, &options_for(name));
                assert!(
                    report.is_clean(),
                    "{name} (n={n}, seed={seed}) flagged by cst-check:\n{}",
                    report.render_text()
                );
                ctx.recycle(warm);
                requests += 1;
            }
        }
    }
    assert!(requests >= 100, "the soak must cover 100+ requests, got {requests}");
}

/// Everything one serial-CSA request leaves observable: the outcome (or
/// error), and the context's Phase-1 tables when the request got past
/// validation.
#[derive(Debug, PartialEq)]
struct CsaTrace {
    result: Result<(Vec<u8>, ControlMetrics, PowerReport), String>,
    counters: Option<CounterTable>,
}

fn csa_trace(ctx: &mut EngineCtx, topo: &CstTopology, set: &CommSet, validated: bool) -> CsaTrace {
    let result = match ctx.route(&Csa, topo, set) {
        Ok(out) => {
            let bytes = serde_json::to_string(&out.schedule).unwrap().into_bytes();
            let RouteExtra::Csa { metrics, .. } = &out.extra else {
                panic!("csa routes carry control metrics")
            };
            let row = (bytes, *metrics, out.power.clone());
            ctx.recycle(out);
            Ok(row)
        }
        Err(e) => Err(e.to_string()),
    };
    let counters = validated.then(|| ctx.csa_phase1().counter_table());
    CsaTrace { result, counters }
}

/// A set built without `CommSet::new`'s endpoint check, the way a peer's
/// serialized request arrives: it can pass orientation and nesting and
/// still fail in Phase 1 or Phase 2.
fn unchecked_set(n: usize, pairs: &[(usize, usize)]) -> CommSet {
    let comms: Vec<String> =
        pairs.iter().map(|&(s, d)| format!("{{\"source\":{s},\"dest\":{d}}}")).collect();
    let json = format!("{{\"num_leaves\":{n},\"comms\":[{}]}}", comms.join(","));
    serde_json::from_str(&json).expect("well-formed set json")
}

#[test]
fn sparse_dense_and_failing_csa_requests_match_fresh_contexts() {
    // The serial CSA's per-request setup is sized by the set's footprint
    // (endpoint root paths) on sparse sets and dense on dense ones, and an
    // error return forces the next setup dense. One context walks through
    // all three kinds, interleaved across tree sizes; each result and the
    // Phase-1 tables behind it must match a fresh context's.
    let mut ctx = EngineCtx::new();
    let mut kinds = [0usize; 3];
    for seed in 0..3u64 {
        for n in [1024usize, 64, 256] {
            let topo = CstTopology::with_leaves(n);
            let mut rng = StdRng::seed_from_u64(seed * 977 + n as u64);
            let gset = cst::workloads::arbitrary_permutation(&mut rng, n);
            let layers = ctx.decomposition_for(&gset).layer_sets.clone();
            let dense = cst::workloads::well_nested_with_density(&mut rng, n, 0.8);
            let failing = [
                // crossing: rejected before Phase 1
                (CommSet::from_pairs(n, &[(0, n / 2), (1, n - 1)]), false),
                // leaf 0 sources twice, one destination unmatched:
                // Phase 1 reports an incomplete set
                (unchecked_set(n, &[(0, n - 1), (0, 3)]), true),
                // leaf 0 sources twice, but the nested pairs balance Phase
                // 1's counts: Phase 2 routes two pairs, then stalls with
                // one left over, returning an error from the round loop
                (unchecked_set(n, &[(6, 9), (0, 9), (0, 5)]), true),
                // Phase 1 pairs leaf 0 with 9 and leaf 2 with 5, but the
                // pairing oracle expects 0 -> 5: the first round's circuit
                // check fails with (2, 5) unrouted, leaving the sweep's
                // pruning table mid-count
                (unchecked_set(n, &[(0, 9), (2, 5), (0, 5)]), true),
            ];
            let mut requests: Vec<(CommSet, bool)> = Vec::new();
            for (i, layer) in layers.into_iter().enumerate() {
                requests.push((layer, true));
                if i % 4 == 1 {
                    requests.push((dense.clone(), true));
                }
                if i % 5 == 2 {
                    requests.push(failing[i % failing.len()].clone());
                }
            }
            requests.extend(failing);
            for (i, (set, validated)) in requests.iter().enumerate() {
                let warm = csa_trace(&mut ctx, &topo, set, *validated);
                let fresh = csa_trace(&mut EngineCtx::new(), &topo, set, *validated);
                assert_eq!(warm, fresh, "n={n} seed={seed} request {i}: warm context drifted");
                let kind = match (&warm.result, 2 * set.len() * 8 <= n) {
                    (Err(_), _) => 2,
                    (Ok(_), true) => 0,
                    (Ok(_), false) => 1,
                };
                kinds[kind] += 1;
            }
        }
    }
    assert!(kinds.iter().all(|&k| k >= 10), "sparse / dense / failing coverage: {kinds:?}");
}
