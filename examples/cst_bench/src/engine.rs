//! The engine-general workload: two in-process callers, each with its
//! own `EngineCtx`, running uncached `route_general(&Csa, ..)` over one
//! shared stream of fresh arbitrary sets. No serve layer runs.

use crate::serve::{CallerLog, Sample, Tracing, CALLERS, TRACE_CAP};
use crate::trace::{Recorder, Span, ROOT};
use cst_core::{CstTopology, GeneralCommSet};
use cst_engine::{Csa, EngineCtx, GeneralOutcome};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Topologies for every size in the stream.
pub struct Topos(HashMap<usize, CstTopology>);

impl Topos {
    pub fn for_sets(sets: &[GeneralCommSet]) -> Topos {
        let mut map = HashMap::new();
        for g in sets {
            map.entry(g.num_leaves())
                .or_insert_with(|| CstTopology::with_leaves(g.num_leaves()));
        }
        Topos(map)
    }

    fn of(&self, g: &GeneralCommSet) -> &CstTopology {
        &self.0[&g.num_leaves()]
    }
}

/// One set-up: a new context and its first general route.
pub fn setup_once(sets: &[GeneralCommSet], topos: &Topos) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut ctx = EngineCtx::new();
    let out = ctx
        .route_general(&Csa, topos.of(&sets[0]), &sets[0])
        .map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    ctx.recycle_general(out);
    Ok(secs)
}

/// Hash of everything a general outcome reports: the composite
/// schedule (every round's communications and switch configurations),
/// its power, and the decomposition's shape. Serializing the schedule
/// would cost a third of the route itself; equal hashes stand in for
/// equal payload bytes, since the payload is a function of these fields.
pub fn outcome_hash(out: &GeneralOutcome) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for round in &out.schedule.rounds {
        round.comms.hash(&mut h);
        for (node, config) in round.configs.iter() {
            (node, config).hash(&mut h);
        }
        h.write_u8(0xFF);
    }
    (
        out.rounds,
        out.power.total_units,
        out.power.max_units,
        out.power.max_port_transitions,
    )
        .hash(&mut h);
    (
        out.num_layers,
        out.lower_bound,
        out.proven_optimal,
        &out.layer_rounds,
        &out.layer_power_units,
    )
        .hash(&mut h);
    h.finish()
}

/// Warm up, then measure one window with [`CALLERS`] callers.
pub fn run_window(
    sets: &[GeneralCommSet],
    topos: &Topos,
    plan: &crate::serve::Plan,
) -> Vec<CallerLog> {
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                let (next, barrier) = (&next, &barrier);
                scope.spawn(move || caller(sets, topos, plan, next, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}

fn caller(
    sets: &[GeneralCommSet],
    topos: &Topos,
    plan: &crate::serve::Plan,
    next: &AtomicUsize,
    barrier: &Barrier,
) -> CallerLog {
    let mut log = CallerLog::default();
    let mut rec = Recorder::new(plan.epoch);
    let mut ctx = EngineCtx::new();
    // One route; returns whether it succeeded.
    let mut route = |log: &mut CallerLog, rec: Option<&mut Recorder>| -> bool {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let key = (i % sets.len()) as u32;
        let g = &sets[key as usize];
        log.attempted += 1;
        let routed = match rec {
            Some(r) => r.time("route_general", ROOT, i as u64, || {
                ctx.route_general(&Csa, topos.of(g), g)
            }),
            None => ctx.route_general(&Csa, topos.of(g), g),
        };
        match routed {
            Ok(out) => {
                log.hashes.push((key, outcome_hash(&out)));
                ctx.recycle_general(out);
                true
            }
            Err(e) => {
                log.failed += 1;
                log.errors.push(format!("route_general: {e}"));
                false
            }
        }
    };

    let warm_end = Instant::now() + plan.warmup;
    while Instant::now() < warm_end {
        route(&mut log, None);
    }
    barrier.wait();

    if plan.trace {
        rec.spans.reserve(TRACE_CAP);
    }
    let start = Instant::now();
    let end = start + plan.window;
    let mut tracing = Tracing::new(plan, start);
    log.per_second_ok = vec![0; plan.window.as_secs().max(1) as usize];
    loop {
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        let sample = tracing.sample(t0);
        let ok = route(&mut log, (sample == Sample::Traced).then_some(&mut rec));
        let t1 = Instant::now();
        if t1 > end || !ok {
            continue;
        }
        log.window_ok += 1;
        let sec = ((t1 - start).as_secs() as usize).min(log.per_second_ok.len() - 1);
        log.per_second_ok[sec] += 1;
        log.push_latency(sample, (t1 - t0).as_nanos() as u64);
    }
    log.spans = rec.spans;
    log
}

/// Per-set decomposition costs from a single-caller replay of the
/// stream head.
#[derive(Default)]
pub struct DecompTrace {
    pub decompose_ms: Vec<f64>,
    pub certificate_ms: Vec<f64>,
    pub coloring_ms: Vec<f64>,
    pub route_layers_ms: Vec<f64>,
    pub layers_over_bound: Vec<f64>,
    pub proven_optimal: Vec<f64>,
    pub spans: Vec<Span>,
}

/// Time `EngineCtx::decomposition_for` on a fresh set, the lower-bound
/// certificate alone, and `route_general` with the decomposition memo
/// warm, for each of the first `count` sets.
pub fn decomposition_trace(
    sets: &[GeneralCommSet],
    topos: &Topos,
    count: usize,
    epoch: Instant,
) -> DecompTrace {
    let mut t = DecompTrace::default();
    let mut rec = Recorder::new(epoch);
    let mut ctx = EngineCtx::new();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    for (i, g) in sets.iter().take(count).enumerate() {
        let req = i as u64;
        let root = rec.open("general_request", ROOT, req);
        let t0 = Instant::now();
        let (layers, bound, optimal) = rec.time("EngineCtx::decomposition_for", root, req, || {
            let d = ctx.decomposition_for(g);
            (d.num_layers(), d.lower_bound, d.proven_optimal)
        });
        let decompose = ms(t0.elapsed());
        let t1 = Instant::now();
        rec.time("cst_decomp::certificate", root, req, || {
            std::hint::black_box(cst_decomp::certificate(g))
        });
        let certificate = ms(t1.elapsed());
        let t2 = Instant::now();
        let routed = rec.time("EngineCtx::route_general", root, req, || {
            ctx.route_general(&Csa, topos.of(g), g)
        });
        let route_layers = ms(t2.elapsed());
        rec.close(root);
        if let Ok(out) = routed {
            ctx.recycle_general(out);
        }
        t.decompose_ms.push(decompose);
        t.certificate_ms.push(certificate);
        t.coloring_ms.push(decompose - certificate);
        t.route_layers_ms.push(route_layers);
        t.layers_over_bound.push(layers as f64 - bound as f64);
        t.proven_optimal.push(if optimal { 1.0 } else { 0.0 });
    }
    t.spans = rec.spans;
    t
}
