//! The output audit, run once after the window closes.
//!
//! Callers keep a hash of every response, not the bytes. Every audited
//! key is routed again by a fresh single-caller `EngineCtx`; for serve
//! keys the outcome is encoded through the same public encoders the
//! daemon uses, and the hash of those bytes must equal the hash of the
//! first response served for the key. The reference payload is then
//! decoded and its schedule checked by `cst-check` and the reference
//! model's `conform_schedule`; general outcomes go through
//! `check_decomposition`. Separately, every response to one key must
//! hash the same as the first.

use crate::engine::outcome_hash;
use crate::serve::payload_hash;
use crate::workload::{Req, ServeStream, HEAD};
use cst_check::{analyze, analyze_with_faults, check_decomposition, CheckOptions};
use cst_comm::Schedule;
use cst_core::{CstTopology, GeneralCommSet};
use cst_engine::{Csa, EngineCtx};
use cst_serve::wire::{decode_payload, encode_payload, DegradationSummary};
use std::collections::HashMap;

/// What the audit found.
pub struct Audit {
    pub failures: Vec<String>,
    /// Mean rounds and Theorem-8 power units over the stream head.
    pub rounds_per_route: f64,
    pub power_units_per_route: f64,
}

/// Rounds and power units of one key's reference outcome.
type KeyCost = (u64, u64);

/// The first response hash of every key, and one failure per key whose
/// later responses hash differently.
fn first_hashes(hashes: &[(u32, u64)]) -> (HashMap<u32, u64>, Vec<String>) {
    let mut first: HashMap<u32, u64> = HashMap::new();
    let mut bad: Vec<u32> = Vec::new();
    for &(key, h) in hashes {
        let f = *first.entry(key).or_insert(h);
        if f != h && !bad.contains(&key) {
            bad.push(key);
        }
    }
    (
        first,
        bad.into_iter()
            .map(|k| format!("key {k}: responses differ between repeats"))
            .collect(),
    )
}

/// Run `check` over `keys` on `threads` threads; collect failures and
/// per-key costs.
fn fan_out(
    keys: Vec<u32>,
    threads: usize,
    check: impl Fn(u32) -> Result<KeyCost, String> + Sync,
) -> (Vec<String>, HashMap<u32, KeyCost>) {
    let chunk = keys.len().div_ceil(threads.max(1)).max(1);
    let results: Vec<Vec<(u32, Result<KeyCost, String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                let check = &check;
                scope.spawn(move || part.iter().map(|&k| (k, check(k))).collect())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("audit thread panicked"))
            .collect()
    });
    let mut failures = Vec::new();
    let mut costs = HashMap::new();
    for (key, r) in results.into_iter().flatten() {
        match r {
            Ok(cost) => {
                costs.insert(key, cost);
            }
            Err(e) => failures.push(format!("key {key}: {e}")),
        }
    }
    (failures, costs)
}

fn head_means(item_keys: &[u32], costs: &HashMap<u32, KeyCost>) -> (f64, f64) {
    let head = &item_keys[..item_keys.len().min(HEAD)];
    let (mut rounds, mut units) = (0u64, 0u64);
    for k in head {
        let (r, u) = costs.get(k).copied().unwrap_or_default();
        rounds += r;
        units += u;
    }
    let n = head.len().max(1) as f64;
    (rounds as f64 / n, units as f64 / n)
}

fn audited(audit: &[bool]) -> Vec<u32> {
    (0..audit.len() as u32)
        .filter(|&k| audit[k as usize])
        .collect()
}

fn topology(n: usize) -> Result<CstTopology, String> {
    CstTopology::new(n).map_err(|e| e.to_string())
}

fn parse_schedule(json: &[u8]) -> Result<Schedule, String> {
    let text = std::str::from_utf8(json).map_err(|e| format!("schedule is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("schedule does not parse: {e}"))
}

/// Fresh single-caller route of `req`, encoded exactly as the daemon
/// encodes a miss.
fn serve_reference(req: &Req, topo: &CstTopology) -> Result<Vec<u8>, String> {
    let router =
        cst_engine::find(req.router).ok_or_else(|| format!("unknown router {}", req.router))?;
    let mut ctx = EngineCtx::new();
    let out = match &req.mask {
        Some(m) => ctx.route_masked(router.as_ref(), topo, &req.set, m),
        None => ctx.route(router.as_ref(), topo, &req.set),
    }
    .map_err(|e| format!("reference route failed: {e}"))?;
    let json = serde_json::to_string(&out.schedule).map_err(|e| e.to_string())?;
    let degradation = out.degradation.as_ref().map(|d| DegradationSummary {
        total: d.total as u64,
        routed: d.routed as u64,
        rerouted: d.rerouted as u64,
        dropped: d.dropped as u64,
        extra_rounds: d.extra_rounds as u64,
        dropped_ids: d.drops.iter().map(|x| x.comm as u64).collect(),
    });
    let mut buf = Vec::new();
    encode_payload(
        &mut buf,
        out.router,
        out.rounds as u64,
        out.power.total_units,
        out.power.max_units,
        out.power.max_port_transitions,
        degradation.as_ref(),
        json.as_bytes(),
    );
    Ok(buf)
}

fn check_serve_key(req: &Req, served: Option<u64>) -> Result<KeyCost, String> {
    let topo = topology(req.set.num_leaves())?;
    let reference = serve_reference(req, &topo)?;
    if served.is_some_and(|h| h != payload_hash(&reference)) {
        return Err(format!(
            "{} payload differs from a fresh engine's",
            req.router
        ));
    }
    let (summary, json) = decode_payload(&reference).map_err(|e| e.to_string())?;
    let schedule = parse_schedule(json)?;
    if summary.rounds != schedule.num_rounds() as u64 {
        return Err(format!(
            "summary says {} rounds, schedule has {}",
            summary.rounds,
            schedule.num_rounds()
        ));
    }
    let dropped: Vec<usize> = summary
        .degradation
        .as_ref()
        .map(|d| d.dropped_ids.iter().map(|&id| id as usize).collect())
        .unwrap_or_default();
    let report = match &req.mask {
        Some(mask) => analyze_with_faults(
            &topo,
            &req.set,
            &schedule,
            &CheckOptions::lenient(),
            mask,
            &dropped,
        ),
        None if matches!(req.router, "csa" | "csa-parallel") => {
            analyze(&topo, &req.set, &schedule, &CheckOptions::strict())
        }
        None => analyze(&topo, &req.set, &schedule, &CheckOptions::lenient()),
    };
    if report.has_errors() {
        return Err(format!(
            "{}: analyzer: {}",
            req.router,
            first_line(&report.render_text())
        ));
    }
    let conform = cst_model::conform_schedule(&req.set, &schedule, &dropped);
    if conform.has_errors() {
        return Err(format!(
            "{}: model: {}",
            req.router,
            first_line(&conform.render_text())
        ));
    }
    Ok((summary.rounds, summary.power_total_units))
}

fn first_line(text: &str) -> &str {
    text.lines().next().unwrap_or("")
}

/// Audit a serve run.
pub fn audit_serve(
    stream: &ServeStream,
    item_keys: &[u32],
    audit: &[bool],
    hashes: &[(u32, u64)],
    threads: usize,
) -> Audit {
    let (first, repeat_failures) = first_hashes(hashes);
    let (mut failures, costs) = fan_out(audited(audit), threads, |k| {
        check_serve_key(&stream.reqs[k as usize], first.get(&k).copied())
    });
    failures.extend(repeat_failures);
    let (rounds_per_route, power_units_per_route) = head_means(item_keys, &costs);
    Audit {
        failures,
        rounds_per_route,
        power_units_per_route,
    }
}

fn check_general_key(gset: &GeneralCommSet, served: Option<u64>) -> Result<KeyCost, String> {
    let topo = topology(gset.num_leaves())?;
    let mut ctx = EngineCtx::new();
    let out = ctx
        .route_general(&Csa, &topo, gset)
        .map_err(|e| format!("reference route failed: {e}"))?;
    if served.is_some_and(|h| h != outcome_hash(&out)) {
        return Err("general outcome differs from a fresh engine's".into());
    }
    let report = check_decomposition(
        &topo,
        gset,
        ctx.decomposition_for(gset),
        &out.schedule,
        &out.layer_rounds,
    );
    if report.has_errors() {
        return Err(format!(
            "decomposition: {}",
            first_line(&report.render_text())
        ));
    }
    Ok((out.rounds as u64, out.power.total_units))
}

/// Audit an engine-general run.
pub fn audit_general(
    sets: &[GeneralCommSet],
    audit: &[bool],
    hashes: &[(u32, u64)],
    threads: usize,
) -> Audit {
    let (first, repeat_failures) = first_hashes(hashes);
    let (mut failures, costs) = fan_out(audited(audit), threads, |k| {
        check_general_key(&sets[k as usize], first.get(&k).copied())
    });
    failures.extend(repeat_failures);
    let item_keys: Vec<u32> = (0..sets.len() as u32).collect();
    let (rounds_per_route, power_units_per_route) = head_means(&item_keys, &costs);
    Audit {
        failures,
        rounds_per_route,
        power_units_per_route,
    }
}
