//! The deterministic fault-campaign runner: sweep fault rates × topology
//! sizes × routers over seeded random workloads and masks, route every
//! trial with [`cst_engine::EngineCtx::route_masked`], audit every
//! surviving schedule with `cst-check`'s fault pass, and aggregate into a
//! serializable [`CampaignReport`].
//!
//! Determinism contract: the report is a pure function of the
//! [`CampaignConfig`] — per-trial RNGs are derived from the config seed
//! by counter mixing, every router in a cell sees the same workload and
//! mask, and no wall-clock value enters the report. `scripts/ci.sh` runs
//! the same campaign twice and diffs the JSON.

use crate::sample_mask;
use cst_check::{analyze_with_faults, CheckOptions};
use cst_core::{CstError, CstTopology};
use cst_engine::EngineCtx;
use cst_sim::ControlCampaignStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// What to sweep. Serializable so a campaign is reproducible from its
/// report alone.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Master seed; every trial RNG derives from it.
    pub seed: u64,
    /// Topology sizes (leaves, powers of two).
    pub sizes: Vec<usize>,
    /// Per-component fault probabilities.
    pub rates: Vec<f64>,
    /// Registry router names to route each trial with.
    pub routers: Vec<String>,
    /// Trials per (size, rate) cell.
    pub trials: usize,
    /// Workload density for [`cst_workloads::well_nested_with_density`].
    pub density: f64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xC57_FA17,
            sizes: vec![16, 64],
            rates: vec![0.0, 0.02, 0.1],
            routers: vec!["csa".to_string(), "greedy".to_string()],
            trials: 8,
            density: 0.5,
        }
    }
}

/// Aggregated counts for one (size, rate, router) cell.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignCell {
    pub size: usize,
    pub rate: f64,
    pub router: String,
    /// Trials aggregated into this cell.
    pub trials: usize,
    /// Faults injected across the cell's masks.
    pub faults: usize,
    /// Communications requested across all trials.
    pub comms: usize,
    /// Scheduled (includes rerouted).
    pub routed: usize,
    /// Moved to a split-off round by a half-duplex edge.
    pub rerouted: usize,
    /// Classified unroutable under the mask.
    pub dropped: usize,
    /// Rounds added by half-duplex splitting.
    pub extra_rounds: usize,
    /// Total rounds across all trials.
    pub rounds: usize,
    /// Total hold-semantics power units across all trials.
    pub power_units: u64,
    /// Trials whose degraded schedule passed the full `cst-check`
    /// fault audit (`CST10x` + coverage) with zero findings.
    pub clean_checks: usize,
    /// Trials whose cst-sim execution of the schedule agreed with the
    /// routed outcome: one delivery per routed comm, matching round count
    /// and power report. Runs on compiled replay by default (see
    /// [`SimBackend`]); both backends produce byte-identical outcomes, so
    /// this count — and the whole report — is backend-independent.
    pub sim_agreements: usize,
}

/// Which cst-sim execution path cross-checks each trial's schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimBackend {
    /// The event-driven interpreter ([`cst_sim::simulate_schedule`]).
    Interpreted,
    /// Straight-line replay of a lowered program
    /// ([`cst_sim::CompiledProgram`]): the same outcome byte for byte at a
    /// fraction of the per-trial cost, so it is the default.
    #[default]
    Compiled,
}

/// The campaign result: one cell per (size, rate, router), plus the
/// control-state injection campaign from `cst-sim` as a fixed
/// cross-check that the detection layers still work.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    pub config: CampaignConfig,
    pub cells: Vec<CampaignCell>,
    pub control: ControlCampaignStats,
}

/// Derive a per-trial seed from the master seed and the trial coordinates
/// (boost-style hash combine; any bijective-ish mixer works, it only has
/// to be deterministic and spread across trials).
fn trial_seed(seed: u64, size: usize, rate_idx: usize, trial: usize) -> u64 {
    let mut h = seed;
    for v in [size as u64, rate_idx as u64, trial as u64] {
        h ^= v
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
    }
    h
}

/// Run the sweep. Every router in a (size, rate) cell routes the same
/// seeded workloads under the same seeded masks, so cells differing only
/// in router are directly comparable. Each trial's schedule is executed
/// on compiled replay as a cross-check; use [`run_campaign_with`] to pick
/// the interpreter instead (the report is identical either way).
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, CstError> {
    run_campaign_with(cfg, SimBackend::default())
}

/// [`run_campaign`] with an explicit cst-sim backend for the per-trial
/// execution cross-check. The backend is a function argument, not part of
/// the serialized [`CampaignConfig`]: it must never influence the report.
pub fn run_campaign_with(
    cfg: &CampaignConfig,
    backend: SimBackend,
) -> Result<CampaignReport, CstError> {
    let routers = cfg
        .routers
        .iter()
        .map(|name| {
            cst_engine::find(name).ok_or_else(|| CstError::UnknownRouter { name: name.clone() })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut ctx = EngineCtx::new();
    // Pooled lowering/replay buffers for the compiled backend: one
    // program recompiled per trial, outcomes recycled into the scratch.
    let mut program: Option<cst_sim::CompiledProgram> = None;
    let mut scratch = cst_sim::ReplayScratch::new();
    let mut cells = Vec::new();
    for &size in &cfg.sizes {
        let topo = CstTopology::with_leaves(size);
        for (ri, &rate) in cfg.rates.iter().enumerate() {
            let mut row: Vec<CampaignCell> = cfg
                .routers
                .iter()
                .map(|r| CampaignCell {
                    size,
                    rate,
                    router: r.clone(),
                    ..CampaignCell::default()
                })
                .collect();
            for trial in 0..cfg.trials {
                let mut rng = StdRng::seed_from_u64(trial_seed(cfg.seed, size, ri, trial));
                let set = cst_workloads::well_nested_with_density(&mut rng, size, cfg.density);
                let mask = sample_mask(&mut rng, &topo, rate);
                for (i, router) in routers.iter().enumerate() {
                    let out = ctx.route_masked(router.as_ref(), &topo, &set, &mask)?;
                    let report = out.degradation.clone().unwrap_or_default();
                    let cell = &mut row[i];
                    cell.trials += 1;
                    cell.faults += mask.num_faults();
                    cell.comms += set.len();
                    cell.routed += report.routed;
                    cell.rerouted += report.rerouted;
                    cell.dropped += report.dropped;
                    cell.extra_rounds += report.extra_rounds;
                    cell.rounds += out.rounds;
                    cell.power_units += out.power.total_units;
                    let dropped: Vec<usize> = report.drops.iter().map(|d| d.comm).collect();
                    let audit = analyze_with_faults(
                        &topo,
                        &set,
                        &out.schedule,
                        &CheckOptions::lenient(),
                        &mask,
                        &dropped,
                    );
                    if audit.is_clean() {
                        cell.clean_checks += 1;
                    }
                    // Execute the (possibly degraded) schedule on cst-sim
                    // and reconcile against the routed outcome. Masked
                    // schedules name the caller's comm ids, so they run
                    // on `set` directly.
                    let sim = match backend {
                        SimBackend::Interpreted => {
                            cst_sim::simulate_schedule(&topo, &set, &out.schedule, None)?
                        }
                        SimBackend::Compiled => {
                            let prog = match program.as_mut() {
                                Some(p) => {
                                    p.recompile(&topo, &set, &out.schedule)?;
                                    p
                                }
                                None => program.insert(cst_sim::CompiledProgram::compile(
                                    &topo,
                                    &set,
                                    &out.schedule,
                                )?),
                            };
                            let payloads = prog.default_payloads();
                            prog.replay_with(&mut scratch, &payloads)?
                        }
                    };
                    if sim.deliveries.len() == report.routed
                        && sim.schedule.num_rounds() == out.rounds
                        && sim.meter.report(&topo) == out.power
                    {
                        cell.sim_agreements += 1;
                    }
                    scratch.recycle(sim);
                    ctx.recycle(out);
                }
            }
            cells.extend(row);
        }
    }
    // Fixed control-plane cross-check: the paper's Fig. 2 workload on 16
    // leaves, deterministic by construction.
    let control_topo = CstTopology::with_leaves(16);
    let control_set = cst_comm::examples::paper_figure_2();
    let control = cst_sim::campaign_stats(&control_topo, &control_set);
    Ok(CampaignReport { config: cfg.clone(), cells, control })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            seed: 7,
            sizes: vec![16],
            rates: vec![0.0, 0.1],
            routers: vec!["csa".to_string(), "greedy".to_string()],
            trials: 4,
            density: 0.5,
        }
    }

    #[test]
    fn report_is_deterministic_and_json_stable() {
        let cfg = small_config();
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn accounting_is_conserved_per_cell() {
        let report = run_campaign(&small_config()).unwrap();
        assert_eq!(report.cells.len(), 2 * 2); // rates × routers
        for cell in &report.cells {
            assert_eq!(cell.trials, 4);
            assert_eq!(
                cell.routed + cell.dropped,
                cell.comms,
                "{}@rate {} leaks communications",
                cell.router,
                cell.rate
            );
            assert_eq!(
                cell.sim_agreements, cell.trials,
                "{}@rate {} simulation disagreed with routing",
                cell.router, cell.rate
            );
            if cell.rate == 0.0 {
                assert_eq!(cell.dropped, 0);
                assert_eq!(cell.rerouted, 0);
                assert_eq!(cell.faults, 0);
                assert_eq!(cell.clean_checks, cell.trials);
            }
        }
    }

    #[test]
    fn faulty_cells_degrade_and_still_audit_clean() {
        let report = run_campaign(&small_config()).unwrap();
        let faulty: Vec<_> = report.cells.iter().filter(|c| c.rate > 0.0).collect();
        assert!(faulty.iter().any(|c| c.dropped > 0), "rate 0.1 never dropped anything");
        for cell in faulty {
            assert_eq!(
                cell.clean_checks, cell.trials,
                "{} produced schedules failing the fault audit",
                cell.router
            );
        }
    }

    #[test]
    fn backends_produce_identical_reports() {
        let cfg = small_config();
        let compiled = run_campaign_with(&cfg, SimBackend::Compiled).unwrap();
        let interpreted = run_campaign_with(&cfg, SimBackend::Interpreted).unwrap();
        assert_eq!(compiled, interpreted);
        assert_eq!(
            serde_json::to_string(&compiled).unwrap(),
            serde_json::to_string(&interpreted).unwrap()
        );
    }

    #[test]
    fn control_campaign_is_included() {
        let report = run_campaign(&small_config()).unwrap();
        let c = report.control;
        assert_eq!(
            c.injections,
            c.detected_during_run + c.detected_by_verifier + c.masked
        );
        assert!(c.injections > 0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run_campaign(&small_config()).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
