//! The experiment suite (E1..E8) — the reproduction's evaluation section.
//!
//! The paper is a theory paper with no numeric tables; its results are
//! Theorems 4/5/8 and the contrast with Roy et al. \[6\]. Each experiment
//! measures one claim on generated workloads; DESIGN.md §7 maps ids to
//! claims, EXPERIMENTS.md records expected-vs-measured shapes.

pub mod e10_sessions;
pub mod e11_bus_emulation;
pub mod e12_motivation;
pub mod e1_rounds;
pub mod e2_changes;
pub mod e3_total_power;
pub mod e4_control;
pub mod e5_throughput;
pub mod e6_histogram;
pub mod e7_bus;
pub mod e8_ablation;
pub mod e9_applications;

use cst_comm::{width_on_topology, CommSet};
use cst_core::{CstTopology, PowerReport};
use cst_engine::EngineCtx;
use cst_padr::CsaOutcome;

/// Registry names of the schedulers [`measure_all`] runs, in the field
/// order of [`AllSchedulers`]. The engine registry is the single source
/// of truth for these names; table headers derive from this list.
pub const MEASURED_ROUTERS: [&str; 5] = ["csa", "roy", "greedy", "greedy-input", "sequential"];

/// One workload measured under every scheduler, with both power semantics.
#[derive(Clone, Debug)]
pub struct AllSchedulers {
    /// Width of the input (max directed-link load).
    pub width: u32,
    /// Number of communications.
    pub size: usize,
    pub csa: SchedulerMeasurement,
    pub roy: SchedulerMeasurement,
    /// Registry router "greedy" (outermost-first scan).
    pub greedy: SchedulerMeasurement,
    /// Registry router "greedy-input" (input-order ablation).
    pub greedy_input: SchedulerMeasurement,
    pub sequential: SchedulerMeasurement,
    /// The full CSA outcome for metrics-level experiments.
    pub csa_outcome: CsaOutcome,
}

/// Rounds + power of one scheduler on one workload.
#[derive(Clone, Debug)]
pub struct SchedulerMeasurement {
    pub rounds: usize,
    pub power: PowerReport,
}

/// Run every scheduler in [`MEASURED_ROUTERS`] on `set` through the
/// engine registry. Panics on scheduling failure — experiment inputs are
/// generated valid, so failure is a bug worth crashing on.
pub fn measure_all(topo: &CstTopology, set: &CommSet) -> AllSchedulers {
    let mut ctx = EngineCtx::new();
    measure_all_in(&mut ctx, topo, set)
}

/// [`measure_all`] with a caller-owned [`EngineCtx`], so sweeps reuse one
/// set of scratch buffers across workloads.
pub fn measure_all_in(ctx: &mut EngineCtx, topo: &CstTopology, set: &CommSet) -> AllSchedulers {
    let width = width_on_topology(topo, set);
    let csa_outcome = ctx
        .route_named("csa", topo, set)
        .expect("CSA failed on experiment input")
        .into_csa()
        .expect("csa router carries CSA extras");
    let csa = SchedulerMeasurement {
        rounds: csa_outcome.rounds(),
        power: csa_outcome.power.clone(),
    };
    let mut measure = |name: &str| {
        let out = ctx.route_named(name, topo, set).unwrap_or_else(|e| panic!("{name} failed: {e}"));
        let m = SchedulerMeasurement { rounds: out.rounds, power: out.power.clone() };
        ctx.recycle(out);
        m
    };
    let roy = measure("roy");
    let greedy = measure("greedy");
    let greedy_input = measure("greedy-input");
    let sequential = measure("sequential");
    AllSchedulers { width, size: set.len(), csa, roy, greedy, greedy_input, sequential, csa_outcome }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn measure_all_is_consistent() {
        let topo = CstTopology::with_leaves(64);
        let mut rng = StdRng::seed_from_u64(9);
        let set = cst_workloads::well_nested_set(&mut rng, 64, 20);
        let m = measure_all(&topo, &set);
        assert_eq!(m.csa.rounds as u32, m.width);
        assert!(m.roy.rounds as u32 >= m.width);
        assert_eq!(m.sequential.rounds, 20);
        assert!(m.greedy.rounds as u32 >= m.width);
        assert_eq!(m.size, 20);
    }

    #[test]
    fn measured_routers_all_resolve_in_the_registry() {
        for name in MEASURED_ROUTERS {
            assert!(cst_engine::find(name).is_some(), "{name} missing from registry");
        }
    }
}
