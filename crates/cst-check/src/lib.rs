//! # cst-check — static schedule/protocol analyzer for the CST
//!
//! Inspects a [`Schedule`] + [`CommSet`] *without simulating the protocol*
//! and emits typed diagnostics — each with a stable `CST0xx` code,
//! severity, location (round, switch, port, link) and a human message —
//! plus a machine-readable JSON report (format pinned in
//! `tests/golden_report.rs`; code table in `docs/DIAGNOSTICS.md`).
//!
//! Independent passes over the flat round tables:
//!
//! * **input set** — well-nestedness and orientation (§2.1);
//! * **rounds** — coverage, link compatibility, config/circuit match,
//!   legality, double-stamp ownership (Theorem 4; shared with
//!   [`Schedule::verify`] via [`cst_comm::check_rounds`]);
//! * **round count** — `rounds == w` (Theorem 5);
//! * **transitions** — per-switch port-transition budget by replaying the
//!   schedule's configuration *diffs* (Theorem 8);
//! * **selection order** — outermost-first `O_c(u)` at every matching
//!   switch (§4);
//! * **counters** — Phase-1 `C_S`/`C_U` conservation, `M = min(S_L, D_R)`
//!   (Lemma 1; [`counters`], for artifacts that carry the tables).
//!
//! The runtime verifiers delegate here, so static and runtime verification
//! share one diagnostic vocabulary. The analyzer itself is proven by a
//! mutation harness ([`mutation`]): one corruption per diagnostic class,
//! asserting exactly the expected code fires.
//!
//! ```
//! use cst_core::CstTopology;
//! use cst_comm::CommSet;
//! use cst_check::{analyze, CheckOptions};
//!
//! let topo = CstTopology::with_leaves(8);
//! let set = CommSet::from_pairs(8, &[(0, 7), (1, 6)]);
//! let schedule = cst_comm::Schedule::default(); // performs nothing
//! let report = analyze(&topo, &set, &schedule, &CheckOptions::default());
//! assert!(report.has_errors()); // CST012: comms never scheduled
//! ```

pub mod bundle;
pub mod counters;
pub mod decomp;
pub mod mutation;
pub mod passes;

use cst_comm::{CommSet, Schedule};
use cst_core::CstTopology;

pub use bundle::ScheduleBundle;
pub use counters::{check_counters, expected_counters, CounterTable};
pub use cst_core::diag::{DiagCode, DiagReport, Diagnostic, Severity};
pub use decomp::check_decomposition;
pub use mutation::{
    clean_decomp_fixture, clean_fixture, corrupted, corrupted_decomp, run_decomp, DecompFixture,
    DecompMutation, FaultScenario, Fixture, Mutation,
};
pub use passes::{
    check_faults, check_round_count, check_selection_order, check_set, check_transitions,
    max_static_transitions, static_port_transitions,
};

/// Empirical constant bound for per-switch port transitions under CSA.
///
/// Lemmas 6–7 bound each of the three control streams a switch receives to
/// at most two alternations; each alternation re-aims at most one port, and
/// each port serves at most two distinct drivers per stream block. Nine
/// (three ports × three transitions) is a safe constant; measured maxima
/// are reported per-experiment in EXPERIMENTS.md and are typically <= 6.
pub const CSA_PORT_TRANSITION_BOUND: u32 = 9;

/// Which optional passes [`analyze`] runs. The round-level Theorem 4 /
/// ownership checks always run; the remaining passes encode properties
/// only CSA-class schedules promise, so baseline or mixed-orientation
/// schedules are analyzed with [`CheckOptions::lenient`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckOptions {
    /// Expect the input set to be right-oriented (`CST002`).
    pub require_right_oriented: bool,
    /// Expect `rounds == width` (Theorem 5, `CST030`).
    pub optimal_rounds: bool,
    /// Expect outermost-first selection order on every link (`CST060`).
    pub selection_order: bool,
    /// Per-switch port-transition budget (Theorem 8, `CST040`);
    /// `None` disables the pass.
    pub transition_bound: Option<u32>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions::strict()
    }
}

impl CheckOptions {
    /// Full CSA contract: Theorems 4, 5 and 8 plus selection order.
    pub fn strict() -> Self {
        CheckOptions {
            require_right_oriented: true,
            optimal_rounds: true,
            selection_order: true,
            transition_bound: Some(CSA_PORT_TRANSITION_BOUND),
        }
    }

    /// Correctness only (Theorem 4 + ownership): for baselines, merged
    /// mixed-orientation schedules, or any schedule that never promised
    /// optimality.
    pub fn lenient() -> Self {
        CheckOptions {
            require_right_oriented: false,
            optimal_rounds: false,
            selection_order: false,
            transition_bound: None,
        }
    }
}

/// Run every enabled pass and collect all findings.
///
/// Never stops at the first problem: the report carries everything found,
/// in pass order (set structure, rounds, round count, transitions,
/// selection order). See [`counters::check_counters`] for the Lemma 1 pass,
/// which needs the Phase-1 tables and is therefore not derivable from a
/// `Schedule` alone.
pub fn analyze(
    topo: &CstTopology,
    set: &CommSet,
    schedule: &Schedule,
    options: &CheckOptions,
) -> DiagReport {
    let mut report = passes::check_set(set, options.require_right_oriented);
    // Selection order is defined through interval containment, which only
    // means "shares links with" on right-oriented well-nested sets.
    let set_is_canonical = report.is_clean() && set.is_well_nested() && set.is_right_oriented();

    report.merge(cst_comm::check_rounds(topo, set, schedule));
    if options.optimal_rounds {
        report.merge(passes::check_round_count(topo, set, schedule));
    }
    if let Some(bound) = options.transition_bound {
        report.merge(passes::check_transitions(topo, schedule, bound));
    }
    if options.selection_order && set_is_canonical {
        report.merge(passes::check_selection_order(topo, set, schedule));
    }
    report
}

/// [`analyze`] for degraded artifacts: a schedule routed under a hardware
/// [`FaultMask`](cst_core::FaultMask) with `dropped` listing the communications the router
/// classified unroutable.
///
/// Runs every pass of [`analyze`], then replaces its coverage verdicts
/// with the fault-aware ones: plain `CST012` findings for communications
/// on the drop list are discarded (the absence is legitimate — whether
/// the drop itself was, `CST102` decides), and
/// [`passes::check_faults`] contributes the `CST10x` fault-model audit.
///
/// Note `optimal_rounds` still compares against the *full* set's width;
/// analyze degraded schedules with [`CheckOptions::lenient`] (or
/// `optimal_rounds: false`) when drops are expected.
pub fn analyze_with_faults(
    topo: &CstTopology,
    set: &CommSet,
    schedule: &Schedule,
    options: &CheckOptions,
    mask: &cst_core::FaultMask,
    dropped: &[usize],
) -> DiagReport {
    let mut report = analyze(topo, set, schedule, options);
    report.diagnostics.retain(|d| {
        !(d.code == DiagCode::MissingComm && d.comms.iter().any(|c| dropped.contains(c)))
    });
    report.merge(passes::check_faults(topo, set, schedule, mask, dropped));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_empty_schedule_is_clean() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::empty(8);
        let report = analyze(&topo, &set, &Schedule::default(), &CheckOptions::strict());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn missing_everything_is_flagged() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6)]);
        let report = analyze(&topo, &set, &Schedule::default(), &CheckOptions::strict());
        // two CST012 plus CST030 (0 rounds != width 2)
        assert!(report.error_count() >= 3);
    }
}
