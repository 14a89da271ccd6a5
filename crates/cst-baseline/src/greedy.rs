//! Greedy maximal-compatible-set scheduling.
//!
//! Each round scans the remaining communications in a fixed priority order
//! and admits every one whose circuit is link-disjoint from those already
//! admitted this round. The priority order is the interesting knob:
//!
//! * [`ScanOrder::OutermostFirst`] — the order the CSA effectively
//!   realizes distributedly; rounds meet the width bound on every input we
//!   have found (asserted for the canonical sets in tests, measured over
//!   random workloads in E1).
//! * [`ScanOrder::InnermostFirst`] — still Θ(w)-ish but can exceed `w`.
//! * [`ScanOrder::InputOrder`] — scans by communication id. For randomly
//!   ordered inputs this interleaves nesting levels across rounds, which
//!   destroys configuration retention: per-port driver transitions grow
//!   with `w` *even under hold semantics*. This isolates how much of the
//!   paper's power win is due to the outermost-first selection rule
//!   (ablation E8).

use crate::common::{innermost_first_order, outermost_first_order};
use cst_comm::{CommId, CommSet, Schedule};
use cst_core::{CstError, CstTopology, LinkOccupancy};

/// Priority order for the greedy scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanOrder {
    /// Containing communications before contained ones.
    OutermostFirst,
    /// Contained communications before containing ones.
    InnermostFirst,
    /// Communication-id order (whatever order the input arrived in).
    InputOrder,
}

/// Outcome of the greedy scheduler.
#[derive(Clone, Debug)]
pub struct GreedyOutcome {
    pub schedule: Schedule,
    /// The scan order used.
    pub order: ScanOrder,
}

/// Schedule `set` greedily under `order`. Requires a right-oriented
/// well-nested set (the paper's setting); use [`run_arbitrary`] for
/// anything else.
pub fn run(topo: &CstTopology, set: &CommSet, order: ScanOrder) -> Result<GreedyOutcome, CstError> {
    set.require_right_oriented()?;
    set.require_well_nested()?;
    run_arbitrary(topo, set, order)
}

/// Greedy scheduling of **arbitrary** communication sets — any mix of
/// orientations, crossings allowed. This is the "other communication
/// patterns on the CST" extension from the paper's concluding remarks:
/// greedy maximal compatible sets remain valid for any set because
/// compatibility is a property of directed-link disjointness, not of
/// nesting. No optimality guarantee: rounds >= width always, and the gap
/// can be positive for crossing sets (measured in tests).
pub fn run_arbitrary(
    topo: &CstTopology,
    set: &CommSet,
    order: ScanOrder,
) -> Result<GreedyOutcome, CstError> {
    let mut remaining: Vec<CommId> = match order {
        ScanOrder::OutermostFirst => outermost_first_order(set),
        ScanOrder::InnermostFirst => innermost_first_order(set),
        ScanOrder::InputOrder => set.iter().map(|(id, _)| id).collect(),
    };
    let mut occ = LinkOccupancy::new(topo);
    let mut partition: Vec<Vec<CommId>> = Vec::new();
    while !remaining.is_empty() {
        // Admit each circuit whose links are all free this round. The
        // first always is, so every round makes progress.
        occ.reset();
        let mut chosen: Vec<CommId> = Vec::new();
        remaining.retain(|&id| {
            let c = &set.comms()[id.0];
            if topo.path_links(c.source, c.dest).any(|l| occ.is_used(l)) {
                return true;
            }
            for l in topo.path_links(c.source, c.dest) {
                occ.claim(l);
            }
            chosen.push(id);
            false
        });
        chosen.sort_unstable();
        partition.push(chosen);
    }
    let endpoints = |id| set.get(id).map(|c| (c.source, c.dest));
    let schedule = Schedule::from_partition(topo, endpoints, &partition)?;
    Ok(GreedyOutcome { schedule, order })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_comm::{examples, width_on_topology};

    #[test]
    fn outermost_first_meets_width_on_canonical_sets() {
        for (n, set) in [
            (16usize, examples::paper_figure_2()),
            (16, examples::paper_figure_3b()),
            (32, examples::full_nest(32)),
            (32, examples::sibling_pairs(32)),
            (16, CommSet::from_pairs(16, &[(3, 9), (4, 8), (5, 6)])),
        ] {
            let topo = CstTopology::with_leaves(n);
            let w = width_on_topology(&topo, &set);
            let out = run(&topo, &set, ScanOrder::OutermostFirst).unwrap();
            assert_eq!(out.schedule.num_rounds() as u32, w);
            out.schedule.verify(&topo, &set).unwrap();
        }
    }

    #[test]
    fn all_orders_produce_valid_schedules() {
        let topo = CstTopology::with_leaves(16);
        let set = examples::paper_figure_2();
        for order in [ScanOrder::OutermostFirst, ScanOrder::InnermostFirst, ScanOrder::InputOrder]
        {
            let out = run(&topo, &set, order).unwrap();
            out.schedule.verify(&topo, &set).unwrap();
        }
    }

    #[test]
    fn input_order_interleaving_costs_transitions_under_hold() {
        // A full nest presented in an interleaved id order: greedy
        // InputOrder alternates outer/inner communications across rounds,
        // so the root's r_o flips between l_i and p_i... here every comm is
        // root-matched so instead watch a flank switch's p_o flipping.
        // Build the interleave: ids 0..16 of full_nest(32) reordered as
        // 0, 8, 1, 9, 2, 10, ... via a custom pair list.
        let n = 32;
        let full: Vec<(usize, usize)> = (0..n / 2).map(|i| (i, n - 1 - i)).collect();
        let mut interleaved = Vec::new();
        for i in 0..8 {
            interleaved.push(full[i]);
            interleaved.push(full[i + 8]);
        }
        let set = CommSet::from_pairs(n, &interleaved);
        let topo = CstTopology::with_leaves(n);
        let out = run(&topo, &set, ScanOrder::InputOrder).unwrap();
        out.schedule.verify(&topo, &set).unwrap();
        let interleaved_report = out.schedule.meter_power(&topo).report(&topo);
        let ordered = run(&topo, &set, ScanOrder::OutermostFirst).unwrap();
        let ordered_report = ordered.schedule.meter_power(&topo).report(&topo);
        assert!(
            interleaved_report.max_port_transitions > ordered_report.max_port_transitions,
            "interleaved {} vs ordered {}",
            interleaved_report.max_port_transitions,
            ordered_report.max_port_transitions
        );
    }

    #[test]
    fn rejects_invalid_sets() {
        let topo = CstTopology::with_leaves(8);
        let crossing = CommSet::from_pairs(8, &[(0, 4), (2, 6)]);
        assert!(run(&topo, &crossing, ScanOrder::OutermostFirst).is_err());
    }

    #[test]
    fn arbitrary_handles_crossing_sets() {
        let topo = CstTopology::with_leaves(8);
        // two crossing right-oriented comms sharing the root up-link
        let crossing = CommSet::from_pairs(8, &[(0, 4), (2, 6)]);
        let out = run_arbitrary(&topo, &crossing, ScanOrder::InputOrder).unwrap();
        assert_eq!(out.schedule.num_rounds(), 2);
        out.schedule.verify(&topo, &crossing).unwrap();
    }

    #[test]
    fn arbitrary_handles_mixed_orientation() {
        let topo = CstTopology::with_leaves(16);
        // opposite orientations over the same span are link-disjoint:
        // one round suffices
        let set = CommSet::from_pairs(16, &[(0, 15), (14, 1)]);
        let out = run_arbitrary(&topo, &set, ScanOrder::InputOrder).unwrap();
        assert_eq!(out.schedule.num_rounds(), 1);
        out.schedule.verify(&topo, &set).unwrap();
    }

    #[test]
    fn arbitrary_total_exchange_pattern() {
        // A "shuffle": PE i sends to PE (i + n/2) mod n — heavily crossing.
        let n = 16;
        let topo = CstTopology::with_leaves(n);
        // Keep endpoint-uniqueness: pair each source i < n/2 with dest
        // i + n/2 (right-oriented but mutually crossing on the root link).
        let pairs: Vec<(usize, usize)> = (0..n / 2).map(|i| (i, i + n / 2)).collect();
        let set = CommSet::from_pairs(n, &pairs);
        let out = run_arbitrary(&topo, &set, ScanOrder::InputOrder).unwrap();
        // all 8 cross the root upward: 8 rounds, the width
        assert_eq!(out.schedule.num_rounds(), n / 2);
        assert_eq!(cst_comm::width_on_topology(&topo, &set) as usize, n / 2);
        out.schedule.verify(&topo, &set).unwrap();
    }

    #[test]
    fn empty_set_empty_schedule() {
        let topo = CstTopology::with_leaves(8);
        let out = run(&topo, &CommSet::empty(8), ScanOrder::OutermostFirst).unwrap();
        assert_eq!(out.schedule.num_rounds(), 0);
    }
}
