//! The most general entry point: schedule **any** valid communication set
//! (mixed orientations, crossings allowed) with the power-aware CSA.
//!
//! Composition of the two extensions the paper sketches (§2.1 orientation
//! decomposition, §6 other patterns):
//!
//! 1. split into right- and left-oriented halves;
//! 2. layer each half into crossing-free (well-nested) subsets;
//! 3. CSA each layer (the left half on the mirrored leaf line, below);
//! 4. concatenate all rounds.
//!
//! Rounds = `Σ_layers w` per half; per-switch power = O(total layers).
//! This is the one composition of oriented halves: the engine's
//! `general` and `general-merged` routers run it after their
//! well-nestedness check, where each half is one layer and so one CSA
//! run.
//!
//! The left half (paper §2.1: "Dealing with right oriented sets can be
//! adjusted easily to left oriented sets") is scheduled by mirroring the
//! leaf line: a left-oriented communication `(s, d)` with `s > d` becomes
//! the right-oriented `(n−1−s, n−1−d)` on the reflected tree, which is
//! again a CST of the same shape. The CSA run on the mirrored set chooses
//! the left half's rounds. Reflection maps each mirrored circuit onto the
//! left pair's own circuit, and a pair has only one circuit, so each
//! round's table is written from the left pairs' own directed circuits by
//! [`CircuitTable`](cst_core::CircuitTable), the writer every
//! partition-built table goes through.
//!
//! Crossing pairs of opposite orientation can collide on `p_o`/`l_o`/`r_o`
//! ports, so the halves cannot simply share rounds (`w_right + w_left`
//! rounds on a well-nested set, at most 2× optimal); the engine's
//! `general-merged` router re-times the concatenation with the composite
//! packer, which moves communications between rounds only where their
//! directed links and PEs are free.
//!
//! Cost: the two layerings, one CSA run per layer, and one copy of each
//! round (made by [`layers::schedule_layered_in`]; this pass moves the
//! rounds and remaps their ids in place, and rewrites the left half's
//! tables in their own buffers).

use crate::layers;
use crate::scheduler::{CsaScratch, CsaTimings};
use cst_comm::{CommSet, Schedule, SchedulePool};
use cst_core::{CstError, CstTopology, PowerReport};

/// Outcome of universal scheduling.
#[derive(Clone, Debug)]
pub struct UniversalOutcome {
    /// Combined schedule; ids refer to the input set.
    pub schedule: Schedule,
    /// Layers in the right-oriented half.
    pub right_layers: usize,
    /// Rounds of the right-oriented half: the schedule's first
    /// `right_rounds` rounds; the left half's follow.
    pub right_rounds: usize,
    /// Layers in the left-oriented half.
    pub left_layers: usize,
    /// Phase timings summed over every per-layer CSA run.
    pub timings: CsaTimings,
    /// The CSA's own power report when the combined schedule is exactly
    /// one CSA run on the unmirrored tree (one right-oriented layer, no
    /// left half); `None` when the schedule still needs metering.
    pub csa_power: Option<PowerReport>,
}

impl UniversalOutcome {
    /// Total rounds.
    pub fn rounds(&self) -> usize {
        self.schedule.num_rounds()
    }
}

/// Schedule any valid set, reusing an engine's CSA scratch and pool
/// for the per-layer CSA runs in both halves.
///
/// # Examples
///
/// ```
/// use cst_core::CstTopology;
/// use cst_comm::{CommSet, SchedulePool};
/// use cst_padr::CsaScratch;
///
/// let topo = CstTopology::with_leaves(16);
/// // mixed orientations AND a crossing pair — nothing the strict CSA
/// // entry point would accept:
/// let set = CommSet::from_pairs(16, &[(0, 4), (2, 6), (15, 9)]);
/// let (mut csa, mut pool) = (CsaScratch::new(), SchedulePool::new());
/// let out = cst_padr::schedule_any_in(&mut csa, &mut pool, &topo, &set).unwrap();
/// out.schedule.verify(&topo, &set).unwrap();
/// assert_eq!(out.right_layers, 2); // the crossing pair needs two layers
/// assert_eq!(out.left_layers, 1);
/// ```
pub fn schedule_any_in(
    csa: &mut CsaScratch,
    pool: &mut SchedulePool,
    topo: &CstTopology,
    set: &CommSet,
) -> Result<UniversalOutcome, CstError> {
    let (right_half, left_half) = set.decompose();
    let mut schedule = Schedule::default();
    let mut timings = CsaTimings::default();

    let mut right_layers = 0;
    let mut right_rounds = 0;
    let mut csa_power = None;
    if !right_half.set.is_empty() {
        let out = layers::schedule_layered_in(csa, pool, topo, &right_half.set)?;
        right_layers = out.num_layers();
        timings += out.timings;
        csa_power = out.csa_power;
        schedule = out.schedule;
        right_rounds = schedule.num_rounds();
        for round in &mut schedule.rounds {
            for id in &mut round.comms {
                *id = right_half.original[id.0];
            }
        }
    }

    let mut left_layers = 0;
    if !left_half.set.is_empty() {
        // The mirrored run chooses the rounds; each table is then written
        // from the left pairs' own circuits.
        let mirrored = left_half.set.mirrored();
        let out = layers::schedule_layered_in(csa, pool, topo, &mirrored)?;
        left_layers = out.num_layers();
        timings += out.timings;
        // A mirrored run's own report is unverified against the left
        // half's schedule: leave the composite to be metered.
        csa_power = None;
        let left = left_half.set.comms();
        for mut round in out.schedule.rounds {
            let pairs = round.comms.iter().map(|id| (left[id.0].source, left[id.0].dest));
            csa.table.write(topo, pairs, &mut round.configs)?;
            for id in &mut round.comms {
                *id = left_half.original[id.0];
            }
            schedule.rounds.push(round);
        }
    }

    Ok(UniversalOutcome { schedule, right_layers, right_rounds, left_layers, timings, csa_power })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule_any(topo: &CstTopology, set: &CommSet) -> Result<UniversalOutcome, CstError> {
        schedule_any_in(&mut CsaScratch::new(), &mut SchedulePool::new(), topo, set)
    }

    #[test]
    fn well_nested_right_set_passthrough() {
        let topo = CstTopology::with_leaves(16);
        let set = cst_comm::examples::paper_figure_2();
        let out = schedule_any(&topo, &set).unwrap();
        assert_eq!(out.right_layers, 1);
        assert_eq!(out.left_layers, 0);
        assert_eq!(out.rounds() as u32, cst_comm::width_on_topology(&topo, &set));
        out.schedule.verify(&topo, &set).unwrap();
    }

    #[test]
    fn fully_mixed_crossing_set() {
        let topo = CstTopology::with_leaves(16);
        // right crossing pair, left crossing pair
        let set = CommSet::from_pairs(16, &[(0, 4), (2, 6), (15, 11), (13, 9)]);
        let out = schedule_any(&topo, &set).unwrap();
        assert_eq!(out.right_layers, 2);
        assert_eq!(out.left_layers, 2);
        assert_eq!(out.rounds(), 4);
        out.schedule.verify(&topo, &set).unwrap();
    }

    #[test]
    fn every_comm_scheduled_exactly_once() {
        let topo = CstTopology::with_leaves(32);
        let set = CommSet::from_pairs(
            32,
            &[(0, 9), (3, 12), (20, 14), (25, 17), (30, 31), (28, 27), (1, 2)],
        );
        let out = schedule_any(&topo, &set).unwrap();
        let mut ids: Vec<usize> = out.schedule.scheduled_ids().map(|c| c.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..set.len()).collect::<Vec<_>>());
        out.schedule.verify(&topo, &set).unwrap();
    }

    #[test]
    fn empty_set() {
        let topo = CstTopology::with_leaves(8);
        let out = schedule_any(&topo, &CommSet::empty(8)).unwrap();
        assert_eq!(out.rounds(), 0);
    }
}
