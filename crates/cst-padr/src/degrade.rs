//! Degradation-aware scheduling: partition a set against a hardware
//! [`FaultMask`] and repair schedules for half-duplex edges.
//!
//! Two passes compose into the engine's masked routing
//! (`cst_engine::EngineCtx::route_masked`):
//!
//! 1. [`partition_by_mask`] — splits a set into the *survivors* (routable
//!    under the mask) and the *drops* (their unique path crosses a dead
//!    switch or dead directed link). The side restriction of the 3-sided
//!    switch makes the leaf-to-leaf path unique, so this classification is
//!    exact: a dropped communication is provably unroutable (asserted by
//!    the differential oracle test and `cst-check`'s CST102).
//! 2. [`split_half_duplex`] — rewrites a finished schedule so no round
//!    uses both directions of a degraded edge. Degraded edges do not
//!    change *whether* a communication can route, only *when*: the repair
//!    is temporal rerouting — the offending round is split, evicted
//!    circuits move to an overflow round stamped immediately after it.
//!
//! Both passes run only on masked requests; the fault-free warm path never
//! enters this module (the allocation gate stays at zero).

use cst_comm::{CommId, CommSet, Round, Schedule, SchedulePool};
use cst_core::{CircuitTable, CstError, CstTopology, FaultCause, FaultMask, NodeId};

/// Outcome of [`partition_by_mask`].
#[derive(Clone, Debug)]
pub struct MaskPartition {
    /// The routable communications as a standalone set (ids renumbered
    /// `0..survivors.len()`).
    pub survivors: CommSet,
    /// `original[i]` is the id the `i`-th survivor had in the input set.
    pub original: Vec<CommId>,
    /// Unroutable communications with the first fault on their path.
    pub drops: Vec<(CommId, FaultCause)>,
}

impl MaskPartition {
    /// True when the mask dropped nothing.
    pub fn is_lossless(&self) -> bool {
        self.drops.is_empty()
    }
}

/// Classify every communication of `set` against `mask`: survivors keep
/// their relative order in a fresh set, drops carry the blocking fault.
///
/// The partition is exhaustive and exclusive — `survivors.len() +
/// drops.len() == set.len()` — which is what makes the engine's
/// `routed + dropped == |set|` invariant hold by construction.
pub fn partition_by_mask(topo: &CstTopology, set: &CommSet, mask: &FaultMask) -> MaskPartition {
    let mut survivors = Vec::with_capacity(set.len());
    let mut original = Vec::with_capacity(set.len());
    let mut drops = Vec::new();
    for (id, c) in set.iter() {
        match mask.blocking_fault(topo, c.source, c.dest) {
            None => {
                survivors.push(*c);
                original.push(id);
            }
            Some(cause) => drops.push((id, cause)),
        }
    }
    let survivors = CommSet::new(set.num_leaves(), survivors)
        .expect("survivor subset of a valid set stays valid");
    MaskPartition { survivors, original, drops }
}

/// One temporal reroute performed by [`split_half_duplex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reroute {
    /// The communication that moved to an overflow round.
    pub comm: CommId,
    /// Child endpoint of the degraded edge that forced the move.
    pub edge: NodeId,
}

/// Statistics of one [`split_half_duplex`] pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Communications moved out of their original round, with the edge
    /// that forced each move.
    pub reroutes: Vec<Reroute>,
    /// Rounds added by splitting.
    pub extra_rounds: usize,
}

/// Direction bitmask per degraded edge within one (sub-)round.
const USED_UP: u8 = 0b01;
const USED_DOWN: u8 = 0b10;

/// Rewrite `schedule` so that no round uses both directions of an edge
/// degraded in `mask`. Rounds that already respect every degraded edge are
/// kept untouched (bytes included); an offending round is split greedily:
/// circuits are re-added in round order, and any circuit whose degraded
/// edge is already driven in the opposite direction moves to an overflow
/// round placed directly after, and each sub-round's table is rewritten
/// by `table`. Round ids in `schedule` must refer to `set`.
///
/// A single original round can split into at most `1 +
/// mask.degraded_edges().len()` sub-rounds, and in practice two: within a
/// compatible round each directed link is used at most once, so per
/// degraded edge at most two circuits (one per direction) can collide.
///
/// Cost: one walk of every circuit per round to find the offending rounds
/// (O(Σ path length), independent of how many edges are degraded), plus
/// the repack of the rounds that offend.
pub fn split_half_duplex(
    topo: &CstTopology,
    set: &CommSet,
    mask: &FaultMask,
    schedule: Schedule,
    table: &mut CircuitTable,
    pool: &mut SchedulePool,
) -> Result<(Schedule, SplitStats), CstError> {
    debug_assert!(mask.has_degraded());
    let mut stats = SplitStats::default();
    // Direction usage per degraded edge, indexed by child node id; reset
    // per sub-round via the touched list.
    let mut dir = vec![0u8; topo.node_table_len()];
    let mut touched: Vec<usize> = Vec::new();
    let mut out = pool.take_schedule();

    for round in schedule.rounds {
        if !round_violates(topo, set, mask, &round, &mut dir, &mut touched) {
            out.rounds.push(round);
            continue;
        }
        // Greedy repack: sub_rounds[i] collects the comm ids of the i-th
        // sub-round; the first keeps as many circuits as fit.
        let mut sub_rounds: Vec<Vec<CommId>> = vec![Vec::new()];
        let mut sub_dirs: Vec<Vec<(NodeId, u8)>> = vec![Vec::new()];
        for &id in &round.comms {
            let comm = set.get(id).ok_or_else(|| unknown_comm(id))?;
            // Collect this circuit's degraded-edge uses.
            touched.clear();
            for link in topo.path_links(comm.source, comm.dest) {
                if mask.edge_degraded(link.child) {
                    let bit = if link.up { USED_UP } else { USED_DOWN };
                    dir[link.child.0] |= bit;
                    touched.push(link.child.0);
                }
            }
            if touched.is_empty() {
                sub_rounds[0].push(id);
                continue;
            }
            let uses: Vec<(NodeId, u8)> = touched
                .iter()
                .map(|&n| (NodeId(n), std::mem::take(&mut dir[n])))
                .collect();
            let slot = sub_dirs.iter().position(|existing| {
                uses.iter().all(|&(n, bits)| {
                    existing
                        .iter()
                        .all(|&(en, ebits)| en != n || (ebits | bits) != (USED_UP | USED_DOWN))
                })
            });
            let slot = match slot {
                Some(s) => s,
                None => {
                    sub_rounds.push(Vec::new());
                    sub_dirs.push(Vec::new());
                    sub_dirs.len() - 1
                }
            };
            if slot > 0 {
                // Attribution: the first degraded edge that kept the
                // circuit out of the first sub-round.
                let edge = uses
                    .iter()
                    .find(|&&(n, bits)| {
                        sub_dirs[0]
                            .iter()
                            .any(|&(en, ebits)| en == n && (ebits | bits) == (USED_UP | USED_DOWN))
                    })
                    .map(|&(n, _)| n)
                    .unwrap_or(uses[0].0);
                stats.reroutes.push(Reroute { comm: id, edge });
            }
            for &(n, bits) in &uses {
                match sub_dirs[slot].iter_mut().find(|(en, _)| *en == n) {
                    Some(entry) => entry.1 |= bits,
                    None => sub_dirs[slot].push((n, bits)),
                }
            }
            sub_rounds[slot].push(id);
        }
        stats.extra_rounds += sub_rounds.len() - 1;
        pool.put_round(round);
        for ids in sub_rounds {
            let mut sub = pool.take_round();
            // Every id was looked up when the round was repacked.
            let pairs = ids.iter().filter_map(|&id| set.get(id)).map(|c| (c.source, c.dest));
            table.write(topo, pairs, &mut sub.configs)?;
            sub.comms = ids;
            out.rounds.push(sub);
        }
    }
    Ok((out, stats))
}

fn unknown_comm(id: CommId) -> CstError {
    CstError::ProtocolViolation {
        node: NodeId(1),
        detail: format!("schedule references unknown communication {}", id.0),
    }
}

/// Does `round` use both directions of any edge degraded in `mask`?
///
/// One walk per circuit, O(Σ path length) whatever the number of
/// degraded edges: direction bits accumulate in `dir` (indexed by child
/// node id) and the walk stops at the first edge holding both. `dir` is
/// all zero on entry and is cleared through `touched` before returning.
fn round_violates(
    topo: &CstTopology,
    set: &CommSet,
    mask: &FaultMask,
    round: &Round,
    dir: &mut [u8],
    touched: &mut Vec<usize>,
) -> bool {
    touched.clear();
    let mut violates = false;
    'circuits: for &id in &round.comms {
        let Some(comm) = set.get(id) else { continue };
        for link in topo.path_links(comm.source, comm.dest) {
            if !mask.edge_degraded(link.child) {
                continue;
            }
            let n = link.child.0;
            if dir[n] == 0 {
                touched.push(n);
            }
            dir[n] |= if link.up { USED_UP } else { USED_DOWN };
            if dir[n] == USED_UP | USED_DOWN {
                violates = true;
                break 'circuits;
            }
        }
    }
    for &n in touched.iter() {
        dir[n] = 0;
    }
    touched.clear();
    violates
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_comm::SchedulePool;

    fn schedule_csa(topo: &CstTopology, set: &CommSet) -> Schedule {
        let mut csa = crate::CsaScratch::new();
        let mut pool = SchedulePool::new();
        csa.schedule(topo, set, &mut pool).unwrap().schedule
    }

    #[test]
    fn partition_classifies_exactly() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 2), (4, 5)]);
        let mut mask = FaultMask::empty(&topo);
        mask.kill_switch(NodeId(1)); // root: blocks only the spanning pair
        let part = partition_by_mask(&topo, &set, &mask);
        assert_eq!(part.survivors.len(), 2);
        assert_eq!(part.original, vec![CommId(1), CommId(2)]);
        assert_eq!(part.drops.len(), 1);
        assert_eq!(part.drops[0].0, CommId(0));
        assert!(matches!(part.drops[0].1, FaultCause::DeadSwitch(NodeId(1))));
        assert_eq!(part.survivors.len() + part.drops.len(), set.len());
    }

    #[test]
    fn partition_with_empty_mask_is_lossless() {
        let topo = CstTopology::with_leaves(16);
        let set = CommSet::from_pairs(16, &[(0, 15), (1, 14), (2, 13)]);
        let part = partition_by_mask(&topo, &set, &FaultMask::empty(&topo));
        assert!(part.is_lossless());
        assert_eq!(part.survivors.len(), 3);
        assert_eq!(part.original, vec![CommId(0), CommId(1), CommId(2)]);
    }

    #[test]
    fn split_leaves_conforming_schedules_untouched() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6)]);
        let sched = schedule_csa(&topo, &set);
        let mut mask = FaultMask::empty(&topo);
        mask.degrade_edge(NodeId(4));
        let mut pool = SchedulePool::new();
        let before = sched.clone();
        let (after, stats) =
            split_half_duplex(&topo, &set, &mask, sched, &mut CircuitTable::new(), &mut pool)
                .unwrap();
        assert_eq!(after, before, "no round drives n4's edge both ways");
        assert!(stats.reroutes.is_empty());
        assert_eq!(stats.extra_rounds, 0);
    }

    #[test]
    fn split_separates_opposite_directions() {
        let topo = CstTopology::with_leaves(8);
        // (0,2) climbs n5's edge down... no: (0,2): up n8, n4; down n5, n10.
        // (3,6) goes up n11, n5; down n3, n13. Both touch the edge above n5:
        // (0,2) downward, (3,6) upward — compatible normally, conflicting
        // once the edge is half-duplex.
        let set = CommSet::from_pairs(8, &[(0, 2), (3, 6)]);
        let sched = schedule_csa(&topo, &set);
        assert_eq!(sched.num_rounds(), 1, "precondition: one shared round");
        let mut mask = FaultMask::empty(&topo);
        mask.degrade_edge(NodeId(5));
        let mut pool = SchedulePool::new();
        let (after, stats) =
            split_half_duplex(&topo, &set, &mask, sched, &mut CircuitTable::new(), &mut pool)
                .unwrap();
        assert_eq!(after.num_rounds(), 2);
        assert_eq!(stats.extra_rounds, 1);
        assert_eq!(stats.reroutes.len(), 1);
        assert_eq!(stats.reroutes[0].edge, NodeId(5));
        // Every communication still scheduled exactly once, rounds verify.
        after.verify(&topo, &set).unwrap();
        // And the repaired schedule respects the degraded edge.
        for round in &after.rounds {
            let mut seen = 0u8;
            for &id in &round.comms {
                let c = set.get(id).unwrap();
                for link in topo.path_links(c.source, c.dest) {
                    if link.child == NodeId(5) {
                        seen |= if link.up { USED_UP } else { USED_DOWN };
                    }
                }
            }
            assert_ne!(seen, USED_UP | USED_DOWN);
        }
    }

    #[test]
    fn split_handles_multiple_edges_and_rounds() {
        let topo = CstTopology::with_leaves(16);
        let set = CommSet::from_pairs(
            16,
            &[(0, 4), (5, 2), (8, 12), (13, 10), (6, 7), (14, 15)],
        );
        // Opposite-direction pairs share rounds: {0, 1}, {2, 3}, {4, 5}.
        let endpoints = |id| set.get(id).map(|c| (c.source, c.dest));
        let rounds = [[0, 1], [2, 3], [4, 5]].map(|r| r.map(CommId));
        let sched = Schedule::from_partition(&topo, endpoints, rounds).unwrap();
        sched.verify(&topo, &set).unwrap();

        let mut mask = FaultMask::empty(&topo);
        // (0,4)/(5,2) share the edge above n5 in opposite directions;
        // (8,12)/(13,10) share the edge above n6 likewise.
        mask.degrade_edge(NodeId(5));
        mask.degrade_edge(NodeId(6));
        let mut pool = SchedulePool::new();
        let (after, stats) =
            split_half_duplex(&topo, &set, &mask, sched, &mut CircuitTable::new(), &mut pool)
                .unwrap();
        assert_eq!(stats.extra_rounds, 2);
        assert_eq!(after.num_rounds(), 5);
        after.verify(&topo, &set).unwrap();
        assert_eq!(stats.reroutes.len(), 2);
    }
}
