//! Composite-schedule assembly and per-layer reconstruction.
//!
//! A composite schedule starts as the concatenation of the per-layer
//! schedules in layer order; its `CommId`s refer to the *input pair ids*
//! of the general set, remapped from each layer's local ids via
//! `layers[j]`. Assembly runs on every engine request — including warm
//! cache hits — so [`append_layer`] moves the layer's round shells
//! instead of copying them and stays off the allocator once the
//! composite's round list is sized (the warm general-hit gate in
//! `tests/alloc_gate.rs`). [`crate::Packer`] then re-times the
//! concatenation; [`layer_schedule`] rebuilds any one layer's own
//! schedule from the provenance the packer records.

use cst_comm::{CommId, Round, Schedule};
use cst_core::{CircuitTable, CstTopology, GeneralCommSet};

/// Move one routed layer's rounds onto the end of `composite`, remapping
/// layer-local `CommId(k)` to input pair id `ids[k]`. `layer` is left
/// with no rounds; its shell can go back to the pool.
pub fn append_layer(composite: &mut Schedule, ids: &[usize], layer: &mut Schedule) {
    let start = composite.rounds.len();
    composite.rounds.append(&mut layer.rounds);
    for round in &mut composite.rounds[start..] {
        for id in &mut round.comms {
            *id = CommId(ids[id.0]);
        }
    }
}

/// Rebuild layer `j`'s own schedule from provenance: local pair `k`
/// (input pair `ids[k]`) runs in round `layer_round[ids[k]]`, members
/// in local id order, each round's switch settings the union of its
/// members' circuits. `rounds` is the layer's standalone round count;
/// the result is stretched past it rather than dropping a pair whose
/// recorded round lies beyond, so an auditor sees the discrepancy. A
/// round whose circuits collide keeps all its members, and its table
/// every member's circuit that fits beside the earlier ones: the
/// collision is the auditor's finding, not a reason to stop rebuilding.
pub fn layer_schedule(
    topo: &CstTopology,
    gset: &GeneralCommSet,
    ids: &[usize],
    layer_round: &[u32],
    rounds: usize,
) -> Schedule {
    let round_of = |i: usize| layer_round.get(i).map_or(0, |&r| r as usize);
    let len = ids.iter().map(|&i| round_of(i) + 1).max().unwrap_or(0).max(rounds);
    let mut out = Schedule { rounds: (0..len).map(|_| Round::default()).collect() };
    for (k, &i) in ids.iter().enumerate() {
        out.rounds[round_of(i)].comms.push(CommId(k));
    }
    let pair = |&CommId(k): &CommId| gset.pairs()[ids[k]];
    let (mut table, mut fits) = (CircuitTable::new(), Vec::new());
    for round in &mut out.rounds {
        if table.write(topo, round.comms.iter().map(pair), &mut round.configs).is_ok() {
            continue;
        }
        fits.clear();
        for id in &round.comms {
            fits.push(pair(id));
            if table.write(topo, fits.iter().copied(), &mut round.configs).is_err() {
                fits.pop();
            }
        }
        // Every prefix kept in `fits` was written whole above.
        let _ = table.write(topo, fits.iter().copied(), &mut round.configs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_core::RoundConfigs;

    fn round_with(ids: &[usize]) -> Round {
        Round { comms: ids.iter().map(|&i| CommId(i)).collect(), configs: RoundConfigs::new() }
    }

    #[test]
    fn append_remaps_and_moves_rounds() {
        let mut layer = Schedule { rounds: vec![round_with(&[0, 1]), round_with(&[2])] };
        let ids = [5, 3, 8];
        let mut composite = Schedule::default();
        append_layer(&mut composite, &ids, &mut layer);
        assert!(layer.rounds.is_empty(), "the layer's shells moved");
        assert_eq!(composite.rounds[0].comms, vec![CommId(5), CommId(3)]);
        assert_eq!(composite.rounds[1].comms, vec![CommId(8)]);
    }

    #[test]
    fn layer_schedule_rebuilds_rounds_and_configs() {
        let topo = CstTopology::with_leaves(8);
        // Input pairs 0 = (0,7), 1 = (1,6), 2 = (2,3); the layer lists
        // them as local ids [1, 0, 2].
        let gset = GeneralCommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 3)]);
        let ids = [1, 0, 2];
        let layer_round = [0, 1, 0];
        let layer = layer_schedule(&topo, &gset, &ids, &layer_round, 2);
        assert_eq!(layer.rounds.len(), 2);
        assert_eq!(layer.rounds[0].comms, vec![CommId(1), CommId(2)]);
        assert_eq!(layer.rounds[1].comms, vec![CommId(0)]);
        let want =
            cst_core::Circuit::right_oriented(&topo, cst_core::LeafId(1), cst_core::LeafId(6));
        let mut got: Vec<_> = layer.rounds[1].configs.requirements().collect();
        let mut expect = want.settings.clone();
        got.sort_unstable_by_key(|&(n, c)| (n.0, c.from.index(), c.to.index()));
        expect.sort_unstable_by_key(|&(n, c)| (n.0, c.from.index(), c.to.index()));
        assert_eq!(got, expect);
    }

    #[test]
    fn layer_schedule_keeps_colliding_members() {
        let topo = CstTopology::with_leaves(8);
        // (0,7) and (1,6) both drive the root's r_o: a bad provenance puts
        // them in one round. Both stay members; the table holds (0,7)'s
        // circuit and (2,3)'s, which fits beside it.
        let gset = GeneralCommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 3)]);
        let layer = layer_schedule(&topo, &gset, &[0, 1, 2], &[0, 0, 0], 1);
        assert_eq!(layer.rounds[0].comms, vec![CommId(0), CommId(1), CommId(2)]);
        let mut want = RoundConfigs::new();
        let pairs = [(0, 7), (2, 3)].map(|(s, d)| (cst_core::LeafId(s), cst_core::LeafId(d)));
        CircuitTable::new().write(&topo, pairs, &mut want).unwrap();
        assert_eq!(layer.rounds[0].configs, want);
    }

    #[test]
    fn layer_schedule_keeps_out_of_range_provenance() {
        let topo = CstTopology::with_leaves(8);
        let gset = GeneralCommSet::from_pairs(8, &[(0, 1)]);
        let layer = layer_schedule(&topo, &gset, &[0], &[3], 1);
        assert_eq!(layer.rounds.len(), 4, "a pair recorded past the layer is kept");
        assert_eq!(layer.rounds[3].comms, vec![CommId(0)]);
    }
}
