//! Compatibility checking for rounds of circuits.
//!
//! A set of communications can be performed simultaneously iff no two of
//! them use the same tree edge in the same direction (paper §1).
//! [`MergedRound`] checks that property circuit by circuit and merges the
//! round's per-switch configuration. It is the verifier's own merge
//! (`cst_comm::check::check_rounds`), kept independent of
//! [`crate::CircuitTable`], which writes every table a scheduler builds
//! from a round partition.

use crate::error::CstError;
use crate::link::LinkOccupancy;
use crate::node::NodeId;
use crate::path::Circuit;
use crate::round::{ConfigArena, RoundConfigs};
use crate::switch::SwitchConfig;
use crate::topology::CstTopology;

/// The merged state of one scheduling round: link occupancy plus every
/// switch's required configuration, both backed by dense preallocated
/// tables so one instance can be reused across all rounds of a schedule
/// (reset is O(touched), not O(N)).
#[derive(Clone, Debug, Default)]
pub struct MergedRound {
    occ: LinkOccupancy,
    arena: ConfigArena,
}

impl MergedRound {
    /// An empty reusable round for `topo`.
    pub fn new(topo: &CstTopology) -> MergedRound {
        MergedRound {
            occ: LinkOccupancy::new(topo),
            arena: ConfigArena::new(topo),
        }
    }

    /// Re-target a (possibly default-constructed) round to `topo`,
    /// clearing any prior state but keeping allocated capacity where
    /// possible. Lets one scratch instance serve requests on trees of
    /// different sizes.
    pub fn reset_for(&mut self, topo: &CstTopology) {
        self.occ.reset_for(topo);
        self.arena.reset_for(topo);
    }

    /// Add one circuit, claiming its links and merging its settings.
    pub fn add(&mut self, c: &Circuit) -> Result<(), CstError> {
        for &l in &c.links {
            if !self.occ.claim(l) {
                return Err(CstError::LinkConflict { node: l.child, upward: l.up });
            }
        }
        for &(node, conn) in &c.settings {
            self.arena.set(node, conn)?;
        }
        Ok(())
    }

    /// Configuration required at `node`, O(1).
    #[inline]
    pub fn get(&self, node: NodeId) -> Option<&SwitchConfig> {
        self.arena.get(node)
    }

    /// Reset for the next round without reallocating.
    pub fn clear(&mut self) {
        self.occ.reset();
        self.arena.clear();
    }

    /// Extract the round's configurations as a compact sorted table and
    /// reset the configuration side (link occupancy is reset too).
    pub fn take_configs(&mut self) -> RoundConfigs {
        self.occ.reset();
        self.arena.take_round()
    }

    /// Iterate touched `(switch, configuration)` pairs in touch order
    /// (unsorted), O(touched) and allocation-free.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &SwitchConfig)> + '_ {
        self.arena.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LeafId;

    fn circ(topo: &CstTopology, s: usize, d: usize) -> Circuit {
        Circuit::right_oriented(topo, LeafId(s), LeafId(d))
    }

    /// Merge `pairs` into a fresh round.
    fn merged(topo: &CstTopology, pairs: &[(usize, usize)]) -> Result<MergedRound, CstError> {
        let mut round = MergedRound::new(topo);
        for &(s, d) in pairs {
            round.add(&circ(topo, s, d))?;
        }
        Ok(round)
    }

    #[test]
    fn disjoint_intervals_are_compatible() {
        let t = CstTopology::with_leaves(16);
        assert!(merged(&t, &[(0, 3), (4, 9), (10, 15)]).is_ok());
    }

    #[test]
    fn nested_communications_conflict() {
        let t = CstTopology::with_leaves(16);
        // (0, 15) contains (1, 14): both need the upward link toward the
        // root on the left flank.
        assert!(merged(&t, &[(0, 15), (1, 14)]).is_err());
    }

    #[test]
    fn sibling_leaf_pairs_all_compatible() {
        let t = CstTopology::with_leaves(32);
        let pairs: Vec<_> = (0..16).map(|i| (2 * i, 2 * i + 1)).collect();
        let mut round = merged(&t, &pairs).unwrap();
        assert_eq!(round.iter().count(), 16);
        assert_eq!(round.take_configs().len(), 16);
    }

    #[test]
    fn conflict_error_names_link() {
        let t = CstTopology::with_leaves(8);
        let err = merged(&t, &[(0, 7), (1, 6)]).err().unwrap();
        assert!(matches!(err, CstError::LinkConflict { .. }));
    }

    #[test]
    fn chained_same_direction_conflicts_but_opposite_ok() {
        let t = CstTopology::with_leaves(8);
        // (0,4) and (3,7) overlap as intervals: both cross the root upward
        // on... (0,4): up-links via n4,n2; (3,7): up via n5,n2 — n2^ shared.
        assert!(merged(&t, &[(0, 4), (3, 7)]).is_err());
        // but (0,3) and (4,7) stay within disjoint subtrees
        assert!(merged(&t, &[(0, 3), (4, 7)]).is_ok());
    }

    #[test]
    fn reuse_across_rounds_resets_fully() {
        let t = CstTopology::with_leaves(8);
        let mut round = merged(&t, &[(0, 7)]).unwrap();
        assert!(round.get(NodeId::ROOT).is_some());
        round.clear();
        assert_eq!(round.iter().count(), 0);
        // the conflicting circuit now fits: the links were released
        round.add(&circ(&t, 1, 6)).unwrap();
        assert!(round.get(NodeId::ROOT).is_some());
    }
}
