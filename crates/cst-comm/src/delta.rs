//! PE-level deltas: small mutations to a communication set.
//!
//! [`PeChange`] is the drift vocabulary of request streams: stream
//! replay (`cst-tools stream`) and the `bench-serve` soak evolve their
//! working sets with it, and every drifted set is routed from scratch.
//!
//! A change is validated against the *structural* invariants of
//! [`CommSet::new`] (valid leaves, distinct endpoints, no PE reuse) but
//! **not** against orientation or well-nestedness: those are properties
//! of the whole set, and a chain of deltas may pass through a
//! non-schedulable state on its way to a schedulable one. Schedulers
//! re-validate at routing time, exactly as they do for fresh sets.

use crate::communication::Communication;
use crate::set::CommSet;
use cst_core::{CstError, LeafId};

/// One PE-level mutation of a communication set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeChange {
    /// Add the communication `source -> dest`. Both leaves must be idle.
    Attach { source: LeafId, dest: LeafId },
    /// Remove the communication whose source is `source` (sources are
    /// unique, so this names at most one communication).
    Detach { source: LeafId },
}

impl PeChange {
    /// Convenience literal constructor for attaches.
    pub fn attach(source: usize, dest: usize) -> PeChange {
        PeChange::Attach { source: LeafId(source), dest: LeafId(dest) }
    }

    /// Convenience literal constructor for detaches.
    pub fn detach(source: usize) -> PeChange {
        PeChange::Detach { source: LeafId(source) }
    }
}

impl core::fmt::Display for PeChange {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PeChange::Attach { source, dest } => write!(f, "attach {source}->{dest}"),
            PeChange::Detach { source } => write!(f, "detach {source}"),
        }
    }
}

impl CommSet {
    /// Apply one delta, returning the two endpoints of the communication
    /// that was added or removed: the leaves the change touched.
    ///
    /// On error the set is unchanged. Detaching shifts the ids of later
    /// communications down by one (ids are positional), identical to
    /// building the mutated set from scratch.
    pub fn apply_change(&mut self, change: PeChange) -> Result<[LeafId; 2], CstError> {
        match change {
            PeChange::Attach { source, dest } => {
                for leaf in [source, dest] {
                    if leaf.0 >= self.num_leaves() {
                        return Err(CstError::LeafOutOfRange {
                            leaf,
                            num_leaves: self.num_leaves(),
                        });
                    }
                }
                if source == dest {
                    return Err(CstError::SelfCommunication { leaf: source });
                }
                for c in self.comms() {
                    for leaf in [source, dest] {
                        if c.source == leaf || c.dest == leaf {
                            return Err(CstError::EndpointReused { leaf });
                        }
                    }
                }
                self.push_unchecked(Communication { source, dest });
                Ok([source, dest])
            }
            PeChange::Detach { source } => {
                let id = self
                    .comm_of_source(source)
                    .ok_or(CstError::NoSuchCommunication { source })?;
                let c = self.remove_unchecked(id);
                Ok([c.source, c.dest])
            }
        }
    }

    /// Apply a chain of deltas in order, collecting every touched leaf.
    /// Stops at (and returns) the first failing change; prior changes
    /// stay applied, mirroring how a streaming client would observe a
    /// partially accepted batch.
    pub fn apply_changes(
        &mut self,
        changes: &[PeChange],
        touched: &mut Vec<LeafId>,
    ) -> Result<(), CstError> {
        for &ch in changes {
            touched.extend(self.apply_change(ch)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_matches_from_scratch() {
        let mut set = CommSet::from_pairs(8, &[(0, 3)]);
        let touched = set.apply_change(PeChange::attach(4, 7)).unwrap();
        assert_eq!(touched, [LeafId(4), LeafId(7)]);
        assert_eq!(set, CommSet::from_pairs(8, &[(0, 3), (4, 7)]));
        assert_eq!(set.fingerprint(), CommSet::from_pairs(8, &[(0, 3), (4, 7)]).fingerprint());
    }

    #[test]
    fn detach_shifts_ids_like_rebuild() {
        let mut set = CommSet::from_pairs(8, &[(0, 3), (4, 5), (6, 7)]);
        let touched = set.apply_change(PeChange::detach(4)).unwrap();
        assert_eq!(touched, [LeafId(4), LeafId(5)]);
        assert_eq!(set, CommSet::from_pairs(8, &[(0, 3), (6, 7)]));
    }

    #[test]
    fn invalid_changes_leave_set_untouched() {
        let mut set = CommSet::from_pairs(8, &[(0, 3)]);
        let before = set.clone();
        assert!(matches!(
            set.apply_change(PeChange::attach(0, 5)),
            Err(CstError::EndpointReused { leaf }) if leaf.0 == 0
        ));
        assert!(matches!(
            set.apply_change(PeChange::attach(5, 3)),
            Err(CstError::EndpointReused { leaf }) if leaf.0 == 3
        ));
        assert!(matches!(
            set.apply_change(PeChange::attach(5, 5)),
            Err(CstError::SelfCommunication { .. })
        ));
        assert!(matches!(
            set.apply_change(PeChange::attach(5, 9)),
            Err(CstError::LeafOutOfRange { .. })
        ));
        assert!(matches!(
            set.apply_change(PeChange::detach(3)),
            Err(CstError::NoSuchCommunication { source }) if source.0 == 3
        ));
        assert_eq!(set, before);
    }

    #[test]
    fn chain_accumulates_touched_leaves() {
        let mut set = CommSet::from_pairs(8, &[(0, 1)]);
        let mut touched = Vec::new();
        set.apply_changes(
            &[PeChange::attach(2, 5), PeChange::detach(0), PeChange::attach(6, 7)],
            &mut touched,
        )
        .unwrap();
        assert_eq!(set, CommSet::from_pairs(8, &[(2, 5), (6, 7)]));
        assert_eq!(
            touched,
            vec![LeafId(2), LeafId(5), LeafId(0), LeafId(1), LeafId(6), LeafId(7)]
        );
        // Failed tail: prior changes stay applied.
        let err = set.apply_changes(
            &[PeChange::detach(6), PeChange::detach(6)],
            &mut touched,
        );
        assert!(matches!(err, Err(CstError::NoSuchCommunication { .. })));
        assert_eq!(set, CommSet::from_pairs(8, &[(2, 5)]));
    }

    #[test]
    fn deltas_can_cross_non_nested_states() {
        // (0,4) then (2,6) cross — a delta chain may pass through this.
        let mut set = CommSet::from_pairs(8, &[(0, 4)]);
        set.apply_change(PeChange::attach(2, 6)).unwrap();
        assert!(!set.is_well_nested());
        set.apply_change(PeChange::detach(0)).unwrap();
        assert!(set.is_well_nested());
    }
}
