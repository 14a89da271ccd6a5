//! The data-transfer phase: payload propagation over configured circuits
//! (paper Step 2.2: "PEs received [s, null] write their data to their
//! destinations").
//!
//! Signals are followed through the switches' internal connections exactly
//! as the data units would forward them; the side restriction guarantees
//! progress (a signal can never revisit a switch), which the hop guard
//! double-checks.

use bytes::Bytes;
use cst_core::{ConfigLookup, CstError, CstTopology, LeafId, Side};

/// One completed transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    pub source: LeafId,
    pub dest: LeafId,
    pub payload: Bytes,
    /// Switches traversed.
    pub hops: usize,
}

/// A configured tree ready to carry one round's signals. Generic over the
/// configuration view: works on a schedule's `RoundConfigs` or a live
/// `ConfigArena` equally.
pub struct DataPhase<'a, L: ConfigLookup> {
    topo: &'a CstTopology,
    configs: &'a L,
}

impl<'a, L: ConfigLookup> DataPhase<'a, L> {
    /// Wrap the round's switch configurations.
    pub fn new(topo: &'a CstTopology, configs: &'a L) -> Self {
        DataPhase { topo, configs }
    }

    /// Drive `payload` from `source` and return where (and through how
    /// many switches) it arrives.
    pub fn transfer(&self, source: LeafId, payload: Bytes) -> Result<Delivery, CstError> {
        let mut node = self.topo.leaf_node(source);
        let mut entering: Side; // side of the *next* switch the signal enters on
        let mut hops = 0usize;
        // Climb until a switch turns the signal around, then descend.
        let max_hops = 2 * self.topo.height() as usize + 2;
        loop {
            let parent = node.parent().ok_or(CstError::ProtocolViolation {
                node,
                detail: "signal climbed past the root".into(),
            })?;
            entering = if node.is_left_child() { Side::Left } else { Side::Right };
            let cfg = self.configs.config_at(parent).ok_or(CstError::ProtocolViolation {
                node: parent,
                detail: "signal reached an unconfigured switch".into(),
            })?;
            let out = cfg.output_of(entering).ok_or(CstError::ProtocolViolation {
                node: parent,
                detail: format!("no connection from {entering}i"),
            })?;
            hops += 1;
            if hops > max_hops {
                return Err(CstError::ProtocolViolation {
                    node: parent,
                    detail: "signal exceeded the hop bound".into(),
                });
            }
            match out {
                Side::Parent => {
                    node = parent;
                }
                side => {
                    // Turnaround: descend through parent-input connections.
                    let mut cur = match side {
                        Side::Left => parent.left_child(),
                        Side::Right => parent.right_child(),
                        Side::Parent => unreachable!(),
                    };
                    while self.topo.is_internal(cur) {
                        let c = self.configs.config_at(cur).ok_or(CstError::ProtocolViolation {
                            node: cur,
                            detail: "descent reached an unconfigured switch".into(),
                        })?;
                        let to = c.output_of(Side::Parent).ok_or(CstError::ProtocolViolation {
                            node: cur,
                            detail: "descent switch does not forward p_i".into(),
                        })?;
                        hops += 1;
                        if hops > max_hops {
                            return Err(CstError::ProtocolViolation {
                                node: cur,
                                detail: "signal exceeded the hop bound".into(),
                            });
                        }
                        cur = match to {
                            Side::Left => cur.left_child(),
                            Side::Right => cur.right_child(),
                            Side::Parent => {
                                return Err(CstError::ProtocolViolation {
                                    node: cur,
                                    detail: "p_i -> p_o is illegal".into(),
                                })
                            }
                        };
                    }
                    let dest = self.topo.node_leaf(cur).expect("descended to a leaf");
                    return Ok(Delivery { source, dest, payload, hops });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_comm::{CommId, Schedule};
    use cst_core::RoundConfigs;

    /// The table of one round performing `pairs`.
    fn configured(topo: &CstTopology, pairs: &[(usize, usize)]) -> RoundConfigs {
        let endpoints = |id: CommId| pairs.get(id.0).map(|&(s, d)| (LeafId(s), LeafId(d)));
        let round: Vec<CommId> = (0..pairs.len()).map(CommId).collect();
        Schedule::from_partition(topo, endpoints, [round]).unwrap().rounds.remove(0).configs
    }

    #[test]
    fn transfers_across_the_tree() {
        let topo = CstTopology::with_leaves(8);
        let cfgs = configured(&topo, &[(0, 7)]);
        let phase = DataPhase::new(&topo, &cfgs);
        let d = phase.transfer(LeafId(0), Bytes::from_static(b"hi")).unwrap();
        assert_eq!(d.dest, LeafId(7));
        assert_eq!(d.hops, 5); // 2 up + apex + 2 down
        assert_eq!(d.payload, Bytes::from_static(b"hi"));
    }

    #[test]
    fn parallel_transfers_dont_interfere() {
        let topo = CstTopology::with_leaves(8);
        let cfgs = configured(&topo, &[(0, 3), (4, 7)]);
        let phase = DataPhase::new(&topo, &cfgs);
        assert_eq!(phase.transfer(LeafId(0), Bytes::new()).unwrap().dest, LeafId(3));
        assert_eq!(phase.transfer(LeafId(4), Bytes::new()).unwrap().dest, LeafId(7));
    }

    #[test]
    fn unconfigured_switch_is_detected() {
        let topo = CstTopology::with_leaves(8);
        let cfgs = RoundConfigs::new();
        let phase = DataPhase::new(&topo, &cfgs);
        assert!(phase.transfer(LeafId(0), Bytes::new()).is_err());
    }

    #[test]
    fn hop_count_bounded_by_2logn() {
        let topo = CstTopology::with_leaves(64);
        let cfgs = configured(&topo, &[(0, 63)]);
        let phase = DataPhase::new(&topo, &cfgs);
        let d = phase.transfer(LeafId(0), Bytes::new()).unwrap();
        assert!(d.hops <= 2 * topo.height() as usize + 1);
    }
}
