//! Phase 1 of the CSA: distributing control information (paper Steps
//! 1.1–1.3).
//!
//! One bottom-up sweep. Each PE announces `[1,0]` / `[0,1]` / `[0,0]`.
//! Each switch `u` receives `C_{U-L} = [S_L, D_L]` and `C_{U-R} = [S_R,
//! D_R]` and, by Lemma 1, matches `M = min(S_L, D_R)` source-destination
//! pairs locally — any source from the left meeting any destination from
//! the right is a genuine pair for right-oriented well-nested sets. It
//! stores `C_S = [M, S_L − M, D_L, S_R, D_R − M]` and forwards
//! `C_U = [S_L − M + S_R, D_L + D_R − M]`.

use crate::messages::UpMsg;
use cst_core::{CstError, CstTopology, NodeId, PeRole};
use cst_comm::CommSet;
use serde::{Deserialize, Serialize};

/// The per-switch state `C_S` established by Phase 1 and consumed (and
/// decremented) by Phase 2.
///
/// Field names follow the five communication types of the paper's Fig.
/// 4(a); all counts refer to *remaining unscheduled* communications, so
/// they shrink as rounds complete.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchState {
    /// Type 1: matched pairs at this switch (`M`); need `l_i -> r_o`.
    pub matched: u32,
    /// Type 4: unmatched left-subtree sources (`S_L − M`); pass up.
    /// Positionally these lie *left* of the matched sources.
    pub left_sources: u32,
    /// Type 2: right-subtree sources (`S_R`); pass up.
    pub right_sources: u32,
    /// Type 3: left-subtree destinations (`D_L`); pass down-left.
    pub left_dests: u32,
    /// Type 5: unmatched right-subtree destinations (`D_R − M`); pass
    /// down-right. Positionally these lie *right* of the matched dests.
    pub right_dests: u32,
}

impl SwitchState {
    /// Remaining pass-up sources visible to the parent.
    #[inline]
    pub fn up_sources(&self) -> u32 {
        self.left_sources + self.right_sources
    }

    /// Remaining pass-down destinations visible to the parent.
    #[inline]
    pub fn down_dests(&self) -> u32 {
        self.left_dests + self.right_dests
    }

    /// Total outstanding routing obligations at this switch.
    #[inline]
    pub fn pending(&self) -> u32 {
        self.matched + self.left_sources + self.right_sources + self.left_dests + self.right_dests
    }

    /// Words of storage this state occupies (Theorem 5 efficiency: O(1)).
    pub const WORDS: u32 = 5;
}

/// Sets with at most one endpoint per this many leaves take the sparse
/// Phase-1 sweep (and the matching Phase-2 setup); denser sets — a
/// well-nested serve request covers most of the tree — keep the dense
/// sweep, whose flat loops beat the footprint's per-level walk there.
const SPARSE_LEAVES_PER_ENDPOINT: usize = 8;

/// Result of the Phase-1 sweep.
///
/// The tables are dense and exact whichever sweep filled them. A sparse
/// [`run_into`] also records its *footprint* — the endpoint leaves and
/// their root paths, the only entries it made nonzero — so the next
/// `run_into` on the same topology clears just those.
#[derive(Clone, Debug, Default)]
pub struct Phase1 {
    /// Dense per-node table of switch states (leaves hold zeroed entries).
    pub states: Vec<SwitchState>,
    /// The message each node sent its parent (indexed by node id); used by
    /// the verifier and the control-overhead experiment.
    pub up_msgs: Vec<UpMsg>,
    /// PE roles, indexed by leaf position.
    pub roles: Vec<PeRole>,
    /// Nodes the last sparse sweep wrote, one tree level at a time,
    /// deepest level first (so in bottom-up order); meaningful only while
    /// `sparse` holds.
    footprint: Vec<NodeId>,
    /// Only `footprint` can hold nonzero entries.
    sparse: bool,
}

impl Phase1 {
    /// State of one switch.
    pub fn state(&self, node: NodeId) -> &SwitchState {
        &self.states[node.index()]
    }

    /// The switches on the endpoints' root paths, bottom-up, when the
    /// last [`run_into`] took the sparse sweep: every other switch is
    /// all-zero. `None` after a dense sweep.
    pub(crate) fn footprint(&self) -> Option<&[NodeId]> {
        self.sparse.then_some(&self.footprint[..])
    }

    /// Recompute one switch's `C_S`/`C_U` from its children's upward
    /// messages (paper Steps 1.2–1.3, Lemma 1).
    #[inline]
    fn aggregate(&mut self, u: NodeId) {
        let l = self.up_msgs[u.left_child().index()];
        let r = self.up_msgs[u.right_child().index()];
        let matched = l.sources.min(r.dests);
        self.states[u.index()] = SwitchState {
            matched,
            left_sources: l.sources - matched,
            right_sources: r.sources,
            left_dests: l.dests,
            right_dests: r.dests - matched,
        };
        self.up_msgs[u.index()] = UpMsg {
            sources: l.sources - matched + r.sources,
            dests: l.dests + r.dests - matched,
        };
    }

    /// Check the root saw every endpoint matched (paper Step 1.3's
    /// termination condition); [`CstError::IncompleteSet`] otherwise.
    pub fn require_complete(&self) -> Result<(), CstError> {
        let root = self.up_msgs[NodeId::ROOT.index()];
        if root.sources != 0 || root.dests != 0 {
            return Err(CstError::IncompleteSet {
                unmatched_sources: root.sources,
                unmatched_dests: root.dests,
            });
        }
        Ok(())
    }

    /// Export the tables in the analyzer's layout — `C_S = [M, S_L − M,
    /// D_L, S_R, D_R − M]` per switch, `C_U = [sources, dests]` per node —
    /// for the Lemma 1 pass ([`crate::verifier::verify_phase1`]).
    pub fn counter_table(&self) -> cst_check::CounterTable {
        cst_check::CounterTable {
            states: self
                .states
                .iter()
                .map(|s| [s.matched, s.left_sources, s.left_dests, s.right_sources, s.right_dests])
                .collect(),
            up: self.up_msgs.iter().map(|m| [m.sources, m.dests]).collect(),
        }
    }
}

/// Run Phase 1 for `set` on `topo`.
///
/// Fails with [`CstError::IncompleteSet`] if the root still sees unmatched
/// endpoints — for a complete right-oriented well-nested set everything
/// matches inside the tree. Orientation and well-nestedness themselves are
/// *not* checked here (the scheduler's entry point validates them); Phase 1
/// is exactly the paper's local computation.
pub fn run(topo: &CstTopology, set: &CommSet) -> Result<Phase1, CstError> {
    let mut p1 = Phase1::default();
    run_into(topo, set, &mut p1)?;
    Ok(p1)
}

/// [`run`], writing into an existing [`Phase1`] whose buffers are reused.
///
/// A long-lived engine calls this once per request; after the buffers have
/// grown to the topology size the sweep allocates nothing.
///
/// Cost is O(footprint) for sparse sets: the previous run's footprint is
/// zeroed (when the last sweep was sparse on this topology size; the
/// whole table otherwise) and only the new endpoints' root paths are
/// aggregated, level by level. The tables come out identical to a dense
/// sweep's either way. Edits made directly to the public tables are not
/// tracked — after one, run Phase 1 into a fresh [`Phase1`].
pub fn run_into(topo: &CstTopology, set: &CommSet, p1: &mut Phase1) -> Result<(), CstError> {
    assert_eq!(topo.num_leaves(), set.num_leaves(), "set/topology size mismatch");
    let n = topo.node_table_len();
    let sized = p1.states.len() == n && p1.up_msgs.len() == n && p1.roles.len() == set.num_leaves();
    if sized && p1.sparse {
        for &u in &p1.footprint {
            p1.states[u.index()] = SwitchState::default();
            p1.up_msgs[u.index()] = UpMsg::default();
            if let Some(leaf) = topo.node_leaf(u) {
                p1.roles[leaf.0] = PeRole::Idle;
            }
        }
    } else {
        p1.states.clear();
        p1.states.resize(n, SwitchState::default());
        p1.up_msgs.clear();
        p1.up_msgs.resize(n, UpMsg::default());
        p1.roles.clear();
        p1.roles.resize(set.num_leaves(), PeRole::Idle);
    }
    // Reserved on both paths so a sparse request after dense ones on
    // this topology never allocates (the footprint holds < n nodes).
    p1.footprint.clear();
    p1.footprint.reserve(n);
    for c in set.comms() {
        p1.roles[c.source.0] = PeRole::Source;
        p1.roles[c.dest.0] = PeRole::Destination;
    }

    p1.sparse = 2 * set.len() * SPARSE_LEAVES_PER_ENDPOINT <= set.num_leaves();
    if p1.sparse {
        sweep_footprint(topo, set, p1);
    } else {
        // Step 1.1: leaves announce.
        for leaf in topo.leaves() {
            let (s, d) = p1.roles[leaf.0].announcement();
            p1.up_msgs[topo.leaf_node(leaf).index()] = UpMsg { sources: s, dests: d };
        }
        // Steps 1.2-1.3: internal switches, bottom-up.
        for u in topo.switches_bottom_up() {
            p1.aggregate(u);
        }
    }

    p1.require_complete()
}

/// Steps 1.1–1.3 over the endpoints' root paths only, recording them as
/// the footprint. All leaves sit at one depth, so the footprint climbs a
/// level at a time: the parents of a sorted level come out sorted, and
/// siblings sharing a parent are adjacent.
fn sweep_footprint(topo: &CstTopology, set: &CommSet, p1: &mut Phase1) {
    let mut fp = std::mem::take(&mut p1.footprint);
    for c in set.comms() {
        for leaf in [c.source, c.dest] {
            let (s, d) = p1.roles[leaf.0].announcement();
            p1.up_msgs[topo.leaf_node(leaf).index()] = UpMsg { sources: s, dests: d };
            fp.push(topo.leaf_node(leaf));
        }
    }
    fp.sort_unstable();
    fp.dedup();
    let mut level = 0..fp.len();
    while let Some(parent) = fp.get(level.start).and_then(|u| u.parent()) {
        let next = fp.len();
        fp.push(parent);
        for i in level {
            if let Some(p) = fp[i].parent() {
                if fp[fp.len() - 1] != p {
                    fp.push(p);
                }
            }
        }
        for &u in &fp[next..] {
            p1.aggregate(u);
        }
        level = next..fp.len();
    }
    p1.footprint = fp;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_core::LeafId;

    fn topo(n: usize) -> CstTopology {
        CstTopology::with_leaves(n)
    }

    #[test]
    fn sibling_pair_matches_at_parent() {
        let t = topo(4);
        let set = CommSet::from_pairs(4, &[(0, 1)]);
        let p1 = run(&t, &set).unwrap();
        let parent = t.lca(LeafId(0), LeafId(1));
        assert_eq!(
            *p1.state(parent),
            SwitchState { matched: 1, ..Default::default() }
        );
        assert_eq!(p1.state(NodeId::ROOT).pending(), 0);
    }

    #[test]
    fn full_span_matches_at_root() {
        let t = topo(8);
        let set = CommSet::from_pairs(8, &[(0, 7)]);
        let p1 = run(&t, &set).unwrap();
        assert_eq!(p1.state(NodeId::ROOT).matched, 1);
        // every switch on the source's flank passes one source up
        assert_eq!(p1.state(NodeId(4)).up_sources(), 1);
        assert_eq!(p1.state(NodeId(2)).up_sources(), 1);
        // every switch on the destination's flank passes one dest down
        assert_eq!(p1.state(NodeId(3)).down_dests(), 1);
        assert_eq!(p1.state(NodeId(7)).down_dests(), 1);
    }

    #[test]
    fn paper_step_13_formulas() {
        // A well-nested set exercising several of the five types:
        //   (0, 8): source in T(n2), matched at the root
        //   (1, 6): matched at n2
        //   (9, 11): matched at n6 (right half)
        let t = topo(16);
        let set = CommSet::from_pairs(16, &[(0, 8), (1, 6), (9, 11)]);
        assert!(set.is_well_nested());
        let p1 = run(&t, &set).unwrap();
        // n2 covers leaves 0..8; its children n4 (0..4) and n5 (4..8).
        let s = p1.state(NodeId(2));
        // (1,6): source at leaf 1 (left child of n2), dest at leaf 6
        // (right child of n2): matched at n2.
        assert_eq!(s.matched, 1);
        // (0,8): source leaf 0 in left subtree, dest outside: unmatched
        // left source.
        assert_eq!(s.left_sources, 1);
        assert_eq!(s.right_sources, 0);
        assert_eq!(s.left_dests, 0);
        assert_eq!(s.right_dests, 0);
        // upward message from n2: one source still to match.
        assert_eq!(p1.up_msgs[2], UpMsg { sources: 1, dests: 0 });
        // root matches (0,8): M = 1.
        assert_eq!(p1.state(NodeId::ROOT).matched, 1);
        // (9,11): lca of leaves 9 and 11 is n6 (children n12: 8..10 and
        // n13: 10..12).
        assert_eq!(p1.state(NodeId(6)).matched, 1);
        // n3 passes the root-matched destination (leaf 8) down-left, and
        // n6 sees it as a left destination too.
        assert_eq!(p1.state(NodeId(3)).left_dests, 1);
        assert_eq!(p1.state(NodeId(6)).left_dests, 1);
    }

    #[test]
    fn incomplete_set_rejected() {
        // A left-oriented communication never matches under the
        // right-oriented matching rule, so Phase 1 reports incompleteness.
        let t = topo(8);
        let set = CommSet::from_pairs(8, &[(5, 2)]);
        let err = run(&t, &set).unwrap_err();
        assert!(matches!(err, CstError::IncompleteSet { .. }));
    }

    #[test]
    fn pending_counts_sum_to_obligations() {
        let t = topo(16);
        let set = cst_comm::examples::paper_figure_2();
        let p1 = run(&t, &set).unwrap();
        // total matched over all switches == number of communications
        let total_matched: u32 = t.switches_top_down().map(|u| p1.state(u).matched).sum();
        assert_eq!(total_matched as usize, set.len());
    }

    #[test]
    fn empty_set_is_trivially_complete() {
        let t = topo(8);
        let p1 = run(&t, &CommSet::empty(8)).unwrap();
        for u in t.switches_top_down() {
            assert_eq!(p1.state(u).pending(), 0);
        }
    }

    #[test]
    fn up_messages_are_consistent_with_states() {
        let t = topo(16);
        let set = cst_comm::examples::full_nest(16);
        let p1 = run(&t, &set).unwrap();
        for u in t.switches_top_down() {
            let st = p1.state(u);
            assert_eq!(p1.up_msgs[u.index()].sources, st.up_sources());
            assert_eq!(p1.up_msgs[u.index()].dests, st.down_dests());
        }
    }
}
