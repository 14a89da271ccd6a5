//! Directed tree links.
//!
//! Every edge of the CST is a full-duplex link between a node and its
//! parent; it carries two independent directed channels. The definition of
//! a *compatible* communication set (paper §1, citing \[3\]) is exactly "no
//! two communications use the same edge in the same direction", so directed
//! links are the unit of conflict everywhere in this workspace.

use crate::node::NodeId;
use crate::topology::CstTopology;
use serde::{Deserialize, Serialize};

/// One directed channel of the edge between `child` and its parent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct DirectedLink {
    /// The lower endpoint of the edge (the edge is `child -- parent(child)`).
    pub child: NodeId,
    /// Direction: `true` for child-to-parent ("up"), `false` for
    /// parent-to-child ("down").
    pub up: bool,
}

impl DirectedLink {
    /// Upward channel of the edge above `child`.
    #[inline]
    pub fn up_from(child: NodeId) -> Self {
        DirectedLink { child, up: true }
    }

    /// Downward channel of the edge above `child`.
    #[inline]
    pub fn down_to(child: NodeId) -> Self {
        DirectedLink { child, up: false }
    }

    /// Dense index for occupancy bitmaps: `2 * child + up`. Valid child ids
    /// are `2 ..= 2N-1`, so tables of size `4N` suffice.
    #[inline]
    pub fn dense_index(self) -> usize {
        (self.child.0 << 1) | usize::from(self.up)
    }
}

impl core::fmt::Display for DirectedLink {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.up {
            write!(f, "{}^", self.child)
        } else {
            write!(f, "{}v", self.child)
        }
    }
}

/// A per-round occupancy map over directed links, used to check
/// compatibility of a set of circuits in O(path length) per circuit.
#[derive(Clone, Debug, Default)]
pub struct LinkOccupancy {
    used: Vec<bool>,
    touched: Vec<usize>,
}

impl LinkOccupancy {
    /// An empty occupancy map for `topo`.
    pub fn new(topo: &CstTopology) -> Self {
        let mut occ = LinkOccupancy::default();
        occ.reset_for(topo);
        occ
    }

    /// Re-target the map to `topo`, clearing claims but keeping allocated
    /// capacity where possible.
    pub fn reset_for(&mut self, topo: &CstTopology) {
        self.reset();
        self.used.resize(4 * topo.num_leaves(), false);
    }

    /// Try to claim a directed link. Returns `false` (and leaves the map
    /// unchanged) if it is already claimed this round.
    pub fn claim(&mut self, link: DirectedLink) -> bool {
        let i = link.dense_index();
        if self.used[i] {
            return false;
        }
        self.used[i] = true;
        self.touched.push(i);
        true
    }

    /// Whether a link is currently claimed.
    pub fn is_used(&self, link: DirectedLink) -> bool {
        self.used[link.dense_index()]
    }

    /// Number of links currently claimed.
    pub fn claimed(&self) -> usize {
        self.touched.len()
    }

    /// Reset for the next round without reallocating ("workhorse" reuse).
    pub fn reset(&mut self) {
        for &i in &self.touched {
            self.used[i] = false;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LeafId;

    #[test]
    fn dense_indices_unique() {
        let topo = CstTopology::with_leaves(16);
        let mut seen = std::collections::HashSet::new();
        for n in 2..topo.num_nodes() + 1 {
            for up in [true, false] {
                let l = DirectedLink { child: NodeId(n), up };
                assert!(seen.insert(l.dense_index()));
                assert!(l.dense_index() < 4 * topo.num_leaves());
            }
        }
    }

    #[test]
    fn claim_and_reset() {
        let topo = CstTopology::with_leaves(8);
        let mut occ = LinkOccupancy::new(&topo);
        let l = DirectedLink::up_from(topo.leaf_node(LeafId(3)));
        assert!(occ.claim(l));
        assert!(!occ.claim(l));
        assert!(occ.is_used(l));
        // the opposite direction is a different channel
        let d = DirectedLink::down_to(topo.leaf_node(LeafId(3)));
        assert!(occ.claim(d));
        assert_eq!(occ.claimed(), 2);
        occ.reset();
        assert!(!occ.is_used(l));
        assert!(!occ.is_used(d));
        assert!(occ.claim(l));
    }

    #[test]
    fn display() {
        assert_eq!(DirectedLink::up_from(NodeId(5)).to_string(), "n5^");
        assert_eq!(DirectedLink::down_to(NodeId(5)).to_string(), "n5v");
    }
}
