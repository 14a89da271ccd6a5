//! The complete-binary-tree topology of a CST instance.

use crate::error::CstError;
use crate::link::DirectedLink;
use crate::node::{LeafId, NodeId};
use crate::switch::{Connection, SwitchConfig};
use serde::{Deserialize, Serialize};

/// A concrete CST topology: a complete binary tree with `num_leaves = 2^k`
/// processing elements and `num_leaves - 1` internal switches.
///
/// All structural queries (parent/child, LCA, leaf ranges, level iteration)
/// live here; the topology itself holds no mutable state, so it can be
/// shared freely between schedulers, verifiers and the simulator.
///
/// # Examples
///
/// ```
/// use cst_core::{CstTopology, LeafId, NodeId};
///
/// let topo = CstTopology::with_leaves(8);
/// assert_eq!(topo.num_switches(), 7);
/// assert_eq!(topo.height(), 3);
/// // A communication between PEs 1 and 2 is matched at their LCA,
/// // the switch covering leaves 0..4:
/// let apex = topo.lca(LeafId(1), LeafId(2));
/// assert_eq!(apex, NodeId::ROOT.left_child());
/// assert_eq!(topo.leaf_range(apex), 0..4);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CstTopology {
    num_leaves: usize,
    /// `log2(num_leaves)`: number of switch levels between a leaf and the root.
    height: u32,
}

impl CstTopology {
    /// Build a topology with `num_leaves` PEs. `num_leaves` must be a power
    /// of two and at least 2 (a single leaf has no switch to configure).
    pub fn new(num_leaves: usize) -> Result<Self, CstError> {
        if num_leaves < 2 || !num_leaves.is_power_of_two() {
            return Err(CstError::InvalidLeafCount { num_leaves });
        }
        Ok(CstTopology {
            num_leaves,
            height: num_leaves.trailing_zeros(),
        })
    }

    /// Convenience constructor that panics on invalid sizes; useful in tests
    /// and examples where sizes are compile-time constants.
    pub fn with_leaves(num_leaves: usize) -> Self {
        Self::new(num_leaves).expect("num_leaves must be a power of two >= 2")
    }

    /// Number of PEs (leaves).
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Number of internal switches.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.num_leaves - 1
    }

    /// Total number of nodes (switches + PEs).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        2 * self.num_leaves - 1
    }

    /// Number of switch levels on a leaf-to-root path (`log2 N`).
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Dense table size for per-node state indexed by `NodeId::index()`
    /// (slot 0 is unused by construction).
    #[inline]
    pub fn node_table_len(&self) -> usize {
        2 * self.num_leaves
    }

    /// The heap node of a leaf.
    #[inline]
    pub fn leaf_node(&self, leaf: LeafId) -> NodeId {
        debug_assert!(leaf.0 < self.num_leaves, "leaf {leaf} out of range");
        NodeId(self.num_leaves + leaf.0)
    }

    /// Inverse of [`Self::leaf_node`]; `None` for internal nodes.
    #[inline]
    pub fn node_leaf(&self, node: NodeId) -> Option<LeafId> {
        if node.0 >= self.num_leaves && node.0 < 2 * self.num_leaves {
            Some(LeafId(node.0 - self.num_leaves))
        } else {
            None
        }
    }

    /// True if `node` is a valid node of this topology.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        node.0 >= 1 && node.0 < 2 * self.num_leaves
    }

    /// True if `node` is an internal switch.
    #[inline]
    pub fn is_internal(&self, node: NodeId) -> bool {
        node.0 >= 1 && node.0 < self.num_leaves
    }

    /// True if `node` is a leaf (PE).
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        node.0 >= self.num_leaves && node.0 < 2 * self.num_leaves
    }

    /// Contiguous range of leaf positions covered by the subtree rooted at
    /// `node`, as `start..end` (half-open).
    ///
    /// Subtree leaf ranges being contiguous intervals is what makes
    /// "source in left subtree" equivalent to "source position < split";
    /// the scheduler's rank arithmetic relies on it throughout.
    pub fn leaf_range(&self, node: NodeId) -> core::ops::Range<usize> {
        debug_assert!(self.contains(node));
        let node_level = self.height - node.depth(); // leaves at level 0
        let width = 1usize << node_level;
        // Leftmost descendant leaf: repeatedly take left children.
        let leftmost = node.0 << node_level;
        let start = leftmost - self.num_leaves;
        start..start + width
    }

    /// Lowest common ancestor of two leaves; this is the switch where a
    /// communication between them is *matched* (paper §2.1).
    pub fn lca(&self, a: LeafId, b: LeafId) -> NodeId {
        debug_assert!(a.0 < self.num_leaves && b.0 < self.num_leaves);
        let mut x = self.leaf_node(a).0;
        let mut y = self.leaf_node(b).0;
        // Classic heap LCA: bring to equal depth, then walk up together.
        // Here both start at the same depth (leaves), so just walk up.
        while x != y {
            x >>= 1;
            y >>= 1;
        }
        NodeId(x)
    }

    /// All internal switches in breadth-first (top-down) order. The Phase-2
    /// sweep of the CSA processes switches in exactly this order.
    pub fn switches_top_down(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.num_leaves).map(NodeId)
    }

    /// All internal switches bottom-up (reverse BFS). The Phase-1 sweep
    /// processes switches in exactly this order.
    pub fn switches_bottom_up(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.num_leaves).rev().map(NodeId)
    }

    /// All leaves, left to right.
    pub fn leaves(&self) -> impl Iterator<Item = LeafId> + '_ {
        (0..self.num_leaves).map(LeafId)
    }

    /// Switches at tree depth `d` (root has depth 0), left to right.
    pub fn switches_at_depth(&self, d: u32) -> impl Iterator<Item = NodeId> + '_ {
        let lo = 1usize << d;
        let hi = (1usize << (d + 1)).min(self.num_leaves);
        (lo..hi.max(lo)).map(NodeId)
    }

    /// Path of switches from the parent of `leaf` up to (and including) the
    /// root, bottom-up.
    pub fn path_to_root(&self, leaf: LeafId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.height as usize);
        let mut n = self.leaf_node(leaf);
        while let Some(p) = n.parent() {
            out.push(p);
            n = p;
        }
        out
    }

    /// The directed links of the unique `source -> dest` circuit, in travel
    /// order (ascend to the LCA, then descend), without allocating.
    ///
    /// The side restriction of the 3-sided switch (an input never drives its
    /// own side's output, §2 Fig. 3(a)) means a signal can never bounce back
    /// down the edge it arrived on — so this path is the *only* route
    /// between the two leaves, which is what makes it the routability
    /// oracle for fault masks (`fault::FaultMask::blocking_fault`).
    pub fn path_links(&self, source: LeafId, dest: LeafId) -> PathLinks {
        debug_assert!(source.0 < self.num_leaves && dest.0 < self.num_leaves);
        debug_assert_ne!(source, dest, "a leaf has no path to itself");
        let apex = self.lca(source, dest);
        let s = self.leaf_node(source);
        let d = self.leaf_node(dest);
        let ups = (s.depth() - apex.depth()) as usize;
        let downs = (d.depth() - apex.depth()) as usize;
        PathLinks { src: s.0, dst: d.0, ups, downs, next: 0 }
    }

    /// The switch settings of the unique `source -> dest` circuit, in the
    /// order [`crate::Circuit`] lists them (source side up, the apex, then
    /// down to the destination), without allocating.
    pub fn path_settings(&self, source: LeafId, dest: LeafId) -> PathSettings {
        debug_assert!(source.0 < self.num_leaves && dest.0 < self.num_leaves);
        debug_assert_ne!(source, dest, "a leaf has no path to itself");
        let (src, dst) = (self.leaf_node(source).0, self.leaf_node(dest).0);
        let levels = (usize::BITS - (src ^ dst).leading_zeros()) as usize;
        PathSettings { src, dst, levels, next: 0 }
    }

    /// Number of directed links on the unique `source -> dest` circuit.
    pub fn path_len(&self, source: LeafId, dest: LeafId) -> usize {
        let apex = self.lca(source, dest);
        let s = self.leaf_node(source).depth() - apex.depth();
        let d = self.leaf_node(dest).depth() - apex.depth();
        (s + d) as usize
    }
}

/// Allocation-free iterator over the directed links of one leaf-to-leaf
/// circuit, in travel order. Built by [`CstTopology::path_links`].
#[derive(Clone, Debug)]
pub struct PathLinks {
    src: usize,
    dst: usize,
    ups: usize,
    downs: usize,
    next: usize,
}

impl Iterator for PathLinks {
    type Item = DirectedLink;

    fn next(&mut self) -> Option<DirectedLink> {
        let k = self.next;
        if k >= self.ups + self.downs {
            return None;
        }
        self.next += 1;
        if k < self.ups {
            // k-th ancestor of the source leaf, climbing toward the apex.
            Some(DirectedLink::up_from(NodeId(self.src >> k)))
        } else {
            // Descend: the j-th step below the apex is the (downs - 1 - j)-th
            // ancestor of the destination leaf.
            let j = self.ups + self.downs - 1 - k;
            Some(DirectedLink::down_to(NodeId(self.dst >> j)))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.ups + self.downs - self.next;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for PathLinks {}

/// Allocation-free iterator over the `(switch, connection)` settings of
/// one leaf-to-leaf circuit. Built by [`CstTopology::path_settings`].
#[derive(Clone, Debug)]
pub struct PathSettings {
    src: usize,
    dst: usize,
    /// Levels from the leaves up to the apex.
    levels: usize,
    next: usize,
}

impl PathSettings {
    /// Levels from the leaves up to the apex.
    #[inline]
    pub(crate) fn levels(&self) -> usize {
        self.levels
    }

    /// The switch `up` levels above the source (`dest_side == false`)
    /// or the destination, for `1 <= up <= levels` (`up == levels` is the
    /// apex, the same switch from either side), and the index of the
    /// circuit's connection there in [`SETTING`].
    #[inline]
    pub(crate) fn at(&self, dest_side: bool, up: usize) -> (NodeId, usize) {
        let end = if dest_side { self.dst } else { self.src };
        let k = if up == self.levels {
            4 + usize::from(self.src > self.dst)
        } else {
            2 * usize::from(dest_side) + (end >> (up - 1) & 1)
        };
        (NodeId(end >> up), k)
    }
}

/// A circuit's connection at a switch: below the apex on the source side
/// (child side `->` parent, left child first), below it on the
/// destination side (parent `->` child side), and at the apex of a
/// rightward and a leftward circuit.
pub(crate) const SETTING: [Connection; 6] = [
    Connection::L_TO_P,
    Connection::R_TO_P,
    Connection::P_TO_L,
    Connection::P_TO_R,
    Connection::L_TO_R,
    Connection::R_TO_L,
];

/// Each [`SETTING`] as a switch's whole configuration.
pub(crate) const SETTING_CONFIG: [SwitchConfig; 6] = [
    SwitchConfig::single(SETTING[0]),
    SwitchConfig::single(SETTING[1]),
    SwitchConfig::single(SETTING[2]),
    SwitchConfig::single(SETTING[3]),
    SwitchConfig::single(SETTING[4]),
    SwitchConfig::single(SETTING[5]),
];

impl Iterator for PathSettings {
    type Item = (NodeId, Connection);

    fn next(&mut self) -> Option<(NodeId, Connection)> {
        let k = self.next;
        if k >= 2 * self.levels - 1 {
            return None;
        }
        self.next += 1;
        // Up the source side to the apex, then down to the destination.
        let (node, k) = if k < self.levels {
            self.at(false, k + 1)
        } else {
            self.at(true, 2 * self.levels - 1 - k)
        };
        Some((node, SETTING[k]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = 2 * self.levels - 1 - self.next;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for PathSettings {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_sizes() {
        assert!(CstTopology::new(0).is_err());
        assert!(CstTopology::new(1).is_err());
        assert!(CstTopology::new(3).is_err());
        assert!(CstTopology::new(12).is_err());
        assert!(CstTopology::new(2).is_ok());
        assert!(CstTopology::new(1024).is_ok());
    }

    #[test]
    fn counts() {
        let t = CstTopology::with_leaves(16);
        assert_eq!(t.num_leaves(), 16);
        assert_eq!(t.num_switches(), 15);
        assert_eq!(t.num_nodes(), 31);
        assert_eq!(t.height(), 4);
    }

    #[test]
    fn leaf_node_roundtrip() {
        let t = CstTopology::with_leaves(8);
        for l in t.leaves() {
            let n = t.leaf_node(l);
            assert!(t.is_leaf(n));
            assert!(!t.is_internal(n));
            assert_eq!(t.node_leaf(n), Some(l));
        }
        for s in t.switches_top_down() {
            assert!(t.is_internal(s));
            assert_eq!(t.node_leaf(s), None);
        }
    }

    #[test]
    fn leaf_ranges_partition_per_level() {
        let t = CstTopology::with_leaves(32);
        for d in 0..=t.height() {
            let mut covered = [false; 32];
            let nodes: Vec<_> = if d == t.height() {
                t.leaves().map(|l| t.leaf_node(l)).collect()
            } else {
                t.switches_at_depth(d).collect()
            };
            for n in nodes {
                for i in t.leaf_range(n) {
                    assert!(!covered[i], "overlap at {i}");
                    covered[i] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "level {d} does not cover");
        }
    }

    #[test]
    fn leaf_range_of_leaf_is_singleton() {
        let t = CstTopology::with_leaves(16);
        for l in t.leaves() {
            assert_eq!(t.leaf_range(t.leaf_node(l)), l.0..l.0 + 1);
        }
        assert_eq!(t.leaf_range(NodeId::ROOT), 0..16);
    }

    #[test]
    fn lca_basics() {
        let t = CstTopology::with_leaves(8);
        assert_eq!(t.lca(LeafId(0), LeafId(7)), NodeId::ROOT);
        assert_eq!(t.lca(LeafId(0), LeafId(1)), NodeId(4));
        assert_eq!(t.lca(LeafId(2), LeafId(3)), NodeId(5));
        assert_eq!(t.lca(LeafId(0), LeafId(3)), NodeId(2));
        assert_eq!(t.lca(LeafId(4), LeafId(7)), NodeId(3));
        assert_eq!(t.lca(LeafId(5), LeafId(5)), t.leaf_node(LeafId(5)));
    }

    #[test]
    fn lca_is_ancestor_and_splits_sides() {
        let t = CstTopology::with_leaves(64);
        for a in 0..64 {
            for b in (a + 1)..64 {
                let l = t.lca(LeafId(a), LeafId(b));
                assert!(l.is_ancestor_of(t.leaf_node(LeafId(a))));
                assert!(l.is_ancestor_of(t.leaf_node(LeafId(b))));
                if t.is_internal(l) {
                    // a on the left side, b on the right side
                    assert!(t.leaf_range(l.left_child()).contains(&a));
                    assert!(t.leaf_range(l.right_child()).contains(&b));
                }
            }
        }
    }

    #[test]
    fn path_to_root_lengths() {
        let t = CstTopology::with_leaves(16);
        for l in t.leaves() {
            let p = t.path_to_root(l);
            assert_eq!(p.len(), 4);
            assert_eq!(*p.last().unwrap(), NodeId::ROOT);
        }
    }

    #[test]
    fn path_links_match_circuits() {
        use crate::path::Circuit;
        let t = CstTopology::with_leaves(16);
        for s in 0..16 {
            for d in 0..16 {
                if s == d {
                    continue;
                }
                let c = Circuit::between(&t, LeafId(s), LeafId(d));
                let walked: Vec<_> = t.path_links(LeafId(s), LeafId(d)).collect();
                assert_eq!(walked, c.links, "{s}->{d}");
                assert_eq!(t.path_len(LeafId(s), LeafId(d)), walked.len());
                assert_eq!(t.path_links(LeafId(s), LeafId(d)).len(), walked.len());
            }
        }
    }

    #[test]
    fn path_settings_match_circuits() {
        use crate::path::Circuit;
        let t = CstTopology::with_leaves(16);
        for s in 0..16 {
            for d in 0..16 {
                if s == d {
                    continue;
                }
                let c = Circuit::between(&t, LeafId(s), LeafId(d));
                let walked: Vec<_> = t.path_settings(LeafId(s), LeafId(d)).collect();
                assert_eq!(walked, c.settings, "{s}->{d}");
                assert_eq!(t.path_settings(LeafId(s), LeafId(d)).len(), walked.len());
            }
        }
    }

    #[test]
    fn sweep_orders() {
        let t = CstTopology::with_leaves(8);
        let down: Vec<_> = t.switches_top_down().collect();
        assert_eq!(down.first(), Some(&NodeId::ROOT));
        assert_eq!(down.len(), 7);
        // every parent appears before its children in top-down order
        for (i, &n) in down.iter().enumerate() {
            if let Some(p) = n.parent() {
                let pi = down.iter().position(|&m| m == p).unwrap();
                assert!(pi < i);
            }
        }
        let up: Vec<_> = t.switches_bottom_up().collect();
        assert_eq!(up.last(), Some(&NodeId::ROOT));
    }
}
