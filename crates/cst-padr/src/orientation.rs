//! Scheduling sets of mixed orientation (paper §2.1: "Any set can be
//! decomposed into two sets each of them is oriented. Dealing with right
//! oriented sets can be adjusted easily to left oriented sets.").
//!
//! The left-oriented half is scheduled by mirroring the leaf line: a
//! left-oriented communication `(s, d)` with `s > d` becomes the
//! right-oriented `(n−1−s, n−1−d)` on the reflected tree, which is again a
//! CST of the same shape. We run the standard CSA on the mirrored set and
//! reflect the resulting switch settings back.
//!
//! [`crate::universal::schedule_any_in`] is the one routine that
//! composes the halves: it runs the right half, then the mirrored left
//! half, back to back (`w_right + w_left` rounds on a well-nested set,
//! at most 2× optimal). Crossing pairs of opposite orientation can
//! collide on `p_o`/`l_o`/`r_o` ports, so the halves cannot simply share
//! rounds; the engine's `general-merged` router re-times the
//! concatenation with the composite packer, which moves communications
//! between rounds only where their directed links and PEs are free.

use cst_core::{Connection, NodeId, RoundConfigs, Side, SwitchConfig};

/// Mirror a node of the tree: the reflection maps each switch to the
/// switch covering the reflected leaf interval (same depth, reversed
/// position within the level).
fn mirror_node(node: NodeId) -> NodeId {
    let level_start = 1usize << node.depth();
    let offset = node.index() - level_start;
    NodeId(level_start + (level_start - 1 - offset))
}

/// Mirror a whole round's switch configurations onto the reflected tree.
/// (Mirroring reverses within-level order, so the result is re-sorted by
/// `from_entries`.) A switch's reflection depends on its heap index
/// alone, so no topology is needed.
pub fn mirror_round_configs(configs: &RoundConfigs) -> RoundConfigs {
    RoundConfigs::from_entries(
        configs
            .iter()
            .map(|(node, cfg)| (mirror_node(node), mirror_config(cfg)))
            .collect(),
    )
}

/// Mirror a switch configuration: left and right swap; parent stays.
fn mirror_config(cfg: &SwitchConfig) -> SwitchConfig {
    let flip = |s: Side| match s {
        Side::Left => Side::Right,
        Side::Right => Side::Left,
        Side::Parent => Side::Parent,
    };
    let mut out = SwitchConfig::empty();
    for c in cfg.connections() {
        out.set(Connection { from: flip(c.from), to: flip(c.to) })
            .expect("mirroring preserves legality");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_node_reflects_levels() {
        assert_eq!(mirror_node(NodeId::ROOT), NodeId::ROOT);
        assert_eq!(mirror_node(NodeId(2)), NodeId(3));
        assert_eq!(mirror_node(NodeId(3)), NodeId(2));
        assert_eq!(mirror_node(NodeId(4)), NodeId(7));
        assert_eq!(mirror_node(NodeId(5)), NodeId(6));
        // involutive
        for i in 1..8 {
            let n = NodeId(i);
            assert_eq!(mirror_node(mirror_node(n)), n);
        }
    }

    #[test]
    fn mirror_config_swaps_children() {
        let mut cfg = SwitchConfig::empty();
        cfg.set(Connection::L_TO_R).unwrap();
        cfg.set(Connection::P_TO_L).unwrap();
        let m = mirror_config(&cfg);
        assert!(m.has(Connection::R_TO_L));
        assert!(m.has(Connection::P_TO_R));
        assert_eq!(m.len(), 2);
    }
}
