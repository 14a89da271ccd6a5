//! The 3-sided circuit switch of the CST (paper §2, Fig. 3(a)).
//!
//! A switch has three data inputs — `l_i`, `r_i`, `p_i` (from the left
//! child, right child and parent) — and three data outputs — `l_o`, `r_o`,
//! `p_o`. A configuration is a *partial one-to-one* map from inputs to
//! outputs subject to the side restriction: an input may be connected to any
//! output of the other two sides, never to the output of its own side. The
//! side restriction is what bounds every circuit to `O(log N)` switches
//! (a path can never "bounce" back down the edge it came up).

use crate::error::CstError;
use serde::{Deserialize, Serialize};

/// One of the three neighbor sides of a switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Side {
    /// Toward the left child.
    Left,
    /// Toward the right child.
    Right,
    /// Toward the parent.
    Parent,
}

impl Side {
    /// All sides, in a fixed order used for dense indexing.
    pub const ALL: [Side; 3] = [Side::Left, Side::Right, Side::Parent];

    /// Dense index 0..3.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Side::Left => 0,
            Side::Right => 1,
            Side::Parent => 2,
        }
    }
}

impl core::fmt::Display for Side {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Side::Left => write!(f, "l"),
            Side::Right => write!(f, "r"),
            Side::Parent => write!(f, "p"),
        }
    }
}

/// A directed internal connection `input(from) -> output(to)` of a switch.
///
/// The paper writes these as e.g. `l_i -> r_o`. Connections with
/// `from == to` are illegal (side restriction).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Connection {
    /// Side whose *input* feeds the connection.
    pub from: Side,
    /// Side whose *output* the connection drives.
    pub to: Side,
}

impl Connection {
    /// `l_i -> r_o`: forward a matched communication (type 1 of Fig. 4(a)).
    pub const L_TO_R: Connection = Connection { from: Side::Left, to: Side::Right };
    /// `l_i -> p_o`: pass a left-subtree source upward (type 4).
    pub const L_TO_P: Connection = Connection { from: Side::Left, to: Side::Parent };
    /// `r_i -> p_o`: pass a right-subtree source upward (type 2).
    pub const R_TO_P: Connection = Connection { from: Side::Right, to: Side::Parent };
    /// `p_i -> l_o`: pass a destination downward into the left subtree (type 3).
    pub const P_TO_L: Connection = Connection { from: Side::Parent, to: Side::Left };
    /// `p_i -> r_o`: pass a destination downward into the right subtree (type 5).
    pub const P_TO_R: Connection = Connection { from: Side::Parent, to: Side::Right };
    /// `r_i -> l_o`: forward a *left-oriented* matched communication. Never
    /// used for right-oriented sets but part of the hardware.
    pub const R_TO_L: Connection = Connection { from: Side::Right, to: Side::Left };

    /// All six legal connections.
    pub const ALL: [Connection; 6] = [
        Connection::L_TO_R,
        Connection::L_TO_P,
        Connection::R_TO_P,
        Connection::P_TO_L,
        Connection::P_TO_R,
        Connection::R_TO_L,
    ];

    /// Construct a checked connection.
    pub fn new(from: Side, to: Side) -> Result<Self, CstError> {
        if from == to {
            Err(CstError::SameSideConnection { side: from })
        } else {
            Ok(Connection { from, to })
        }
    }

    /// True if the connection obeys the side restriction.
    #[inline]
    pub fn is_legal(self) -> bool {
        self.from != self.to
    }
}

impl core::fmt::Display for Connection {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}i->{}o", self.from, self.to)
    }
}

/// The configuration of one switch: for each output side, which input side
/// (if any) drives it.
///
/// Invariants enforced by the mutators:
/// * one-to-one: an input drives at most one output;
/// * side restriction: no same-side connection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub struct SwitchConfig {
    /// `driver[s.index()]` = input side currently driving output `s`.
    driver: [Option<Side>; 3],
}

impl SwitchConfig {
    /// The empty (fully disconnected) configuration.
    #[inline]
    pub fn empty() -> Self {
        Self::default()
    }

    /// The configuration holding legal connection `c` alone.
    pub(crate) const fn single(c: Connection) -> Self {
        let mut driver = [None; 3];
        driver[c.to.index()] = Some(c.from);
        SwitchConfig { driver }
    }

    /// Which input drives output side `out`, if any.
    #[inline]
    pub fn driver_of(&self, out: Side) -> Option<Side> {
        self.driver[out.index()]
    }

    /// Which output is driven by input side `inp`, if any.
    #[inline]
    pub fn output_of(&self, inp: Side) -> Option<Side> {
        Side::ALL
            .into_iter()
            .find(|&o| self.driver[o.index()] == Some(inp))
    }

    /// True if the given connection is currently set.
    #[inline]
    pub fn has(&self, c: Connection) -> bool {
        self.driver[c.to.index()] == Some(c.from)
    }

    /// True if input `inp` feeds no output.
    #[inline]
    pub fn input_free(&self, inp: Side) -> bool {
        self.output_of(inp).is_none()
    }

    /// True if output `out` is undriven.
    #[inline]
    pub fn output_free(&self, out: Side) -> bool {
        self.driver_of(out).is_none()
    }

    /// Number of connections currently set (0..=3).
    #[inline]
    pub fn len(&self) -> usize {
        self.driver.iter().filter(|d| d.is_some()).count()
    }

    /// True if fully disconnected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.driver.iter().all(|d| d.is_none())
    }

    /// Iterate over the set connections in `Side::ALL` output order.
    pub fn connections(&self) -> impl Iterator<Item = Connection> + '_ {
        Side::ALL.into_iter().filter_map(move |o| {
            self.driver[o.index()].map(|i| Connection { from: i, to: o })
        })
    }

    /// Set a connection, *failing* if either port is already in use by a
    /// different connection (strict form used by round assembly, where a
    /// conflict indicates a scheduler bug rather than a reconfiguration).
    #[inline]
    pub fn set(&mut self, c: Connection) -> Result<(), CstError> {
        if !c.is_legal() {
            return Err(CstError::SameSideConnection { side: c.from });
        }
        if self.has(c) {
            return Ok(());
        }
        if let Some(cur) = self.driver_of(c.to) {
            return Err(CstError::OutputConflict { out: c.to, cur, new: c.from });
        }
        if let Some(out) = self.output_of(c.from) {
            return Err(CstError::InputConflict { inp: c.from, cur: out, new: c.to });
        }
        self.driver[c.to.index()] = Some(c.from);
        Ok(())
    }

    /// Force a connection, *evicting* anything currently using either port.
    /// Returns `true` if the configuration changed (i.e. the connection was
    /// not already present). This is the physical "reconfigure" operation
    /// whose invocations the power model charges for.
    pub fn force(&mut self, c: Connection) -> bool {
        debug_assert!(c.is_legal());
        if self.has(c) {
            return false;
        }
        // Evict whatever the input currently drives.
        if let Some(out) = self.output_of(c.from) {
            self.driver[out.index()] = None;
        }
        self.driver[c.to.index()] = Some(c.from);
        true
    }

    /// Disconnect the connection driving output `out`, if any.
    pub fn clear_output(&mut self, out: Side) -> bool {
        let was = self.driver[out.index()].is_some();
        self.driver[out.index()] = None;
        was
    }

    /// Fully disconnect.
    pub fn clear(&mut self) {
        self.driver = [None; 3];
    }

    /// Connections present in `self` but not in `other`.
    pub fn added_versus(&self, other: &SwitchConfig) -> Vec<Connection> {
        self.connections().filter(|&c| !other.has(c)).collect()
    }
}

impl core::fmt::Display for SwitchConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_empty() {
            return write!(f, "{{}}");
        }
        let mut first = true;
        write!(f, "{{")?;
        for c in self.connections() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_side_rejected() {
        assert!(Connection::new(Side::Left, Side::Left).is_err());
        assert!(Connection::new(Side::Left, Side::Right).is_ok());
        for c in Connection::ALL {
            assert!(c.is_legal());
        }
    }

    #[test]
    fn set_and_query() {
        let mut cfg = SwitchConfig::empty();
        assert!(cfg.is_empty());
        cfg.set(Connection::L_TO_R).unwrap();
        assert!(cfg.has(Connection::L_TO_R));
        assert_eq!(cfg.driver_of(Side::Right), Some(Side::Left));
        assert_eq!(cfg.output_of(Side::Left), Some(Side::Right));
        assert!(cfg.input_free(Side::Right));
        assert!(!cfg.input_free(Side::Left));
        assert!(cfg.output_free(Side::Parent));
        assert_eq!(cfg.len(), 1);
    }

    #[test]
    fn set_detects_conflicts() {
        let mut cfg = SwitchConfig::empty();
        cfg.set(Connection::L_TO_R).unwrap();
        // output r_o busy
        assert!(matches!(
            cfg.set(Connection::P_TO_R),
            Err(CstError::OutputConflict { .. })
        ));
        // input l_i busy
        assert!(matches!(
            cfg.set(Connection::L_TO_P),
            Err(CstError::InputConflict { .. })
        ));
        // re-setting the same connection is a no-op
        cfg.set(Connection::L_TO_R).unwrap();
        assert_eq!(cfg.len(), 1);
    }

    #[test]
    fn three_disjoint_connections_fit() {
        let mut cfg = SwitchConfig::empty();
        cfg.set(Connection::L_TO_R).unwrap();
        cfg.set(Connection::R_TO_P).unwrap();
        cfg.set(Connection::P_TO_L).unwrap();
        assert_eq!(cfg.len(), 3);
    }

    #[test]
    fn force_evicts() {
        let mut cfg = SwitchConfig::empty();
        assert!(cfg.force(Connection::L_TO_R));
        // same connection again: no change
        assert!(!cfg.force(Connection::L_TO_R));
        // l_i now drives p_o instead; r_o freed
        assert!(cfg.force(Connection::L_TO_P));
        assert!(cfg.output_free(Side::Right));
        assert_eq!(cfg.output_of(Side::Left), Some(Side::Parent));
        // p_i takes r_o
        assert!(cfg.force(Connection::P_TO_R));
        assert_eq!(cfg.len(), 2);
    }

    #[test]
    fn one_to_one_always_holds_under_force() {
        // brute-force a few random-ish sequences
        let seq = [
            Connection::L_TO_R,
            Connection::P_TO_R,
            Connection::L_TO_P,
            Connection::R_TO_L,
            Connection::P_TO_L,
            Connection::R_TO_P,
            Connection::L_TO_R,
        ];
        let mut cfg = SwitchConfig::empty();
        for c in seq {
            cfg.force(c);
            // invariant: each input drives at most one output
            for i in Side::ALL {
                let count = Side::ALL
                    .into_iter()
                    .filter(|&o| cfg.driver_of(o) == Some(i))
                    .count();
                assert!(count <= 1);
            }
        }
    }

    #[test]
    fn added_versus_diff() {
        let mut a = SwitchConfig::empty();
        a.set(Connection::L_TO_R).unwrap();
        let mut b = a;
        b.clear_output(Side::Right);
        b.set(Connection::R_TO_P).unwrap();
        assert_eq!(b.added_versus(&a), vec![Connection::R_TO_P]);
        assert_eq!(a.added_versus(&b), vec![Connection::L_TO_R]);
        assert!(a.added_versus(&a).is_empty());
    }

    #[test]
    fn display_is_stable() {
        let mut cfg = SwitchConfig::empty();
        cfg.set(Connection::L_TO_R).unwrap();
        cfg.set(Connection::P_TO_L).unwrap();
        assert_eq!(format!("{cfg}"), "{pi->lo, li->ro}");
    }
}
