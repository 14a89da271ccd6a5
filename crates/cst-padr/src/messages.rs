//! Control messages of the CSA (paper §2.2 and §3).
//!
//! * Phase 1 (up the tree): each node sends its parent `C_U = [S, D]` —
//!   how many sources / destinations below it still need the link to the
//!   parent.
//! * Phase 2 (down the tree, once per round): each switch sends each child
//!   `C_D = [kind, x_s, x_d]` where `kind` is one of `[null,null]`,
//!   `[s,null]`, `[d,null]`, `[s,d]` and the rank arguments say *which*
//!   source (counting remaining pass-up sources from the left) and *which*
//!   destination (counting remaining pass-down destinations from the
//!   right) the child must connect.
//!
//! Every message is a constant number of machine words — Theorem 5's
//! efficiency claim. [`WORDS_UP`] / [`WORDS_DOWN`] make the constants
//! explicit so the control-overhead experiment (E4) can count them. They
//! count the paper's words; on the host a [`DownMsg`] packs its three
//! words into one 64-bit value.

use serde::{Deserialize, Serialize};

/// Phase-1 upward message `C_U = [S, D]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpMsg {
    /// Number of communications needing the child-to-parent link upward
    /// (sources below that match at or above the parent).
    pub sources: u32,
    /// Number of communications needing the parent-to-child link downward
    /// (destinations below that match at or above the parent).
    pub dests: u32,
}

impl UpMsg {
    /// Machine words in this message.
    pub const WORDS: u32 = 2;
}

/// Size in words of a Phase-1 message.
pub const WORDS_UP: u32 = UpMsg::WORDS;

/// The `C_{D-*1}` discriminant of a Phase-2 downward message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReqKind {
    /// `[null, null]`: neither link between parent and child is used this
    /// round; the child is free to schedule its own matched communication.
    #[default]
    Null,
    /// `[s, null]`: the upward link child→parent carries a source.
    S,
    /// `[d, null]`: the downward link parent→child carries a destination.
    D,
    /// `[s, d]`: both links are used this round.
    SD,
}

impl ReqKind {
    /// True if the request includes a source (upward-link) component.
    pub fn wants_source(self) -> bool {
        matches!(self, ReqKind::S | ReqKind::SD)
    }

    /// True if the request includes a destination (downward-link) component.
    pub fn wants_dest(self) -> bool {
        matches!(self, ReqKind::D | ReqKind::SD)
    }
}

/// Phase-2 downward message `C_D = [kind, x_s, x_d]`.
///
/// Rank semantics (Definition 2 of the paper): `x_s` asks for the
/// remaining pass-up source with exactly `x_s` remaining pass-up sources to
/// its left inside the child's subtree; `x_d` asks for the remaining
/// pass-down destination with exactly `x_d` remaining pass-down
/// destinations to its right.
///
/// The message is packed into one 64-bit word so a switch step reads and
/// forwards it in a register. The low half is the *source slot*, the high
/// half the *destination slot*; a slot holds its rank plus one, or 0 when
/// the message has no such component. The kind is therefore which slots
/// are non-zero, `[null, null]` is the zero word, and a child rank derived
/// from the parent's is one subtraction on the slot. Ranks go up to
/// [`DownMsg::MAX_RANK`]; the constructors panic above it. A rank counts
/// leaves of one subtree, so no tree reaches the bound.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct DownMsg(u64);

impl DownMsg {
    /// Machine words in this message (`kind` + two ranks).
    pub const WORDS: u32 = 3;

    /// The largest rank a message carries (`u32::MAX` is the one value a
    /// slot cannot hold).
    pub const MAX_RANK: u32 = u32::MAX - 1;

    /// The idle message `[null, null]`.
    pub const NULL: DownMsg = DownMsg(0);

    /// `[s, null]` with a source rank.
    #[inline]
    pub fn source(x_s: u32) -> DownMsg {
        DownMsg::from_slots(slot(x_s), 0)
    }

    /// `[d, null]` with a destination rank.
    #[inline]
    pub fn dest(x_d: u32) -> DownMsg {
        DownMsg::from_slots(0, slot(x_d))
    }

    /// `[s, d]` with both ranks.
    #[inline]
    pub fn both(x_s: u32, x_d: u32) -> DownMsg {
        DownMsg::from_slots(slot(x_s), slot(x_d))
    }

    /// The message with a raw source and destination slot (rank + 1, or 0
    /// for no component).
    #[inline]
    pub(crate) const fn from_slots(s: u32, d: u32) -> DownMsg {
        DownMsg(s as u64 | (d as u64) << 32)
    }

    /// The raw source slot: `x_s + 1`, or 0 without a source component.
    #[inline]
    pub(crate) const fn source_slot(self) -> u32 {
        self.0 as u32
    }

    /// The raw destination slot: `x_d + 1`, or 0 without a destination
    /// component.
    #[inline]
    pub(crate) const fn dest_slot(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// Which links the message claims.
    #[inline]
    pub fn kind(self) -> ReqKind {
        match (self.wants_source(), self.wants_dest()) {
            (false, false) => ReqKind::Null,
            (true, false) => ReqKind::S,
            (false, true) => ReqKind::D,
            (true, true) => ReqKind::SD,
        }
    }

    /// True for `[null, null]`.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// True if the message includes a source (upward-link) component.
    #[inline]
    pub fn wants_source(self) -> bool {
        self.source_slot() != 0
    }

    /// True if the message includes a destination (downward-link)
    /// component.
    #[inline]
    pub fn wants_dest(self) -> bool {
        self.dest_slot() != 0
    }

    /// Source rank; 0 without a source component.
    #[inline]
    pub fn x_s(self) -> u32 {
        self.source_slot().saturating_sub(1)
    }

    /// Destination rank; 0 without a destination component.
    #[inline]
    pub fn x_d(self) -> u32 {
        self.dest_slot().saturating_sub(1)
    }
}

/// The slot holding `rank`, enforcing [`DownMsg::MAX_RANK`].
#[inline]
pub(crate) fn slot(rank: u32) -> u32 {
    assert!(rank <= DownMsg::MAX_RANK, "rank {rank} exceeds DownMsg::MAX_RANK");
    rank + 1
}

/// The unpacked shape `DownMsg { kind, x_s, x_d }`.
impl core::fmt::Debug for DownMsg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DownMsg")
            .field("kind", &self.kind())
            .field("x_s", &self.x_s())
            .field("x_d", &self.x_d())
            .finish()
    }
}

/// Size in words of a Phase-2 message.
pub const WORDS_DOWN: u32 = DownMsg::WORDS;

// Conversions to/from the neutral trace vocabulary (`cst_core::trace`):
// the emitters record `ProtoMsg`s so the reference model never links
// against the scheduler's own message types.
impl From<DownMsg> for cst_core::ProtoMsg {
    fn from(m: DownMsg) -> cst_core::ProtoMsg {
        let kind = match m.kind() {
            ReqKind::Null => cst_core::ProtoKind::Null,
            ReqKind::S => cst_core::ProtoKind::S,
            ReqKind::D => cst_core::ProtoKind::D,
            ReqKind::SD => cst_core::ProtoKind::SD,
        };
        cst_core::ProtoMsg { kind, x_s: m.x_s(), x_d: m.x_d() }
    }
}

/// Panics on a rank above [`DownMsg::MAX_RANK`].
impl From<cst_core::ProtoMsg> for DownMsg {
    fn from(m: cst_core::ProtoMsg) -> DownMsg {
        match m.kind {
            cst_core::ProtoKind::Null => DownMsg::NULL,
            cst_core::ProtoKind::S => DownMsg::source(m.x_s),
            cst_core::ProtoKind::D => DownMsg::dest(m.x_d),
            cst_core::ProtoKind::SD => DownMsg::both(m.x_s, m.x_d),
        }
    }
}

impl core::fmt::Display for DownMsg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.kind() {
            ReqKind::Null => write!(f, "[null,null]"),
            ReqKind::S => write!(f, "[s,null;x_s={}]", self.x_s()),
            ReqKind::D => write!(f, "[d,null;x_d={}]", self.x_d()),
            ReqKind::SD => write!(f, "[s,d;x_s={},x_d={}]", self.x_s(), self.x_d()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_components() {
        assert!(!ReqKind::Null.wants_source());
        assert!(!ReqKind::Null.wants_dest());
        assert!(ReqKind::S.wants_source());
        assert!(!ReqKind::S.wants_dest());
        assert!(!ReqKind::D.wants_source());
        assert!(ReqKind::D.wants_dest());
        assert!(ReqKind::SD.wants_source());
        assert!(ReqKind::SD.wants_dest());
    }

    #[test]
    fn constructors() {
        let parts = |m: DownMsg| (m.kind(), m.x_s(), m.x_d());
        assert_eq!(parts(DownMsg::source(4)), (ReqKind::S, 4, 0));
        assert_eq!(parts(DownMsg::dest(2)), (ReqKind::D, 0, 2));
        assert_eq!(parts(DownMsg::both(1, 2)), (ReqKind::SD, 1, 2));
        assert_eq!(parts(DownMsg::NULL), (ReqKind::Null, 0, 0));
        assert_eq!(DownMsg::default(), DownMsg::NULL);
        assert!(DownMsg::NULL.is_null() && !DownMsg::dest(0).is_null());
    }

    #[test]
    fn packs_into_one_word_with_full_rank_range() {
        assert_eq!(std::mem::size_of::<DownMsg>(), 8);
        let max = DownMsg::MAX_RANK;
        let m = DownMsg::both(max, 0);
        assert_eq!((m.kind(), m.x_s(), m.x_d()), (ReqKind::SD, max, 0));
        let m = DownMsg::dest(max);
        assert_eq!((m.kind(), m.x_s(), m.x_d()), (ReqKind::D, 0, max));
        assert_eq!(format!("{m:?}"), format!("DownMsg {{ kind: D, x_s: 0, x_d: {max} }}"));
        for p in [cst_core::ProtoMsg::both(3, max), cst_core::ProtoMsg::NULL] {
            assert_eq!(cst_core::ProtoMsg::from(DownMsg::from(p)), p);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds DownMsg::MAX_RANK")]
    fn ranks_above_the_bound_are_refused() {
        DownMsg::source(u32::MAX);
    }

    #[test]
    fn messages_are_constant_words() {
        assert_eq!(WORDS_UP, 2);
        assert_eq!(WORDS_DOWN, 3);
    }

    #[test]
    fn display() {
        assert_eq!(DownMsg::NULL.to_string(), "[null,null]");
        assert_eq!(DownMsg::source(3).to_string(), "[s,null;x_s=3]");
        assert_eq!(DownMsg::both(1, 0).to_string(), "[s,d;x_s=1,x_d=0]");
    }
}
