//! The per-switch, per-round transition function of Phase 2 (paper Step
//! 2.1, Fig. 5).
//!
//! # Derivation
//!
//! The paper's pseudocode covers only the `[null,null]` and `[s,null]`
//! cases and contains typos (count expressions used as assignment targets,
//! a missing `x_d` argument on an `[s,d]` message). The complete function
//! below is re-derived from Definitions 1–2 and Lemmas 1–3; the facts used:
//!
//! 1. **Pool order (sources).** The pass-up sources of a switch `u` are the
//!    `left_sources` unmatched left-subtree sources followed (in leaf
//!    position) by the `right_sources` right-subtree sources: left-subtree
//!    leaves all precede right-subtree leaves. Moreover `u`'s *matched*
//!    sources sit positionally **between** the two groups: an unmatched
//!    left source matches above `u`, so its destination lies right of
//!    `T(u)`, so by nesting its source lies left of every source matched at
//!    `u`. Hence a rank-`x_s` request (count of remaining pass-up sources
//!    to the left) resolves to the left child when `x_s < left_sources`,
//!    else to the right child with rank `x_s - left_sources`; and the
//!    outermost source matched at `u` has rank exactly `left_sources`
//!    within the left child's own pool.
//!
//! 2. **Pool order (destinations).** Symmetrically, pass-down destinations
//!    ranked from the right: `right_dests` unmatched right-subtree
//!    destinations are rightmost, then the matched destinations, then the
//!    `left_dests`. A rank-`x_d` request resolves to the right child when
//!    `x_d < right_dests`, else to the left child with rank
//!    `x_d - right_dests`; the outermost destination matched at `u` has
//!    rank `right_dests` within the right child's pool.
//!
//! 3. **`[s,d]` geometry (Lemma 2).** When both links between `u` and its
//!    parent are in use, the requested source and destination belong to two
//!    different communications, and the destination lies positionally
//!    **left** of the source (otherwise the two would cross). This rules
//!    out the source-left/destination-right sub-case.
//!
//! 4. **Opportunistic matching.** Whenever `l_i` and `r_o` are both free
//!    after serving the parent's request and `matched > 0`, the switch also
//!    schedules its own outermost matched pair (`l_i -> r_o`), asking the
//!    left child for source rank `left_sources` and the right child for
//!    destination rank `right_dests` (facts 1–2). The four situations where
//!    this applies are exactly those enumerated in the paper's §4
//!    optimality argument.
//!
//! The function is pure: it takes the current [`SwitchState`] and request
//! and returns the new state, the connections to hold this round, and the
//! two child messages. Purity keeps it unit-testable in isolation and lets
//! the scheduler, the discrete-event simulator and the proptest harness
//! share one implementation.
//!
//! # Cost
//!
//! The paper's step is O(1) on a constant-word message, and the host
//! keeps it that cheap. A [`DownMsg`] is one packed 64-bit word, a
//! [`StepResult`] is two of them plus a one-byte connection mask, and
//! [`step`] is `#[inline]`, so in the scheduler's sweep the whole step
//! stays in registers: one message read per switch, one written per
//! child, no result copied through memory. The sweep builds its error
//! text in `#[cold]` functions off that path. On a 2-vCPU host this took
//! an idle `[null,null]` step (unpruned sweep, density 0.5, n = 64 and
//! n = 1024, 5 alternating runs) from 56–66 ns to 13–27 ns.

use crate::messages::{slot, DownMsg};
use crate::phase1::SwitchState;
use cst_core::{Connection, SwitchConfig};

/// The connections one switch holds in one round, as a 5-bit mask over
/// the five connections a right-oriented step can make. A switch never
/// holds more than three (one per output port), and `step` runs once per
/// switch per round, so the set stays a byte in a register.
///
/// Bits are ordered source, destination, matched pair — the order in
/// which [`step`] serves a request — so iteration yields the connections
/// in that order, and callers meter and record them in it.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Connections(u8);

impl Connections {
    /// The connection of each mask bit, in iteration order.
    const ORDER: [Connection; 5] = [
        Connection::L_TO_P,
        Connection::R_TO_P,
        Connection::P_TO_R,
        Connection::P_TO_L,
        Connection::L_TO_R,
    ];
    const L_TO_P: u8 = 1 << 0;
    const R_TO_P: u8 = 1 << 1;
    const P_TO_R: u8 = 1 << 2;
    const P_TO_L: u8 = 1 << 3;
    const L_TO_R: u8 = 1 << 4;

    /// Number of held connections (0..=3).
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if the switch holds nothing this round.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The held connections, in serving order.
    #[inline]
    pub fn iter(self) -> ConnectionsIter {
        ConnectionsIter(self.0)
    }

    /// The held connections as a switch configuration.
    pub fn config(self) -> SwitchConfig {
        let mut config = SwitchConfig::empty();
        for c in self {
            config.force(c);
        }
        config
    }
}

/// Iterator over [`Connections`], lowest mask bit first.
#[derive(Clone, Copy, Debug)]
pub struct ConnectionsIter(u8);

impl Iterator for ConnectionsIter {
    type Item = Connection;

    #[inline]
    fn next(&mut self) -> Option<Connection> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(Connections::ORDER[bit])
    }
}

impl IntoIterator for Connections {
    type Item = Connection;
    type IntoIter = ConnectionsIter;

    #[inline]
    fn into_iter(self) -> ConnectionsIter {
        self.iter()
    }
}

impl std::fmt::Debug for Connections {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(*self).finish()
    }
}

/// Outcome of one switch step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepResult {
    /// Connections this switch must hold in the current round (0..=3).
    pub connections: Connections,
    /// Message to the left child.
    pub to_left: DownMsg,
    /// Message to the right child.
    pub to_right: DownMsg,
}

impl StepResult {
    /// True if this step scheduled a communication matched at this switch
    /// (it holds `l_i -> r_o`, which only a matched pair uses).
    #[inline]
    pub fn scheduled_matched(&self) -> bool {
        self.connections.0 & Connections::L_TO_R != 0
    }
}

/// Errors the transition can detect; any of them indicates a scheduler bug
/// (or a malformed input that slipped past validation), never a legitimate
/// runtime condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepError {
    /// A source rank at least the size of the pass-up pool.
    SourceRankOutOfRange { x_s: u32, pool: u32 },
    /// A destination rank at least the size of the pass-down pool.
    DestRankOutOfRange { x_d: u32, pool: u32 },
    /// An `[s,d]` request whose source resolves left while its destination
    /// resolves right — impossible for well-nested sets (Lemma 2).
    CrossingRequest,
}

impl core::fmt::Display for StepError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StepError::SourceRankOutOfRange { x_s, pool } => {
                write!(f, "source rank {x_s} out of range (pool {pool})")
            }
            StepError::DestRankOutOfRange { x_d, pool } => {
                write!(f, "destination rank {x_d} out of range (pool {pool})")
            }
            StepError::CrossingRequest => write!(f, "[s,d] request resolves crossing"),
        }
    }
}

impl std::error::Error for StepError {}

/// Apply one round's request to a switch, mutating its state.
///
/// Works on the messages' packed slots (rank + 1, or 0 for no component;
/// see [`DownMsg`]): a child rank is the parent's slot minus the counters
/// that precede it, so no rank is unpacked and repacked. On an error the
/// state is left as it was.
#[inline]
pub fn step(state: &mut SwitchState, req: DownMsg) -> Result<StepResult, StepError> {
    let (s, d) = (req.source_slot(), req.dest_slot());
    // Resolve the source component, if any: rank `s - 1` is in the left
    // subtree iff it is below `left_sources`.
    if s != 0 && s > state.up_sources() {
        return Err(StepError::SourceRankOutOfRange { x_s: s - 1, pool: state.up_sources() });
    }
    // Resolve the destination component, if any: rank `d - 1` is in the
    // right subtree iff it is below `right_dests`.
    if d != 0 && d > state.down_dests() {
        return Err(StepError::DestRankOutOfRange { x_d: d - 1, pool: state.down_dests() });
    }
    let source_left = s != 0 && s <= state.left_sources;
    let dest_right = d != 0 && d <= state.right_dests;

    // Lemma 2: in an [s,d] request the destination lies left of the source,
    // so source-left + dest-right cannot co-occur. Checked before any
    // mutation so a protocol violation leaves the state intact.
    if source_left && dest_right {
        return Err(StepError::CrossingRequest);
    }

    let mut held = 0u8;
    // Child slots: (source, destination) for each child.
    let (mut left, mut right) = ((0u32, 0u32), (0u32, 0u32));

    // Serve the parent's source request.
    if source_left {
        // Source in the left subtree: l_i -> p_o, same rank below.
        held |= Connections::L_TO_P;
        left.0 = s;
        state.left_sources -= 1;
    } else if s != 0 {
        // Source in the right subtree: r_i -> p_o, past the left sources.
        held |= Connections::R_TO_P;
        right.0 = s - state.left_sources;
        state.right_sources -= 1;
    }

    // Serve the parent's destination request.
    if dest_right {
        // Destination in the right subtree: p_i -> r_o, same rank below.
        held |= Connections::P_TO_R;
        right.1 = d;
        state.right_dests -= 1;
    } else if d != 0 {
        // Destination in the left subtree: p_i -> l_o, past the right dests.
        held |= Connections::P_TO_L;
        left.1 = d - state.right_dests;
        state.left_dests -= 1;
    }

    // Opportunistic matched pair: l_i -> r_o if both ports are free. The
    // left child is asked for the source just right of its unmatched ones,
    // the right child for the destination just left of its unmatched ones.
    if state.matched > 0 && !source_left && !dest_right {
        held |= Connections::L_TO_R;
        left.0 = slot(state.left_sources);
        right.1 = slot(state.right_dests);
        state.matched -= 1;
    }

    Ok(StepResult {
        connections: Connections(held),
        to_left: DownMsg::from_slots(left.0, left.1),
        to_right: DownMsg::from_slots(right.0, right.1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held(r: &StepResult) -> Vec<Connection> {
        r.connections.iter().collect()
    }

    fn state(m: u32, ls: u32, rs: u32, ld: u32, rd: u32) -> SwitchState {
        SwitchState {
            matched: m,
            left_sources: ls,
            right_sources: rs,
            left_dests: ld,
            right_dests: rd,
        }
    }

    #[test]
    fn null_with_match_schedules_outermost() {
        // paper Fig. 5, [null,null] branch
        let mut st = state(2, 3, 0, 0, 1);
        let r = step(&mut st, DownMsg::NULL).unwrap();
        assert_eq!(held(&r), vec![Connection::L_TO_R]);
        assert!(r.scheduled_matched());
        // left child asked for the source just right of the 3 unmatched
        assert_eq!(r.to_left, DownMsg::source(3));
        // right child asked for the dest just left of the 1 unmatched
        assert_eq!(r.to_right, DownMsg::dest(1));
        assert_eq!(st.matched, 1);
        // other counters untouched
        assert_eq!((st.left_sources, st.right_dests), (3, 1));
    }

    #[test]
    fn connections_pack_into_a_byte_in_serving_order() {
        assert_eq!(std::mem::size_of::<Connections>(), 1);
        let mut st = state(1, 1, 1, 1, 1);
        let r = step(&mut st, DownMsg::both(1, 1)).unwrap();
        assert_eq!(r.connections.len(), 3);
        assert_eq!(format!("{:?}", r.connections), format!("{:?}", held(&r)));
        let config = r.connections.config();
        assert_eq!(config.len(), 3);
        assert!(held(&r).into_iter().all(|c| config.has(c)));
    }

    #[test]
    fn null_without_match_idles() {
        let mut st = state(0, 2, 1, 1, 0);
        let r = step(&mut st, DownMsg::NULL).unwrap();
        assert!(r.connections.is_empty());
        assert_eq!(r.to_left, DownMsg::NULL);
        assert_eq!(r.to_right, DownMsg::NULL);
        assert_eq!(st.pending(), 4);
    }

    #[test]
    fn source_request_left() {
        // paper Fig. 5, [s,null] branch, S_L - min(S_L,M) > x_s
        let mut st = state(1, 2, 1, 0, 0);
        let r = step(&mut st, DownMsg::source(1)).unwrap();
        assert_eq!(held(&r), vec![Connection::L_TO_P]);
        assert_eq!(r.to_left, DownMsg::source(1));
        assert_eq!(r.to_right, DownMsg::NULL);
        assert!(!r.scheduled_matched()); // l_i busy
        assert_eq!(st.left_sources, 1);
        assert_eq!(st.matched, 1);
    }

    #[test]
    fn source_request_right_also_matches() {
        // paper Fig. 5, [s,null] else-branch with M != 0
        let mut st = state(1, 2, 3, 0, 2);
        let r = step(&mut st, DownMsg::source(3)).unwrap();
        // r_i -> p_o for the requested source, l_i -> r_o for the match
        assert_eq!(held(&r), vec![Connection::R_TO_P, Connection::L_TO_R]);
        assert!(r.scheduled_matched());
        // right child: pass-up source rank 3-2=1 plus matched dest rank 2
        assert_eq!(r.to_right, DownMsg::both(1, 2));
        // left child: matched source rank = remaining unmatched lefts = 2
        assert_eq!(r.to_left, DownMsg::source(2));
        assert_eq!(st.right_sources, 2);
        assert_eq!(st.matched, 0);
    }

    #[test]
    fn source_request_right_without_match() {
        let mut st = state(0, 1, 2, 0, 0);
        let r = step(&mut st, DownMsg::source(2)).unwrap();
        assert_eq!(held(&r), vec![Connection::R_TO_P]);
        assert_eq!(r.to_left, DownMsg::NULL);
        assert_eq!(r.to_right, DownMsg::source(1));
        assert_eq!(st.right_sources, 1);
    }

    #[test]
    fn dest_request_right_blocks_match() {
        let mut st = state(1, 0, 0, 1, 2);
        let r = step(&mut st, DownMsg::dest(0)).unwrap();
        // p_i -> r_o occupies r_o: no matched pair possible
        assert_eq!(held(&r), vec![Connection::P_TO_R]);
        assert!(!r.scheduled_matched());
        assert_eq!(r.to_right, DownMsg::dest(0));
        assert_eq!(r.to_left, DownMsg::NULL);
        assert_eq!(st.right_dests, 1);
        assert_eq!(st.matched, 1);
    }

    #[test]
    fn dest_request_left_also_matches() {
        let mut st = state(2, 1, 0, 2, 1);
        let r = step(&mut st, DownMsg::dest(2)).unwrap();
        // p_i -> l_o for the requested dest; l_i -> r_o for the match
        assert_eq!(held(&r), vec![Connection::P_TO_L, Connection::L_TO_R]);
        assert!(r.scheduled_matched());
        // left child: dest rank 2-1=1 plus matched source rank 1 -> [s,d]
        assert_eq!(r.to_left, DownMsg::both(1, 1));
        // right child: matched dest rank = remaining unmatched rights = 1
        assert_eq!(r.to_right, DownMsg::dest(1));
        assert_eq!(st.left_dests, 1);
        assert_eq!(st.matched, 1);
    }

    #[test]
    fn sd_request_both_left() {
        let mut st = state(1, 2, 0, 3, 0);
        let r = step(&mut st, DownMsg::both(0, 1)).unwrap();
        assert_eq!(held(&r), vec![Connection::L_TO_P, Connection::P_TO_L]);
        assert!(!r.scheduled_matched()); // l_i busy
        assert_eq!(r.to_left, DownMsg::both(0, 1));
        assert_eq!(r.to_right, DownMsg::NULL);
    }

    #[test]
    fn sd_request_both_right() {
        let mut st = state(1, 0, 2, 0, 3);
        let r = step(&mut st, DownMsg::both(1, 2)).unwrap();
        assert_eq!(held(&r), vec![Connection::R_TO_P, Connection::P_TO_R]);
        assert!(!r.scheduled_matched()); // r_o busy
        assert_eq!(r.to_right, DownMsg::both(1, 2));
        assert_eq!(r.to_left, DownMsg::NULL);
    }

    #[test]
    fn sd_request_split_also_matches() {
        // source right, dest left: both extra ports free -> match fires
        let mut st = state(1, 1, 1, 1, 1);
        let r = step(&mut st, DownMsg::both(1, 1)).unwrap();
        assert_eq!(held(&r), vec![Connection::R_TO_P, Connection::P_TO_L, Connection::L_TO_R]);
        assert!(r.scheduled_matched());
        // left child: matched source rank 1... left_sources is still 1
        // (untouched by the right-side source), dest rank 1-1=0
        assert_eq!(r.to_left, DownMsg::both(1, 0));
        // right child: pass-up source rank 1-1=0, and the matched dest has
        // the one (untouched) unmatched right dest to its right: rank 1
        assert_eq!(r.to_right, DownMsg::both(0, 1));
        assert_eq!(st.matched, 0);
        assert_eq!(st.pending(), 2);
    }

    #[test]
    fn crossing_sd_rejected() {
        // source resolves left AND dest resolves right: impossible
        let mut st = state(0, 1, 0, 0, 1);
        let err = step(&mut st, DownMsg::both(0, 0)).unwrap_err();
        assert_eq!(err, StepError::CrossingRequest);
    }

    #[test]
    fn rank_out_of_range_detected() {
        let mut st = state(0, 1, 1, 0, 0);
        assert!(matches!(
            step(&mut st, DownMsg::source(2)),
            Err(StepError::SourceRankOutOfRange { x_s: 2, pool: 2 })
        ));
        let mut st = state(0, 0, 0, 1, 0);
        assert!(matches!(
            step(&mut st, DownMsg::dest(1)),
            Err(StepError::DestRankOutOfRange { x_d: 1, pool: 1 })
        ));
    }

    #[test]
    fn counters_never_underflow_over_random_valid_sequences() {
        // Drive a state with every valid request until exhausted.
        let mut st = state(2, 1, 1, 1, 1);
        let mut guard = 0;
        while st.pending() > 0 && guard < 32 {
            guard += 1;
            let req = if st.up_sources() > 0 {
                DownMsg::source(st.up_sources() - 1)
            } else if st.down_dests() > 0 {
                DownMsg::dest(st.down_dests() - 1)
            } else {
                DownMsg::NULL
            };
            step(&mut st, req).unwrap();
        }
        assert_eq!(st.pending(), 0, "drained in {guard} steps");
    }
}
