//! `switch_logic::step` against the formulation it replaced.
//!
//! The step now reads and writes packed messages (`DownMsg` is one 64-bit
//! word of rank slots) and returns its connections as a bit mask. The
//! oracle below is the step as it was before: unpacked `[kind, x_s, x_d]`
//! messages and connections pushed into a list, copied verbatim. Both run
//! over every switch state with each counter in 0..=3 and every request
//! with ranks 0..=4, and must give the same `Ok`/`Err`, the same
//! connections in the same order, the same child messages and the same
//! state after the step.

use cst::core::Connection;
use cst::padr::{DownMsg, ReqKind, StepError, SwitchState};

/// The step before packing, with the message and result types it used.
mod reference {
    use cst::core::Connection;
    use cst::padr::{ReqKind, StepError, SwitchState};

    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct DownMsg {
        pub kind: ReqKind,
        pub x_s: u32,
        pub x_d: u32,
    }

    impl DownMsg {
        pub const NULL: DownMsg = DownMsg { kind: ReqKind::Null, x_s: 0, x_d: 0 };

        pub fn source(x_s: u32) -> DownMsg {
            DownMsg { kind: ReqKind::S, x_s, x_d: 0 }
        }

        pub fn dest(x_d: u32) -> DownMsg {
            DownMsg { kind: ReqKind::D, x_s: 0, x_d }
        }

        pub fn both(x_s: u32, x_d: u32) -> DownMsg {
            DownMsg { kind: ReqKind::SD, x_s, x_d }
        }
    }

    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct StepResult {
        pub connections: Vec<Connection>,
        pub to_left: DownMsg,
        pub to_right: DownMsg,
        pub scheduled_matched: bool,
    }

    /// Apply one round's request to a switch, mutating its state.
    pub fn step(state: &mut SwitchState, req: DownMsg) -> Result<StepResult, StepError> {
        // Resolve the source component, if any.
        let source_side = if req.kind.wants_source() {
            let pool = state.up_sources();
            if req.x_s >= pool {
                return Err(StepError::SourceRankOutOfRange { x_s: req.x_s, pool });
            }
            Some(req.x_s < state.left_sources)
        } else {
            None
        };
        // Resolve the destination component, if any.
        let dest_side_right = if req.kind.wants_dest() {
            let pool = state.down_dests();
            if req.x_d >= pool {
                return Err(StepError::DestRankOutOfRange { x_d: req.x_d, pool });
            }
            Some(req.x_d < state.right_dests)
        } else {
            None
        };

        // Lemma 2: in an [s,d] request the destination lies left of the source,
        // so source-left + dest-right cannot co-occur. Checked before any
        // mutation so a protocol violation leaves the state intact.
        if source_side == Some(true) && dest_side_right == Some(true) {
            return Err(StepError::CrossingRequest);
        }

        let mut out = StepResult {
            to_left: DownMsg::NULL,
            to_right: DownMsg::NULL,
            ..Default::default()
        };

        // Serve the parent's source request.
        let mut l_i_free = true;
        let mut r_o_free = true;
        match source_side {
            Some(true) => {
                // Source in the left subtree: l_i -> p_o.
                out.connections.push(Connection::L_TO_P);
                out.to_left = DownMsg::source(req.x_s);
                state.left_sources -= 1;
                l_i_free = false;
            }
            Some(false) => {
                // Source in the right subtree: r_i -> p_o.
                out.connections.push(Connection::R_TO_P);
                out.to_right = DownMsg::source(req.x_s - state.left_sources);
                state.right_sources -= 1;
            }
            None => {}
        }

        // Serve the parent's destination request.
        match dest_side_right {
            Some(true) => {
                // Destination in the right subtree: p_i -> r_o.
                out.connections.push(Connection::P_TO_R);
                out.to_right = merge_dest(out.to_right, req.x_d);
                state.right_dests -= 1;
                r_o_free = false;
            }
            Some(false) => {
                // Destination in the left subtree: p_i -> l_o.
                out.connections.push(Connection::P_TO_L);
                out.to_left = merge_dest(out.to_left, req.x_d - state.right_dests);
                state.left_dests -= 1;
            }
            None => {}
        }

        // Opportunistic matched pair: l_i -> r_o if both ports are free.
        if state.matched > 0 && l_i_free && r_o_free {
            out.connections.push(Connection::L_TO_R);
            out.to_left = merge_source(out.to_left, state.left_sources);
            out.to_right = merge_dest(out.to_right, state.right_dests);
            state.matched -= 1;
            out.scheduled_matched = true;
        }

        Ok(out)
    }

    /// Add a source component to a child message.
    fn merge_source(msg: DownMsg, x_s: u32) -> DownMsg {
        match msg.kind {
            ReqKind::Null => DownMsg::source(x_s),
            ReqKind::D => DownMsg::both(x_s, msg.x_d),
            // A child is never asked for two sources in one round: the link
            // carries one signal.
            ReqKind::S | ReqKind::SD => unreachable!("duplicate source request"),
        }
    }

    /// Add a destination component to a child message.
    fn merge_dest(msg: DownMsg, x_d: u32) -> DownMsg {
        match msg.kind {
            ReqKind::Null => DownMsg::dest(x_d),
            ReqKind::S => DownMsg::both(msg.x_s, x_d),
            ReqKind::D | ReqKind::SD => unreachable!("duplicate destination request"),
        }
    }
}

/// A packed message in the reference's unpacked shape.
fn unpacked(m: DownMsg) -> reference::DownMsg {
    reference::DownMsg { kind: m.kind(), x_s: m.x_s(), x_d: m.x_d() }
}

/// Every request with ranks 0..=4 in each component it has, both shapes.
fn requests() -> Vec<(DownMsg, reference::DownMsg)> {
    let ranks = 0..=4u32;
    let mut reqs = vec![(DownMsg::NULL, reference::DownMsg::NULL)];
    for r in ranks.clone() {
        reqs.push((DownMsg::source(r), reference::DownMsg::source(r)));
        reqs.push((DownMsg::dest(r), reference::DownMsg::dest(r)));
        for d in ranks.clone() {
            reqs.push((DownMsg::both(r, d), reference::DownMsg::both(r, d)));
        }
    }
    reqs
}

#[test]
fn packed_step_matches_the_reference_exhaustively() {
    let reqs = requests();
    assert_eq!(reqs.len(), 1 + 5 + 5 + 25);
    let (mut cases, mut errors, mut matched, mut three) = (0, 0, 0, 0);
    let mut kinds = [0usize; 4];
    for code in 0..4u32.pow(5) {
        let c = |i: u32| (code >> (2 * i)) & 3;
        let start = SwitchState {
            matched: c(0),
            left_sources: c(1),
            right_sources: c(2),
            left_dests: c(3),
            right_dests: c(4),
        };
        for &(req, ref_req) in &reqs {
            assert_eq!(unpacked(req), ref_req);
            let (mut st, mut ref_st) = (start, start);
            let got = cst::padr::step(&mut st, req);
            let want = reference::step(&mut ref_st, ref_req);
            let case = format!("state {start:?} request {req}");
            assert_eq!(st, ref_st, "{case}: state after the step");
            cases += 1;
            kinds[req.kind() as usize] += 1;
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    let held: Vec<Connection> = got.connections.iter().collect();
                    assert_eq!(held, want.connections, "{case}: connections");
                    assert_eq!(got.connections.len(), held.len(), "{case}");
                    assert_eq!(unpacked(got.to_left), want.to_left, "{case}: left message");
                    assert_eq!(unpacked(got.to_right), want.to_right, "{case}: right message");
                    assert_eq!(got.scheduled_matched(), want.scheduled_matched, "{case}");
                    matched += usize::from(want.scheduled_matched);
                    three += usize::from(held.len() == 3);
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got, want, "{case}: error");
                    assert_eq!(st, start, "{case}: an error leaves the state intact");
                    errors += 1;
                }
                (got, want) => panic!("{case}: got {got:?}, reference {want:?}"),
            }
        }
    }
    assert_eq!(cases, 1024 * 36);
    assert_eq!(kinds, [1024, 5 * 1024, 5 * 1024, 25 * 1024]);
    // Every branch was reached: errors, matched pairs, full switches.
    assert!(errors > 0 && matched > 0 && three > 0, "{errors} {matched} {three}");
    let mut st = SwitchState { left_sources: 1, right_dests: 1, ..SwitchState::default() };
    assert_eq!(cst::padr::step(&mut st, DownMsg::both(0, 0)), Err(StepError::CrossingRequest));
}

#[test]
fn packed_messages_match_the_reference_constructors() {
    for r in [0, 1, 7, 1 << 20, DownMsg::MAX_RANK] {
        assert_eq!(unpacked(DownMsg::source(r)), reference::DownMsg::source(r));
        assert_eq!(unpacked(DownMsg::dest(r)), reference::DownMsg::dest(r));
        assert_eq!(unpacked(DownMsg::both(r, 3)), reference::DownMsg::both(r, 3));
        assert_eq!(unpacked(DownMsg::both(2, r)), reference::DownMsg::both(2, r));
    }
    assert_eq!(unpacked(DownMsg::NULL), reference::DownMsg::NULL);
    assert_eq!(DownMsg::NULL.kind(), ReqKind::Null);
}
