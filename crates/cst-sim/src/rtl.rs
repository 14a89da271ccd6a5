//! RTL-style machine model: every switch and PE is an independent clocked
//! object with its own mailboxes, control unit and data unit (the paper's
//! Fig. 3(a) split), stepped strictly cycle by cycle.
//!
//! The [`engine`](crate::engine) module drives the same per-switch logic
//! through a global event queue — convenient, but centrally orchestrated.
//! This module is the decentralized counterpart: at each tick every node
//! reads only its own mailbox and local state, and writes only messages to
//! its neighbors; no node touches global state. Equivalence of the two
//! (same schedules, same power, same cycle counts) is asserted in tests —
//! the strongest evidence that the CSA really is the *local* algorithm the
//! paper claims (only O(1) local words per switch, Theorem 5).

use cst_comm::{CommSet, Round, Schedule};
use cst_core::{ConfigArena, CstError, CstTopology, LeafId, NodeId, PeRole, PowerMeter};
use cst_padr::messages::{DownMsg, ReqKind, UpMsg};
use cst_padr::phase1::SwitchState;
use cst_padr::switch_logic;

/// One hardware switch: control state + held data-unit configuration.
#[derive(Clone, Debug, Default)]
struct HwSwitch {
    /// Phase-1 buffers.
    from_left: Option<UpMsg>,
    from_right: Option<UpMsg>,
    phase1_done: bool,
    /// The stored control information `C_S`.
    state: SwitchState,
    /// Incoming Phase-2 request for this tick.
    inbox: Option<DownMsg>,
}

/// One hardware PE.
#[derive(Clone, Debug, Default)]
struct HwPe {
    role: PeRole,
}

/// Outgoing Phase-1 messages produced in a tick (applied at the next
/// tick — models a one-cycle link latency). Phase-2 wires are the
/// switches' own mailboxes.
struct Out {
    to: NodeId,
    from_left: bool,
    msg: UpMsg,
}

/// The whole machine.
pub struct RtlMachine<'t> {
    topo: &'t CstTopology,
    switches: Vec<HwSwitch>,
    pes: Vec<HwPe>,
    meter: PowerMeter,
    cycle: u64,
    /// Dense per-round configuration scratch (host-side bookkeeping, not
    /// part of the modeled hardware), reused across rounds.
    arena: ConfigArena,
}

/// Result of one executed round (one control wave).
#[derive(Clone, Debug)]
pub struct RtlRound {
    /// Per-switch configurations required this round.
    pub round: Round,
    /// Leaves activated as sources this round.
    pub sources: Vec<LeafId>,
    /// Cycle at which the wave reached the leaves.
    pub completed_at: u64,
}

impl<'t> RtlMachine<'t> {
    /// Build the machine and latch the PEs' roles for `set`.
    pub fn new(topo: &'t CstTopology, set: &CommSet) -> RtlMachine<'t> {
        assert_eq!(topo.num_leaves(), set.num_leaves());
        let roles = set.roles();
        RtlMachine {
            topo,
            switches: vec![HwSwitch::default(); topo.node_table_len()],
            pes: roles.into_iter().map(|role| HwPe { role }).collect(),
            meter: PowerMeter::new(topo),
            cycle: 0,
            arena: ConfigArena::new(topo),
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The power meter (hold semantics, accumulated across everything the
    /// machine has executed).
    pub fn meter(&self) -> &PowerMeter {
        &self.meter
    }

    /// Run Phase 1 to completion: leaves announce at cycle 0, each level
    /// latches one cycle later. Returns the cycle at which the root
    /// finished (== tree height).
    pub fn run_phase1(&mut self) -> Result<u64, CstError> {
        // Tick 0: leaves emit.
        let mut wires: Vec<Out> = Vec::new();
        for leaf in self.topo.leaves() {
            let (s, d) = self.pes[leaf.0].role.announcement();
            let node = self.topo.leaf_node(leaf);
            wires.push(Out {
                to: node.parent().expect("leaf has parent"),
                from_left: node.is_left_child(),
                msg: UpMsg { sources: s, dests: d },
            });
        }
        while !wires.is_empty() {
            self.cycle += 1;
            // Deliver.
            for Out { to, from_left, msg } in wires.drain(..) {
                let hw = &mut self.switches[to.index()];
                if from_left {
                    hw.from_left = Some(msg);
                } else {
                    hw.from_right = Some(msg);
                }
            }
            // Step every switch locally.
            let mut next: Vec<Out> = Vec::new();
            for u in self.topo.switches_top_down() {
                let hw = &mut self.switches[u.index()];
                if hw.phase1_done {
                    continue;
                }
                if let (Some(l), Some(r)) = (hw.from_left, hw.from_right) {
                    let matched = l.sources.min(r.dests);
                    hw.state = SwitchState {
                        matched,
                        left_sources: l.sources - matched,
                        right_sources: r.sources,
                        left_dests: l.dests,
                        right_dests: r.dests - matched,
                    };
                    hw.phase1_done = true;
                    let up = UpMsg {
                        sources: l.sources - matched + r.sources,
                        dests: l.dests + r.dests - matched,
                    };
                    match u.parent() {
                        Some(p) => next.push(Out {
                            to: p,
                            from_left: u.is_left_child(),
                            msg: up,
                        }),
                        None => {
                            if up.sources != 0 || up.dests != 0 {
                                return Err(CstError::IncompleteSet {
                                    unmatched_sources: up.sources,
                                    unmatched_dests: up.dests,
                                });
                            }
                        }
                    }
                }
            }
            wires = next;
        }
        Ok(self.cycle)
    }

    /// Execute one Phase-2 round: inject `[null,null]` at the root and
    /// tick until the wave has passed the leaves. Every switch acts only
    /// on its own mailbox.
    pub fn run_round(&mut self) -> Result<RtlRound, CstError> {
        self.run_round_inner(None)
    }

    fn run_round_inner(
        &mut self,
        mut trace: Option<&mut cst_core::ProtocolTrace>,
    ) -> Result<RtlRound, CstError> {
        self.meter.begin_round();
        if let Some(t) = trace.as_deref_mut() {
            t.begin_round();
        }
        let mut sources = Vec::new();
        self.switches[NodeId::ROOT.index()].inbox = Some(DownMsg::NULL);
        let mut active = true;
        while active {
            self.cycle += 1;
            active = false;
            let mut deliveries: Vec<(NodeId, DownMsg)> = Vec::new();
            for u in self.topo.switches_top_down() {
                let Some(req) = self.switches[u.index()].inbox.take() else {
                    continue;
                };
                let result = switch_logic::step(&mut self.switches[u.index()].state, req)
                    .map_err(|e| CstError::ProtocolViolation {
                        node: u,
                        detail: e.to_string(),
                    })?;
                for c in result.connections {
                    self.arena.set(u, c).map_err(|e| CstError::ProtocolViolation {
                        node: u,
                        detail: e.to_string(),
                    })?;
                    self.meter.require(u, c);
                }
                if let Some(t) = trace.as_deref_mut() {
                    t.record(cst_core::SwitchEvent {
                        node: u,
                        req: req.into(),
                        config: result.connections.config(),
                        to_left: result.to_left.into(),
                        to_right: result.to_right.into(),
                    });
                }
                deliveries.push((u.left_child(), result.to_left));
                deliveries.push((u.right_child(), result.to_right));
            }
            for (node, msg) in deliveries {
                if let Some(leaf) = self.topo.node_leaf(node) {
                    match msg.kind() {
                        ReqKind::Null => {}
                        ReqKind::S => sources.push(leaf),
                        ReqKind::D => {}
                        ReqKind::SD => {
                            return Err(CstError::ProtocolViolation {
                                node,
                                detail: "leaf received [s,d]".into(),
                            })
                        }
                    }
                } else {
                    self.switches[node.index()].inbox = Some(msg);
                    active = true;
                }
            }
        }
        let round = Round { comms: Vec::new(), configs: self.arena.take_round() };
        Ok(RtlRound { round, sources, completed_at: self.cycle })
    }

    /// Run the whole algorithm: Phase 1 then rounds until every
    /// communication in `set` has been performed (identified by tracing
    /// the configured circuits, exactly as the host scheduler does).
    pub fn run_to_completion(&mut self, set: &CommSet) -> Result<Schedule, CstError> {
        self.run_to_completion_inner(set, None)
    }

    /// [`RtlMachine::run_to_completion`] that additionally records every
    /// control message into `trace` for replay by the reference model
    /// (`cst-model`). The tick loop steps every switch whose mailbox holds
    /// a message — with the `[null,null]` fan-out that is every internal
    /// switch once per round, so the trace is complete by construction.
    pub fn run_to_completion_traced(
        &mut self,
        set: &CommSet,
        trace: &mut cst_core::ProtocolTrace,
    ) -> Result<Schedule, CstError> {
        self.run_to_completion_inner(set, Some(trace))
    }

    fn run_to_completion_inner(
        &mut self,
        set: &CommSet,
        mut trace: Option<&mut cst_core::ProtocolTrace>,
    ) -> Result<Schedule, CstError> {
        self.run_phase1()?;
        if let Some(t) = trace.as_deref_mut() {
            // Snapshot C_S before the rounds consume it, in the analyzer's
            // layout [M, S_L−M, D_L, S_R, D_R−M] (leaf entries zero).
            t.reset(self.topo.num_leaves());
            t.set_phase1(self.switches.iter().map(|hw| {
                let s = &hw.state;
                [s.matched, s.left_sources, s.left_dests, s.right_sources, s.right_dests]
            }));
        }
        let by_source: std::collections::HashMap<LeafId, (cst_comm::CommId, LeafId)> =
            set.iter().map(|(id, c)| (c.source, (id, c.dest))).collect();
        let mut schedule = Schedule::default();
        let mut remaining = set.len();
        let limit = set.len() + 1;
        while remaining > 0 {
            if schedule.rounds.len() >= limit {
                return Err(CstError::RoundOverrun { limit });
            }
            let mut rtl_round = self.run_round_inner(trace.as_deref_mut())?;
            for &src in &rtl_round.sources {
                let dest = cst_padr::trace_circuit(self.topo, &rtl_round.round.configs, src)?;
                let &(id, expected) = by_source.get(&src).ok_or(CstError::ProtocolViolation {
                    node: self.topo.leaf_node(src),
                    detail: "non-source PE activated".into(),
                })?;
                if dest != expected {
                    return Err(CstError::DeliveryMismatch { dest });
                }
                rtl_round.round.comms.push(id);
            }
            if rtl_round.round.comms.is_empty() {
                return Err(CstError::ProtocolViolation {
                    node: NodeId::ROOT,
                    detail: "RTL round made no progress".into(),
                });
            }
            remaining -= rtl_round.round.comms.len();
            rtl_round.round.comms.sort_unstable();
            schedule.rounds.push(rtl_round.round);
        }
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_comm::examples;

    #[test]
    fn phase1_takes_height_cycles() {
        let topo = CstTopology::with_leaves(32);
        let set = examples::full_nest(32);
        let mut m = RtlMachine::new(&topo, &set);
        assert_eq!(m.run_phase1().unwrap(), 5);
    }

    #[test]
    fn rtl_matches_host_scheduler_exactly() {
        for set in [
            examples::paper_figure_2(),
            examples::paper_figure_3b(),
            examples::full_nest(16),
            examples::sibling_pairs(16),
        ] {
            let topo = CstTopology::with_leaves(16);
            let host = cst_padr::CsaScratch::new()
                .schedule(&topo, &set, &mut cst_comm::SchedulePool::new())
                .unwrap();
            let mut m = RtlMachine::new(&topo, &set);
            let schedule = m.run_to_completion(&set).unwrap();
            assert_eq!(schedule.num_rounds(), host.schedule.num_rounds());
            for (a, b) in schedule.rounds.iter().zip(&host.schedule.rounds) {
                assert_eq!(a.comms, b.comms);
                assert_eq!(a.configs, b.configs);
            }
            assert_eq!(m.meter().report(&topo), host.meter.report(&topo));
        }
    }

    #[test]
    fn rtl_matches_event_engine_timing() {
        let topo = CstTopology::with_leaves(16);
        let set = examples::paper_figure_2();
        let sim = crate::engine::simulate(&topo, &set, None).unwrap();
        let mut m = RtlMachine::new(&topo, &set);
        let schedule = m.run_to_completion(&set).unwrap();
        // The RTL machine counts control waves only (a wave traverses the
        // h switch levels in h ticks); the event engine adds one data
        // cycle per round on top.
        let h = u64::from(topo.height());
        let r = schedule.num_rounds() as u64;
        assert_eq!(m.cycle(), h + r * h);
        assert_eq!(sim.cycles, h + r * (h + 1));
    }

    #[test]
    fn rtl_rejects_incomplete_sets() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(5, 2)]);
        let mut m = RtlMachine::new(&topo, &set);
        assert!(m.run_phase1().is_err());
    }

    #[test]
    fn local_state_is_constant_words() {
        // The whole point: a hardware switch is five counters, two
        // phase-1 buffers, a flag and a mailbox — O(1) words.
        assert!(std::mem::size_of::<HwSwitch>() <= 64);
    }
}
