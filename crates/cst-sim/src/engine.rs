//! The cycle-level CST simulator.
//!
//! Executes the CSA as the hardware would: Phase 1 as an event-driven
//! upward wave (one cycle per tree level), then one downward control wave
//! plus one data-transfer cycle per round. The paper's timing model
//! (§2: configured paths deliver in "a single clock cycle") gives a
//! makespan of
//!
//! ```text
//! cycles = height           (phase 1)
//!        + w * (height + 1) (per round: control wave + data cycle)
//! ```
//!
//! which the simulator reproduces *by construction of its events*, not by
//! formula — the formula is asserted against the event-driven outcome in
//! tests.
//!
//! The simulator reuses the pure per-switch logic from `cst-padr`
//! (`switch_logic::step`, `phase1`) so the simulated hardware and the
//! host-side scheduler cannot drift apart.

use crate::data::{DataPhase, Delivery};
use crate::event::{Cycle, EventQueue};
use cst_comm::{CommSet, Round, Schedule};

use cst_core::{ConfigArena, CstError, CstTopology, LeafId, NodeId, PowerMeter};
use cst_padr::messages::{DownMsg, ReqKind, UpMsg};
use cst_padr::phase1::SwitchState;
use cst_padr::switch_logic;
use bytes::Bytes;

/// Events flowing through the simulated tree.
#[derive(Clone, Debug)]
enum Ev {
    /// A Phase-1 `C_U` message arriving at `to` from child `from`.
    Up { to: NodeId, from: NodeId, msg: UpMsg },
    /// A Phase-2 `C_D` message arriving at `to`.
    Down { to: NodeId, msg: DownMsg },
    /// The barrier marking the data-transfer cycle of the current round.
    DataCycle,
}

/// Per-round timing record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundTiming {
    /// Cycle at which the root launched the round's control wave.
    pub control_start: Cycle,
    /// Cycle of the data transfer.
    pub data_cycle: Cycle,
}

/// Full simulation result.
#[derive(Debug, PartialEq, Eq)]
pub struct SimOutcome {
    /// The schedule executed (same shape the host scheduler produces).
    pub schedule: Schedule,
    /// Total simulated cycles.
    pub cycles: Cycle,
    /// Per-round timings.
    pub timings: Vec<RoundTiming>,
    /// Payload deliveries of every round, in round order.
    pub deliveries: Vec<Delivery>,
    /// Power accounting (identical model to the host scheduler).
    pub meter: PowerMeter,
}

/// The deterministic per-communication payloads (`payload-<id>-<src>-<dest>`,
/// indexed by comm id) that every execution path — [`simulate`],
/// [`simulate_schedule`] and compiled replay — uses when the caller
/// supplies none.
pub fn default_payloads(set: &CommSet) -> Vec<Bytes> {
    set.iter().map(|(id, c)| default_payload(id, c.source, c.dest)).collect()
}

/// One default payload; kept as the single definition of the text so the
/// compiled program's endpoint table regenerates byte-identical defaults.
pub(crate) fn default_payload(id: cst_comm::CommId, source: LeafId, dest: LeafId) -> Bytes {
    Bytes::from(format!("payload-{id}-{source}-{dest}"))
}

/// Simulate the CSA end to end on `topo` for `set`, transferring the given
/// per-communication payloads (indexed by comm id; defaults are generated
/// if `payloads` is `None`).
///
/// # Examples
///
/// ```
/// use cst_core::CstTopology;
/// use cst_comm::CommSet;
///
/// let topo = CstTopology::with_leaves(8);
/// let set = CommSet::from_pairs(8, &[(0, 7), (1, 6)]); // width 2
/// let sim = cst_sim::simulate(&topo, &set, None).unwrap();
/// assert_eq!(sim.schedule.num_rounds(), 2);
/// // makespan: phase 1 (height) + 2 rounds x (height + 1)
/// assert_eq!(sim.cycles, 3 + 2 * 4);
/// assert_eq!(sim.deliveries.len(), 2); // every payload arrived
/// ```
pub fn simulate(
    topo: &CstTopology,
    set: &CommSet,
    payloads: Option<Vec<Bytes>>,
) -> Result<SimOutcome, CstError> {
    simulate_inner(topo, set, payloads, None)
}

/// [`simulate`] that additionally records every control message into
/// `trace` for replay by the reference model (`cst-model`). The event wave
/// already steps every switch each round (the simulator never prunes), so
/// the trace is complete by construction.
pub fn simulate_traced(
    topo: &CstTopology,
    set: &CommSet,
    payloads: Option<Vec<Bytes>>,
    trace: &mut cst_core::ProtocolTrace,
) -> Result<SimOutcome, CstError> {
    simulate_inner(topo, set, payloads, Some(trace))
}

fn simulate_inner(
    topo: &CstTopology,
    set: &CommSet,
    payloads: Option<Vec<Bytes>>,
    mut trace: Option<&mut cst_core::ProtocolTrace>,
) -> Result<SimOutcome, CstError> {
    set.require_right_oriented()?;
    set.require_well_nested()?;

    let payloads = payloads.unwrap_or_else(|| default_payloads(set));
    assert_eq!(payloads.len(), set.len(), "one payload per communication");

    let n = topo.node_table_len();
    let mut q: EventQueue<Ev> = EventQueue::new();

    // ---- Phase 1 as an upward event wave -------------------------------
    let roles = set.roles();
    for leaf in topo.leaves() {
        let (s, d) = roles[leaf.0].announcement();
        let node = topo.leaf_node(leaf);
        q.schedule(1, Ev::Up {
            to: node.parent().expect("leaf has parent"),
            from: node,
            msg: UpMsg { sources: s, dests: d },
        });
    }
    let mut pending_up: Vec<(Option<UpMsg>, Option<UpMsg>)> = vec![(None, None); n];
    let mut states: Vec<SwitchState> = vec![SwitchState::default(); n];
    let mut phase1_done_at: Cycle = 0;
    while let Some((t, ev)) = q.pop() {
        let Ev::Up { to, from, msg } = ev else { unreachable!("phase 1 only") };
        let slot = &mut pending_up[to.index()];
        if from.is_left_child() {
            slot.0 = Some(msg);
        } else {
            slot.1 = Some(msg);
        }
        if let (Some(l), Some(r)) = (slot.0, slot.1) {
            let matched = l.sources.min(r.dests);
            states[to.index()] = SwitchState {
                matched,
                left_sources: l.sources - matched,
                right_sources: r.sources,
                left_dests: l.dests,
                right_dests: r.dests - matched,
            };
            let up = UpMsg {
                sources: l.sources - matched + r.sources,
                dests: l.dests + r.dests - matched,
            };
            match to.parent() {
                Some(p) => q.schedule(t + 1, Ev::Up { to: p, from: to, msg: up }),
                None => {
                    if up.sources != 0 || up.dests != 0 {
                        return Err(CstError::IncompleteSet {
                            unmatched_sources: up.sources,
                            unmatched_dests: up.dests,
                        });
                    }
                    phase1_done_at = t;
                }
            }
        }
    }
    debug_assert_eq!(phase1_done_at, Cycle::from(topo.height()));

    if let Some(t) = trace.as_deref_mut() {
        // Snapshot C_S before the rounds consume it, in the analyzer's
        // layout [M, S_L−M, D_L, S_R, D_R−M] (leaf entries zero).
        t.reset(topo.num_leaves());
        t.set_phase1(states.iter().map(|s| {
            [s.matched, s.left_sources, s.left_dests, s.right_sources, s.right_dests]
        }));
    }

    // ---- Phase 2: one control wave + data cycle per round ---------------
    let pairing: std::collections::HashMap<LeafId, (cst_comm::CommId, LeafId)> =
        set.iter().map(|(id, c)| (c.source, (id, c.dest))).collect();
    let mut meter = PowerMeter::new(topo);
    let mut schedule = Schedule::default();
    let mut timings = Vec::new();
    let mut deliveries = Vec::new();
    let mut remaining = set.len();
    let mut now = phase1_done_at;
    let height = Cycle::from(topo.height());
    let round_limit = set.len() + 1;
    // Dense per-round configuration scratch, reused across rounds.
    let mut arena = ConfigArena::new(topo);

    while remaining > 0 {
        if schedule.rounds.len() >= round_limit {
            return Err(CstError::RoundOverrun { limit: round_limit });
        }
        let control_start = now;
        meter.begin_round();
        if let Some(t) = trace.as_deref_mut() {
            t.begin_round();
        }
        let mut comms: Vec<cst_comm::CommId> = Vec::new();
        let mut active_sources: Vec<LeafId> = Vec::new();
        let mut active_dests: Vec<LeafId> = Vec::new();

        q.schedule(control_start, Ev::Down { to: NodeId::ROOT, msg: DownMsg::NULL });
        q.schedule(control_start + height + 1, Ev::DataCycle);
        let mut data_cycle = control_start + height + 1;
        while let Some((t, ev)) = q.pop() {
            match ev {
                Ev::Down { to, msg } => {
                    if let Some(leaf) = topo.node_leaf(to) {
                        match msg.kind() {
                            ReqKind::Null => {}
                            ReqKind::S => active_sources.push(leaf),
                            ReqKind::D => active_dests.push(leaf),
                            ReqKind::SD => {
                                return Err(CstError::ProtocolViolation {
                                    node: to,
                                    detail: "leaf received [s,d]".into(),
                                })
                            }
                        }
                        continue;
                    }
                    let result = switch_logic::step(&mut states[to.index()], msg)
                        .map_err(|e| CstError::ProtocolViolation {
                            node: to,
                            detail: e.to_string(),
                        })?;
                    for c in result.connections {
                        arena.set(to, c).map_err(|e| CstError::ProtocolViolation {
                            node: to,
                            detail: e.to_string(),
                        })?;
                        meter.require(to, c);
                    }
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.record(cst_core::SwitchEvent {
                            node: to,
                            req: msg.into(),
                            config: result.connections.config(),
                            to_left: result.to_left.into(),
                            to_right: result.to_right.into(),
                        });
                    }
                    q.schedule(t + 1, Ev::Down { to: to.left_child(), msg: result.to_left });
                    q.schedule(t + 1, Ev::Down { to: to.right_child(), msg: result.to_right });
                }
                Ev::DataCycle => {
                    data_cycle = t;
                    break;
                }
                Ev::Up { .. } => unreachable!("phase 1 finished"),
            }
        }

        // Data transfer: propagate payloads through the configured circuits
        // (straight off the arena, before extraction).
        let phase = DataPhase::new(topo, &arena);
        for &src in &active_sources {
            let (id, expected) = *pairing.get(&src).ok_or(CstError::ProtocolViolation {
                node: topo.leaf_node(src),
                detail: "non-source PE activated".into(),
            })?;
            let delivery = phase.transfer(src, payloads[id.0].clone())?;
            if delivery.dest != expected {
                return Err(CstError::DeliveryMismatch { dest: delivery.dest });
            }
            if !active_dests.contains(&delivery.dest) {
                return Err(CstError::ProtocolViolation {
                    node: topo.leaf_node(delivery.dest),
                    detail: "destination PE not activated for read".into(),
                });
            }
            deliveries.push(delivery);
            comms.push(id);
        }
        if comms.is_empty() {
            return Err(CstError::ProtocolViolation {
                node: NodeId::ROOT,
                detail: "simulated round made no progress".into(),
            });
        }
        remaining -= comms.len();
        comms.sort_unstable();
        schedule.rounds.push(Round { comms, configs: arena.take_round() });
        timings.push(RoundTiming { control_start, data_cycle });
        now = data_cycle;
    }

    Ok(SimOutcome { schedule, cycles: now, timings, deliveries, meter })
}

/// Execute an externally-computed [`Schedule`] (e.g. a baseline's) on the
/// simulator: per round, a configuration wave (`height + 1` cycles, the
/// same cost as the CSA's control wave) followed by one data cycle; every
/// payload is driven through the configured circuits and checked.
///
/// The ID-assignment prologue of an ID-based scheduler is charged like
/// Phase 1 (`height` cycles), keeping makespans comparable with
/// [`simulate`].
pub fn simulate_schedule(
    topo: &CstTopology,
    set: &CommSet,
    schedule: &Schedule,
    payloads: Option<Vec<Bytes>>,
) -> Result<SimOutcome, CstError> {
    let payloads = payloads.unwrap_or_else(|| default_payloads(set));
    assert_eq!(payloads.len(), set.len(), "one payload per communication");
    let height = Cycle::from(topo.height());
    let mut meter = PowerMeter::new(topo);
    let mut timings = Vec::with_capacity(schedule.rounds.len());
    let mut deliveries = Vec::new();
    let mut now = height; // prologue (ID assignment / phase 1 analogue)
    for round in &schedule.rounds {
        let control_start = now;
        meter.begin_round();
        for (node, conn) in round.requirements() {
            meter.require(node, conn);
        }
        let data_cycle = control_start + height + 1;
        let phase = DataPhase::new(topo, &round.configs);
        for &id in &round.comms {
            let comm = set.get(id).ok_or(CstError::ProtocolViolation {
                node: NodeId::ROOT,
                detail: format!("unknown comm id {id}"),
            })?;
            let delivery = phase.transfer(comm.source, payloads[id.0].clone())?;
            if delivery.dest != comm.dest {
                return Err(CstError::DeliveryMismatch { dest: delivery.dest });
            }
            deliveries.push(delivery);
        }
        timings.push(RoundTiming { control_start, data_cycle });
        now = data_cycle;
    }
    Ok(SimOutcome {
        schedule: schedule.clone(),
        cycles: now,
        timings,
        deliveries,
        meter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_comm::examples;

    #[test]
    fn simulation_matches_host_scheduler() {
        let topo = CstTopology::with_leaves(16);
        let set = examples::paper_figure_2();
        let sim = simulate(&topo, &set, None).unwrap();
        let host = cst_padr::CsaScratch::new()
            .schedule(&topo, &set, &mut cst_comm::SchedulePool::new())
            .unwrap();
        assert_eq!(sim.schedule.num_rounds(), host.schedule.num_rounds());
        for (a, b) in sim.schedule.rounds.iter().zip(&host.schedule.rounds) {
            assert_eq!(a.comms, b.comms);
            assert_eq!(a.configs, b.configs);
        }
        // identical power profile
        assert_eq!(sim.meter.report(&topo), host.meter.report(&topo));
    }

    #[test]
    fn makespan_formula_holds() {
        let topo = CstTopology::with_leaves(32);
        let set = examples::full_nest(32); // width 16
        let sim = simulate(&topo, &set, None).unwrap();
        let h = Cycle::from(topo.height());
        assert_eq!(sim.schedule.num_rounds(), 16);
        assert_eq!(sim.cycles, h + 16 * (h + 1));
        // per-round spacing is exactly height+1 cycles
        for w in sim.timings.windows(2) {
            assert_eq!(w[1].control_start - w[0].control_start, h + 1);
        }
    }

    #[test]
    fn payloads_arrive_intact() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)]);
        let payloads: Vec<Bytes> =
            (0..3).map(|i| Bytes::from(vec![i as u8; 64])).collect();
        let sim = simulate(&topo, &set, Some(payloads.clone())).unwrap();
        assert_eq!(sim.deliveries.len(), 3);
        for d in &sim.deliveries {
            let id = set
                .iter()
                .find(|(_, c)| c.dest == d.dest)
                .map(|(id, _)| id)
                .unwrap();
            assert_eq!(d.payload, payloads[id.0]);
        }
    }

    #[test]
    fn incomplete_set_detected_by_simulated_phase1() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(5, 2)]);
        assert!(matches!(
            simulate(&topo, &set, None),
            Err(CstError::NotRightOriented { .. })
        ));
    }

    #[test]
    fn replaying_a_baseline_schedule_delivers_everything() {
        let topo = CstTopology::with_leaves(16);
        let set = examples::paper_figure_2();
        let roy =
            cst_baseline::roy::run(&topo, &set, cst_baseline::LevelOrder::InnermostFirst).unwrap();
        let sim = simulate_schedule(&topo, &set, &roy.schedule, None).unwrap();
        assert_eq!(sim.deliveries.len(), set.len());
        // same makespan formula as the CSA run with the same round count
        let h = Cycle::from(topo.height());
        assert_eq!(sim.cycles, h + roy.schedule.num_rounds() as u64 * (h + 1));
    }

    #[test]
    fn empty_set_takes_only_phase1() {
        let topo = CstTopology::with_leaves(16);
        let sim = simulate(&topo, &CommSet::empty(16), None).unwrap();
        assert_eq!(sim.schedule.num_rounds(), 0);
        assert_eq!(sim.cycles, Cycle::from(topo.height()));
    }
}
