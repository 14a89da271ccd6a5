//! Compile-and-replay: lower a verified [`Schedule`] into a flat,
//! straight-line program and execute it without the interpreter.
//!
//! [`simulate_schedule`](crate::simulate_schedule) pays generic-interpreter
//! cost on every run: it re-meters every requirement of every round against
//! stamp tables, resolves each hop of each circuit through a binary search
//! over the round's sparse `RoundConfigs`, and clones the schedule and a
//! fresh `PowerMeter` into the outcome. None of that depends on the
//! payloads — for a fixed schedule it is the same work every time.
//!
//! [`CompiledProgram`] does that work once, at compile time:
//!
//! * **Flat switch state.** All switch state lives in one `Vec`-backed
//!   buffer indexed by the absolute heap offset `NodeId::index()` — no
//!   `NodeId`-keyed maps, no per-hop binary search. The CST is a complete
//!   binary tree, so the offsets of a node's parent (`i / 2`) and children
//!   (`2i`, `2i + 1`) are arithmetic on the offset itself.
//! * **Config-delta instruction streams.** Under hold semantics a round
//!   only has to *change* the connections that differ from what switches
//!   already hold — exactly the transitions Theorem 8 bounds at O(1) per
//!   switch for CSA schedules. The compiler diffs consecutive held states
//!   and emits one [`DeltaInstr`] per newly-established connection;
//!   replaying a round is a linear sweep over its instruction span.
//! * **Flat delivery table.** Each round's transfers are lowered to
//!   `DeliveryPlan` records (comm id, endpoints, expected hop count).
//!   Replay still drives every signal through the flat state — it is an
//!   execution, not a lookup — and cross-checks the walk against the plan.
//! * **Precomputed accounting.** The power meter is a pure function of the
//!   requirement sequence, so the compiler runs it once and replay copies
//!   the finished meter out (an allocation-free `clone_from` on the warm
//!   path). Timings follow the paper's makespan formula
//!   `cycles = height + rounds * (height + 1)`.
//!
//! The replayed [`SimOutcome`] is byte-for-byte identical to the
//! event-driven interpreter's, which the differential tests in
//! `tests/compiled_replay.rs` pin across routers, payloads and fault masks.
//! Degraded (fault-masked) schedules need no special casing: half-duplex
//! split rounds are just more rounds, hence more instructions.

use crate::data::Delivery;
use crate::engine::{default_payload, RoundTiming, SimOutcome};
use crate::event::Cycle;
use bytes::Bytes;
use cst_comm::{CommId, CommSet, Schedule};
use cst_core::{CstError, CstTopology, LeafId, NodeId, PowerMeter, Side, SwitchConfig};

/// One lowered reconfiguration: `force(conn)` on the switch whose state
/// lives at absolute offset `switch` in the flat buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaInstr {
    /// Absolute offset into the flat switch-state buffer (`NodeId::index()`).
    pub switch: u32,
    /// The connection to establish (evicting whatever uses its ports).
    pub conn: cst_core::Connection,
}

/// One lowered transfer: drive `source`'s payload through the configured
/// circuits and check it arrives at `dest` in exactly `hops` switches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct DeliveryPlan {
    comm: CommId,
    source: LeafId,
    dest: LeafId,
    hops: u32,
}

/// A verified schedule lowered to straight-line form: per-round delta
/// instruction spans over a flat switch-state buffer, a flat delivery
/// table, and the precomputed power meter. Compile once with
/// [`CompiledProgram::compile`], then [`replay`](CompiledProgram::replay)
/// any number of times; [`recompile`](CompiledProgram::recompile) retargets
/// a pooled program without dropping its buffers.
#[derive(Debug)]
pub struct CompiledProgram {
    num_leaves: usize,
    height: u32,
    state_len: usize,
    /// Concatenated per-round delta streams; round `r` owns
    /// `instrs[instr_ends[r-1]..instr_ends[r]]`.
    instrs: Vec<DeltaInstr>,
    instr_ends: Vec<u32>,
    /// Concatenated per-round delivery plans, same span encoding.
    plans: Vec<DeliveryPlan>,
    plan_ends: Vec<u32>,
    /// `(source, dest)` per comm id of the compiled set — regenerates
    /// default payloads and validates caller-supplied payload counts.
    endpoints: Vec<(LeafId, LeafId)>,
    /// Final accounting, precomputed: the meter is a pure function of the
    /// requirement sequence, so replay copies instead of re-metering.
    meter: PowerMeter,
    /// Owned copy of the source schedule for outcome assembly.
    schedule: Schedule,
}

/// Reusable replay buffers: the flat switch-state vector plus shells for
/// every field of the produced [`SimOutcome`]. Feed outcomes back with
/// [`recycle`](ReplayScratch::recycle) and the warm path
/// ([`CompiledProgram::replay_with`]) performs zero heap allocations.
#[derive(Debug, Default)]
pub struct ReplayScratch {
    state: Vec<SwitchConfig>,
    meter: Option<PowerMeter>,
    timings: Vec<RoundTiming>,
    deliveries: Vec<Delivery>,
    schedule: Schedule,
}

impl ReplayScratch {
    /// Empty scratch; buffers are sized by the first (cold) replay.
    pub fn new() -> Self {
        ReplayScratch::default()
    }

    /// Return a replayed outcome's buffers for reuse. The shells keep
    /// their shape — the next same-program replay overwrites them without
    /// touching the heap.
    pub fn recycle(&mut self, out: SimOutcome) {
        self.meter = Some(out.meter);
        self.timings = out.timings;
        self.deliveries = out.deliveries;
        self.schedule = out.schedule;
    }
}

impl CompiledProgram {
    /// Lower `schedule` (as routed for `set` on `topo`) into straight-line
    /// form. Fails with the interpreter's error on malformed schedules —
    /// unknown comm ids, broken circuits, wrong destinations.
    pub fn compile(
        topo: &CstTopology,
        set: &CommSet,
        schedule: &Schedule,
    ) -> Result<CompiledProgram, CstError> {
        let mut prog = CompiledProgram {
            num_leaves: topo.num_leaves(),
            height: topo.height(),
            state_len: topo.node_table_len(),
            instrs: Vec::new(),
            instr_ends: Vec::new(),
            plans: Vec::new(),
            plan_ends: Vec::new(),
            endpoints: Vec::new(),
            meter: PowerMeter::new(topo),
            schedule: Schedule::default(),
        };
        prog.lower(topo, set, schedule)?;
        Ok(prog)
    }

    /// Re-lower a (possibly different) schedule into this program, reusing
    /// every buffer. A pool of spare programs plus `recompile` is to
    /// compilation what `SchedulePool` is to routing.
    pub fn recompile(
        &mut self,
        topo: &CstTopology,
        set: &CommSet,
        schedule: &Schedule,
    ) -> Result<(), CstError> {
        self.num_leaves = topo.num_leaves();
        self.height = topo.height();
        self.state_len = topo.node_table_len();
        self.instrs.clear();
        self.instr_ends.clear();
        self.plans.clear();
        self.plan_ends.clear();
        self.endpoints.clear();
        self.meter.reset(topo);
        self.lower(topo, set, schedule)
    }

    fn lower(
        &mut self,
        topo: &CstTopology,
        set: &CommSet,
        schedule: &Schedule,
    ) -> Result<(), CstError> {
        for (_, c) in set.iter() {
            self.endpoints.push((c.source, c.dest));
        }
        for round in &schedule.rounds {
            // The meter's held state *is* the hold-semantics switch state:
            // `require` returns true exactly when the connection was not
            // already held, i.e. exactly when replay must issue a `force`.
            self.meter.begin_round();
            for (node, conn) in round.requirements() {
                if self.meter.require(node, conn) {
                    self.instrs.push(DeltaInstr { switch: node.index() as u32, conn });
                }
            }
            self.instr_ends.push(self.instrs.len() as u32);
            // Lower the round's transfers, walking each circuit once to
            // validate it and pin its hop count.
            let phase = crate::data::DataPhase::new(topo, &round.configs);
            for &id in &round.comms {
                let comm = set.get(id).ok_or_else(|| CstError::ProtocolViolation {
                    node: NodeId::ROOT,
                    detail: format!("unknown comm id {id}"),
                })?;
                let d = phase.transfer(comm.source, Bytes::new())?;
                if d.dest != comm.dest {
                    return Err(CstError::DeliveryMismatch { dest: d.dest });
                }
                self.plans.push(DeliveryPlan {
                    comm: id,
                    source: comm.source,
                    dest: comm.dest,
                    hops: d.hops as u32,
                });
            }
            self.plan_ends.push(self.plans.len() as u32);
        }
        self.schedule.clone_from(schedule);
        Ok(())
    }

    /// Rounds in the compiled schedule.
    pub fn num_rounds(&self) -> usize {
        self.instr_ends.len()
    }

    /// Total delta instructions — the hold-semantics reconfiguration count
    /// Theorem 8 bounds, and exactly the meter's total power units.
    pub fn num_instrs(&self) -> usize {
        self.instrs.len()
    }

    /// The schedule this program was lowered from.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The precomputed power accounting replay copies out.
    pub fn meter(&self) -> &PowerMeter {
        &self.meter
    }

    /// Default payloads for the compiled set, byte-identical to the
    /// interpreter's (`payload-<id>-<src>-<dest>`).
    pub fn default_payloads(&self) -> Vec<Bytes> {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| default_payload(CommId(i), s, d))
            .collect()
    }

    /// Replay with fresh buffers; `None` payloads regenerate the
    /// interpreter's defaults. Convenience wrapper over
    /// [`replay_with`](CompiledProgram::replay_with).
    pub fn replay(&self, payloads: Option<Vec<Bytes>>) -> Result<SimOutcome, CstError> {
        let payloads = payloads.unwrap_or_else(|| self.default_payloads());
        self.replay_with(&mut ReplayScratch::new(), &payloads)
    }

    /// Execute the program: per round, a linear sweep over its delta
    /// instructions followed by driving every planned transfer through the
    /// flat switch state. Allocation-free once `scratch` is warm.
    pub fn replay_with(
        &self,
        scratch: &mut ReplayScratch,
        payloads: &[Bytes],
    ) -> Result<SimOutcome, CstError> {
        assert_eq!(payloads.len(), self.endpoints.len(), "one payload per communication");
        // Reset only the switches this program touches: every switch that
        // is ever configured received at least one instruction when first
        // configured, so clearing per instruction covers them all.
        if scratch.state.len() < self.state_len {
            scratch.state.resize(self.state_len, SwitchConfig::empty());
        }
        for ins in &self.instrs {
            scratch.state[ins.switch as usize].clear();
        }

        let mut timings = std::mem::take(&mut scratch.timings);
        timings.clear();
        let mut deliveries = std::mem::take(&mut scratch.deliveries);
        deliveries.clear();

        let height = Cycle::from(self.height);
        let mut now = height; // prologue, as in the interpreter
        let (mut instr_lo, mut plan_lo) = (0usize, 0usize);
        for r in 0..self.instr_ends.len() {
            let control_start = now;
            let data_cycle = control_start + height + 1;
            let instr_hi = self.instr_ends[r] as usize;
            for ins in &self.instrs[instr_lo..instr_hi] {
                scratch.state[ins.switch as usize].force(ins.conn);
            }
            instr_lo = instr_hi;
            let plan_hi = self.plan_ends[r] as usize;
            for plan in &self.plans[plan_lo..plan_hi] {
                let d = walk_flat(
                    &scratch.state,
                    self.num_leaves,
                    self.height,
                    plan.source,
                    payloads[plan.comm.0].clone(),
                )?;
                if d.dest != plan.dest || d.hops != plan.hops as usize {
                    return Err(CstError::DeliveryMismatch { dest: d.dest });
                }
                deliveries.push(d);
            }
            plan_lo = plan_hi;
            timings.push(RoundTiming { control_start, data_cycle });
            now = data_cycle;
        }

        let meter = match scratch.meter.take() {
            Some(mut m) => {
                m.clone_from(&self.meter);
                m
            }
            None => self.meter.clone(),
        };
        let mut schedule = std::mem::take(&mut scratch.schedule);
        schedule.clone_from(&self.schedule);
        Ok(SimOutcome { schedule, cycles: now, timings, deliveries, meter })
    }
}

/// The interpreter's circuit walk, specialized to the flat buffer: every
/// configuration lookup is one array index on the absolute offset instead
/// of a binary search over sparse round configs. The held state may carry
/// connections retained from earlier rounds, but a verified round forces
/// every connection its circuits use, so the walk follows exactly the
/// round's circuits (the caller cross-checks dest and hops regardless).
fn walk_flat(
    state: &[SwitchConfig],
    num_leaves: usize,
    height: u32,
    source: LeafId,
    payload: Bytes,
) -> Result<Delivery, CstError> {
    let mut node = num_leaves + source.0; // absolute offset of the leaf
    let mut hops = 0usize;
    let max_hops = 2 * height as usize + 2;
    loop {
        let parent = node / 2;
        if parent == 0 {
            return Err(CstError::ProtocolViolation {
                node: NodeId(node),
                detail: "signal climbed past the root".into(),
            });
        }
        let entering = if node.is_multiple_of(2) { Side::Left } else { Side::Right };
        let out = state[parent].output_of(entering).ok_or_else(|| CstError::ProtocolViolation {
            node: NodeId(parent),
            detail: format!("no connection from {entering}i"),
        })?;
        hops += 1;
        if hops > max_hops {
            return Err(CstError::ProtocolViolation {
                node: NodeId(parent),
                detail: "signal exceeded the hop bound".into(),
            });
        }
        match out {
            Side::Parent => node = parent,
            side => {
                // Turnaround: descend through parent-input connections.
                let mut cur = 2 * parent + side.index(); // left: 2p, right: 2p+1
                while cur < num_leaves {
                    let to = state[cur].output_of(Side::Parent).ok_or_else(|| {
                        CstError::ProtocolViolation {
                            node: NodeId(cur),
                            detail: "descent switch does not forward p_i".into(),
                        }
                    })?;
                    hops += 1;
                    if hops > max_hops {
                        return Err(CstError::ProtocolViolation {
                            node: NodeId(cur),
                            detail: "signal exceeded the hop bound".into(),
                        });
                    }
                    cur = match to {
                        Side::Left => 2 * cur,
                        Side::Right => 2 * cur + 1,
                        Side::Parent => {
                            return Err(CstError::ProtocolViolation {
                                node: NodeId(cur),
                                detail: "p_i -> p_o is illegal".into(),
                            })
                        }
                    };
                }
                let dest = LeafId(cur - num_leaves);
                return Ok(Delivery { source, dest, payload, hops });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{default_payloads, simulate_schedule};
    use cst_comm::examples;

    fn csa_schedule(topo: &CstTopology, set: &CommSet) -> Schedule {
        cst_padr::CsaScratch::new()
            .schedule(topo, set, &mut cst_comm::SchedulePool::new())
            .unwrap()
            .schedule
    }

    fn assert_outcomes_identical(a: &SimOutcome, b: &SimOutcome) {
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.timings, b.timings);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.meter, b.meter);
    }

    #[test]
    fn replay_matches_interpreter_on_paper_example() {
        let topo = CstTopology::with_leaves(16);
        let set = examples::paper_figure_2();
        let schedule = csa_schedule(&topo, &set);
        let interp = simulate_schedule(&topo, &set, &schedule, None).unwrap();
        let prog = CompiledProgram::compile(&topo, &set, &schedule).unwrap();
        let replayed = prog.replay(None).unwrap();
        assert_outcomes_identical(&interp, &replayed);
    }

    #[test]
    fn instruction_count_is_total_power_units() {
        // The delta stream contains exactly the hold-semantics
        // reconfigurations — Theorem 8's bounded quantity.
        let topo = CstTopology::with_leaves(16);
        let set = examples::paper_figure_2();
        let schedule = csa_schedule(&topo, &set);
        let prog = CompiledProgram::compile(&topo, &set, &schedule).unwrap();
        let report = prog.meter().report(&topo);
        assert_eq!(prog.num_instrs() as u64, report.total_units);
        assert!(prog.num_instrs() > 0);
    }

    #[test]
    fn custom_payloads_flow_through() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)]);
        let schedule = csa_schedule(&topo, &set);
        let payloads: Vec<Bytes> = (0..3).map(|i| Bytes::from(vec![i as u8; 32])).collect();
        let interp =
            simulate_schedule(&topo, &set, &schedule, Some(payloads.clone())).unwrap();
        let prog = CompiledProgram::compile(&topo, &set, &schedule).unwrap();
        let replayed = prog.replay(Some(payloads)).unwrap();
        assert_outcomes_identical(&interp, &replayed);
    }

    #[test]
    fn warm_scratch_replay_is_identical_and_reusable() {
        let topo = CstTopology::with_leaves(16);
        let set = examples::paper_figure_2();
        let schedule = csa_schedule(&topo, &set);
        let prog = CompiledProgram::compile(&topo, &set, &schedule).unwrap();
        let payloads = default_payloads(&set);
        let mut scratch = ReplayScratch::new();
        let first = prog.replay_with(&mut scratch, &payloads).unwrap();
        let interp = simulate_schedule(&topo, &set, &schedule, None).unwrap();
        assert_outcomes_identical(&interp, &first);
        scratch.recycle(first);
        for _ in 0..3 {
            let again = prog.replay_with(&mut scratch, &payloads).unwrap();
            assert_outcomes_identical(&interp, &again);
            scratch.recycle(again);
        }
    }

    #[test]
    fn recompile_retargets_a_pooled_program() {
        let topo = CstTopology::with_leaves(16);
        let set_a = examples::paper_figure_2();
        let set_b = CommSet::from_pairs(16, &[(0, 15), (1, 14), (2, 13)]);
        let sched_a = csa_schedule(&topo, &set_a);
        let sched_b = csa_schedule(&topo, &set_b);
        let mut prog = CompiledProgram::compile(&topo, &set_a, &sched_a).unwrap();
        prog.recompile(&topo, &set_b, &sched_b).unwrap();
        let interp = simulate_schedule(&topo, &set_b, &sched_b, None).unwrap();
        assert_outcomes_identical(&interp, &prog.replay(None).unwrap());
        // And back: no state leaks between targets.
        prog.recompile(&topo, &set_a, &sched_a).unwrap();
        let interp = simulate_schedule(&topo, &set_a, &sched_a, None).unwrap();
        assert_outcomes_identical(&interp, &prog.replay(None).unwrap());
    }

    #[test]
    fn empty_schedule_replays_to_prologue_only() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::empty(8);
        let schedule = Schedule::default();
        let prog = CompiledProgram::compile(&topo, &set, &schedule).unwrap();
        let out = prog.replay(None).unwrap();
        assert_eq!(out.cycles, Cycle::from(topo.height()));
        assert!(out.deliveries.is_empty());
        assert!(out.timings.is_empty());
    }

    #[test]
    fn compile_rejects_unknown_comm_ids() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7)]);
        let mut schedule = csa_schedule(&topo, &set);
        schedule.rounds[0].comms.push(CommId(99));
        assert!(matches!(
            CompiledProgram::compile(&topo, &set, &schedule),
            Err(CstError::ProtocolViolation { .. })
        ));
    }
}
