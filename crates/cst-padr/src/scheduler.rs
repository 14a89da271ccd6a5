//! Phase 2 of the CSA: the round driver (paper Steps 2.1–2.3).
//!
//! Each round performs one top-down sweep. The root behaves as if it
//! received `[null, null]`; every switch applies
//! [`crate::switch_logic::step`] to its stored state and the message from
//! its parent, holds the resulting connections for the round, and forwards
//! the computed messages to its children. Leaves that receive `[s, null]`
//! write their data; leaves that receive `[d, null]` read.
//!
//! The driver here is the *host-side harness* around the distributed
//! algorithm: it executes the sweeps, assembles [`Schedule`] rounds,
//! meters power, and (for verification) traces each round's circuits to
//! recover which communication was performed — information the algorithm
//! itself never needs (the paper's point is that no communication IDs are
//! required on the wire).
//!
//! The host steps a round one tree level at a time, from the root down,
//! each level left to right. A switch needs only its parent's message,
//! so any top-down order computes the same round; this one visits
//! switches in increasing heap index, which is the order the round's
//! switch table is stored in. A leaf takes its message as its parent
//! sends it. With [`Options::prune_quiescent`] a child switch joins the
//! next level only if it can act: it received a message other than
//! `[null, null]`, or it has matched communications still pending in
//! its subtree. Each round therefore costs O(active switches) rather
//! than O(N).
//!
//! The step itself is [`crate::switch_logic::step`], inlined: the pending
//! messages are packed 64-bit [`DownMsg`] words, so a switch's step reads
//! one word and writes one per child, and its connections come back as a
//! byte mask. Errors are formatted in `#[cold]` functions, and the
//! Phase-2 word counts are derived from the step count after the sweep.
//! At density 0.5 on a 2-vCPU host an unpruned sweep, mostly idle
//! `[null,null]` steps, costs 15–22 ns per step at n = 64 and 1024
//! (58–62 ns before the packing).

use crate::messages::{DownMsg, ReqKind, WORDS_DOWN, WORDS_UP};
use crate::phase1::{self, Phase1};
use crate::switch_logic::step;
use cst_comm::{CommId, CommSet, Schedule, SchedulePool, WellNestedChecker};
use cst_core::{
    CircuitTable, ConfigArena, ConfigLookup, CstError, CstTopology, LeafId, NodeId, PowerMeter,
    PowerReport, ProtocolTrace, Side, SwitchEvent,
};
use std::time::Instant;

/// Control-plane cost counters (Theorem 5's efficiency claims, experiment
/// E4). All quantities are exact counts for this execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControlMetrics {
    /// Words stored per switch (constant: the five `C_S` counters).
    pub words_stored_per_switch: u32,
    /// Total Phase-1 words sent up the tree.
    pub phase1_words: u64,
    /// Total Phase-2 words sent down the tree (over all rounds).
    pub phase2_words: u64,
    /// Switch-step invocations across all rounds (sweep work).
    pub switch_steps: u64,
    /// Maximum words any single switch sent to its neighbors in one round.
    pub max_words_per_switch_round: u32,
}

/// Result of scheduling one right-oriented well-nested set with the CSA.
#[derive(Clone, Debug)]
pub struct CsaOutcome {
    /// The rounds: scheduled communications + per-switch configurations.
    pub schedule: Schedule,
    /// Power accounting under the PADR model.
    pub power: PowerReport,
    /// The raw meter, for per-switch histograms.
    pub meter: PowerMeter,
    /// Control-plane cost counters.
    pub metrics: ControlMetrics,
}

impl CsaOutcome {
    /// Number of rounds the schedule used (Theorem 5: equals the width).
    pub fn rounds(&self) -> usize {
        self.schedule.num_rounds()
    }
}

/// Host-driver options (the distributed algorithm itself has none; these
/// control how the *host harness* sweeps it — ablated in the benches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Options {
    /// Skip subtrees that received `[null, null]` and contain no pending
    /// matched communications. Pure host-side work reduction: with it each
    /// round costs O(active switches), without it O(N). Results are
    /// identical either way (asserted in tests).
    ///
    /// The pruning table it reads is built per request; on sparse sets
    /// [`CsaScratch`] builds it over the endpoints' root paths only (see
    /// [`crate::phase1::Phase1`]), so with pruning on, a sparse request
    /// costs O(footprint) before its rounds as well as during them.
    pub prune_quiescent: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options { prune_quiescent: true }
    }
}

/// Wall-clock nanoseconds of the last [`CsaScratch`] run, split by phase.
/// (The engine's outcome normalization surfaces these per request.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CsaTimings {
    /// Input validation (orientation + well-nestedness).
    pub validate_ns: u64,
    /// Phase 1 bottom-up counter sweep.
    pub phase1_ns: u64,
    /// Phase 2 round sweeps (including circuit tracing and metering).
    pub rounds_ns: u64,
}

/// Sums phase by phase: the layered front ends report their CSA runs'
/// timings added up.
impl std::ops::AddAssign for CsaTimings {
    fn add_assign(&mut self, t: CsaTimings) {
        self.validate_ns += t.validate_ns;
        self.phase1_ns += t.phase1_ns;
        self.rounds_ns += t.rounds_ns;
    }
}

/// Reusable buffers for the Phase-2 sweep. Sized lazily to the topology and
/// kept across calls so steady-state scheduling never touches the allocator.
#[derive(Debug, Default)]
struct Phase2Buffers {
    /// Pairing oracle: source leaf -> (comm id, dest leaf), dense by leaf.
    by_source: Vec<Option<(CommId, LeafId)>>,
    /// Unscheduled matched communications per subtree (pruning).
    matched_remaining: Vec<u32>,
    /// Pending downward message per switch (leaves take theirs at once).
    msgs: Vec<DownMsg>,
    /// Dense per-round switch-setting scratch.
    arena: ConfigArena,
    /// The switches of the sweep's current tree level, in heap order.
    frontier: Vec<NodeId>,
    /// The switches of the level below that will act this round.
    next: Vec<NodeId>,
    /// Source leaves activated this round.
    active_sources: Vec<LeafId>,
    /// `by_source`, `matched_remaining` and `msgs` are sized for the last
    /// topology and hold only `None` / `0` / `NULL` — what a successful
    /// sweep leaves behind. An error return clears it, and the next sweep
    /// then rebuilds them densely.
    clean: bool,
}

/// Reusable state for running the serial CSA back to back.
///
/// Owns the Phase-1 counter tables, the Phase-2 sweep buffers, and the
/// well-nestedness checker's scratch; paired with a [`SchedulePool`] (for
/// the outcome's schedule, rounds, and meter) a warm scratch schedules a
/// request with **zero** allocations — the property the engine's allocation
/// gate pins.
#[derive(Debug, Default)]
pub struct CsaScratch {
    p1: Phase1,
    nest: WellNestedChecker,
    bufs: Phase2Buffers,
    timings: CsaTimings,
    /// Writes the left half's round tables in [`crate::universal`].
    pub(crate) table: CircuitTable,
}

impl CsaScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        CsaScratch::default()
    }

    /// Schedule `set` on `topo` with default options, reusing this scratch
    /// and drawing the outcome's allocations from `pool`.
    pub fn schedule(
        &mut self,
        topo: &CstTopology,
        set: &CommSet,
        pool: &mut SchedulePool,
    ) -> Result<CsaOutcome, CstError> {
        self.schedule_with(topo, set, Options::default(), pool)
    }

    /// [`CsaScratch::schedule`] with explicit host-driver options.
    ///
    /// Validates that the set is right-oriented and well-nested first;
    /// Phase 1 additionally rejects incomplete sets.
    pub fn schedule_with(
        &mut self,
        topo: &CstTopology,
        set: &CommSet,
        options: Options,
        pool: &mut SchedulePool,
    ) -> Result<CsaOutcome, CstError> {
        self.schedule_impl(topo, set, options, pool, None)
    }

    /// [`CsaScratch::schedule`] that additionally records every control
    /// message into `trace` for replay by the reference model (`cst-model`).
    ///
    /// Tracing forces `prune_quiescent: false` so the trace contains one
    /// event per internal switch per round — the complete-sweep shape the
    /// conformance checker expects (pruning skips host-side work only and
    /// never changes results, but it elides quiescent `[null,null]` steps
    /// from the wire record).
    pub fn schedule_traced(
        &mut self,
        topo: &CstTopology,
        set: &CommSet,
        pool: &mut SchedulePool,
        trace: &mut ProtocolTrace,
    ) -> Result<CsaOutcome, CstError> {
        self.schedule_impl(topo, set, Options { prune_quiescent: false }, pool, Some(trace))
    }

    fn schedule_impl(
        &mut self,
        topo: &CstTopology,
        set: &CommSet,
        options: Options,
        pool: &mut SchedulePool,
        trace: Option<&mut ProtocolTrace>,
    ) -> Result<CsaOutcome, CstError> {
        let t0 = Instant::now();
        set.require_right_oriented()?;
        self.nest.require(set)?;
        let t1 = Instant::now();
        phase1::run_into(topo, set, &mut self.p1)?;
        let t2 = Instant::now();
        let out = phase2_core(topo, set, &mut self.p1, options, &mut self.bufs, pool, trace);
        self.timings = CsaTimings {
            validate_ns: (t1 - t0).as_nanos() as u64,
            phase1_ns: (t2 - t1).as_nanos() as u64,
            rounds_ns: t2.elapsed().as_nanos() as u64,
        };
        out
    }

    /// Phase timings of the most recent run.
    pub fn timings(&self) -> CsaTimings {
        self.timings
    }

    /// Phase-1 tables of the most recent run that got past validation,
    /// as its Phase 2 left them (the round sweeps consume `states`).
    pub fn phase1(&self) -> &Phase1 {
        &self.p1
    }
}

/// Phase 2 proper, reusing an existing Phase-1 result. Exposed separately
/// so the discrete-event simulator can interleave its own timing model.
///
/// Each call starts from fresh buffers, so the pruning table is built
/// from every switch's state, not from a Phase-1 footprint: callers may
/// have edited the states (fault injection corrupts idle switches).
pub fn run_phase2(
    topo: &CstTopology,
    set: &CommSet,
    p1: &mut Phase1,
) -> Result<CsaOutcome, CstError> {
    run_phase2_with(topo, set, p1, Options::default())
}

/// [`run_phase2`] with explicit host-driver options.
pub fn run_phase2_with(
    topo: &CstTopology,
    set: &CommSet,
    p1: &mut Phase1,
    options: Options,
) -> Result<CsaOutcome, CstError> {
    let mut bufs = Phase2Buffers::default();
    let mut pool = SchedulePool::new();
    phase2_core(topo, set, p1, options, &mut bufs, &mut pool, None)
}

/// The round driver proper. All working storage comes from `bufs` and
/// `pool`; with warm buffers and tracing disabled (`trace: None`) this
/// function performs no allocation on the success path (error details may
/// format strings).
///
/// After a sparse [`phase1::run_into`] (see [`Phase1`]), setup costs
/// O(footprint): the pruning table is aggregated over the footprint
/// alone, and the other tables are already neutral from the last
/// successful sweep.
fn phase2_core(
    topo: &CstTopology,
    set: &CommSet,
    p1: &mut Phase1,
    options: Options,
    bufs: &mut Phase2Buffers,
    pool: &mut SchedulePool,
    mut trace: Option<&mut ProtocolTrace>,
) -> Result<CsaOutcome, CstError> {
    let n = topo.node_table_len();
    let mut metrics = ControlMetrics {
        words_stored_per_switch: phase1::SwitchState::WORDS,
        phase1_words: u64::from(WORDS_UP) * (topo.num_nodes() as u64 - 1),
        ..Default::default()
    };

    let Phase2Buffers {
        by_source,
        matched_remaining,
        msgs,
        arena,
        frontier,
        next,
        active_sources,
        clean,
    } = bufs;
    let footprint = p1
        .footprint()
        .filter(|_| *clean && matched_remaining.len() == n && by_source.len() == set.num_leaves());
    *clean = false;
    if footprint.is_none() {
        by_source.clear();
        by_source.resize(set.num_leaves(), None);
        matched_remaining.clear();
        matched_remaining.resize(n, 0);
        msgs.clear();
        msgs.resize(n, DownMsg::NULL);
    }

    // Pairing oracle for verification: source leaf -> (comm id, dest leaf).
    // Dense by leaf index — the former HashMap allocated per call.
    for (id, c) in set.iter() {
        by_source[c.source.0] = Some((id, c.dest));
    }

    // `matched_remaining[u]` = unscheduled communications matched anywhere
    // in the subtree of `u`; lets the sweep skip quiescent subtrees that
    // received [null, null]. Off the footprint every subtree is empty.
    let mut aggregate = |u: NodeId| {
        let below = |c: NodeId| {
            if topo.is_internal(c) {
                matched_remaining[c.index()]
            } else {
                0
            }
        };
        matched_remaining[u.index()] =
            p1.states[u.index()].matched + below(u.left_child()) + below(u.right_child());
    };
    match footprint {
        Some(fp) => fp.iter().copied().filter(|&u| topo.is_internal(u)).for_each(&mut aggregate),
        None => topo.switches_bottom_up().for_each(&mut aggregate),
    }

    if let Some(t) = trace.as_deref_mut() {
        // Snapshot C_S before the rounds consume it, in the analyzer's
        // layout [M, S_L−M, D_L, S_R, D_R−M] (leaf entries zero).
        t.reset(topo.num_leaves());
        t.set_phase1(p1.states.iter().map(|s| {
            [s.matched, s.left_sources, s.left_dests, s.right_sources, s.right_dests]
        }));
    }

    let mut meter = pool.take_meter(topo);
    let mut schedule = pool.take_schedule();
    let mut scheduled_total = 0usize;
    // A level holds at most `num_leaves / 2` switches. Sizing both levels
    // at once, not by doubling, leaves no trail of outgrown blocks in the
    // heap (it showed as a higher peak RSS in serve-miss runs).
    for level in [&mut *frontier, &mut *next] {
        level.clear();
        level.reserve_exact(topo.num_leaves() / 2);
    }
    // Dense per-round scratch: the sweep writes switch settings into
    // preallocated slots (O(1) each); take_round_into() extracts the
    // compact sorted table at end of round and resets in O(touched).
    arena.reset_for(topo);
    // Hard bound: a width-w set needs exactly w rounds and w <= |set|; the
    // +1 margin lets the overrun check distinguish "done late" from "stuck".
    let round_limit = set.len() + 1;

    while scheduled_total < set.len() {
        if schedule.rounds.len() >= round_limit {
            return Err(CstError::RoundOverrun { limit: round_limit });
        }
        meter.begin_round();
        if let Some(t) = trace.as_deref_mut() {
            t.begin_round();
        }
        let mut round = pool.take_round();
        active_sources.clear();

        // Top-down sweep, one tree level of switches at a time, each
        // level in heap order, so the arena's touched list comes out
        // sorted. The root acts as if it received [null, null]. Leaves
        // take their message as their parent sends it. With pruning, a
        // switch joins the next level only if it can act: it received a
        // message, or it has matched communications pending below.
        let will_act = |u: NodeId, msg: DownMsg, matched_remaining: &[u32]| {
            !options.prune_quiescent || !msg.is_null() || matched_remaining[u.index()] > 0
        };
        frontier.clear();
        if will_act(NodeId::ROOT, DownMsg::NULL, matched_remaining) {
            frontier.push(NodeId::ROOT);
        }
        while !frontier.is_empty() {
            next.clear();
            metrics.switch_steps += frontier.len() as u64;
            for &u in frontier.iter() {
                let req = std::mem::replace(&mut msgs[u.index()], DownMsg::NULL);
                let result = match step(&mut p1.states[u.index()], req) {
                    Ok(result) => result,
                    Err(e) => return Err(violation(u, e)),
                };
                if result.scheduled_matched() {
                    // Decrement the matched counters up the ancestor chain.
                    let mut a = u;
                    loop {
                        matched_remaining[a.index()] -= 1;
                        match a.parent() {
                            Some(p) => a = p,
                            None => break,
                        }
                    }
                }
                for c in result.connections {
                    if let Err(e) = arena.set(u, c) {
                        return Err(violation(u, e));
                    }
                    meter.require(u, c);
                }
                if let Some(t) = trace.as_deref_mut() {
                    t.record(SwitchEvent {
                        node: u,
                        req: req.into(),
                        config: result.connections.config(),
                        to_left: result.to_left.into(),
                        to_right: result.to_right.into(),
                    });
                }
                let children =
                    [(u.left_child(), result.to_left), (u.right_child(), result.to_right)];
                for (c, msg) in children {
                    if let Some(leaf) = topo.node_leaf(c) {
                        leaf_receives(c, leaf, msg, active_sources)?;
                    } else if will_act(c, msg, matched_remaining) {
                        msgs[c.index()] = msg;
                        next.push(c);
                    }
                }
            }
            std::mem::swap(frontier, next);
        }

        // Trace this round's circuits from the active sources and recover
        // the communication ids (against the arena, before extraction).
        for &src in active_sources.iter() {
            let dest = trace_circuit(topo, arena, src)?;
            let (id, expected_dest) = by_source[src.0].ok_or_else(|| {
                CstError::ProtocolViolation {
                    node: topo.leaf_node(src),
                    detail: "non-source PE activated as source".into(),
                }
            })?;
            if dest != expected_dest {
                return Err(CstError::DeliveryMismatch { dest });
            }
            round.comms.push(id);
        }
        if round.comms.is_empty() {
            return Err(CstError::ProtocolViolation {
                node: NodeId::ROOT,
                detail: "round made no progress".into(),
            });
        }
        scheduled_total += round.comms.len();
        round.comms.sort_unstable();
        arena.take_round_into(&mut round.configs);
        schedule.rounds.push(round);
    }

    // Every switch step sends one message to each child.
    metrics.phase2_words = metrics.switch_steps * 2 * u64::from(WORDS_DOWN);
    if metrics.switch_steps > 0 {
        metrics.max_words_per_switch_round = 2 * WORDS_DOWN;
    }

    // Every round drained `msgs` and every scheduled communication
    // decremented its ancestors, so only `by_source` needs clearing.
    for c in set.comms() {
        by_source[c.source.0] = None;
    }
    *clean = matched_remaining[NodeId::ROOT.index()] == 0;

    let power = meter.report(topo);
    Ok(CsaOutcome { schedule, power, meter, metrics })
}

/// A leaf's half of a round: `[s, null]` with rank 0 activates it as a
/// source, `[d, null]` with rank 0 as a destination; anything else is a
/// protocol violation.
#[inline]
fn leaf_receives(
    u: NodeId,
    leaf: LeafId,
    req: DownMsg,
    active_sources: &mut Vec<LeafId>,
) -> Result<(), CstError> {
    if req == DownMsg::source(0) {
        active_sources.push(leaf);
    } else if !req.is_null() && req != DownMsg::dest(0) {
        return Err(leaf_violation(u, req));
    }
    Ok(())
}

/// The error for a leaf handed anything but `[null,null]`, `[s,null]` or
/// `[d,null]` with rank 0.
#[cold]
fn leaf_violation(u: NodeId, req: DownMsg) -> CstError {
    let detail = match req.kind() {
        ReqKind::S => format!("leaf received source rank {}", req.x_s()),
        ReqKind::D => format!("leaf received dest rank {}", req.x_d()),
        // `[null,null]` never gets here, so only `[s,d]` is left.
        _ => "leaf received [s,d]".into(),
    };
    CstError::ProtocolViolation { node: u, detail }
}

/// The error for a switch whose step rejected its request, or whose
/// connections conflict in the round's arena.
#[cold]
fn violation(u: NodeId, e: impl std::fmt::Display) -> CstError {
    CstError::ProtocolViolation { node: u, detail: e.to_string() }
}

/// Follow the configured connections from an active source leaf to the leaf
/// its signal reaches this round. Works on any per-round configuration view
/// ([`ConfigArena`], [`cst_core::RoundConfigs`], …).
pub fn trace_circuit<L: ConfigLookup>(
    topo: &CstTopology,
    configs: &L,
    source: LeafId,
) -> Result<LeafId, CstError> {
    let mut node = topo.leaf_node(source);
    // Climb: the signal enters the parent on the child's side.
    loop {
        let p = node.parent().ok_or_else(|| CstError::ProtocolViolation {
            node,
            detail: "signal climbed past the root".into(),
        })?;
        let enter = if node.is_left_child() { Side::Left } else { Side::Right };
        let cfg = configs.config_at(p).ok_or_else(|| CstError::ProtocolViolation {
            node: p,
            detail: "signal reached an unconfigured switch".into(),
        })?;
        let out = cfg.output_of(enter).ok_or_else(|| CstError::ProtocolViolation {
            node: p,
            detail: format!("input {enter}i unconnected on signal path"),
        })?;
        match out {
            Side::Parent => {
                node = p;
            }
            Side::Left | Side::Right => {
                // Turnaround: descend through p_i -> child chains.
                let mut cur = if out == Side::Left { p.left_child() } else { p.right_child() };
                while topo.is_internal(cur) {
                    let c = configs.config_at(cur).ok_or_else(|| CstError::ProtocolViolation {
                        node: cur,
                        detail: "descent reached an unconfigured switch".into(),
                    })?;
                    let to = c.output_of(Side::Parent).ok_or_else(|| CstError::ProtocolViolation {
                        node: cur,
                        detail: "descent switch does not forward p_i".into(),
                    })?;
                    cur = match to {
                        Side::Left => cur.left_child(),
                        Side::Right => cur.right_child(),
                        Side::Parent => {
                            return Err(CstError::ProtocolViolation {
                                node: cur,
                                detail: "p_i -> p_o is illegal".into(),
                            })
                        }
                    };
                }
                return Ok(topo.node_leaf(cur).expect("descended to a leaf"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_comm::examples;
    use cst_comm::width_on_topology;

    fn schedule(topo: &CstTopology, set: &CommSet) -> Result<CsaOutcome, CstError> {
        CsaScratch::new().schedule(topo, set, &mut SchedulePool::new())
    }

    fn schedule_with(
        topo: &CstTopology,
        set: &CommSet,
        options: Options,
    ) -> Result<CsaOutcome, CstError> {
        CsaScratch::new().schedule_with(topo, set, options, &mut SchedulePool::new())
    }

    fn run(n: usize, pairs: &[(usize, usize)]) -> CsaOutcome {
        let topo = CstTopology::with_leaves(n);
        let set = CommSet::from_pairs(n, pairs);
        schedule(&topo, &set).expect("CSA failed")
    }

    #[test]
    fn single_sibling_pair() {
        let out = run(4, &[(0, 1)]);
        assert_eq!(out.rounds(), 1);
        assert_eq!(out.schedule.rounds[0].comms, vec![CommId(0)]);
    }

    #[test]
    fn full_span() {
        let out = run(8, &[(0, 7)]);
        assert_eq!(out.rounds(), 1);
    }

    #[test]
    fn nested_chain_takes_width_rounds() {
        let out = run(8, &[(0, 7), (1, 6), (2, 5), (3, 4)]);
        assert_eq!(out.rounds(), 4);
        // Outermost first: round 0 must schedule c0.
        assert_eq!(out.schedule.rounds[0].comms, vec![CommId(0)]);
        assert_eq!(out.schedule.rounds[3].comms, vec![CommId(3)]);
    }

    #[test]
    fn parallel_pairs_single_round() {
        let out = run(16, &[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15)]);
        assert_eq!(out.rounds(), 1);
        assert_eq!(out.schedule.rounds[0].comms.len(), 8);
    }

    #[test]
    fn depth_exceeds_width_case_still_takes_width_rounds() {
        // The counterexample from cst-comm::width: depth 3, width 2.
        let topo = CstTopology::with_leaves(16);
        let set = CommSet::from_pairs(16, &[(3, 9), (4, 8), (5, 6)]);
        let w = width_on_topology(&topo, &set);
        assert_eq!(w, 2);
        let out = schedule(&topo, &set).unwrap();
        assert_eq!(out.rounds(), 2, "CSA must meet the width bound");
        out.schedule.verify(&topo, &set).unwrap();
    }

    #[test]
    fn paper_figure_2_schedules_and_verifies() {
        let topo = CstTopology::with_leaves(16);
        let set = examples::paper_figure_2();
        let out = schedule(&topo, &set).unwrap();
        let w = width_on_topology(&topo, &set);
        assert_eq!(out.rounds() as u32, w);
        out.schedule.verify(&topo, &set).unwrap();
    }

    #[test]
    fn paper_figure_3b_schedules_and_verifies() {
        let topo = CstTopology::with_leaves(16);
        let set = examples::paper_figure_3b();
        let out = schedule(&topo, &set).unwrap();
        let w = width_on_topology(&topo, &set);
        assert_eq!(out.rounds() as u32, w);
        out.schedule.verify(&topo, &set).unwrap();
    }

    #[test]
    fn rejects_left_oriented() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(5, 2)]);
        assert!(matches!(
            schedule(&topo, &set),
            Err(CstError::NotRightOriented { .. })
        ));
    }

    #[test]
    fn rejects_crossing() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 4), (2, 6)]);
        assert!(matches!(schedule(&topo, &set), Err(CstError::NotWellNested { .. })));
    }

    #[test]
    fn empty_set_zero_rounds() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::empty(8);
        let out = schedule(&topo, &set).unwrap();
        assert_eq!(out.rounds(), 0);
        assert_eq!(out.power.total_units, 0);
    }

    #[test]
    fn full_nest_power_is_constant_per_switch() {
        // Width 16 nested chain on 32 leaves: every switch on the hot path
        // must still change configuration only O(1) times.
        let topo = CstTopology::with_leaves(32);
        let set = examples::full_nest(32);
        let out = schedule(&topo, &set).unwrap();
        assert_eq!(out.rounds(), 16);
        assert!(
            out.power.max_port_transitions <= 6,
            "per-switch transitions {} exceed the O(1) bound",
            out.power.max_port_transitions
        );
        out.schedule.verify(&topo, &set).unwrap();
    }

    #[test]
    fn pruning_does_not_change_results() {
        let topo = CstTopology::with_leaves(64);
        let set = examples::paper_figure_2(); // on 16 leaves...
        let topo16 = CstTopology::with_leaves(16);
        for (t, s) in [(&topo16, &set), (&topo, &examples::full_nest(64))] {
            let pruned = schedule_with(t, s, Options { prune_quiescent: true }).unwrap();
            let full = schedule_with(t, s, Options { prune_quiescent: false }).unwrap();
            assert_eq!(pruned.schedule.num_rounds(), full.schedule.num_rounds());
            for (a, b) in pruned.schedule.rounds.iter().zip(&full.schedule.rounds) {
                assert_eq!(a.comms, b.comms);
                assert_eq!(a.configs, b.configs);
            }
            assert_eq!(pruned.power, full.power);
            // pruning strictly reduces host-side sweep work on sparse sets
            assert!(pruned.metrics.switch_steps <= full.metrics.switch_steps);
        }
    }

    #[test]
    fn control_metrics_are_constant_per_switch() {
        let topo = CstTopology::with_leaves(64);
        let set = examples::full_nest(64);
        let out = schedule(&topo, &set).unwrap();
        assert_eq!(out.metrics.words_stored_per_switch, 5);
        assert_eq!(out.metrics.max_words_per_switch_round, 6);
    }
}
