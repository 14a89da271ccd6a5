//! Parallel host execution of the CSA.
//!
//! The algorithm is distributed by construction — every switch acts on
//! local state — so the *host* driver parallelizes naturally: cut the
//! tree at depth `d`, sweep the `2^d - 1` top switches sequentially (they
//! are few), and hand each depth-`d` subtree to a worker. Workers own
//! their subtree's switch states outright (no sharing, no locks in the
//! sweep), communicate with the coordinator only through the per-round
//! fork/join, and return their connections and activated sources.
//!
//! The output is bit-identical to the serial driver
//! ([`CsaScratch::schedule`](crate::CsaScratch::schedule)) — asserted in tests — because both
//! execute the same pure [`crate::switch_logic::step`] in the same
//! logical order; only the host-side evaluation order of *independent*
//! subtrees differs.
//!
//! # Measured reality (kept honest)
//!
//! Two walls had to fall before this driver could beat the serial one.
//!
//! First, the merge: earlier revisions assembled each round's `BTreeMap`
//! of switch configurations one tree-map insertion per connection, and
//! that shared, allocation-heavy merge dominated wall time over the
//! sweeps. The flat round representation removed it: workers emit one
//! `(switch, SwitchConfig)` pair per touched switch, the coordinator
//! stamps them into a preallocated dense [`ConfigArena`] (O(1) per
//! switch, no per-round allocation), and the finished round is extracted
//! as a sorted flat table. Worker sweep scratch (message heap, local
//! configuration table, traversal stack) is persistent per subtree.
//!
//! Second, the handoff: thread-level parallelism only pays when there are
//! cores to run on. A per-round channel round trip to `t` workers costs
//! `2t` blocking wake-ups, tens of microseconds on a loaded host — more
//! than an entire sweep when the machine has a single core. The driver
//! therefore sizes itself to `std::thread::available_parallelism()`: with
//! more than one core it runs the persistent-worker channel loop; on a
//! single core it runs the *same* subtree decomposition inline, where the
//! per-subtree sweeps write straight into the coordinator's arena through
//! a sink (no intermediate payload vectors at all). The inline path is
//! also how the decomposition itself earns its keep: each subtree's
//! state, message and configuration heaps are small dense arrays that
//! stay cache-resident, and circuits contained in one subtree are traced
//! locally over those arrays instead of over the global tree.
//!
//! With both walls gone, `csa_parallel8` measures *faster* than serial
//! `csa` at n = 4096 even on a single-core bench host (see
//! `BENCH_e5.json` and the E5 bench; the exact ratio is workload- and
//! machine-dependent, and multi-core hosts additionally overlap the
//! sweeps). Output remains bit-identical to the serial driver, asserted
//! per-round in the tests below and in `tests/cross_scheduler.rs`.

use crate::messages::{DownMsg, ReqKind};
use crate::phase1::{self, Phase1, SwitchState};
use crate::scheduler::CsaOutcome;
use crate::switch_logic::step;
use cst_comm::{CommId, CommSet, Schedule, SchedulePool, WellNestedChecker};
use cst_core::{ConfigArena, CstError, CstTopology, LeafId, NodeId, PowerMeter, SwitchConfig};

/// Where a sweep deposits the configurations of the switches it touched.
trait ConnSink {
    fn emit(&mut self, node: NodeId, cfg: &SwitchConfig) -> Result<(), CstError>;
}

/// Threaded workers collect flat pairs to ship across the channel
/// (`SwitchConfig` is `Copy`; each switch steps at most once per sweep,
/// so entries are unique).
impl ConnSink for Vec<(NodeId, SwitchConfig)> {
    fn emit(&mut self, node: NodeId, cfg: &SwitchConfig) -> Result<(), CstError> {
        self.push((node, *cfg));
        Ok(())
    }
}

/// The inline driver stamps straight into the coordinator's arena and
/// meter — no per-round payload allocation at all.
struct ArenaSink<'a> {
    arena: &'a mut ConfigArena,
    meter: &'a mut PowerMeter,
}

impl ConnSink for ArenaSink<'_> {
    fn emit(&mut self, node: NodeId, cfg: &SwitchConfig) -> Result<(), CstError> {
        for c in cfg.connections() {
            self.arena
                .set(node, c)
                .map_err(|e| CstError::ProtocolViolation { node, detail: e.to_string() })?;
            self.meter.require(node, c);
        }
        Ok(())
    }
}

/// One worker's subtree: the global root node plus locally-owned state
/// for every node of the subtree, relabeled as a standalone heap
/// (local id 1 = the subtree root, children `2i`/`2i+1`).
struct Subtree {
    /// Global id of the subtree root.
    root: NodeId,
    /// Global tree height minus subtree-root depth = subtree height.
    height: u32,
    /// Local heap of switch states (index 0 unused). Leaves hold defaults.
    states: Vec<SwitchState>,
    /// Local heap: remaining matched communications per local subtree.
    matched_remaining: Vec<u32>,
    /// Global leaf position of the subtree's leftmost leaf.
    leaf_base: usize,
    /// Persistent sweep scratch: down-messages per local node. The sweep
    /// consumes entries via `mem::replace`, leaving the heap all-NULL for
    /// the next round — no per-round allocation.
    msgs: Vec<DownMsg>,
    /// Persistent sweep scratch: this round's configuration per internal
    /// local id; cleared via `touched` after the round.
    local: Vec<SwitchConfig>,
    /// Internal local ids configured this round.
    touched: Vec<usize>,
    /// Persistent traversal stack.
    stack: Vec<usize>,
    /// Persistent source buffer: `(leaf, local id)` activated this round.
    sources: Vec<(LeafId, usize)>,
}

impl Subtree {
    /// Number of leaves under this subtree.
    fn num_leaves(&self) -> usize {
        1 << self.height
    }

    /// Global node id of local id `l`.
    fn global(&self, l: usize) -> NodeId {
        let k = usize::BITS - 1 - l.leading_zeros();
        NodeId((self.root.index() << k) + (l - (1usize << k)))
    }

    /// True if local id `l` is an internal switch of the *global* tree.
    fn is_internal(&self, l: usize) -> bool {
        l < self.num_leaves()
    }

    /// Sweep this subtree for one round: emit touched-switch
    /// configurations into `sink`, and traced/deferred circuits into
    /// `out` (whose `connections` field is left untouched).
    fn sweep(
        &mut self,
        req: DownMsg,
        sink: &mut impl ConnSink,
        out: &mut WorkerRound,
    ) -> Result<(), CstError> {
        self.msgs[1] = req;
        self.sources.clear();
        self.stack.clear();
        self.stack.push(1);
        while let Some(l) = self.stack.pop() {
            let req = std::mem::replace(&mut self.msgs[l], DownMsg::NULL);
            if !self.is_internal(l) {
                // a leaf of the global tree
                let leaf = LeafId(self.leaf_base + (l - self.num_leaves()));
                match req.kind {
                    ReqKind::Null => {}
                    ReqKind::S => self.sources.push((leaf, l)),
                    ReqKind::D => {}
                    ReqKind::SD => {
                        return Err(CstError::ProtocolViolation {
                            node: self.global(l),
                            detail: "leaf received [s,d]".into(),
                        })
                    }
                }
                continue;
            }
            if req.kind == ReqKind::Null && self.matched_remaining[l] == 0 {
                continue;
            }
            let result = step(&mut self.states[l], req).map_err(|e| {
                CstError::ProtocolViolation { node: self.global(l), detail: e.to_string() }
            })?;
            if result.scheduled_matched {
                let mut a = l;
                loop {
                    self.matched_remaining[a] -= 1;
                    if a == 1 {
                        break;
                    }
                    a >>= 1;
                }
            }
            if !result.connections.is_empty() {
                let node = self.global(l);
                let slot = &mut self.local[l];
                for &c in &result.connections {
                    slot.set(c).map_err(|e| CstError::ProtocolViolation {
                        node,
                        detail: e.to_string(),
                    })?;
                }
                self.touched.push(l);
            }
            self.msgs[2 * l] = result.to_left;
            self.msgs[2 * l + 1] = result.to_right;
            self.stack.push(2 * l);
            self.stack.push(2 * l + 1);
        }

        // Local tracing over the persistent `local` table: follow this
        // round's connections inside the subtree; a signal that exits
        // upward through the subtree root is deferred to the coordinator
        // (it crosses the cut).
        'next_source: for s in 0..self.sources.len() {
            let (leaf, mut l) = self.sources[s];
            // climb from local leaf id
            loop {
                let parent = l >> 1;
                if parent == 0 {
                    out.deferred.push(leaf);
                    continue 'next_source;
                }
                let enter = if l & 1 == 0 { cst_core::Side::Left } else { cst_core::Side::Right };
                let Some(outp) = self.local[parent].output_of(enter) else {
                    return Err(CstError::ProtocolViolation {
                        node: self.global(parent),
                        detail: "signal reached an unconfigured switch".into(),
                    });
                };
                match outp {
                    cst_core::Side::Parent => {
                        l = parent;
                    }
                    side => {
                        let mut cur = if side == cst_core::Side::Left {
                            2 * parent
                        } else {
                            2 * parent + 1
                        };
                        while self.is_internal(cur) {
                            let Some(to) = self.local[cur].output_of(cst_core::Side::Parent)
                            else {
                                return Err(CstError::ProtocolViolation {
                                    node: self.global(cur),
                                    detail: "descent unconfigured".into(),
                                });
                            };
                            cur = match to {
                                cst_core::Side::Left => 2 * cur,
                                cst_core::Side::Right => 2 * cur + 1,
                                cst_core::Side::Parent => {
                                    return Err(CstError::ProtocolViolation {
                                        node: self.global(cur),
                                        detail: "p_i -> p_o is illegal".into(),
                                    })
                                }
                            };
                        }
                        let dest = LeafId(self.leaf_base + (cur - self.num_leaves()));
                        out.traced.push((leaf, dest));
                        continue 'next_source;
                    }
                }
            }
        }

        // Emit the flat per-switch payload and reset the scratch.
        for &l in &self.touched {
            sink.emit(self.global(l), &self.local[l])?;
            self.local[l].clear();
        }
        self.touched.clear();
        Ok(())
    }
}

/// What one worker produced in one round.
#[derive(Default)]
struct WorkerRound {
    /// One flat entry per switch the subtree configured this round
    /// (filled by the threaded driver from its sweep sink; unused — and
    /// empty — on the inline path, which sinks directly into the arena).
    connections: Vec<(NodeId, SwitchConfig)>,
    /// Sources whose circuit the worker traced locally (entirely inside
    /// its subtree), with the destination it reached.
    traced: Vec<(LeafId, LeafId)>,
    /// Sources whose circuit leaves the subtree: the coordinator traces
    /// them over the merged round configuration.
    deferred: Vec<LeafId>,
}

/// Coordinator-side round state shared by the inline and threaded
/// drivers: top-switch states, the dense merge arena, the meter, and the
/// schedule under construction. All per-round buffers are borrowed from
/// the [`ParallelScratch`] so they persist across requests.
struct Coordinator<'t> {
    topo: &'t CstTopology,
    /// Pairing oracle: source leaf -> (comm id, dest leaf), dense by leaf.
    by_source: &'t [Option<(CommId, LeafId)>],
    meter: PowerMeter,
    schedule: Schedule,
    arena: &'t mut ConfigArena,
    pool: &'t mut SchedulePool,
    /// Top switch states (depth < cut): global heap ids 1..num_sub.
    top_states: &'t mut [SwitchState],
    /// Persistent top-sweep scratch; left all-NULL (or fully rewritten)
    /// by each round's sweep.
    top_msgs: &'t mut [DownMsg],
    /// Requests for the subtree roots, indexed by global id
    /// `num_sub..2*num_sub`.
    sub_reqs: &'t mut [DownMsg],
    /// Circuits traced inside a subtree this round.
    traced: &'t mut Vec<(LeafId, LeafId)>,
    /// Cut-crossing sources to trace over the merged arena this round.
    active_sources: &'t mut Vec<LeafId>,
    num_sub: usize,
    scheduled_total: usize,
    set_len: usize,
    round_limit: usize,
}

impl Coordinator<'_> {
    fn done(&self) -> bool {
        self.scheduled_total >= self.set_len
    }

    /// Start a round: check the overrun bound and sweep the top switches
    /// (depth < cut), producing one request per subtree root.
    fn top_sweep(&mut self) -> Result<(), CstError> {
        if self.schedule.rounds.len() >= self.round_limit {
            return Err(CstError::RoundOverrun { limit: self.round_limit });
        }
        self.meter.begin_round();
        let num_sub = self.num_sub;
        if num_sub > 1 {
            for i in 1..num_sub {
                let req = std::mem::replace(&mut self.top_msgs[i], DownMsg::NULL);
                let result = step(&mut self.top_states[i], req).map_err(|e| {
                    CstError::ProtocolViolation { node: NodeId(i), detail: e.to_string() }
                })?;
                for &c in &result.connections {
                    self.arena.set(NodeId(i), c).map_err(|e| CstError::ProtocolViolation {
                        node: NodeId(i),
                        detail: e.to_string(),
                    })?;
                    self.meter.require(NodeId(i), c);
                }
                if 2 * i < num_sub {
                    self.top_msgs[2 * i] = result.to_left;
                    self.top_msgs[2 * i + 1] = result.to_right;
                } else {
                    self.sub_reqs[2 * i] = result.to_left;
                    self.sub_reqs[2 * i + 1] = result.to_right;
                }
            }
        }
        // num_sub == 1: the single subtree root is the global root and
        // receives [null, null] (already the default).
        Ok(())
    }

    /// Request for subtree `i` this round.
    fn sub_req(&self, i: usize) -> DownMsg {
        self.sub_reqs[self.num_sub + i]
    }

    /// Merge one threaded worker's round payload.
    fn absorb(&mut self, wr: WorkerRound) -> Result<(), CstError> {
        for (node, cfg) in wr.connections {
            for c in cfg.connections() {
                self.arena
                    .set(node, c)
                    .map_err(|e| CstError::ProtocolViolation { node, detail: e.to_string() })?;
                self.meter.require(node, c);
            }
        }
        self.traced.extend(wr.traced);
        self.active_sources.extend(wr.deferred);
        Ok(())
    }

    /// Sweep subtree `i` on the coordinator's own thread, sinking its
    /// configurations directly into the arena. `scratch` only carries the
    /// traced/deferred circuit buffers between calls.
    fn sweep_inline(
        &mut self,
        st: &mut Subtree,
        i: usize,
        scratch: &mut WorkerRound,
    ) -> Result<(), CstError> {
        let req = self.sub_req(i);
        let mut sink = ArenaSink { arena: self.arena, meter: &mut self.meter };
        st.sweep(req, &mut sink, scratch)?;
        self.traced.append(&mut scratch.traced);
        self.active_sources.append(&mut scratch.deferred);
        Ok(())
    }

    /// Verify this round's circuits, recover the communication ids, and
    /// extract the round from the arena.
    fn finish_round(&mut self) -> Result<(), CstError> {
        let mut round = self.pool.take_round();
        // Locally-traced circuits: just check the pairing.
        for &(src, dest) in self.traced.iter() {
            let (id, expected) = self.by_source[src.0].ok_or_else(|| CstError::ProtocolViolation {
                node: self.topo.leaf_node(src),
                detail: "non-source PE activated".into(),
            })?;
            if dest != expected {
                return Err(CstError::DeliveryMismatch { dest });
            }
            round.comms.push(id);
        }
        // Cut-crossing circuits: trace over the merged arena.
        self.active_sources.sort_unstable();
        for &src in self.active_sources.iter() {
            let dest = crate::scheduler::trace_circuit(self.topo, &*self.arena, src)?;
            let (id, expected) = self.by_source[src.0].ok_or_else(|| CstError::ProtocolViolation {
                node: self.topo.leaf_node(src),
                detail: "non-source PE activated".into(),
            })?;
            if dest != expected {
                return Err(CstError::DeliveryMismatch { dest });
            }
            round.comms.push(id);
        }
        if round.comms.is_empty() {
            return Err(CstError::ProtocolViolation {
                node: NodeId::ROOT,
                detail: "parallel round made no progress".into(),
            });
        }
        self.scheduled_total += round.comms.len();
        round.comms.sort_unstable();
        self.arena.take_round_into(&mut round.configs);
        self.schedule.rounds.push(round);
        self.traced.clear();
        self.active_sources.clear();
        Ok(())
    }
}

/// Reusable state for the parallel CSA driver: the subtree decomposition
/// (worker-local heaps), the coordinator's merge buffers, and the Phase-1
/// tables, all kept warm across requests. The decomposition is rebuilt only
/// when the topology size or the subtree count changes; everything else is
/// refilled in place.
#[derive(Default)]
pub struct ParallelScratch {
    p1: Phase1,
    nest: WellNestedChecker,
    subtrees: Vec<Subtree>,
    /// Sizing key of the current decomposition.
    num_leaves: usize,
    num_sub: usize,
    by_source: Vec<Option<(CommId, LeafId)>>,
    top_states: Vec<SwitchState>,
    top_msgs: Vec<DownMsg>,
    sub_reqs: Vec<DownMsg>,
    traced: Vec<(LeafId, LeafId)>,
    active_sources: Vec<LeafId>,
    arena: ConfigArena,
}

impl ParallelScratch {
    /// Empty scratch; the decomposition is built on first use.
    pub fn new() -> Self {
        ParallelScratch::default()
    }

    /// Schedule with `threads` worker threads (clamped to the subtree
    /// count). Produces output identical to the serial CSA (schedule,
    /// power, meter); the `metrics` field carries only the storage
    /// constant — use the serial driver when the control-word counters
    /// matter.
    ///
    /// Worker threads are only spawned when the host can actually run them
    /// concurrently (`std::thread::available_parallelism() > 1`); otherwise
    /// the same subtree decomposition executes inline on the calling
    /// thread, with identical output.
    pub fn schedule(
        &mut self,
        topo: &CstTopology,
        set: &CommSet,
        threads: usize,
        pool: &mut SchedulePool,
    ) -> Result<CsaOutcome, CstError> {
        let cores = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
        self.run(topo, set, threads, cores > 1, pool)
    }

    /// Like [`ParallelScratch::schedule`], but always spawns worker
    /// threads, even when `available_parallelism()` reports a single core.
    /// Stress tests use this to exercise the cross-thread merge path (the
    /// race class `cst-check` flags as `CST070`) regardless of host
    /// scheduling.
    pub fn schedule_threaded(
        &mut self,
        topo: &CstTopology,
        set: &CommSet,
        threads: usize,
        pool: &mut SchedulePool,
    ) -> Result<CsaOutcome, CstError> {
        self.run(topo, set, threads, true, pool)
    }

    fn run(
        &mut self,
        topo: &CstTopology,
        set: &CommSet,
        threads: usize,
        spawn_threads: bool,
        pool: &mut SchedulePool,
    ) -> Result<CsaOutcome, CstError> {
        set.require_right_oriented()?;
        self.nest.require(set)?;
        phase1::run_into(topo, set, &mut self.p1)?;

        // Cut depth: enough subtrees to feed the workers, but never deeper
        // than one level above the leaves.
        let max_cut = topo.height().saturating_sub(1);
        let want = threads.max(1).next_power_of_two().trailing_zeros();
        let cut = want.min(max_cut);
        let num_sub = 1usize << cut;
        let sub_height = topo.height() - cut;

        // (Re)build the decomposition's structural vectors only when the
        // shape changed; the per-request state refill below runs either way.
        if self.num_leaves != topo.num_leaves() || self.num_sub != num_sub {
            let leaves = 1usize << sub_height;
            self.subtrees.clear();
            self.subtrees.extend((0..num_sub).map(|i| Subtree {
                root: NodeId(num_sub + i),
                height: sub_height,
                states: vec![SwitchState::default(); 2 * leaves],
                matched_remaining: vec![0; 2 * leaves],
                leaf_base: i * leaves,
                msgs: vec![DownMsg::NULL; 2 * leaves],
                local: vec![SwitchConfig::empty(); leaves],
                touched: Vec::new(),
                stack: Vec::new(),
                sources: Vec::new(),
            }));
            self.num_leaves = topo.num_leaves();
            self.num_sub = num_sub;
        }

        // Refill worker-local state from this request's Phase-1 tables.
        let p1 = &self.p1;
        for st in &mut self.subtrees {
            let leaves = st.num_leaves();
            for l in (1..leaves).rev() {
                st.states[l] = *p1.state(st.global(l));
            }
            for l in (1..leaves).rev() {
                let below = |c: usize| if c < leaves { st.matched_remaining[c] } else { 0 };
                st.matched_remaining[l] =
                    st.states[l].matched + below(2 * l) + below(2 * l + 1);
            }
            // A prior error may have left sweep scratch dirty; reset it.
            st.msgs.fill(DownMsg::NULL);
            st.local.fill(SwitchConfig::empty());
            st.touched.clear();
            st.stack.clear();
            st.sources.clear();
        }

        self.by_source.clear();
        self.by_source.resize(set.num_leaves(), None);
        for (id, c) in set.iter() {
            self.by_source[c.source.0] = Some((id, c.dest));
        }
        self.top_states.clear();
        self.top_states.extend((0..num_sub).map(|i| {
            if i >= 1 { *p1.state(NodeId(i)) } else { SwitchState::default() }
        }));
        self.top_msgs.clear();
        self.top_msgs.resize(2 * num_sub, DownMsg::NULL);
        self.sub_reqs.clear();
        self.sub_reqs.resize(2 * num_sub, DownMsg::NULL);
        self.traced.clear();
        self.active_sources.clear();
        self.arena.reset_for(topo);

        let mut co = Coordinator {
            topo,
            by_source: &self.by_source,
            meter: pool.take_meter(topo),
            schedule: pool.take_schedule(),
            arena: &mut self.arena,
            pool,
            top_states: &mut self.top_states,
            top_msgs: &mut self.top_msgs,
            sub_reqs: &mut self.sub_reqs,
            traced: &mut self.traced,
            active_sources: &mut self.active_sources,
            num_sub,
            scheduled_total: 0,
            set_len: set.len(),
            round_limit: set.len() + 1,
        };

        let worker_count = threads.clamp(1, num_sub);
        if spawn_threads && worker_count > 1 {
            run_threaded(&mut co, &mut self.subtrees, worker_count)?;
        } else {
            run_inline(&mut co, &mut self.subtrees)?;
        }

        let power = co.meter.report(topo);
        Ok(CsaOutcome {
            schedule: co.schedule,
            power,
            meter: co.meter,
            metrics: crate::scheduler::ControlMetrics {
                words_stored_per_switch: SwitchState::WORDS,
                ..Default::default()
            },
        })
    }
}

#[cfg(test)]
fn schedule_parallel_impl(
    topo: &CstTopology,
    set: &CommSet,
    threads: usize,
    spawn_threads: bool,
) -> Result<CsaOutcome, CstError> {
    let mut pool = SchedulePool::new();
    ParallelScratch::new().run(topo, set, threads, spawn_threads, &mut pool)
}

/// Single-thread driver: the same decomposition, swept on the calling
/// thread with sweeps sinking straight into the coordinator's arena.
fn run_inline(co: &mut Coordinator<'_>, subtrees: &mut [Subtree]) -> Result<(), CstError> {
    let mut scratch = WorkerRound::default();
    while !co.done() {
        co.top_sweep()?;
        for (i, st) in subtrees.iter_mut().enumerate() {
            co.sweep_inline(st, i, &mut scratch)?;
        }
        co.finish_round()?;
    }
    Ok(())
}

/// Persistent-worker driver: workers are spawned once and fed one request
/// per round through channels (per-round thread spawning costs more than
/// the sweeps for realistic sizes). Each worker owns a chunk of subtrees
/// for the whole schedule; the coordinator runs the top sweep, distributes
/// the subtree-root requests, and merges the results.
// The once-called `run` closure below exists so `?` can short-circuit
// without leaking out of the crossbeam scope before workers are joined.
#[allow(clippy::redundant_closure_call)]
fn run_threaded(
    co: &mut Coordinator<'_>,
    subtrees: &mut [Subtree],
    worker_count: usize,
) -> Result<(), CstError> {
    let num_sub = co.num_sub;
    let chunk_size = num_sub.div_ceil(worker_count);
    let mut result: Result<(), CstError> = Ok(());
    crossbeam::thread::scope(|scope| {
        let mut req_txs = Vec::new();
        let (res_tx, res_rx) = crossbeam::channel::unbounded::<
            (usize, Result<Vec<WorkerRound>, CstError>),
        >();
        for (wid, chunk) in subtrees.chunks_mut(chunk_size).enumerate() {
            let (tx, rx) = crossbeam::channel::unbounded::<Vec<DownMsg>>();
            req_txs.push(tx);
            let res_tx = res_tx.clone();
            scope.spawn(move |_| {
                // One request vector per round, aligned with this chunk.
                for reqs in rx.iter() {
                    let mut outs = Vec::with_capacity(chunk.len());
                    let mut err = None;
                    for (st, req) in chunk.iter_mut().zip(&reqs) {
                        let mut conns: Vec<(NodeId, SwitchConfig)> = Vec::new();
                        let mut wr = WorkerRound::default();
                        match st.sweep(*req, &mut conns, &mut wr) {
                            Ok(()) => {
                                wr.connections = conns;
                                outs.push(wr);
                            }
                            Err(e) => {
                                err = Some(e);
                                break;
                            }
                        }
                    }
                    let payload = match err {
                        Some(e) => Err(e),
                        None => Ok(outs),
                    };
                    if res_tx.send((wid, payload)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);

        // closure (invoked once) so `?` can short-circuit without
        // leaking out of the crossbeam scope before workers are joined
        let mut run = || -> Result<(), CstError> {
            while !co.done() {
                co.top_sweep()?;
                // Fan the requests out to the persistent workers.
                for (wid, tx) in req_txs.iter().enumerate() {
                    let lo = wid * chunk_size;
                    let hi = ((wid + 1) * chunk_size).min(num_sub);
                    let reqs: Vec<DownMsg> = (lo..hi).map(|i| co.sub_req(i)).collect();
                    tx.send(reqs).expect("worker alive");
                }
                // Collect one result per worker; merge in worker order so
                // the output is deterministic.
                let mut per_worker: Vec<Option<Vec<WorkerRound>>> =
                    (0..req_txs.len()).map(|_| None).collect();
                for _ in 0..req_txs.len() {
                    let (wid, payload) = res_rx.recv().expect("worker alive");
                    per_worker[wid] = Some(payload?);
                }
                for wrs in per_worker.into_iter().flatten() {
                    for wr in wrs {
                        co.absorb(wr)?;
                    }
                }
                co.finish_round()?;
            }
            Ok(())
        };
        result = run();
        // Dropping the request senders terminates the workers.
        drop(req_txs);
    })
    .expect("worker panicked");
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsaScratch;
    use cst_comm::examples;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_equal_outcomes(topo: &CstTopology, set: &CommSet, threads: usize) {
        let serial = CsaScratch::new()
            .schedule(topo, set, &mut SchedulePool::new())
            .unwrap();
        // Both drivers must match serial regardless of what
        // available_parallelism() says on the test host.
        for spawn in [false, true] {
            let parallel = schedule_parallel_impl(topo, set, threads, spawn).unwrap();
            assert_eq!(parallel.schedule.num_rounds(), serial.schedule.num_rounds());
            for (a, b) in parallel.schedule.rounds.iter().zip(&serial.schedule.rounds) {
                assert_eq!(a.comms, b.comms);
                assert_eq!(a.configs, b.configs);
            }
            assert_eq!(parallel.power, serial.power);
        }
    }

    #[test]
    fn matches_serial_on_canonical_sets() {
        let topo = CstTopology::with_leaves(16);
        for set in [examples::paper_figure_2(), examples::paper_figure_3b()] {
            for threads in [1, 2, 4, 8] {
                assert_equal_outcomes(&topo, &set, threads);
            }
        }
    }

    #[test]
    fn matches_serial_on_random_sets() {
        let topo = CstTopology::with_leaves(256);
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let set = cst_workloads_shim(&mut rng, 256, 60);
            assert_equal_outcomes(&topo, &set, 8);
        }
    }

    // cst-padr cannot depend on cst-workloads (dependency cycle), so a
    // minimal local generator: single pass with the stack discipline
    // enforced inline (depth never exceeds the positions left).
    fn cst_workloads_shim(rng: &mut StdRng, n: usize, m: usize) -> CommSet {
        use rand::Rng;
        let mut pairs = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        let mut opened = 0usize;
        for pos in 0..n {
            let left_after = n - pos - 1;
            if stack.len() > left_after {
                let s = stack.pop().unwrap();
                pairs.push((s, pos));
            } else if opened < m && stack.len() < left_after && rng.gen_bool(0.45) {
                stack.push(pos);
                opened += 1;
            } else if !stack.is_empty() && rng.gen_bool(0.45) {
                let s = stack.pop().unwrap();
                pairs.push((s, pos));
            }
        }
        assert!(stack.is_empty(), "construction closes everything");
        CommSet::from_pairs(n, &pairs)
    }

    #[test]
    fn single_subtree_degenerate() {
        let topo = CstTopology::with_leaves(4);
        let set = CommSet::from_pairs(4, &[(0, 3), (1, 2)]);
        assert_equal_outcomes(&topo, &set, 4);
    }

    #[test]
    fn rejects_invalid_input_like_serial() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 4), (2, 6)]);
        for spawn in [false, true] {
            assert!(schedule_parallel_impl(&topo, &set, 4, spawn).is_err());
        }
    }
}
