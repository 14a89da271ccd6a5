//! Incremental CSA: re-aggregate only the dirty root-paths of a delta.
//!
//! Phase 1's per-switch counters (`C_S = [M, S_L−M, D_L, S_R, D_R−M]`,
//! `C_U = [sources, dests]`) are pure per-subtree aggregates: the state
//! of switch `u` depends only on the upward messages of its two
//! children. A delta touching `k` PEs therefore invalidates exactly the
//! switches on those PEs' root-paths — `O(k log N)` of them — while the
//! rest of the counter arena from the previous sweep remains valid.
//!
//! [`IncrementalCsa`] persists that arena across requests. A
//! [`route_delta`] call applies the [`PeChange`]s to the retained set,
//! re-announces the touched leaves, re-runs the Lemma-1 aggregation
//! bottom-up over the dirty switches only, and then drives the ordinary
//! Phase-2 round sweeps from the patched counters. Phase 2 consumes its
//! counters destructively (each round decrements them toward zero), so
//! the pristine arena is never handed to it directly: every route copies
//! the states into a working arena first — a `memcpy` of `Copy` structs,
//! allocation-free once warm.
//!
//! The result is proven byte-identical (serde) to a from-scratch
//! [`CsaScratch`](crate::CsaScratch) route of the mutated set — see `tests/incremental.rs`
//! and the property tests — because both paths feed identical counters
//! to the identical round driver.
//!
//! [`route_delta`]: IncrementalCsa::route_delta

use crate::phase1::{self, Phase1};
use crate::scheduler::{phase2_core, CsaOutcome, CsaTimings, Options, Phase2Buffers};
use cst_comm::{CommSet, PeChange, SchedulePool, WellNestedChecker};
use cst_core::{CstError, CstTopology, LeafId, NodeId, PeRole, ProtocolTrace};
use std::time::Instant;

/// Current role of one leaf in `set` (Step 1.1's local information,
/// recomputed for just the touched leaves — O(M) scan each, against the
/// O(N) of rebuilding the whole role table).
fn role_of(set: &CommSet, leaf: LeafId) -> PeRole {
    for c in set.comms() {
        if c.source == leaf {
            return PeRole::Source;
        }
        if c.dest == leaf {
            return PeRole::Destination;
        }
    }
    PeRole::Idle
}

/// A long-lived scheduler session that retains the last Phase-1 counter
/// arena and routes deltas in `O(k log N + phase2)` instead of
/// `O(N + phase2)`.
#[derive(Debug)]
pub struct IncrementalCsa {
    set: CommSet,
    /// Counters consistent with `set`; never consumed by Phase 2.
    pristine: Phase1,
    /// Phase-2 working copy (destructively decremented per route).
    work: Phase1,
    nest: WellNestedChecker,
    bufs: Phase2Buffers,
    /// Scratch: touched leaves of the current delta batch.
    touched: Vec<LeafId>,
    /// Scratch: dirty switches, deduped and ordered bottom-up.
    dirty: Vec<NodeId>,
    options: Options,
    timings: CsaTimings,
}

impl IncrementalCsa {
    /// Start a session from `set`: validates it (right-oriented,
    /// well-nested, complete) and runs the full Phase-1 sweep once.
    pub fn new(topo: &CstTopology, set: &CommSet) -> Result<Self, CstError> {
        Self::with_options(topo, set, Options::default())
    }

    /// [`IncrementalCsa::new`] with explicit host-driver options.
    pub fn with_options(
        topo: &CstTopology,
        set: &CommSet,
        options: Options,
    ) -> Result<Self, CstError> {
        let mut nest = WellNestedChecker::new();
        set.require_right_oriented()?;
        nest.require(set)?;
        let mut pristine = Phase1::default();
        phase1::run_into(topo, set, &mut pristine)?;
        Ok(IncrementalCsa {
            set: set.clone(),
            pristine,
            work: Phase1::default(),
            nest,
            bufs: Phase2Buffers::default(),
            touched: Vec::new(),
            dirty: Vec::new(),
            options,
            timings: CsaTimings::default(),
        })
    }

    /// The set this session currently schedules.
    pub fn set(&self) -> &CommSet {
        &self.set
    }

    /// The retained Phase-1 counters (consistent with [`Self::set`]).
    pub fn phase1(&self) -> &Phase1 {
        &self.pristine
    }

    /// Phase timings of the most recent route (`phase1_ns` covers only
    /// the dirty-path patch on delta routes).
    pub fn timings(&self) -> CsaTimings {
        self.timings
    }

    /// Route the retained set as-is (a cache-miss-style full Phase 2 from
    /// the persisted counters — Phase 1 is not re-run).
    pub fn route(
        &mut self,
        topo: &CstTopology,
        pool: &mut SchedulePool,
    ) -> Result<CsaOutcome, CstError> {
        let t0 = Instant::now();
        let out = self.phase2_from_pristine(topo, pool, None);
        self.timings = CsaTimings {
            validate_ns: 0,
            phase1_ns: 0,
            rounds_ns: t0.elapsed().as_nanos() as u64,
        };
        out
    }

    /// [`IncrementalCsa::route`] that records every control message into
    /// `trace` for replay by the reference model (`cst-model`). Like
    /// [`crate::CsaScratch::schedule_traced`], tracing forces
    /// `prune_quiescent: false` so the trace carries one event per
    /// internal switch per round (the complete-sweep shape the
    /// conformance checker expects); results are unchanged.
    pub fn route_traced(
        &mut self,
        topo: &CstTopology,
        pool: &mut SchedulePool,
        trace: &mut ProtocolTrace,
    ) -> Result<CsaOutcome, CstError> {
        let t0 = Instant::now();
        let out = self.phase2_from_pristine(topo, pool, Some(trace));
        self.timings = CsaTimings {
            validate_ns: 0,
            phase1_ns: 0,
            rounds_ns: t0.elapsed().as_nanos() as u64,
        };
        out
    }

    /// Apply `changes` to the retained set, patch the dirty root-paths of
    /// the counter arena, and route the mutated set.
    ///
    /// On a validation error (a change is structurally invalid, or the
    /// mutated set is not right-oriented / well-nested / complete) the
    /// session stays *consistent*: every change accepted before the
    /// failure remains applied and the counters match the partially
    /// mutated set, so a corrective follow-up delta routes normally —
    /// mirroring how a streaming client observes a partially accepted
    /// batch (see `cst_comm::delta`).
    pub fn route_delta(
        &mut self,
        topo: &CstTopology,
        changes: &[PeChange],
        pool: &mut SchedulePool,
    ) -> Result<CsaOutcome, CstError> {
        self.route_delta_impl(topo, changes, pool, None)
    }

    /// [`IncrementalCsa::route_delta`] with protocol tracing (see
    /// [`IncrementalCsa::route_traced`]): the trace covers the Phase-2
    /// sweep of the *mutated* set, driven from the patched counters, so
    /// the reference model replays exactly what the delta produced.
    pub fn route_delta_traced(
        &mut self,
        topo: &CstTopology,
        changes: &[PeChange],
        pool: &mut SchedulePool,
        trace: &mut ProtocolTrace,
    ) -> Result<CsaOutcome, CstError> {
        self.route_delta_impl(topo, changes, pool, Some(trace))
    }

    fn route_delta_impl(
        &mut self,
        topo: &CstTopology,
        changes: &[PeChange],
        pool: &mut SchedulePool,
        trace: Option<&mut ProtocolTrace>,
    ) -> Result<CsaOutcome, CstError> {
        assert_eq!(
            topo.num_leaves(),
            self.set.num_leaves(),
            "set/topology size mismatch"
        );
        let t0 = Instant::now();
        let patch = self.apply_and_patch(topo, changes);
        let t1 = Instant::now();
        patch?;
        self.set.require_right_oriented()?;
        self.nest.require(&self.set)?;
        self.pristine.require_complete()?;
        let t2 = Instant::now();
        let out = self.phase2_from_pristine(topo, pool, trace);
        self.timings = CsaTimings {
            // The patch is the incremental stand-in for Phase 1; the
            // whole-set checks are the validation cost.
            phase1_ns: (t1 - t0).as_nanos() as u64,
            validate_ns: (t2 - t1).as_nanos() as u64,
            rounds_ns: t2.elapsed().as_nanos() as u64,
        };
        out
    }

    /// Apply the changes to the set and re-aggregate the dirty switches.
    fn apply_and_patch(
        &mut self,
        topo: &CstTopology,
        changes: &[PeChange],
    ) -> Result<(), CstError> {
        self.touched.clear();
        let result = self.set.apply_changes(changes, &mut self.touched);

        // Even on a mid-chain error, the leaves touched by the accepted
        // prefix must be re-aggregated to keep the session consistent.
        self.dirty.clear();
        for &leaf in &self.touched {
            // Step 1.1 again, locally: the leaf re-announces its role.
            let role = role_of(&self.set, leaf);
            let (s, d) = role.announcement();
            let node = topo.leaf_node(leaf);
            self.pristine.roles[leaf.0] = role;
            self.pristine.up_msgs[node.index()] =
                crate::messages::UpMsg { sources: s, dests: d };
            let mut a = node;
            while let Some(p) = a.parent() {
                self.dirty.push(p);
                a = p;
            }
        }
        // Bottom-up = descending heap index (children have larger indices
        // than their parents), so every switch sees its children's final
        // upward messages before recomputing — whether the child was
        // itself dirty or untouched since the last sweep.
        self.dirty.sort_unstable_by_key(|d| std::cmp::Reverse(d.0));
        self.dirty.dedup();
        for i in 0..self.dirty.len() {
            self.pristine.recompute_switch(self.dirty[i]);
        }
        result
    }

    /// Copy the pristine counters into the working arena and run Phase 2.
    fn phase2_from_pristine(
        &mut self,
        topo: &CstTopology,
        pool: &mut SchedulePool,
        trace: Option<&mut ProtocolTrace>,
    ) -> Result<CsaOutcome, CstError> {
        // Phase 2 reads only the states (roles and upward messages are
        // Phase-1 artifacts), so that's all the working copy needs.
        self.work.states.clear();
        self.work.states.extend_from_slice(&self.pristine.states);
        // Tracing needs the complete sweep (one event per switch per
        // round); untraced routes keep the session's own options.
        let options =
            if trace.is_some() { Options { prune_quiescent: false } } else { self.options };
        phase2_core(topo, &self.set, &mut self.work, options, &mut self.bufs, pool, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::CsaScratch;

    fn assert_matches_scratch(topo: &CstTopology, inc: &mut IncrementalCsa) {
        let mut pool = SchedulePool::new();
        let fresh = CsaScratch::new()
            .schedule(topo, inc.set(), &mut SchedulePool::new())
            .expect("scratch route failed");
        let delta = inc.route(topo, &mut pool).expect("incremental route failed");
        assert_eq!(delta.schedule, fresh.schedule);
        assert_eq!(delta.power, fresh.power);
    }

    #[test]
    fn attach_matches_from_scratch() {
        let topo = CstTopology::with_leaves(16);
        let set = CommSet::from_pairs(16, &[(0, 7), (1, 6)]);
        let mut inc = IncrementalCsa::new(&topo, &set).unwrap();
        let mut pool = SchedulePool::new();
        let out = inc
            .route_delta(&topo, &[PeChange::attach(8, 15), PeChange::attach(2, 5)], &mut pool)
            .unwrap();
        let expect = CommSet::from_pairs(16, &[(0, 7), (1, 6), (8, 15), (2, 5)]);
        assert_eq!(inc.set(), &expect);
        let fresh = CsaScratch::new().schedule(&topo, &expect, &mut SchedulePool::new()).unwrap();
        assert_eq!(out.schedule, fresh.schedule);
        assert_eq!(out.power, fresh.power);
    }

    #[test]
    fn detach_matches_from_scratch() {
        let topo = CstTopology::with_leaves(16);
        let set = CommSet::from_pairs(16, &[(0, 7), (1, 6), (2, 5), (8, 11)]);
        let mut inc = IncrementalCsa::new(&topo, &set).unwrap();
        let mut pool = SchedulePool::new();
        inc.route_delta(&topo, &[PeChange::detach(1)], &mut pool).unwrap();
        assert_matches_scratch(&topo, &mut inc);
    }

    #[test]
    fn counters_match_full_sweep_after_deltas() {
        let topo = CstTopology::with_leaves(32);
        let set = CommSet::from_pairs(32, &[(0, 31), (1, 14), (16, 29)]);
        let mut inc = IncrementalCsa::new(&topo, &set).unwrap();
        let mut pool = SchedulePool::new();
        inc.route_delta(
            &topo,
            &[PeChange::attach(2, 13), PeChange::detach(16), PeChange::attach(17, 28)],
            &mut pool,
        )
        .unwrap();
        let full = phase1::run(&topo, inc.set()).unwrap();
        assert_eq!(inc.phase1().states, full.states);
        assert_eq!(inc.phase1().up_msgs, full.up_msgs);
        assert_eq!(inc.phase1().roles, full.roles);
    }

    #[test]
    fn invalid_delta_leaves_session_usable() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 3)]);
        let mut inc = IncrementalCsa::new(&topo, &set).unwrap();
        let mut pool = SchedulePool::new();
        // Left-oriented attach: accepted structurally, rejected at
        // validation — the set now holds it.
        let err = inc.route_delta(&topo, &[PeChange::attach(6, 4)], &mut pool);
        assert!(matches!(err, Err(CstError::NotRightOriented { .. })));
        // Corrective delta detaches it; the session routes again.
        inc.route_delta(&topo, &[PeChange::detach(6)], &mut pool).unwrap();
        assert_matches_scratch(&topo, &mut inc);
        // Counters stayed consistent throughout (compare to full sweep).
        let full = phase1::run(&topo, inc.set()).unwrap();
        assert_eq!(inc.phase1().states, full.states);
    }

    #[test]
    fn empty_delta_is_a_plain_reroute() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6)]);
        let mut inc = IncrementalCsa::new(&topo, &set).unwrap();
        let mut pool = SchedulePool::new();
        let a = inc.route_delta(&topo, &[], &mut pool).unwrap();
        let b = inc.route(&topo, &mut pool).unwrap();
        assert_eq!(a.schedule, b.schedule);
    }
}
