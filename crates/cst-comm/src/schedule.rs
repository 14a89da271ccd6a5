//! Schedules: the common output type of every scheduler in this workspace
//! (the paper's CSA in `cst-padr`, the baselines in `cst-baseline`).
//!
//! A schedule partitions a communication set into rounds; each round is a
//! compatible subset together with the switch settings that realize it.
//! Per-round switch settings are stored as a flat [`RoundConfigs`] table
//! (sorted by heap index) rather than a tree map: contiguous, cheap to
//! iterate, and serialized in the same JSON shape as before.

use crate::communication::CommId;
use crate::set::CommSet;
use cst_core::round::write_json_uint;
use cst_core::{CircuitTable, CstError, CstTopology, LeafId, NodeId, PowerMeter, RoundConfigs};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One round of a schedule.
#[derive(Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Round {
    /// Communications performed this round.
    pub comms: Vec<CommId>,
    /// Connections each involved switch must hold this round.
    pub configs: RoundConfigs,
}

impl Clone for Round {
    fn clone(&self) -> Self {
        Round { comms: self.comms.clone(), configs: self.configs.clone() }
    }

    // Derive would fall back to `*self = src.clone()`, re-allocating both
    // buffers; the schedule cache clones outcomes through pooled shells
    // and must stay off the allocator once warm.
    fn clone_from(&mut self, src: &Self) {
        self.comms.clear();
        self.comms.extend_from_slice(&src.comms);
        self.configs.clone_from(&src.configs);
    }
}

impl Round {
    /// Iterate `(switch, connection)` requirements.
    #[inline]
    pub fn requirements(&self) -> impl Iterator<Item = (NodeId, cst_core::Connection)> + '_ {
        self.configs.requirements()
    }
}

/// A complete schedule for a set.
#[derive(Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    pub rounds: Vec<Round>,
}

impl Clone for Schedule {
    fn clone(&self) -> Self {
        Schedule { rounds: self.rounds.clone() }
    }

    // `Vec::clone_from` reuses the existing prefix element-wise (each
    // round's `clone_from` above), so re-cloning into a schedule that
    // already holds as many rounds is allocation-free. Cloning into an
    // *empty* shell still allocates per round — the pool's
    // [`SchedulePool::copy_schedule`] covers that case with pooled round
    // shells.
    fn clone_from(&mut self, src: &Self) {
        self.rounds.clone_from(&src.rounds);
    }
}

impl Schedule {
    /// The schedule of a round partition: round `r` performs the ids of
    /// the `r`-th item of `rounds`, in the order given (an empty item is
    /// an empty round), and its switch table is the union of its members'
    /// circuits, written by [`CircuitTable`]. `endpoints` maps an id to
    /// its `(source, dest)` leaves: a [`CommSet`]'s communication or a
    /// pair list's entry. Each communication has one circuit on the CST,
    /// so this is the table any correct scheduler records for the round.
    ///
    /// Fails on an id `endpoints` does not know and on an incompatible
    /// round (two circuits driving one output).
    pub fn from_partition<R: AsRef<[CommId]>>(
        topo: &CstTopology,
        endpoints: impl Fn(CommId) -> Option<(LeafId, LeafId)>,
        rounds: impl IntoIterator<Item = R>,
    ) -> Result<Schedule, CstError> {
        let mut table = CircuitTable::new();
        let mut schedule = Schedule::default();
        for ids in rounds {
            let ids = ids.as_ref();
            if let Some(&id) = ids.iter().find(|&&id| endpoints(id).is_none()) {
                return Err(CstError::ProtocolViolation {
                    node: NodeId::ROOT,
                    detail: format!("unknown comm id {id}"),
                });
            }
            let mut round = Round { comms: ids.to_vec(), configs: RoundConfigs::new() };
            table.write(topo, ids.iter().filter_map(|&id| endpoints(id)), &mut round.configs)?;
            schedule.rounds.push(round);
        }
        Ok(schedule)
    }

    /// Number of rounds.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// All scheduled communication ids across rounds (with repetition, in
    /// round order).
    pub fn scheduled_ids(&self) -> impl Iterator<Item = CommId> + '_ {
        self.rounds.iter().flat_map(|r| r.comms.iter().copied())
    }

    /// Replay the schedule through a [`PowerMeter`] and return it, charging
    /// the PADR power model (hold semantics) for every round.
    pub fn meter_power(&self, topo: &CstTopology) -> PowerMeter {
        let mut meter = PowerMeter::new(topo);
        for round in &self.rounds {
            meter.begin_round();
            for (s, c) in round.requirements() {
                meter.require(s, c);
            }
        }
        meter
    }

    /// Verify the schedule against its input set:
    /// 1. every communication appears in exactly one round;
    /// 2. every round is a compatible set whose merged configuration matches
    ///    the recorded per-switch configs;
    /// 3. each circuit's connections are present in its round and every
    ///    recorded configuration is legal and single-writer.
    ///
    /// Delegates to the diagnostic pass [`crate::check::check_rounds`]
    /// (shared with the `cst-check` static analyzer) and collapses the
    /// report: the first error-severity finding maps back onto a
    /// [`CstError`]; warnings (e.g. extra held connections, `CST071`) do
    /// not fail verification, preserving the historical "configs contain at
    /// least the requirements" contract. Use `check_rounds` directly for
    /// the full typed report.
    ///
    /// Returns the number of rounds on success.
    pub fn verify(&self, topo: &CstTopology, set: &CommSet) -> Result<usize, CstError> {
        crate::check::check_rounds(topo, set, self).into_result()?;
        Ok(self.rounds.len())
    }

    /// Append exactly the bytes `serde_json::to_string(self)` produces,
    /// written straight from the rounds with no intermediate
    /// `serde::Value` tree or `String`. Serde stays the decoder and the
    /// reference these bytes are tested against.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"rounds\":[");
        for (i, round) in self.rounds.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(b"{\"comms\":[");
            for (k, id) in round.comms.iter().enumerate() {
                if k > 0 {
                    out.push(b',');
                }
                write_json_uint(out, id.0 as u64);
            }
            out.extend_from_slice(b"],\"configs\":");
            round.configs.write_json(out);
            out.push(b'}');
        }
        out.extend_from_slice(b"]}");
    }
}

/// How many times the entries a round shell just held it may keep as
/// capacity when returned to a [`SchedulePool`] (never below 32).
const SHELL_SLACK: usize = 4;

/// Clear a returned round shell, trimming capacity beyond the slack.
fn clear_shell(round: &mut Round) {
    let keep = |len: usize| (SHELL_SLACK * len).max(32);
    round.comms.shrink_to(keep(round.comms.len()));
    round.comms.clear();
    round.configs.shrink_to(keep(round.configs.len()));
    round.configs.clear();
}

/// Recycled building blocks for schedulers that run back to back.
///
/// Rounds keep their `comms` and `configs` capacity, schedules keep their
/// round capacity, and power meters keep their per-switch tables (reset per
/// request). An engine returns a finished outcome here so the next request
/// reuses the allocations; in steady state (same request shape) the pool
/// hands everything back without touching the allocator.
///
/// The round pool is positional: a recycled schedule's rounds are returned
/// to the *front* of the queue in position order, and takers pop from the
/// front — so the shell at queue depth `i` always serves round `i` of the
/// next schedule. (A plain LIFO pool hands the shell of the *last* —
/// typically smallest — round to the next schedule's *first* — typically
/// largest — round and re-allocates every request.)
///
/// A returned shell keeps at most `SHELL_SLACK` (4) times the entries it
/// just held. Without that bound each shell's capacity would ratchet up
/// to the largest round it ever carried, so a long-lived context serving
/// varied requests would keep growing; with it, pooled memory follows the
/// recent requests, and repeating a request still finds every shell large
/// enough.
///
/// The pool also holds at most as many round shells (and schedule shells)
/// as it has ever had out at once: its peak demand. A returned shell
/// beyond that is dropped. Shells still out (held by a cache, say) count
/// toward the demand, so a pool that only gets back its own shells never
/// loses one to the bound, and repeating a request stays allocation-free.
/// A pool handed schedules taken from *another* pool (a serve worker
/// recycling a cache eviction victim that a different worker routed)
/// would otherwise keep every surplus shell and grow with the number of
/// routes served.
#[derive(Debug, Default)]
pub struct SchedulePool {
    schedules: Vec<Schedule>,
    rounds: VecDeque<Round>,
    meters: Vec<PowerMeter>,
    round_demand: Demand,
    schedule_demand: Demand,
}

/// Shells of one kind out of a pool right now, and the most ever out at
/// once. Returns of shells this pool never handed out floor `out` at zero.
#[derive(Clone, Copy, Debug, Default)]
struct Demand {
    out: usize,
    peak: usize,
}

impl Demand {
    fn take(&mut self) {
        self.out += 1;
        self.peak = self.peak.max(self.out);
    }

    fn put(&mut self) {
        self.out = self.out.saturating_sub(1);
    }
}

impl SchedulePool {
    /// Empty pool.
    pub fn new() -> Self {
        SchedulePool::default()
    }

    /// An empty schedule, reusing pooled round capacity when available.
    pub fn take_schedule(&mut self) -> Schedule {
        self.schedule_demand.take();
        self.schedules.pop().unwrap_or_default()
    }

    /// An empty round (cleared `comms`/`configs`, capacity retained).
    pub fn take_round(&mut self) -> Round {
        self.round_demand.take();
        self.rounds.pop_front().unwrap_or_default()
    }

    /// Pooled `(round shells, schedule shells)` ready to hand out. Never
    /// above the peak demand (see the type docs).
    pub fn pooled_shells(&self) -> (usize, usize) {
        (self.rounds.len(), self.schedules.len())
    }

    /// A meter reset to the all-disconnected state for `topo`.
    pub fn take_meter(&mut self, topo: &CstTopology) -> PowerMeter {
        match self.meters.pop() {
            Some(mut m) => {
                m.reset(topo);
                m
            }
            None => PowerMeter::new(topo),
        }
    }

    /// Return a schedule: its rounds are cleared into the round pool and
    /// the emptied shell joins the schedule pool, each up to its peak
    /// demand.
    pub fn put_schedule(&mut self, mut s: Schedule) {
        for round in s.rounds.drain(..).rev() {
            self.put_round(round);
        }
        self.schedule_demand.put();
        if self.schedules.len() < self.schedule_demand.peak {
            self.schedules.push(s);
        }
    }

    /// Clone `src` into a schedule assembled from pooled shells: the
    /// schedule body and each round come from the pool, so in steady
    /// state (cache serving schedules it has served before) the copy
    /// never touches the allocator. A plain `clone` can't do this — a
    /// pooled schedule arrives with zero rounds, so `Vec::clone_from`
    /// would clone-allocate every round of the tail.
    pub fn copy_schedule(&mut self, src: &Schedule) -> Schedule {
        let mut out = self.take_schedule();
        debug_assert!(out.rounds.is_empty(), "pooled schedules are empty");
        out.rounds.reserve(src.rounds.len());
        for r in &src.rounds {
            let mut shell = self.take_round();
            shell.clone_from(r);
            out.rounds.push(shell);
        }
        out
    }

    /// Return a round for reuse. The deepest shell goes instead when the
    /// pool already holds its peak demand, so the front keeps serving
    /// round `i` from position `i`.
    pub fn put_round(&mut self, mut r: Round) {
        self.round_demand.put();
        clear_shell(&mut r);
        self.rounds.push_front(r);
        self.rounds.truncate(self.round_demand.peak);
    }

    /// Return a meter for reuse (reset happens on the next take).
    pub fn put_meter(&mut self, m: PowerMeter) {
        self.meters.push(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communication::CommId;
    use cst_core::{Circuit, LeafId};

    /// The schedule performing round `r`'s ids in round `r`.
    fn schedule_of(topo: &CstTopology, set: &CommSet, rounds: &[&[usize]]) -> Schedule {
        let ids = rounds.iter().map(|r| r.iter().map(|&i| CommId(i)).collect::<Vec<_>>());
        Schedule::from_partition(topo, |id| set.get(id).map(|c| (c.source, c.dest)), ids).unwrap()
    }

    #[test]
    fn from_partition_keeps_rounds_as_given() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 3), (5, 4)]);
        let sched = schedule_of(&topo, &set, &[&[3, 0, 2], &[], &[1]]);
        let comms: Vec<Vec<usize>> =
            sched.rounds.iter().map(|r| r.comms.iter().map(|c| c.0).collect()).collect();
        assert_eq!(comms, vec![vec![3, 0, 2], vec![], vec![1]]);
        assert!(sched.rounds[1].configs.is_empty());
        sched.verify(&topo, &set).unwrap();
    }

    #[test]
    fn from_partition_fails_incompatible_rounds_and_unknown_ids() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6)]);
        let endpoints = |id| set.get(id).map(|c: &crate::Communication| (c.source, c.dest));
        assert!(Schedule::from_partition(&topo, endpoints, [[CommId(0), CommId(1)]]).is_err());
        assert!(Schedule::from_partition(&topo, endpoints, [[CommId(2)]]).is_err());
    }

    #[test]
    fn valid_schedule_verifies() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)]);
        let sched = schedule_of(&topo, &set, &[&[0], &[1], &[2]]);
        assert_eq!(sched.verify(&topo, &set).unwrap(), 3);
    }

    #[test]
    fn missing_comm_detected() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6)]);
        let sched = schedule_of(&topo, &set, &[&[0]]);
        assert!(sched.verify(&topo, &set).is_err());
    }

    #[test]
    fn double_schedule_detected() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7)]);
        let sched = schedule_of(&topo, &set, &[&[0], &[0]]);
        assert!(sched.verify(&topo, &set).is_err());
    }

    #[test]
    fn incompatible_round_detected() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6)]);
        // Force both nested comms into one round: link conflict.
        let c0 = Circuit::right_oriented(&topo, LeafId(0), LeafId(7));
        let c1 = Circuit::right_oriented(&topo, LeafId(1), LeafId(6));
        let mut configs = RoundConfigs::new();
        for c in [&c0, &c1] {
            for &(n, conn) in &c.settings {
                let _ = configs.entry_mut(n).set(conn);
            }
        }
        let sched = Schedule {
            rounds: vec![Round { comms: vec![CommId(0), CommId(1)], configs }],
        };
        assert!(sched.verify(&topo, &set).is_err());
    }

    #[test]
    fn schedule_serde_roundtrip() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6)]);
        let sched = schedule_of(&topo, &set, &[&[0], &[1]]);
        let json = serde_json::to_string(&sched).unwrap();
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sched);
        back.verify(&topo, &set).unwrap();
    }

    #[test]
    fn copy_schedule_matches_source() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6)]);
        let src = schedule_of(&topo, &set, &[&[0], &[1]]);
        let mut pool = SchedulePool::new();
        let a = pool.copy_schedule(&src);
        assert_eq!(a, src);
        // Recycle and copy again: the same shells come back out.
        pool.put_schedule(a);
        let b = pool.copy_schedule(&src);
        assert_eq!(b, src);
        b.verify(&topo, &set).unwrap();
    }

    #[test]
    fn returned_shells_keep_bounded_slack() {
        let mut pool = SchedulePool::new();
        let mut big = pool.take_round();
        big.comms.extend((0..1000).map(CommId));
        pool.put_round(big);
        // Just held 1000 entries: all of that capacity stays for reuse.
        let mut small = pool.take_round();
        assert!(small.comms.capacity() >= 1000);
        small.comms.push(CommId(0));
        pool.put_round(small);
        // Just held one entry: the shell gives back all but the floor.
        assert!(pool.take_round().comms.capacity() <= 32);
    }

    /// A schedule of `rounds` rounds drawn from `pool`.
    fn drawn(pool: &mut SchedulePool, rounds: usize) -> Schedule {
        let mut s = pool.take_schedule();
        for i in 0..rounds {
            let mut r = pool.take_round();
            r.comms.push(CommId(i));
            s.rounds.push(r);
        }
        s
    }

    #[test]
    fn pool_fed_by_another_pool_holds_at_most_its_peak_demand() {
        // The serve eviction pattern: two workers take turns inserting
        // into one shared 3-entry FIFO cache, and each gets back whatever
        // its insert evicts, which is always the other worker's schedule.
        // `mine` routes 2-round schedules and recycles 9-round ones.
        let (mut mine, mut theirs) = (SchedulePool::new(), SchedulePool::new());
        let mut cache: VecDeque<Schedule> = VecDeque::new();
        for step in 0..2000 {
            let (pool, rounds) =
                if step % 2 == 0 { (&mut mine, 2) } else { (&mut theirs, 9) };
            cache.push_back(drawn(pool, rounds));
            if cache.len() > 3 {
                let victim = cache.pop_front().unwrap();
                pool.put_schedule(victim);
            }
            for p in [&mine, &theirs] {
                assert!(p.rounds.len() <= p.round_demand.peak, "step {step}");
                assert!(p.schedules.len() <= p.schedule_demand.peak, "step {step}");
            }
        }
        // `mine` had three schedules out before its first eviction; after
        // it, every return outweighs the next take. Unbounded, its pool
        // would hold 7 more shells per turn.
        assert_eq!(mine.round_demand.peak, 3 * 2);
        assert_eq!(mine.pooled_shells().0, 3 * 2);
    }

    #[test]
    fn own_schedules_come_back_in_full() {
        // A pool serving only itself keeps every shell it handed out, so
        // repeating a request finds all of them.
        let mut pool = SchedulePool::new();
        let held: Vec<Schedule> = (1..=3).map(|r| drawn(&mut pool, r)).collect();
        for s in held {
            pool.put_schedule(s);
        }
        assert_eq!(pool.pooled_shells(), (6, 3));
        let again = drawn(&mut pool, 6);
        assert_eq!(pool.pooled_shells(), (0, 2));
        pool.put_schedule(again);
        assert_eq!(pool.pooled_shells(), (6, 3));
    }

    #[test]
    fn write_json_matches_serde_byte_for_byte() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 3)]);
        for sched in [
            Schedule::default(),
            Schedule { rounds: vec![Round::default()] },
            schedule_of(&topo, &set, &[&[0, 2], &[1]]),
        ] {
            let mut out = Vec::new();
            sched.write_json(&mut out);
            let serde = serde_json::to_string(&sched).unwrap();
            assert_eq!(std::str::from_utf8(&out).unwrap(), serde);
        }
    }

    #[test]
    fn power_metering_runs() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 1), (2, 3)]);
        let sched = schedule_of(&topo, &set, &[&[0, 1]]);
        let meter = sched.meter_power(&topo);
        let report = meter.report(&topo);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.total_units, 2); // one l->r per sibling pair switch
    }
}
