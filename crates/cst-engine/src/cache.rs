//! The schedule cache: an arena-backed LRU keyed by request fingerprint.
//!
//! Entries live in a fixed-capacity slab (`Vec<Entry>`); recency is an
//! intrusive doubly-linked list threaded through the slab by index, and a
//! `HashMap<u64, u32>` maps a request fingerprint to its slot. A lookup
//! is: hash probe, then a **full equality check** of the stored key
//! (router, set, mask) — a 64-bit fingerprint can collide, and the
//! equality fallback turns a collision into a counted miss instead of a
//! wrong schedule (property-tested with deliberately truncated
//! fingerprints, see `tests/fingerprint_proptests.rs`).
//!
//! Eviction overwrites the least-recently-used slot **in place** with
//! `clone_from`, so the evicted entry's buffers (set, schedule rounds)
//! are reused; in steady state the cache churns without growing. The hit
//! path itself never touches the allocator — the engine clones the
//! cached schedule out through pooled round shells
//! ([`cst_comm::SchedulePool::copy_schedule`]), which the workspace
//! allocation gate pins at 0 allocs / 0 bytes when warm.

use crate::DegradationReport;
use cst_comm::{CommSet, Schedule};
use cst_core::{FaultMask, PowerReport};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Running counters of one [`ScheduleCache`]. Attached to cache-hit
/// outcomes (`RouteExtra::Cached`) and the stream tool's JSON report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the scheduler.
    pub misses: u64,
    /// Entries overwritten to make room.
    pub evictions: u64,
    /// Of the misses, how many hit an equal fingerprint with an unequal
    /// key — the equality fallback firing.
    pub collisions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
    /// Of the hits, how many were answered by the lock-free hit tier in
    /// front of the locked LRU (always 0 for a plain [`ScheduleCache`];
    /// populated by `ShardedScheduleCache`). Already included in `hits`,
    /// never in addition to it.
    pub tier_hits: u64,
}

/// Slab index sentinel: no neighbor / no entry.
const NIL: u32 = u32::MAX;

/// What [`ScheduleCache::insert`] did to the slab. `displaced` is a
/// schedule the caller should recycle into its pool (the evicted
/// victim's, or the rejected input when the cache is disabled);
/// `resident` borrows the freshly written entry's schedule for copy-out;
/// `evicted_fp` is the masked fingerprint of a *different* key whose slot
/// was reclaimed (`None` for fills and same-fingerprint overwrites) — the
/// sharded front tier uses it to invalidate its copy of the victim.
pub(crate) struct InsertOutcome<'a> {
    pub(crate) displaced: Option<Schedule>,
    pub(crate) resident: Option<&'a Schedule>,
    pub(crate) evicted_fp: Option<u64>,
}

/// What [`ScheduleCache::insert_with_payload`] did: like
/// [`InsertOutcome`] but owning no borrow, plus whether the payload is
/// now resident (false when the cache is disabled) so the caller knows
/// whether publishing the key to a front tier is sound.
pub(crate) struct PayloadInsertOutcome {
    pub(crate) displaced: Option<Schedule>,
    pub(crate) evicted_fp: Option<u64>,
    pub(crate) resident: bool,
}

/// One cached routing outcome with its full request key.
#[derive(Debug)]
pub(crate) struct Entry {
    /// Effective (possibly test-truncated) request fingerprint.
    fp: u64,
    pub(crate) router: &'static str,
    pub(crate) set: CommSet,
    pub(crate) mask: Option<FaultMask>,
    pub(crate) schedule: Schedule,
    pub(crate) rounds: usize,
    pub(crate) power: PowerReport,
    pub(crate) degradation: Option<DegradationReport>,
    /// Fully-encoded response bytes for this entry (the serve daemon's
    /// unit of caching): a hit is an `Arc` clone plus a socket write, no
    /// re-serialization. `None` for entries routed through the plain
    /// engine paths.
    pub(crate) payload: Option<std::sync::Arc<[u8]>>,
    /// Intrusive LRU links (slab indices).
    prev: u32,
    next: u32,
}

/// Fixed-capacity LRU cache of routing outcomes. See the module docs for
/// the representation; see `EngineCtx::enable_cache` for the keying rules
/// (router name + set fingerprint + fault-mask fingerprint).
#[derive(Debug)]
pub struct ScheduleCache {
    slab: Vec<Entry>,
    by_fp: HashMap<u64, u32>,
    /// Most-recently-used slot.
    head: u32,
    /// Least-recently-used slot (eviction victim).
    tail: u32,
    capacity: usize,
    /// AND-mask applied to every fingerprint before use. `!0` in
    /// production; tests truncate it to force collisions and exercise
    /// the equality fallback.
    fp_mask: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    collisions: u64,
}

impl ScheduleCache {
    /// An empty cache holding at most `capacity` entries (0 disables it:
    /// every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> ScheduleCache {
        ScheduleCache {
            slab: Vec::with_capacity(capacity.min(1024)),
            by_fp: HashMap::with_capacity(capacity.min(1024)),
            head: NIL,
            tail: NIL,
            capacity,
            fp_mask: !0,
            hits: 0,
            misses: 0,
            evictions: 0,
            collisions: 0,
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            collisions: self.collisions,
            entries: self.slab.len(),
            capacity: self.capacity,
            tier_hits: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Truncate every fingerprint to its low bits before use. Test knob:
    /// forcing e.g. an 8-bit fingerprint space makes collisions routine,
    /// so the equality fallback is exercised instead of being a
    /// one-in-2^64 code path. Applies to future operations only.
    #[doc(hidden)]
    pub fn set_fp_bits(&mut self, bits: u32) {
        self.fp_mask = if bits >= 64 { !0 } else { (1u64 << bits) - 1 };
    }

    /// Look up a request. A hit requires fingerprint match **and** full
    /// key equality; the entry is bumped to most-recently-used. A
    /// fingerprint match with an unequal key counts as a collision (and
    /// a miss) — never a wrong answer.
    pub(crate) fn lookup(
        &mut self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Option<&Entry> {
        let fp = fp & self.fp_mask;
        match self.by_fp.get(&fp) {
            Some(&slot) => {
                let e = &self.slab[slot as usize];
                if e.router == router && e.set == *set && e.mask.as_deref_eq(mask) {
                    self.hits += 1;
                    self.bump(slot);
                    Some(&self.slab[slot as usize])
                } else {
                    self.collisions += 1;
                    self.misses += 1;
                    None
                }
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or overwrite) the outcome for a request key.
    ///
    /// Takes the schedule **by value**: the freshly routed schedule moves
    /// into the entry instead of being cloned, which keeps the miss path
    /// within a few percent of an uncached route (the engine then copies
    /// it back out through pooled shells, the same cheap path a hit
    /// takes). See [`InsertOutcome`] for what comes back.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert(
        &mut self,
        fp: u64,
        router: &'static str,
        set: &CommSet,
        mask: Option<&FaultMask>,
        schedule: Schedule,
        power: &PowerReport,
        degradation: Option<&DegradationReport>,
    ) -> InsertOutcome<'_> {
        if self.capacity == 0 {
            return InsertOutcome { displaced: Some(schedule), resident: None, evicted_fp: None };
        }
        let fp = fp & self.fp_mask;
        let mut evicted_fp = None;
        let slot = if let Some(&slot) = self.by_fp.get(&fp) {
            // Same fingerprint already resident: overwrite in place
            // (either a refresh of the same key, or a collision victim —
            // one slot per fingerprint either way).
            slot
        } else if self.slab.len() < self.capacity {
            let slot = self.slab.len() as u32;
            self.slab.push(Entry {
                fp,
                router,
                set: CommSet::empty(0),
                mask: None,
                schedule: Schedule::default(),
                rounds: 0,
                power: PowerReport::default(),
                degradation: None,
                payload: None,
                prev: NIL,
                next: NIL,
            });
            self.attach_front(slot);
            slot
        } else {
            // Evict the least-recently-used entry, reusing its slot.
            let victim = self.tail;
            self.evictions += 1;
            evicted_fp = Some(self.slab[victim as usize].fp);
            self.by_fp.remove(&self.slab[victim as usize].fp);
            self.bump(victim);
            victim
        };
        self.by_fp.insert(fp, slot);
        let e = &mut self.slab[slot as usize];
        // Any encoded payload was serialized from the overwritten
        // schedule; it must not survive the overwrite.
        e.payload = None;
        e.fp = fp;
        e.router = router;
        e.set.clone_from(set);
        match (&mut e.mask, mask) {
            (Some(dst), Some(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.cloned(),
        }
        e.rounds = schedule.num_rounds();
        let displaced = std::mem::replace(&mut e.schedule, schedule);
        e.power.clone_from(power);
        match (&mut e.degradation, degradation) {
            (Some(dst), Some(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.cloned(),
        }
        self.bump(slot);
        InsertOutcome {
            displaced: Some(displaced),
            resident: Some(&self.slab[slot as usize].schedule),
            evicted_fp,
        }
    }

    /// Bump the entry at `fp` to most-recently-used **iff** the full
    /// request key matches — no counters move. The sharded cache calls
    /// this after a front-tier hit so the locked LRU's recency order
    /// stays exactly what it would have been had the hit gone through
    /// [`Self::lookup_payload`].
    pub(crate) fn touch(
        &mut self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) {
        let fp = fp & self.fp_mask;
        if let Some(&slot) = self.by_fp.get(&fp) {
            let e = &self.slab[slot as usize];
            if e.router == router && e.set == *set && e.mask.as_deref_eq(mask) {
                self.bump(slot);
            }
        }
    }

    /// Look up the *encoded response payload* for a request — the serve
    /// daemon's hit path. Identical keying rules to [`Self::lookup`], but
    /// a hit additionally requires an attached payload; a resident entry
    /// without one (inserted through the plain engine paths) counts as a
    /// miss, so `hits + misses` always equals the number of payload
    /// lookups performed.
    pub(crate) fn lookup_payload(
        &mut self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Option<std::sync::Arc<[u8]>> {
        let fp = fp & self.fp_mask;
        match self.by_fp.get(&fp) {
            Some(&slot) => {
                let e = &self.slab[slot as usize];
                if e.router == router && e.set == *set && e.mask.as_deref_eq(mask) {
                    if let Some(payload) = e.payload.clone() {
                        self.hits += 1;
                        self.bump(slot);
                        return Some(payload);
                    }
                    self.misses += 1;
                    None
                } else {
                    self.collisions += 1;
                    self.misses += 1;
                    None
                }
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// [`Self::insert`], then attach the encoded response payload to the
    /// freshly written entry. See [`PayloadInsertOutcome`] for what comes
    /// back.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert_with_payload(
        &mut self,
        fp: u64,
        router: &'static str,
        set: &CommSet,
        mask: Option<&FaultMask>,
        schedule: Schedule,
        power: &PowerReport,
        degradation: Option<&DegradationReport>,
        payload: std::sync::Arc<[u8]>,
    ) -> PayloadInsertOutcome {
        let out = self.insert(fp, router, set, mask, schedule, power, degradation);
        let (displaced, evicted_fp) = (out.displaced, out.evicted_fp);
        let fp = fp & self.fp_mask;
        let mut resident = false;
        if let Some(&slot) = self.by_fp.get(&fp) {
            self.slab[slot as usize].payload = Some(payload);
            resident = true;
        }
        PayloadInsertOutcome { displaced, evicted_fp, resident }
    }

    /// Move `slot` to the most-recently-used position.
    fn bump(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        self.detach(slot);
        self.attach_front(slot);
    }

    fn detach(&mut self, slot: u32) {
        let (prev, next) = {
            let e = &self.slab[slot as usize];
            (e.prev, e.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        let e = &mut self.slab[slot as usize];
        e.prev = NIL;
        e.next = NIL;
    }

    fn attach_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let e = &mut self.slab[slot as usize];
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            self.slab[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

/// Equality between an `Option<FaultMask>` entry key and the request's
/// `Option<&FaultMask>` without cloning either.
trait AsDerefEq {
    fn as_deref_eq(&self, other: Option<&FaultMask>) -> bool;
}

impl AsDerefEq for Option<FaultMask> {
    fn as_deref_eq(&self, other: Option<&FaultMask>) -> bool {
        match (self, other) {
            (None, None) => true,
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_key(i: usize) -> (u64, CommSet) {
        let set = CommSet::from_pairs(8, &[(0, i % 7 + 1)]);
        (set.fingerprint(), set)
    }

    fn dummy_schedule() -> Schedule {
        Schedule::default()
    }

    #[test]
    fn hit_requires_full_key_equality() {
        let mut c = ScheduleCache::new(4);
        let (fp, set) = entry_key(1);
        assert!(c.lookup(fp, "csa", &set, None).is_none());
        c.insert(fp, "csa", &set, None, dummy_schedule(), &PowerReport::default(), None);
        assert!(c.lookup(fp, "csa", &set, None).is_some());
        // Same fingerprint, different router: the fallback rejects it.
        assert!(c.lookup(fp, "greedy", &set, None).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.collisions), (1, 2, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = ScheduleCache::new(2);
        let keys: Vec<_> = (1..=3).map(entry_key).collect();
        for (fp, set) in &keys[..2] {
            c.insert(*fp, "csa", set, None, dummy_schedule(), &PowerReport::default(), None);
        }
        // Touch key 0 so key 1 is the LRU victim.
        assert!(c.lookup(keys[0].0, "csa", &keys[0].1, None).is_some());
        c.insert(keys[2].0, "csa", &keys[2].1, None, dummy_schedule(), &PowerReport::default(), None);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
        assert!(c.lookup(keys[0].0, "csa", &keys[0].1, None).is_some());
        assert!(c.lookup(keys[1].0, "csa", &keys[1].1, None).is_none());
        assert!(c.lookup(keys[2].0, "csa", &keys[2].1, None).is_some());
    }

    #[test]
    fn truncated_fingerprints_collide_safely() {
        let mut c = ScheduleCache::new(8);
        c.set_fp_bits(0); // every fingerprint is 0: one slot, constant war
        let keys: Vec<_> = (1..=4).map(entry_key).collect();
        for (fp, set) in &keys {
            c.insert(*fp, "csa", set, None, dummy_schedule(), &PowerReport::default(), None);
        }
        assert_eq!(c.len(), 1, "one slot per (masked) fingerprint");
        // Only the last insert survives; earlier keys collide and miss —
        // never return another key's schedule.
        assert!(c.lookup(keys[3].0, "csa", &keys[3].1, None).is_some());
        for (fp, set) in &keys[..3] {
            assert!(c.lookup(*fp, "csa", set, None).is_none());
        }
        assert_eq!(c.stats().collisions, 3);
    }

    #[test]
    fn payload_hits_require_an_attached_payload() {
        let mut c = ScheduleCache::new(4);
        let (fp, set) = entry_key(1);
        // Plain insert: resident, but no payload — a payload lookup is a
        // counted miss, never a half-hit.
        c.insert(fp, "csa", &set, None, dummy_schedule(), &PowerReport::default(), None);
        assert!(c.lookup_payload(fp, "csa", &set, None).is_none());
        let payload: std::sync::Arc<[u8]> = std::sync::Arc::from(&b"frame"[..]);
        c.insert_with_payload(
            fp,
            "csa",
            &set,
            None,
            dummy_schedule(),
            &PowerReport::default(),
            None,
            payload,
        );
        assert_eq!(c.lookup_payload(fp, "csa", &set, None).as_deref(), Some(&b"frame"[..]));
        // Overwriting through the plain path invalidates the payload.
        c.insert(fp, "csa", &set, None, dummy_schedule(), &PowerReport::default(), None);
        assert!(c.lookup_payload(fp, "csa", &set, None).is_none());
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 3, "every payload lookup counts exactly once");
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = ScheduleCache::new(0);
        let (fp, set) = entry_key(1);
        c.insert(fp, "csa", &set, None, dummy_schedule(), &PowerReport::default(), None);
        assert!(c.lookup(fp, "csa", &set, None).is_none());
        assert_eq!(c.len(), 0);
    }
}
