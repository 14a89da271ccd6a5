//! The keyed LRU behind both schedule caches.
//!
//! [`ScheduleCache<V>`] maps a request key (router, set, mask) to one
//! value kind: `EngineCtx` caches a whole routing outcome (schedule,
//! power, degradation); each serve shard (`ShardedScheduleCache`) caches
//! only the encoded response payload, since a payload is a pure function
//! of its key. Entries live in a fixed-capacity slab (`Vec<Entry<V>>`)
//! and a `HashMap<u64, u32>` maps a request fingerprint to its slot. A
//! lookup is: hash probe, then a **full equality check** of the stored
//! key — a 64-bit fingerprint can collide, and the equality fallback
//! turns a collision into a counted miss instead of a wrong answer
//! (property-tested with deliberately truncated fingerprints, see
//! `tests/fingerprint_proptests.rs`).
//!
//! Recency is a per-entry `AtomicU64` stamp drawn from a per-cache tick,
//! so lookups take `&self` (the counters are atomic too) and a serve
//! shard can answer hits under a shared read lock. An insert into a full
//! cache scans the stamps and reuses the smallest one's slot: exact LRU
//! whenever lookups do not race (in particular in every sequential run),
//! at the cost of one pass over the entries per eviction.
//!
//! Eviction overwrites the victim's slot **in place**: the key's set and
//! mask are `clone_from`ed into the old buffers, and the caller rewrites
//! the value through the `&mut V` that [`ScheduleCache::insert`] hands
//! back, so in steady state the cache churns without growing. The
//! engine's hit path never touches the allocator — it clones the cached
//! schedule out through pooled round shells
//! ([`cst_comm::SchedulePool::copy_schedule`]), which the workspace
//! allocation gate pins at 0 allocs / 0 bytes when warm.

use cst_comm::CommSet;
use cst_core::FaultMask;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Of the hits, how many were answered by the serve path's first
    /// probe (`ShardedScheduleCache::lookup_payload_tier`), before any
    /// single-flight join. Always 0 for `EngineCtx`'s cache. Already
    /// included in `hits`, never in addition to it.
    pub tier_hits: u64,
}

/// One cached value with its full request key and recency stamp.
#[derive(Debug)]
struct Entry<V> {
    /// Effective (possibly test-truncated) request fingerprint.
    fp: u64,
    router: &'static str,
    set: CommSet,
    mask: Option<FaultMask>,
    /// Tick of the last hit or insert; the smallest is the LRU victim.
    stamp: AtomicU64,
    value: V,
}

/// Fixed-capacity LRU cache from request key to `V`. See the module docs
/// for the representation; see `EngineCtx::enable_cache` for the keying
/// rules (router name + set fingerprint + fault-mask fingerprint).
#[derive(Debug)]
pub struct ScheduleCache<V> {
    slab: Vec<Entry<V>>,
    by_fp: HashMap<u64, u32>,
    /// Source of recency stamps; every hit and insert takes the next one.
    /// Stamps and counters use `Relaxed`: they publish no other data
    /// (entries change only under `&mut self`), they only order evictions.
    tick: AtomicU64,
    capacity: usize,
    /// AND-mask applied to every fingerprint before use. `!0` in
    /// production; tests truncate it to force collisions and exercise
    /// the equality fallback.
    fp_mask: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: u64,
    collisions: AtomicU64,
    tier_hits: AtomicU64,
}

impl<V> ScheduleCache<V> {
    /// An empty cache holding at most `capacity` entries (0 disables it:
    /// every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> ScheduleCache<V> {
        ScheduleCache {
            slab: Vec::with_capacity(capacity.min(1024)),
            by_fp: HashMap::with_capacity(capacity.min(1024)),
            tick: AtomicU64::new(0),
            capacity,
            fp_mask: !0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: 0,
            collisions: AtomicU64::new(0),
            tier_hits: AtomicU64::new(0),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions,
            collisions: self.collisions.load(Ordering::Relaxed),
            entries: self.slab.len(),
            capacity: self.capacity,
            tier_hits: self.tier_hits.load(Ordering::Relaxed),
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
    /// key equality; the entry becomes most-recently-used. A fingerprint
    /// match with an unequal key counts as a collision (and a miss) —
    /// never a wrong answer. Exactly one of hit/miss is counted.
    pub(crate) fn lookup(
        &self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Option<&V> {
        match self.find(fp, router, set, mask) {
            Ok(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Err(collided) => {
                if collided {
                    self.collisions.fetch_add(1, Ordering::Relaxed);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// [`Self::lookup`] for a probe that a counted lookup backs up: a hit
    /// counts in `hits` and `tier_hits`, a miss counts nothing.
    pub(crate) fn first_probe(
        &self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Option<&V> {
        let value = self.find(fp, router, set, mask).ok()?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.tier_hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// The uncounted probe: `Ok` (stamped most-recently-used) on a full
    /// key match, `Err(true)` on a fingerprint collision, `Err(false)`
    /// when the fingerprint is absent.
    fn find(
        &self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Result<&V, bool> {
        let &slot = self.by_fp.get(&(fp & self.fp_mask)).ok_or(false)?;
        let e = &self.slab[slot as usize];
        let key_matches = e.router == router
            && e.set == *set
            && match (&e.mask, mask) {
                (None, None) => true,
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
        if !key_matches {
            return Err(true);
        }
        e.stamp.store(self.tick.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
        Ok(&e.value)
    }

    /// Claim the slot for a request key and hand back its value for the
    /// caller to overwrite: the slot already holding this fingerprint (a
    /// refresh of the same key, or a collision victim — one slot per
    /// fingerprint either way), else a fresh slot (`V::default()`) while
    /// under capacity, else the least-recently-used entry's. The key is
    /// written and the entry stamped most-recently-used. `None` when the
    /// cache is disabled (capacity 0).
    pub(crate) fn insert(
        &mut self,
        fp: u64,
        router: &'static str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Option<&mut V>
    where
        V: Default,
    {
        if self.capacity == 0 {
            return None;
        }
        let fp = fp & self.fp_mask;
        let slot = if let Some(&slot) = self.by_fp.get(&fp) {
            slot
        } else if self.slab.len() < self.capacity {
            self.slab.push(Entry {
                fp,
                router,
                set: CommSet::empty(0),
                mask: None,
                stamp: AtomicU64::new(0),
                value: V::default(),
            });
            (self.slab.len() - 1) as u32
        } else {
            // Full at capacity > 0, so the slab is not empty.
            let victim = (0..self.slab.len())
                .min_by_key(|&i| self.slab[i].stamp.load(Ordering::Relaxed))
                .unwrap_or(0);
            self.evictions += 1;
            self.by_fp.remove(&self.slab[victim].fp);
            victim as u32
        };
        self.by_fp.insert(fp, slot);
        let tick = self.tick.get_mut();
        *tick += 1;
        let stamp = *tick;
        let e = &mut self.slab[slot as usize];
        e.fp = fp;
        e.router = router;
        e.set.clone_from(set);
        match (&mut e.mask, mask) {
            (Some(dst), Some(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.cloned(),
        }
        *e.stamp.get_mut() = stamp;
        Some(&mut e.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_key(i: usize) -> (u64, CommSet) {
        let set = CommSet::from_pairs(8, &[(0, i % 7 + 1)]);
        (set.fingerprint(), set)
    }

    fn put(c: &mut ScheduleCache<usize>, i: usize) {
        let (fp, set) = entry_key(i);
        if let Some(v) = c.insert(fp, "csa", &set, None) {
            *v = i;
        }
    }

    fn get(c: &ScheduleCache<usize>, i: usize) -> Option<usize> {
        let (fp, set) = entry_key(i);
        c.lookup(fp, "csa", &set, None).copied()
    }

    #[test]
    fn hit_requires_full_key_equality() {
        let mut c = ScheduleCache::new(4);
        assert_eq!(get(&c, 1), None);
        put(&mut c, 1);
        assert_eq!(get(&c, 1), Some(1));
        // Same fingerprint, different router: the fallback rejects it.
        let (fp, set) = entry_key(1);
        assert!(c.lookup(fp, "greedy", &set, None).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.collisions), (1, 2, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = ScheduleCache::new(2);
        put(&mut c, 1);
        put(&mut c, 2);
        // Touch key 1 so key 2 is the LRU victim.
        assert_eq!(get(&c, 1), Some(1));
        put(&mut c, 3);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(get(&c, 1), Some(1));
        assert_eq!(get(&c, 2), None);
        assert_eq!(get(&c, 3), Some(3));
    }

    #[test]
    fn truncated_fingerprints_collide_safely() {
        let mut c = ScheduleCache::new(8);
        c.set_fp_bits(0); // every fingerprint is 0: one slot, constant war
        for i in 1..=4 {
            put(&mut c, i);
        }
        assert_eq!(c.len(), 1, "one slot per (masked) fingerprint");
        // Only the last insert survives; earlier keys collide and miss —
        // never return another key's value.
        assert_eq!(get(&c, 4), Some(4));
        for i in 1..=3 {
            assert_eq!(get(&c, i), None);
        }
        assert_eq!(c.stats().collisions, 3);
    }

    #[test]
    fn first_probe_counts_hits_but_never_misses() {
        let mut c = ScheduleCache::new(4);
        let (fp, set) = entry_key(1);
        assert!(c.first_probe(fp, "csa", &set, None).is_none());
        put(&mut c, 1);
        assert!(c.first_probe(fp, "greedy", &set, None).is_none(), "collision");
        assert_eq!(c.first_probe(fp, "csa", &set, None), Some(&1));
        let s = c.stats();
        assert_eq!((s.hits, s.tier_hits, s.misses, s.collisions), (1, 1, 0, 0));
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = ScheduleCache::new(0);
        put(&mut c, 1);
        assert_eq!(get(&c, 1), None);
        assert_eq!(c.len(), 0);
    }
}
