//! Sharded payload cache: the concurrency layer over [`ScheduleCache`].
//!
//! The serve daemon runs one `EngineCtx` per worker thread (routing
//! scratch is thread-local by construction) but wants routed payloads
//! shared across workers. One lock around one big cache would serialize
//! every insert, so the shared cache is split into `2^shard_bits`
//! independent [`ScheduleCache`] shards, each behind its own `RwLock`.
//!
//! A request's shard is chosen by the **high bits** of its [`Fp64`]
//! request fingerprint (`cst_engine::request_fingerprint`). The split is
//! deliberate: the per-shard `HashMap` consumes the fingerprint's *low*
//! bits for bucketing, so high-bit sharding and low-bit hashing draw from
//! disjoint bit ranges of one well-avalanched digest — shard choice and
//! in-shard placement stay independent and uniformly spread.
//!
//! The unit cached here is the **fully-encoded response payload**
//! (`Arc<[u8]>`) and nothing else: a payload is a pure function of its
//! (router, set, mask) key, because the CSA's rounds (Thm 5) and power
//! (Thm 8) are deterministic, so no reader needs the schedule behind it.
//! A hit is a shared read lock, a full-key probe, a relaxed recency
//! stamp and an `Arc` clone — no exclusive lock and no allocation.
//! Inserts and [`ShardedScheduleCache::clear`] take the write lock; an
//! insert into a full shard scans that shard's stamps for the LRU victim
//! (64 entries at the daemon's default of 256 over 4 shards).
//!
//! Per-shard counters are ordinary `ScheduleCache` stats;
//! [`ShardedScheduleCache::stats`] is their sum (asserted equal in the
//! unit tests, and conserved end-to-end by `tests/serve_stress.rs`:
//! hits + misses == counted lookups). The serve path's first probe,
//! [`ShardedScheduleCache::lookup_payload_tier`], counts its hits in
//! `hits` and `tier_hits` but never a miss, since a counted
//! [`ShardedScheduleCache::lookup_payload`] backs every first-probe miss.
//!
//! [`Fp64`]: cst_core::Fp64

use crate::cache::{CacheStats, ScheduleCache};
use crate::DegradationReport;
use cst_comm::{CommSet, Schedule};
use cst_core::{FaultMask, PowerReport};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One shard: an LRU of encoded payloads.
type Shard = ScheduleCache<Arc<[u8]>>;

/// A fixed set of independently locked [`ScheduleCache`] shards addressed
/// by fingerprint high bits. All methods take `&self`; locking is
/// per-shard and never nested, so the structure is deadlock-free and
/// shareable across worker threads via `Arc`.
#[derive(Debug)]
pub struct ShardedScheduleCache {
    shards: Vec<RwLock<Shard>>,
    shard_bits: u32,
    /// Capacity given to each shard (total capacity rounded up to a
    /// multiple of the shard count).
    shard_capacity: usize,
    /// Effective fingerprint width, mirrored into every shard. 64 in
    /// production; tests truncate it to force collisions.
    fp_bits: u32,
    /// AND-mask equivalent of `fp_bits`, applied before shard selection
    /// so the sharded view masks exactly like each shard does.
    fp_mask: u64,
}

impl ShardedScheduleCache {
    /// A cache of `2^shard_bits` shards holding `total_capacity` entries
    /// altogether (rounded up so every shard gets an equal share).
    /// `shard_bits` is clamped to 8 (256 shards) — beyond that the locks
    /// outnumber any plausible worker pool.
    pub fn new(total_capacity: usize, shard_bits: u32) -> ShardedScheduleCache {
        ShardedScheduleCache::with_fp_bits(total_capacity, shard_bits, 64)
    }

    /// [`Self::new`] with a truncated fingerprint width. Test knob: a
    /// narrow fingerprint makes collisions routine so the stress suite
    /// can prove collisions are counted and never served. Truncation
    /// zeroes the high bits, so every request lands in shard 0 — the
    /// degenerate layout is part of the point (one shard takes the whole
    /// collision war while the others stay provably idle).
    #[doc(hidden)]
    pub fn with_fp_bits(total_capacity: usize, shard_bits: u32, fp_bits: u32) -> ShardedScheduleCache {
        let shard_bits = shard_bits.min(8);
        let num_shards = 1usize << shard_bits;
        let shard_capacity = total_capacity.div_ceil(num_shards);
        let shards =
            (0..num_shards).map(|_| RwLock::new(empty_shard(shard_capacity, fp_bits))).collect();
        let fp_mask = if fp_bits >= 64 { !0 } else { (1u64 << fp_bits) - 1 };
        ShardedScheduleCache { shards, shard_bits, shard_capacity, fp_bits, fp_mask }
    }

    /// Number of shards (`2^shard_bits`).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Capacity of each individual shard.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Which shard a request fingerprint belongs to: its high
    /// `shard_bits` bits (after the test-only width mask).
    pub fn shard_of(&self, fp: u64) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            ((fp & self.fp_mask) >> (64 - self.shard_bits)) as usize
        }
    }

    /// Read-lock one shard, recovering from poisoning: a shard's
    /// invariants hold between method calls, so a worker that panicked
    /// elsewhere must not wedge every other worker's cache access.
    fn read(&self, idx: usize) -> RwLockReadGuard<'_, Shard> {
        self.shards[idx].read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Write-lock one shard, with the same poisoning recovery.
    fn write(&self, idx: usize) -> RwLockWriteGuard<'_, Shard> {
        self.shards[idx].write().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Look up the encoded response payload for a request under the
    /// shard's read lock. A hit clones the `Arc` (no copy of the bytes)
    /// and stamps the entry most-recently-used. Exactly one of hit/miss
    /// is counted per call, in the owning shard's stats.
    pub fn lookup_payload(
        &self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Option<Arc<[u8]>> {
        self.read(self.shard_of(fp)).lookup(fp, router, set, mask).cloned()
    }

    /// The serve path's first probe: [`Self::lookup_payload`], except
    /// that a hit also counts in `tier_hits` and a miss counts nothing.
    /// Callers that get `None` must coalesce or fall through to
    /// [`Self::lookup_payload`], which keeps hit/miss accounting exact.
    pub fn lookup_payload_tier(
        &self,
        fp: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Option<Arc<[u8]>> {
        self.read(self.shard_of(fp)).first_probe(fp, router, set, mask).cloned()
    }

    /// Store a request's encoded payload in its shard, evicting the
    /// shard's least-recently-used entry when it is full. Only the
    /// payload is kept: `power` and `degradation` are already encoded in
    /// it, and `schedule` comes straight back (always `Some`) so the
    /// calling worker recycles its own shells.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_with_payload(
        &self,
        fp: u64,
        router: &'static str,
        set: &CommSet,
        mask: Option<&FaultMask>,
        schedule: Schedule,
        _power: &PowerReport,
        _degradation: Option<&DegradationReport>,
        payload: Arc<[u8]>,
    ) -> Option<Schedule> {
        // The displaced payload is dropped after the write lock (a
        // temporary of this statement) is released.
        let _displaced = self
            .write(self.shard_of(fp))
            .insert(fp, router, set, mask)
            .map(|slot| std::mem::replace(slot, payload));
        Some(schedule)
    }

    /// Counters of one shard: `hits + misses` equals the counted
    /// lookups routed to it, and `tier_hits` is the share of `hits`
    /// answered by first probes.
    pub fn shard_stats(&self, idx: usize) -> CacheStats {
        self.read(idx).stats()
    }

    /// Per-shard counters, in shard order.
    pub fn all_shard_stats(&self) -> Vec<CacheStats> {
        (0..self.shards.len()).map(|i| self.shard_stats(i)).collect()
    }

    /// Rolled-up counters: the field-wise sum over all shards (including
    /// `entries` and `capacity`, so the roll-up reads like one big cache).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for idx in 0..self.shards.len() {
            let s = self.shard_stats(idx);
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.collisions += s.collisions;
            total.entries += s.entries;
            total.capacity += s.capacity;
            total.tier_hits += s.tier_hits;
        }
        total
    }

    /// Drop every entry and zero every counter, shard by shard. The serve
    /// daemon's `Reset` frame uses this so seeded bench runs start from a
    /// byte-identical state.
    pub fn clear(&self) {
        for idx in 0..self.shards.len() {
            *self.write(idx) = empty_shard(self.shard_capacity, self.fp_bits);
        }
    }
}

fn empty_shard(capacity: usize, fp_bits: u32) -> Shard {
    let mut shard = ScheduleCache::new(capacity);
    shard.set_fp_bits(fp_bits);
    shard
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_core::Fp64;

    fn key(i: usize) -> (u64, CommSet) {
        let n = 64;
        let set = CommSet::from_pairs(n, &[(2 * (i % 31), 2 * (i % 31) + 1), (62, 63)]);
        let mut fp = Fp64::new("shard-test");
        fp.write_usize(i);
        fp.write_u64(set.fingerprint());
        (fp.finish(), set)
    }

    fn payload(i: usize) -> Arc<[u8]> {
        Arc::from(vec![i as u8; 4].into_boxed_slice())
    }

    fn insert(c: &ShardedScheduleCache, i: usize) {
        let (fp, set) = key(i);
        let power = PowerReport::default();
        c.insert_with_payload(fp, "csa", &set, None, Schedule::default(), &power, None, payload(i));
    }

    #[test]
    fn shard_routing_is_stable_and_uses_high_bits() {
        let c = ShardedScheduleCache::new(16, 2);
        assert_eq!(c.num_shards(), 4);
        // Stable: same fingerprint, same shard, every time.
        for i in 0..64 {
            let (fp, _) = key(i);
            let first = c.shard_of(fp);
            for _ in 0..3 {
                assert_eq!(c.shard_of(fp), first);
            }
        }
        // High bits select the shard: low 62 bits are invisible to it.
        for s in 0..4u64 {
            let base = s << 62;
            assert_eq!(c.shard_of(base), s as usize);
            assert_eq!(c.shard_of(base | 0x3fff_ffff_ffff_ffff), s as usize);
        }
        // A well-avalanched digest stream reaches every shard.
        let mut seen = [false; 4];
        for i in 0..64 {
            let (fp, _) = key(i);
            seen[c.shard_of(fp)] = true;
        }
        assert_eq!(seen, [true; 4], "64 digests left a shard cold");
    }

    #[test]
    fn zero_shard_bits_is_a_single_shard() {
        let c = ShardedScheduleCache::new(8, 0);
        assert_eq!(c.num_shards(), 1);
        for i in 0..32 {
            let (fp, _) = key(i);
            assert_eq!(c.shard_of(fp), 0);
        }
    }

    /// Per-shard LRU behavior must be exactly `ScheduleCache`: replay one
    /// request sequence against the sharded cache and against independent
    /// unsharded oracles (one per shard, fed that shard's subsequence),
    /// and require identical hit/miss answers per operation and identical
    /// final counters per shard.
    #[test]
    fn sharded_matches_unsharded_oracle_per_shard() {
        let c = ShardedScheduleCache::new(8, 2);
        let mut oracles: Vec<ScheduleCache<Arc<[u8]>>> =
            (0..c.num_shards()).map(|_| ScheduleCache::new(c.shard_capacity())).collect();

        // Seeded mixed workload over a working set larger than capacity,
        // serve-style: lookup, insert on miss.
        let mut state = 0x9e37_79b9u64;
        for step in 0..400 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = ((state >> 33) % 24) as usize;
            let (fp, set) = key(i);
            let shard = c.shard_of(fp);

            let got = c.lookup_payload(fp, "csa", &set, None);
            let want = oracles[shard].lookup(fp, "csa", &set, None).cloned();
            assert_eq!(got, want, "step {step}: sharded and oracle disagree on key {i}");
            if got.is_none() {
                insert(&c, i);
                if let Some(slot) = oracles[shard].insert(fp, "csa", &set, None) {
                    *slot = payload(i);
                }
            }
        }
        for (idx, oracle) in oracles.iter().enumerate() {
            assert_eq!(c.shard_stats(idx), oracle.stats(), "shard {idx} diverges from its oracle");
        }
    }

    #[test]
    fn rollup_equals_sum_of_shard_counters() {
        let c = ShardedScheduleCache::new(8, 2);
        for _ in 0..3 {
            for i in 0..20 {
                let (fp, set) = key(i);
                if c.lookup_payload_tier(fp, "csa", &set, None).is_none()
                    && c.lookup_payload(fp, "csa", &set, None).is_none()
                {
                    insert(&c, i);
                }
            }
        }
        let per_shard = c.all_shard_stats();
        let rollup = c.stats();
        assert_eq!(rollup.hits, per_shard.iter().map(|s| s.hits).sum::<u64>());
        assert_eq!(rollup.misses, per_shard.iter().map(|s| s.misses).sum::<u64>());
        assert_eq!(rollup.evictions, per_shard.iter().map(|s| s.evictions).sum::<u64>());
        assert_eq!(rollup.collisions, per_shard.iter().map(|s| s.collisions).sum::<u64>());
        assert_eq!(rollup.entries, per_shard.iter().map(|s| s.entries).sum::<usize>());
        assert_eq!(rollup.capacity, per_shard.iter().map(|s| s.capacity).sum::<usize>());
        assert_eq!(rollup.tier_hits, per_shard.iter().map(|s| s.tier_hits).sum::<u64>());
        assert!(rollup.hits > 0 && rollup.misses > 0, "workload exercised both outcomes");
        // Sequentially every hit lands on the first probe.
        assert_eq!(rollup.tier_hits, rollup.hits);
    }

    #[test]
    fn truncated_fingerprints_collide_within_shard_zero() {
        let c = ShardedScheduleCache::with_fp_bits(16, 2, 4);
        for i in 0..32 {
            let (fp, set) = key(i);
            assert_eq!(c.shard_of(fp), 0, "truncated fingerprints all shard to 0");
            match c.lookup_payload(fp, "csa", &set, None) {
                // A hit must be *our* payload — collisions are misses.
                Some(p) => assert_eq!(p, payload(i), "collision served another key's payload"),
                None => insert(&c, i),
            }
        }
        assert!(c.stats().collisions > 0, "4-bit fingerprints over 32 keys must collide");
        for idx in 1..c.num_shards() {
            let s = c.shard_stats(idx);
            assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0), "shard {idx} should be idle");
        }
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let c = ShardedScheduleCache::new(8, 1);
        for i in 0..8 {
            insert(&c, i);
        }
        assert!(c.stats().entries > 0);
        let (fp, set) = key(7);
        assert!(c.lookup_payload_tier(fp, "csa", &set, None).is_some());
        c.clear();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.evictions, s.tier_hits), (0, 0, 0, 0, 0));
        assert_eq!(s.capacity, c.num_shards() * c.shard_capacity());
        assert!(c.lookup_payload(fp, "csa", &set, None).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    /// Evicting a key is final: the next lookup is a counted miss, never
    /// a stale answer, and a first probe of it counts nothing.
    #[test]
    fn eviction_turns_the_next_lookup_into_a_miss() {
        let c = ShardedScheduleCache::new(1, 0); // one shard, one entry
        let (fp_a, set_a) = key(1);
        let (fp_b, set_b) = key(2);
        insert(&c, 1);
        assert!(c.lookup_payload_tier(fp_a, "csa", &set_a, None).is_some());
        insert(&c, 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup_payload_tier(fp_a, "csa", &set_a, None).is_none());
        assert!(c.lookup_payload(fp_a, "csa", &set_a, None).is_none(), "evicted key must miss");
        assert_eq!(c.lookup_payload(fp_b, "csa", &set_b, None), Some(payload(2)));
        let s = c.stats();
        assert_eq!((s.hits, s.tier_hits, s.misses), (2, 1, 1));
    }
}
