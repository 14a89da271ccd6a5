//! The serve daemon's payload cache (`ShardedScheduleCache`) against an
//! independent model, sequentially and under contention.
//!
//! * A `VecDeque` LRU model replays seeded lookup / first-probe / insert
//!   sequences over one shard with fingerprints cut to 2–4 bits, so the
//!   full-key equality fallback fires routinely. Every answer and every
//!   counter must match the model after every operation.
//! * Four threads hammer one shard of capacity 2 through the serve path's
//!   order (first probe, counted probe, insert). No thread may ever see
//!   another key's bytes, and the counters must stay conserved.

use cst::comm::{CommSet, Schedule};
use cst::core::{CstTopology, Fp64, PowerReport};
use cst::engine::{CacheStats, Csa, EngineCtx, ShardedScheduleCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Distinct keys available: key `i` owns the set `{(2i, 2i+1), (62, 63)}`.
const KEYS: usize = 12;

fn key(i: usize) -> (u64, CommSet) {
    assert!(i < KEYS);
    let set = CommSet::from_pairs(64, &[(2 * i, 2 * i + 1), (62, 63)]);
    let mut fp = Fp64::new("shard-cache-test");
    fp.write_usize(i);
    fp.write_u64(set.fingerprint());
    (fp.finish(), set)
}

/// Key `i`'s payload: bytes that name the key.
fn payload(i: usize) -> Arc<[u8]> {
    Arc::from(format!("payload-of-key-{i}").into_bytes().into_boxed_slice())
}

fn insert(c: &ShardedScheduleCache, i: usize, schedule: Schedule) -> Option<Schedule> {
    let (fp, set) = key(i);
    let power = PowerReport::default();
    c.insert_with_payload(fp, "csa", &set, None, schedule, &power, None, payload(i))
}

/// The reference: a plain LRU list of (masked fingerprint, key), least
/// recent at the front, with the cache's counters kept by hand.
struct Model {
    capacity: usize,
    fp_mask: u64,
    lru: VecDeque<(u64, usize)>,
    stats: CacheStats,
}

impl Model {
    fn new(capacity: usize, fp_bits: u32) -> Model {
        let stats = CacheStats { capacity, ..CacheStats::default() };
        Model { capacity, fp_mask: (1u64 << fp_bits) - 1, lru: VecDeque::new(), stats }
    }

    /// `Some(true)` on a hit, `Some(false)` on a collision, `None` when
    /// the fingerprint is absent; a hit moves the key to the back.
    fn probe(&mut self, i: usize) -> Option<bool> {
        let mfp = key(i).0 & self.fp_mask;
        let pos = self.lru.iter().position(|&(fp, _)| fp == mfp)?;
        if self.lru[pos].1 != i {
            return Some(false);
        }
        let entry = self.lru.remove(pos).expect("position is in range");
        self.lru.push_back(entry);
        Some(true)
    }

    fn lookup(&mut self, i: usize) -> bool {
        match self.probe(i) {
            Some(true) => {
                self.stats.hits += 1;
                true
            }
            Some(false) => {
                self.stats.collisions += 1;
                self.stats.misses += 1;
                false
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    fn first_probe(&mut self, i: usize) -> bool {
        let hit = self.probe(i) == Some(true);
        if hit {
            self.stats.hits += 1;
            self.stats.tier_hits += 1;
        }
        hit
    }

    fn insert(&mut self, i: usize) {
        if self.capacity == 0 {
            return;
        }
        let mfp = key(i).0 & self.fp_mask;
        if let Some(pos) = self.lru.iter().position(|&(fp, _)| fp == mfp) {
            self.lru.remove(pos);
        } else if self.lru.len() == self.capacity {
            self.lru.pop_front();
            self.stats.evictions += 1;
        }
        self.lru.push_back((mfp, i));
        self.stats.entries = self.lru.len();
    }
}

#[test]
fn stamp_lru_matches_a_list_model_under_collisions() {
    let mut collisions = 0;
    for capacity in 1..=8 {
        for fp_bits in 2..=4 {
            for seed in 0..4u64 {
                let c = ShardedScheduleCache::with_fp_bits(capacity, 0, fp_bits);
                let mut model = Model::new(capacity, fp_bits);
                let mut rng = StdRng::seed_from_u64(seed * 1000 + capacity as u64 * 10 + fp_bits as u64);
                for step in 0..400 {
                    let i = rng.gen_range(0..KEYS);
                    let (fp, set) = key(i);
                    let ctx = format!("cap {capacity} bits {fp_bits} seed {seed} step {step} key {i}");
                    match rng.gen_range(0..3) {
                        0 => {
                            let got = c.lookup_payload(fp, "csa", &set, None);
                            assert_eq!(got.is_some(), model.lookup(i), "{ctx}: lookup");
                            if let Some(p) = got {
                                assert_eq!(p, payload(i), "{ctx}: served another key's bytes");
                            }
                        }
                        1 => {
                            let got = c.lookup_payload_tier(fp, "csa", &set, None);
                            assert_eq!(got.is_some(), model.first_probe(i), "{ctx}: first probe");
                            if let Some(p) = got {
                                assert_eq!(p, payload(i), "{ctx}: served another key's bytes");
                            }
                        }
                        _ => {
                            insert(&c, i, Schedule::default());
                            model.insert(i);
                        }
                    }
                    assert_eq!(c.stats(), model.stats, "{ctx}: counters diverge");
                }
                collisions += model.stats.collisions;
            }
        }
    }
    assert!(collisions > 0, "2–4 bit fingerprints over {KEYS} keys must collide");
}

#[test]
fn insert_hands_back_the_schedule_it_was_given() {
    let topo = CstTopology::with_leaves(64);
    let (_, set) = key(3);
    let mut ctx = EngineCtx::new();
    let routed = ctx.route(&Csa, &topo, &set).unwrap().schedule;
    assert!(routed.num_rounds() > 0);
    for capacity in [0, 1, 4] {
        let c = ShardedScheduleCache::new(capacity, 0);
        for i in 0..3 {
            let back = insert(&c, i, routed.clone());
            assert_eq!(back.as_ref(), Some(&routed), "capacity {capacity}, insert {i}");
        }
        assert_eq!(c.stats().entries, capacity.min(3));
    }
}

#[test]
fn one_contended_shard_never_crosses_payloads_and_conserves_counters() {
    const THREADS: usize = 4;
    const PASSES: usize = 500;
    const CAPACITY: usize = 2;
    for fp_bits in [64, 2] {
        let c = ShardedScheduleCache::with_fp_bits(CAPACITY, 0, fp_bits);
        let counted = AtomicU64::new(0);
        let first_hits = AtomicU64::new(0);
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (c, counted, first_hits, start) = (&c, &counted, &first_hits, &start);
                s.spawn(move || {
                    start.wait();
                    for pass in 0..PASSES {
                        for k in 0..8 {
                            let i = (k + t + pass) % 8;
                            let (fp, set) = key(i);
                            if let Some(p) = c.lookup_payload_tier(fp, "csa", &set, None) {
                                assert_eq!(p, payload(i), "first probe crossed payloads");
                                first_hits.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            counted.fetch_add(1, Ordering::Relaxed);
                            if let Some(p) = c.lookup_payload(fp, "csa", &set, None) {
                                assert_eq!(p, payload(i), "counted probe crossed payloads");
                                continue;
                            }
                            insert(c, i, Schedule::default());
                        }
                    }
                });
            }
        });
        let s = c.stats();
        let (counted, first_hits) = (counted.into_inner(), first_hits.into_inner());
        assert_eq!(s.hits - s.tier_hits + s.misses, counted, "fp_bits {fp_bits}: {s:?}");
        assert_eq!(s.hits + s.misses, (THREADS * PASSES * 8) as u64, "fp_bits {fp_bits}: {s:?}");
        assert_eq!(s.tier_hits, first_hits, "fp_bits {fp_bits}: {s:?}");
        assert!(s.tier_hits <= s.hits, "fp_bits {fp_bits}: {s:?}");
        assert!(s.entries <= CAPACITY, "fp_bits {fp_bits}: {s:?}");
        assert!(s.evictions > 0, "8 keys over 2 slots must evict: {s:?}");
    }
}
