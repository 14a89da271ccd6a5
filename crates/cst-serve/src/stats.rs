//! Service counters and their snapshot form.
//!
//! Workers bump lock-free atomic counters ([`ServeCounters`]); the cache
//! keeps its own atomic counters per shard. A `Stats` request (or
//! [`crate::Server::stats`]) freezes both into a
//! [`ServeStats`] snapshot — plain data that serializes to JSON for the
//! bench reports and to the binary wire form for `Stats` responses.
//!
//! **Conservation invariants** (asserted end-to-end by
//! `tests/serve_stress.rs`):
//!
//! * `cache.hits + cache.misses + coalesced_waits == requests - coalesced`
//!   — every admitted route item either probes the shared cache exactly
//!   once, parks on another connection's in-flight computation
//!   (`coalesced_waits`), or is coalesced onto an identical item in the
//!   same batch (`coalesced`);
//! * `computations == singleflight_leaders` whenever no leader failed —
//!   each engine route invocation on the serve path is a single-flight
//!   leader; after a leader failure, recovering waiters route solo, so in
//!   general `computations >= singleflight_leaders`;
//! * `cache.tier_hits <= cache.hits` — tier hits are the subset of hits
//!   answered by the first, read-locked probe of the serve path (the
//!   rest are hits of the counted probe after a single-flight join);
//! * `cache` equals the field-wise sum of `shards`;
//! * collisions are counted inside `cache.misses`, and a collision is
//!   never *served* — the equality fallback reroutes it to a fresh route.

use cst_engine::CacheStats;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live atomic counters, one instance shared by every worker.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Request frames handled (all kinds).
    pub frames: AtomicU64,
    /// Route items admitted (one per Route frame, one per Batch element)
    /// after decode + topology validation.
    pub requests: AtomicU64,
    /// Route items answered with a payload.
    pub responses: AtomicU64,
    /// Error frames sent (whole-request and per-batch-item).
    pub errors: AtomicU64,
    /// Batch items served by copying an identical earlier item in the
    /// same batch (fingerprint prefilter, full-key equality to confirm).
    pub coalesced: AtomicU64,
    /// Reset frames honored.
    pub resets: AtomicU64,
    /// Engine route invocations on the serve path (cache misses that
    /// actually computed a schedule, successfully or not).
    pub computations: AtomicU64,
    /// Misses that led a single-flight and proceeded to route on behalf
    /// of any concurrent waiters.
    pub singleflight_leaders: AtomicU64,
    /// Misses that parked on another connection's in-flight computation
    /// and were served its payload without probing the cache.
    pub coalesced_waits: AtomicU64,
}

impl ServeCounters {
    /// Add 1, relaxed — counters are statistics, not synchronization.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Zero everything (the `Reset` frame).
    pub fn reset(&self) {
        for c in [
            &self.connections,
            &self.frames,
            &self.requests,
            &self.responses,
            &self.errors,
            &self.coalesced,
            &self.resets,
            &self.computations,
            &self.singleflight_leaders,
            &self.coalesced_waits,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Frozen counter snapshot: the `Stats` response, and the `--json`
/// report's `stats` object.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Connections accepted since start (or last reset).
    pub connections: u64,
    /// Request frames handled.
    pub frames: u64,
    /// Route items admitted.
    pub requests: u64,
    /// Route items answered with a payload.
    pub responses: u64,
    /// Error frames sent.
    pub errors: u64,
    /// Batch items coalesced onto an identical sibling.
    pub coalesced: u64,
    /// Resets honored (counted *after* zeroing, so the first snapshot
    /// following a reset reads 1).
    pub resets: u64,
    /// Size of the worker pool (configuration, not traffic).
    pub workers: u64,
    /// Engine route invocations on the serve path.
    pub computations: u64,
    /// Misses that led a single-flight to an actual route.
    pub singleflight_leaders: u64,
    /// Misses served by parking on another connection's computation.
    pub coalesced_waits: u64,
    /// Shared-cache roll-up: field-wise sum of `shards`.
    pub cache: CacheStats,
    /// Per-shard cache counters, in shard order.
    pub shards: Vec<CacheStats>,
}

impl ServeStats {
    /// Freeze the live counters (cache stats are supplied by the caller,
    /// which owns the sharded cache).
    pub fn snapshot(
        counters: &ServeCounters,
        workers: u64,
        cache: CacheStats,
        shards: Vec<CacheStats>,
    ) -> ServeStats {
        ServeStats {
            connections: counters.connections.load(Ordering::Relaxed),
            frames: counters.frames.load(Ordering::Relaxed),
            requests: counters.requests.load(Ordering::Relaxed),
            responses: counters.responses.load(Ordering::Relaxed),
            errors: counters.errors.load(Ordering::Relaxed),
            coalesced: counters.coalesced.load(Ordering::Relaxed),
            resets: counters.resets.load(Ordering::Relaxed),
            workers,
            computations: counters.computations.load(Ordering::Relaxed),
            singleflight_leaders: counters.singleflight_leaders.load(Ordering::Relaxed),
            coalesced_waits: counters.coalesced_waits.load(Ordering::Relaxed),
            cache,
            shards,
        }
    }
}
