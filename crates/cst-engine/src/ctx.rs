//! The reusable engine context: every scratch buffer any router needs,
//! kept warm across requests so repeated scheduling through one
//! [`EngineCtx`] reaches a zero-allocation steady state (asserted by the
//! workspace's allocation-gate test for the serial CSA).

use crate::cache::{CacheStats, ScheduleCache};
use crate::degrade::DegradationReport;
use crate::outcome::{PhaseTimings, RouteExtra, RouteOutcome};
use crate::registry;
use crate::router::Router;
use cst_comm::{CommSet, Schedule, SchedulePool};
use cst_core::{CircuitTable, CstError, CstTopology, FaultMask, Fp64, PowerReport};
use cst_padr::CsaScratch;
use std::time::Instant;

/// A reasonable [`EngineCtx::enable_cache`] capacity for callers with no
/// better size in mind (also what [`EngineCtx::set_cache_fp_bits`] enables).
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// Reusable scratch for repeated routing requests.
///
/// One context serves requests of any size, any router, in any order: each
/// scratch re-targets itself to the request's topology and grows its
/// buffers monotonically. After a warm-up call per (router, shape), the
/// serial CSA path allocates nothing; the other routers reuse the pooled
/// schedules/meters but still allocate for their own intermediate
/// structures (round partitions, decompositions, mirrored sets,
/// layerings).
///
/// # Examples
///
/// ```
/// use cst_core::CstTopology;
/// use cst_comm::CommSet;
/// use cst_engine::EngineCtx;
///
/// let topo = CstTopology::with_leaves(8);
/// let set = CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)]); // width 3
/// let mut ctx = EngineCtx::new();
/// let out = ctx.route_named("csa", &topo, &set).unwrap();
/// assert_eq!(out.rounds, 3); // Theorem 5
/// ctx.recycle(out); // return the schedule + meter to the pool
/// ```
#[derive(Default)]
pub struct EngineCtx {
    pub(crate) csa: CsaScratch,
    /// Round-table writer of the half-duplex split.
    pub(crate) table: CircuitTable,
    pub(crate) pool: SchedulePool,
    /// Schedule cache; `None` until [`EngineCtx::enable_cache`]. While
    /// `None`, every route call dispatches straight to the router.
    pub(crate) cache: Option<ScheduleCache<CachedOutcome>>,
    /// Last general request's decomposition, memoized so a repeated
    /// [`EngineCtx::route_general`] request skips the layering pass
    /// entirely (fingerprint prefilter + set equality, like the cache).
    pub(crate) general_memo: Option<crate::general::GeneralMemo>,
    /// Recycled per-layer accounting buffers for general outcomes
    /// (returned by [`EngineCtx::recycle_general`]).
    pub(crate) layer_rounds_scratch: Vec<usize>,
    pub(crate) layer_power_scratch: Vec<u64>,
    pub(crate) layer_round_scratch: Vec<u32>,
    /// Scratch of the composite packing pass.
    pub(crate) packer: cst_decomp::Packer,
}

impl EngineCtx {
    /// An empty context; buffers are sized lazily by the first requests.
    pub fn new() -> Self {
        EngineCtx::default()
    }

    /// Route `set` on `topo` with an explicit router — through the
    /// schedule cache once [`EngineCtx::enable_cache`] has run.
    pub fn route(
        &mut self,
        router: &dyn Router,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        if self.cache.is_some() {
            return self.route_via_cache(router, topo, set, None);
        }
        router.route(self, topo, set)
    }

    /// Route through the registry by stable name (see
    /// [`crate::registry::names`]).
    pub fn route_named(
        &mut self,
        name: &str,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        let router = registry::find(name)
            .ok_or_else(|| CstError::UnknownRouter { name: name.to_string() })?;
        self.route(router.as_ref(), topo, set)
    }

    /// Phase-1 tables of the serial CSA's most recent run (see
    /// [`CsaScratch::phase1`]), for audits that compare a long-lived
    /// context's tables with a fresh one's.
    pub fn csa_phase1(&self) -> &cst_padr::phase1::Phase1 {
        self.csa.phase1()
    }

    /// Return an outcome's recyclable parts (schedule, meter) to the pool
    /// so the next request reuses their allocations.
    pub fn recycle(&mut self, outcome: RouteOutcome) {
        self.pool.put_schedule(outcome.schedule);
        if let RouteExtra::Csa { meter, .. } = outcome.extra {
            self.pool.put_meter(meter);
        }
    }

    /// Pooled `(round shells, schedule shells)` ready for the next
    /// request; never above the pool's peak demand (see
    /// [`SchedulePool`]).
    pub fn pooled_shells(&self) -> (usize, usize) {
        self.pool.pooled_shells()
    }

    /// Meter an arbitrary schedule under the PADR power model using pooled
    /// meter storage. Used by routers whose construction path does not
    /// already meter (baselines, composed schedulers).
    pub(crate) fn meter_schedule(
        &mut self,
        topo: &CstTopology,
        schedule: &Schedule,
    ) -> PowerReport {
        let mut meter = self.pool.take_meter(topo);
        for round in &schedule.rounds {
            meter.begin_round();
            for (node, conn) in round.requirements() {
                meter.require(node, conn);
            }
        }
        let report = meter.report(topo);
        self.pool.put_meter(meter);
        report
    }
}

/// Caching is context state: once [`EngineCtx::enable_cache`] has run,
/// [`EngineCtx::route`], [`EngineCtx::route_masked`] and
/// [`EngineCtx::route_general`] (per layer) look up and insert through
/// the context's [`ScheduleCache`]; a context that never enabled it
/// routes straight through the router.
///
/// Keying rules (see `docs/ENGINE.md` §"Caching & streaming"):
/// * the key is [`request_fingerprint`]: the **router name**, the
///   **set**, and — for masked requests — the **fault mask**, so no
///   router ever serves another router's schedule and a masked request
///   never gets a fault-free schedule under a live mask;
/// * an **empty** mask keys identically to a plain request (masked
///   routing with no faults is defined as byte-identical to plain
///   routing), with the clean `DegradationReport` re-attached on a hit;
/// * a hit also requires full key *equality* — fingerprints are 64-bit
///   and may collide; a collision is a counted miss, never a wrong
///   schedule.
impl EngineCtx {
    /// Size (or resize) the schedule cache and route through it from now
    /// on. Resizing discards resident entries; pass 0 to keep the
    /// counters running while caching nothing.
    pub fn enable_cache(&mut self, capacity: usize) {
        self.cache = Some(ScheduleCache::new(capacity));
    }

    /// Counters of the schedule cache; `None` until
    /// [`EngineCtx::enable_cache`] has run.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Test knob: truncate cache fingerprints to `bits` low bits to make
    /// collisions likely (exercises the equality fallback). Enables the
    /// cache at [`DEFAULT_CACHE_CAPACITY`] if it is not already on.
    #[doc(hidden)]
    pub fn set_cache_fp_bits(&mut self, bits: u32) {
        self.cache
            .get_or_insert_with(|| ScheduleCache::new(DEFAULT_CACHE_CAPACITY))
            .set_fp_bits(bits);
    }

    /// One request through the schedule cache: a hit returns the cached
    /// outcome (schedule copied out of pooled shells, zero allocations
    /// when warm) without touching the scheduler; a miss dispatches
    /// straight to the router (or the degrade pass under a live mask)
    /// and inserts. Only called with the cache enabled, so the uncached
    /// path never pays for the fingerprint.
    pub(crate) fn route_via_cache(
        &mut self,
        router: &dyn Router,
        topo: &CstTopology,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Result<RouteOutcome, CstError> {
        let t0 = Instant::now();
        let fp = request_fingerprint(router.name(), set, mask);
        // Hit path: cache and pool are disjoint fields, so the cached
        // schedule can be copied out through pooled round shells while
        // the entry is still borrowed.
        if let Some(cache) = self.cache.as_ref() {
            if let Some(entry) = cache.lookup(fp, router.name(), set, mask) {
                return Ok(RouteOutcome {
                    router: router.name(),
                    schedule: self.pool.copy_schedule(&entry.schedule),
                    rounds: entry.rounds,
                    power: entry.power.clone(),
                    timings: PhaseTimings::total_only(t0.elapsed().as_nanos() as u64),
                    extra: RouteExtra::Cached { stats: cache.stats() },
                    degradation: entry.degradation.clone(),
                });
            }
        }

        let mut out = match mask {
            Some(m) => self.route_degraded(router, topo, set, m)?,
            None => router.route(self, topo, set)?,
        };
        let Some(cache) = self.cache.as_mut() else { return Ok(out) };
        // The fresh schedule moves into the entry (no clone); the caller
        // gets a copy through pooled shells — the same cheap path a hit
        // takes — and the overwritten entry's schedule recirculates into
        // the pool. With a zero-capacity cache nothing is stored.
        if let Some(entry) = cache.insert(fp, out.router, set, mask) {
            let fresh = std::mem::take(&mut out.schedule);
            entry.rounds = fresh.num_rounds();
            let victim = std::mem::replace(&mut entry.schedule, fresh);
            entry.power.clone_from(&out.power);
            match (&mut entry.degradation, out.degradation.as_ref()) {
                (Some(dst), Some(src)) => dst.clone_from(src),
                (dst, src) => *dst = src.cloned(),
            }
            out.schedule = self.pool.copy_schedule(&entry.schedule);
            self.pool.put_schedule(victim);
        }
        Ok(out)
    }
}

/// One routing outcome as `EngineCtx`'s cache holds it: everything a hit
/// hands back besides the timings and the counters.
#[derive(Debug, Default)]
pub(crate) struct CachedOutcome {
    schedule: Schedule,
    rounds: usize,
    power: PowerReport,
    degradation: Option<DegradationReport>,
}

/// The canonical 64-bit cache key of one routing request: the router
/// name (length-prefixed), the communication-set fingerprint, and the
/// fault-mask fingerprint behind a presence tag — so "no mask" can never
/// alias any real mask. This is the *one* keying function for every
/// schedule cache in the workspace: `EngineCtx`'s private cache and the
/// serve daemon's batch dedupe and shared
/// [`ShardedScheduleCache`](crate::ShardedScheduleCache) all call it, so
/// a request fingerprinted on one side of a socket addresses the same
/// entry on the other.
pub fn request_fingerprint(router: &str, set: &CommSet, mask: Option<&FaultMask>) -> u64 {
    let mut fp = Fp64::new("cst/route-request");
    fp.write_str(router);
    fp.write_u64(set.fingerprint());
    match mask {
        None => fp.write_u64(0),
        Some(m) => {
            fp.write_u64(1);
            fp.write_u64(m.fingerprint());
        }
    }
    fp.finish()
}
