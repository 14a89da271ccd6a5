//! General (arbitrary-set) routing: the layered decomposition front-end.
//!
//! A [`GeneralCommSet`] — any multiset-free collection of undirected leaf
//! pairs — is split by `cst-decomp` into right-oriented well-nested
//! layers by first-fit coloring, each layer is routed through the
//! ordinary [`EngineCtx::route`] (so layers flow through the
//! [`crate::ScheduleCache`] once the context has enabled it), and the per-layer
//! schedules are concatenated into one composite whose `CommId`s are the
//! *input pair ids* of the general set. The concatenation is then packed
//! toward the congestion bound ([`cst_decomp::Packer`]): each
//! communication, in composite order, moves into the earliest round
//! where its directed links and PEs are free, so the composite takes at
//! most `Σ layer_rounds` rounds and usually exactly the bound. The
//! packing, not the layer count, sets the rounds, so the layering does
//! not search for fewer layers.
//!
//! Power accounting is two-sided: `power` meters the packed composite as
//! one continuous schedule (hold semantics run across round boundaries,
//! the same accounting the `layered` router uses), while
//! `layer_power_units` records each layer's standalone total so callers
//! can attribute cost.
//!
//! The warm path is allocation-free (asserted by `tests/alloc_gate.rs`):
//! a repeated request hits the context's decomposition memo (skipping
//! the layering pass), every layer hits the schedule cache, the
//! composite is assembled from pooled round shells and packed in place
//! on warm scratch, and the accounting vectors are recycled through
//! [`EngineCtx::recycle_general`].

use crate::ctx::EngineCtx;
use crate::outcome::RouteExtra;
use crate::router::Router;
use cst_comm::Schedule;
use cst_core::{CstError, CstTopology, GeneralCommSet, PowerReport};
use cst_decomp::{decompose_timed, DecompTimings, Decomposition};
use std::time::Instant;

/// Memoized decomposition of the last general request (fingerprint
/// prefilter, equality to confirm — a collision re-decomposes, never
/// reuses the wrong layering).
pub(crate) struct GeneralMemo {
    fp: u64,
    set: GeneralCommSet,
    pub(crate) decomp: Decomposition,
}

/// Normalized outcome of one general routing request: the composite
/// schedule plus the decomposition's shape and certificate verdict.
#[derive(Clone, Debug)]
pub struct GeneralOutcome {
    /// Registry name of the per-layer router.
    pub router: &'static str,
    /// Packed composite schedule; `CommId(i)` is input pair id `i` of
    /// the general set. Layers are interleaved: a round may hold pairs of
    /// several layers, each round's switch settings are the union of its
    /// members' circuits, and `layer_round` records where each pair ran
    /// inside its own layer's schedule.
    pub schedule: Schedule,
    /// Total rounds (`== schedule.num_rounds()`), between
    /// `rounds_lower_bound` and `layer_rounds.iter().sum()`.
    pub rounds: usize,
    /// Congestion bound: max(max directed-link load, max PE degree) over
    /// the whole set. No schedule has fewer rounds, so `rounds ==
    /// rounds_lower_bound` proves the composite time-optimal.
    pub rounds_lower_bound: usize,
    /// Composite power, metered on the packed schedule (hold connections
    /// persisting from one round into the next are charged once).
    pub power: PowerReport,
    /// How many layers the decomposition produced.
    pub num_layers: usize,
    /// Certificate lower bound on the achievable layer count.
    pub lower_bound: usize,
    /// `num_layers` meets `lower_bound`, so it is provably minimal.
    pub proven_optimal: bool,
    /// Each layer's standalone round count, in layer order; their sum is
    /// the concatenated length the packing started from.
    pub layer_rounds: Vec<usize>,
    /// Provenance: `layer_round[i]` is input pair `i`'s round inside its
    /// own layer's schedule (see [`cst_decomp::layer_schedule`]).
    pub layer_round: Vec<u32>,
    /// Each layer's standalone power total (metered fresh per layer), to
    /// attribute cost; packing interleaves the layers, so the sum is not
    /// tied to `power.total_units`.
    pub layer_power_units: Vec<u64>,
    /// How many layers were served from the schedule cache.
    pub cached_layers: usize,
    /// The decomposition itself came from the context memo.
    pub memo_hit: bool,
    /// Where the decomposition's time went; all zero on a memo hit.
    pub decomp_timings: DecompTimings,
    /// End-to-end wall-clock nanoseconds of this request.
    pub total_ns: u64,
}

impl EngineCtx {
    /// Route an arbitrary communication set: decompose into well-nested
    /// layers, route each with `router`, concatenate, pack. The decomposition
    /// memo is always consulted; each layer also goes through the
    /// schedule cache once [`EngineCtx::enable_cache`] has run, so a warm
    /// repeat request re-decomposes nothing and re-schedules nothing.
    pub fn route_general(
        &mut self,
        router: &dyn Router,
        topo: &CstTopology,
        gset: &GeneralCommSet,
    ) -> Result<GeneralOutcome, CstError> {
        let t0 = Instant::now();
        let decomp_timings = self.prepare_decomposition(gset);
        // Take the memo out so its decomposition can be borrowed while
        // `&mut self` routes the layers (pure move — no allocation).
        let memo = self.general_memo.take().expect("memo just prepared");

        let mut layer_rounds = std::mem::take(&mut self.layer_rounds_scratch);
        layer_rounds.clear();
        let mut layer_power = std::mem::take(&mut self.layer_power_scratch);
        layer_power.clear();
        let mut composite = self.pool.take_schedule();
        let mut cached_layers = 0usize;
        let mut failure: Option<CstError> = None;

        for (ids, set) in memo.decomp.layers.iter().zip(&memo.decomp.layer_sets) {
            let mut out = match self.route(router, topo, set) {
                Ok(out) => out,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            if matches!(out.extra, RouteExtra::Cached { .. }) {
                cached_layers += 1;
            }
            layer_rounds.push(out.rounds);
            layer_power.push(out.power.total_units);
            cst_decomp::append_layer(&mut composite, ids, &mut out.schedule);
            self.recycle(out);
        }

        let num_layers = memo.decomp.num_layers();
        let lower_bound = memo.decomp.lower_bound;
        let proven_optimal = memo.decomp.proven_optimal;
        self.general_memo = Some(memo);

        if let Some(e) = failure {
            self.pool.put_schedule(composite);
            self.layer_rounds_scratch = layer_rounds;
            self.layer_power_scratch = layer_power;
            return Err(e);
        }

        let mut layer_round = std::mem::take(&mut self.layer_round_scratch);
        self.packer.pack(
            topo,
            gset.pairs(),
            &mut composite,
            &layer_rounds,
            &mut layer_round,
            &mut self.pool,
        );
        let power = self.meter_schedule(topo, &composite);
        let rounds = composite.num_rounds();
        Ok(GeneralOutcome {
            router: router.name(),
            schedule: composite,
            rounds,
            rounds_lower_bound: self.packer.rounds_lower_bound(),
            power,
            num_layers,
            lower_bound,
            proven_optimal,
            layer_rounds,
            layer_round,
            layer_power_units: layer_power,
            cached_layers,
            memo_hit: decomp_timings.is_none(),
            decomp_timings: decomp_timings.unwrap_or_default(),
            total_ns: t0.elapsed().as_nanos() as u64,
        })
    }

    /// Return a general outcome's recyclable parts (composite schedule,
    /// accounting vectors) so the next general request reuses their
    /// allocations — the general-path `recycle`.
    pub fn recycle_general(&mut self, outcome: GeneralOutcome) {
        self.pool.put_schedule(outcome.schedule);
        self.layer_rounds_scratch = outcome.layer_rounds;
        self.layer_power_scratch = outcome.layer_power_units;
        self.layer_round_scratch = outcome.layer_round;
    }

    /// The decomposition backing the last general request, or — after
    /// this call — backing `gset` (decomposing it now on a memo miss).
    /// Lets auditors and tools inspect layers without re-deriving them.
    pub fn decomposition_for(&mut self, gset: &GeneralCommSet) -> &Decomposition {
        self.prepare_decomposition(gset);
        &self.general_memo.as_ref().expect("memo just prepared").decomp
    }

    /// Ensure the memo holds `gset`'s decomposition: `None` on a hit,
    /// the stage timings of the fresh decomposition on a miss.
    fn prepare_decomposition(&mut self, gset: &GeneralCommSet) -> Option<DecompTimings> {
        let fp = gset.fingerprint();
        if let Some(m) = &self.general_memo {
            if m.fp == fp && m.set == *gset {
                return None;
            }
        }
        let (decomp, timings) = decompose_timed(gset);
        match &mut self.general_memo {
            Some(m) => {
                m.fp = fp;
                m.set.clone_from_set(gset);
                m.decomp = decomp;
            }
            None => self.general_memo = Some(GeneralMemo { fp, set: gset.clone(), decomp }),
        }
        Some(timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Csa;
    use cst_core::PowerReport;

    fn scheduled_ids(schedule: &Schedule) -> Vec<usize> {
        let mut ids: Vec<usize> =
            schedule.rounds.iter().flat_map(|r| r.comms.iter().map(|c| c.0)).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn composite_schedules_every_input_pair_exactly_once() {
        let topo = CstTopology::with_leaves(8);
        // Hotspot on leaf 0 plus a crossing: not well-nested.
        let gset = GeneralCommSet::from_pairs(8, &[(0, 3), (0, 5), (1, 4), (6, 7)]);
        let mut ctx = EngineCtx::new();
        let out = ctx.route_general(&Csa, &topo, &gset).unwrap();
        assert_eq!(scheduled_ids(&out.schedule), vec![0, 1, 2, 3]);
        assert_eq!(out.rounds, out.schedule.num_rounds());
        assert_eq!(out.layer_rounds.len(), out.num_layers);
        assert!(out.rounds_lower_bound <= out.rounds);
        assert!(out.rounds <= out.layer_rounds.iter().sum::<usize>());
        assert!(out.lower_bound >= 2, "leaf 0 carries two pairs");
        assert!(out.num_layers >= out.lower_bound);
        assert_eq!(out.router, "csa");
        ctx.recycle_general(out);
    }

    #[test]
    fn well_nested_input_is_a_single_layer() {
        let topo = CstTopology::with_leaves(8);
        let gset = GeneralCommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)]);
        let mut ctx = EngineCtx::new();
        let out = ctx.route_general(&Csa, &topo, &gset).unwrap();
        assert_eq!(out.num_layers, 1);
        assert!(out.proven_optimal);
        assert_eq!(out.rounds, 3, "width-3 nest routes in 3 rounds (Theorem 5)");
        ctx.recycle_general(out);
    }

    #[test]
    fn empty_set_routes_to_empty_schedule() {
        let topo = CstTopology::with_leaves(8);
        let gset = GeneralCommSet::empty(8);
        let mut ctx = EngineCtx::new();
        let out = ctx.route_general(&Csa, &topo, &gset).unwrap();
        assert_eq!(out.num_layers, 0);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.power, PowerReport::default());
        ctx.recycle_general(out);
    }

    #[test]
    fn warm_repeat_hits_memo_and_cache() {
        let topo = CstTopology::with_leaves(16);
        let gset = GeneralCommSet::from_pairs(16, &[(0, 8), (4, 12), (2, 10), (1, 3)]);
        let mut ctx = EngineCtx::new();
        ctx.enable_cache(32);
        let cold = ctx.route_general(&Csa, &topo, &gset).unwrap();
        assert!(!cold.memo_hit);
        assert!(cold.decomp_timings.total_ns() > 0, "a fresh decomposition is timed");
        assert_eq!(cold.cached_layers, 0);
        let cold_schedule = cold.schedule.clone();
        let cold_power = cold.power.clone();
        ctx.recycle_general(cold);
        let warm = ctx.route_general(&Csa, &topo, &gset).unwrap();
        assert!(warm.memo_hit, "identical request must reuse the decomposition");
        assert_eq!(warm.decomp_timings, DecompTimings::default(), "a memo hit decomposes nothing");
        assert_eq!(warm.cached_layers, warm.num_layers, "every layer hits");
        assert_eq!(warm.schedule, cold_schedule);
        assert_eq!(warm.power, cold_power);
        ctx.recycle_general(warm);
    }

    #[test]
    fn memo_is_equality_checked_not_just_fingerprinted() {
        let topo = CstTopology::with_leaves(8);
        let a = GeneralCommSet::from_pairs(8, &[(0, 3), (0, 5)]);
        let b = GeneralCommSet::from_pairs(8, &[(1, 2), (4, 6)]);
        let mut ctx = EngineCtx::new();
        let out_a = ctx.route_general(&Csa, &topo, &a).unwrap();
        assert_eq!(out_a.num_layers, 2);
        ctx.recycle_general(out_a);
        let out_b = ctx.route_general(&Csa, &topo, &b).unwrap();
        assert!(!out_b.memo_hit);
        assert_eq!(out_b.num_layers, 1, "disjoint nests share a layer");
        ctx.recycle_general(out_b);
    }

    #[test]
    fn decomposition_accessor_exposes_the_memo() {
        let gset = GeneralCommSet::from_pairs(8, &[(0, 3), (0, 5), (1, 4)]);
        let mut ctx = EngineCtx::new();
        let d = ctx.decomposition_for(&gset);
        assert_eq!(d.layers.iter().map(Vec::len).sum::<usize>(), 3);
        assert!(d.lower_bound >= 2);
    }
}
