//! # cst-engine — one front door for every CST scheduler
//!
//! Unifies the workspace's ten scheduling entry points behind a single
//! [`Router`] trait with a normalized [`RouteOutcome`], a reusable
//! [`EngineCtx`] holding every scratch buffer (so repeated scheduling
//! through one context reaches a zero-allocation steady state on the
//! serial CSA path), and a [`registry()`] mapping stable names to boxed
//! routers. See `docs/ENGINE.md` for the architecture.
//!
//! ```
//! use cst_core::CstTopology;
//! use cst_comm::CommSet;
//! use cst_engine::EngineCtx;
//!
//! let topo = CstTopology::with_leaves(16);
//! let set = CommSet::from_pairs(16, &[(0, 7), (1, 6), (8, 15)]);
//! let mut ctx = EngineCtx::new(); // reuse across requests
//! for name in ["csa", "general", "greedy"] {
//!     let out = ctx.route_named(name, &topo, &set).unwrap();
//!     assert!(out.rounds >= 2);
//!     ctx.recycle(out); // schedule + meter go back to the pool
//! }
//! ```

mod cache;
mod ctx;
mod degrade;
mod flight;
mod general;
mod outcome;
mod registry;
mod router;
mod shard;

pub use cache::{CacheStats, ScheduleCache};
pub use ctx::{request_fingerprint, EngineCtx, DEFAULT_CACHE_CAPACITY};
pub use flight::{FlightLease, Joined, SingleFlight};
pub use shard::ShardedScheduleCache;
pub use degrade::{DegradationReport, DroppedComm, ReroutedComm};
pub use general::GeneralOutcome;
pub use outcome::{PhaseTimings, RouteExtra, RouteOutcome};
pub use registry::{find, names, registry, route_once, CANONICAL};
pub use router::{
    Csa, CsaNoPrune, CsaParallel, CsaThreaded, General, GeneralMerged, Greedy, Layered, Roy,
    Router, Sequential, Universal,
};

#[cfg(test)]
mod tests {
    use super::*;
    use cst_comm::CommSet;
    use cst_core::{CstError, CstTopology, FaultCause, FaultMask, NodeId};

    #[test]
    fn canonical_names_resolve_and_match() {
        for name in CANONICAL {
            let router = find(name).unwrap_or_else(|| panic!("{name} missing from registry"));
            assert_eq!(router.name(), name);
            assert!(!router.description().is_empty());
        }
    }

    #[test]
    fn find_resolves_every_name_and_only_those() {
        for name in names() {
            assert_eq!(find(name).unwrap().name(), name);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn registry_names_are_unique() {
        let names = names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate router names");
    }

    #[test]
    fn canonical_prefix_order() {
        let names = names();
        assert_eq!(&names[..CANONICAL.len()], &CANONICAL[..]);
    }

    #[test]
    fn unknown_name_is_typed_error() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 1)]);
        let err = EngineCtx::new().route_named("no-such-router", &topo, &set).unwrap_err();
        assert!(matches!(err, CstError::UnknownRouter { .. }));
    }

    #[test]
    fn all_routers_schedule_a_well_nested_set() {
        // A right-oriented well-nested set every router accepts.
        let topo = CstTopology::with_leaves(16);
        let set = CommSet::from_pairs(16, &[(0, 7), (1, 6), (2, 5), (8, 15)]);
        let mut ctx = EngineCtx::new();
        for router in registry() {
            let out = ctx.route(router.as_ref(), &topo, &set).unwrap();
            assert_eq!(out.router, router.name());
            assert_eq!(out.rounds, out.schedule.num_rounds());
            out.schedule
                .verify(&topo, &set)
                .unwrap_or_else(|e| panic!("{} schedule failed to verify: {e}", router.name()));
            assert!(out.power.total_units > 0, "{}", router.name());
            assert!(out.timings.total_ns > 0, "{}", router.name());
            ctx.recycle(out);
        }
    }

    #[test]
    fn csa_family_reports_phase_split_and_metrics() {
        let topo = CstTopology::with_leaves(32);
        let set = CommSet::from_pairs(32, &[(0, 31), (1, 30), (2, 29)]);
        let mut ctx = EngineCtx::new();
        let out = ctx.route_named("csa", &topo, &set).unwrap();
        assert!(out.timings.phase1_ns > 0 || out.timings.rounds_ns > 0);
        match &out.extra {
            RouteExtra::Csa { metrics, .. } => assert!(metrics.phase1_words > 0),
            other => panic!("expected Csa extra, got {other:?}"),
        }
        let csa = out.into_csa().unwrap();
        assert_eq!(csa.rounds(), 3);
    }

    #[test]
    fn general_routers_report_phase_split() {
        // Two right- and two left-oriented pairs: one CSA run per half.
        let topo = CstTopology::with_leaves(32);
        let set = CommSet::from_pairs(32, &[(0, 15), (1, 14), (31, 16), (30, 17)]);
        let mut ctx = EngineCtx::new();
        for name in ["general", "general-merged"] {
            let out = ctx.route_named(name, &topo, &set).unwrap();
            let t = out.timings;
            assert!(t.validate_ns > 0 && t.phase1_ns > 0 && t.rounds_ns > 0, "{name}: {t:?}");
            assert!(t.validate_ns + t.phase1_ns + t.rounds_ns <= t.total_ns, "{name}: {t:?}");
            ctx.recycle(out);
        }
    }

    #[test]
    fn universal_router_takes_any_valid_set() {
        let topo = CstTopology::with_leaves(16);
        // mixed orientations and a crossing pair
        let set = CommSet::from_pairs(16, &[(0, 4), (2, 6), (15, 9)]);
        let mut ctx = EngineCtx::new();
        let out = ctx.route_named("universal", &topo, &set).unwrap();
        out.schedule.verify(&topo, &set).unwrap();
        match out.extra {
            RouteExtra::Universal { right_layers, left_layers } => {
                assert_eq!(right_layers, 2);
                assert_eq!(left_layers, 1);
            }
            ref other => panic!("expected Universal extra, got {other:?}"),
        }
        // strict routers reject the same set
        assert!(ctx.route_named("csa", &topo, &set).is_err());
    }

    #[test]
    fn metered_power_matches_csa_meter() {
        // The engine's pooled metering of a schedule must agree with the
        // meter the CSA carried along while building it.
        let topo = CstTopology::with_leaves(16);
        let set = CommSet::from_pairs(16, &[(0, 15), (1, 14), (4, 11)]);
        let mut ctx = EngineCtx::new();
        let out = ctx.route_named("csa", &topo, &set).unwrap();
        let replayed = ctx.meter_schedule(&topo, &out.schedule);
        assert_eq!(replayed.total_units, out.power.total_units);
        assert_eq!(replayed.max_port_transitions, out.power.max_port_transitions);
    }

    #[test]
    fn empty_mask_is_byte_identical_to_plain_routing() {
        let topo = CstTopology::with_leaves(16);
        let set = CommSet::from_pairs(16, &[(0, 7), (1, 6), (2, 5), (8, 15)]);
        let mask = FaultMask::empty(&topo);
        let mut ctx = EngineCtx::new();
        for router in registry() {
            let plain = ctx.route(router.as_ref(), &topo, &set).unwrap();
            let masked = ctx.route_masked(router.as_ref(), &topo, &set, &mask).unwrap();
            assert_eq!(plain.schedule, masked.schedule, "{}", router.name());
            assert_eq!(plain.power.total_units, masked.power.total_units);
            let report = masked.degradation.as_ref().unwrap();
            assert!(report.is_clean(), "{}", router.name());
            assert_eq!(report.routed, set.len());
            assert!(plain.degradation.is_none());
            ctx.recycle(plain);
            ctx.recycle(masked);
        }
    }

    #[test]
    fn dead_switch_drops_exactly_the_comms_through_it() {
        let topo = CstTopology::with_leaves(16);
        let set = CommSet::from_pairs(16, &[(0, 7), (1, 6), (2, 5), (8, 15)]);
        let mut mask = FaultMask::empty(&topo);
        // Node 2 roots the subtree over leaves 0..=7: the three nested
        // comms route through it, (8, 15) does not.
        assert!(mask.kill_switch(NodeId(2)));
        let mut ctx = EngineCtx::new();
        let out = ctx.route_masked(&Csa, &topo, &set, &mask).unwrap();
        let report = out.degradation.as_ref().unwrap();
        assert_eq!(report.total, 4);
        assert_eq!(report.routed, 1);
        assert_eq!(report.dropped, 3);
        assert_eq!(report.routed + report.dropped, set.len());
        for drop in &report.drops {
            assert_eq!(drop.cause, FaultCause::DeadSwitch(NodeId(2)));
        }
        // The surviving schedule names only the surviving comm, id-mapped
        // back onto the caller's set.
        let scheduled: Vec<usize> = out
            .schedule
            .rounds
            .iter()
            .flat_map(|r| r.comms.iter().map(|c| c.0))
            .collect();
        assert_eq!(scheduled, vec![3]);
    }

    #[test]
    fn fully_blocked_set_yields_empty_schedule() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6)]);
        let mut mask = FaultMask::empty(&topo);
        assert!(mask.kill_switch(NodeId(1))); // both comms cross the root
        let mut ctx = EngineCtx::new();
        let out = ctx.route_masked(&Csa, &topo, &set, &mask).unwrap();
        assert_eq!(out.rounds, 0);
        assert!(out.schedule.rounds.is_empty());
        let report = out.degradation.unwrap();
        assert_eq!(report.dropped, 2);
        assert_eq!(report.routed, 0);
    }

    #[test]
    fn degraded_edge_splits_rounds_and_reports_reroutes() {
        let topo = CstTopology::with_leaves(8);
        // Disjoint spans → one round; but (0, 2) drives the edge above
        // node 5 downward while (3, 6) drives it upward.
        let set = CommSet::from_pairs(8, &[(0, 2), (3, 6)]);
        let mut mask = FaultMask::empty(&topo);
        assert!(mask.degrade_edge(NodeId(5)));
        let mut ctx = EngineCtx::new();
        let plain = ctx.route_named("csa", &topo, &set).unwrap();
        assert_eq!(plain.rounds, 1);
        let out = ctx.route_masked(&Csa, &topo, &set, &mask).unwrap();
        assert_eq!(out.rounds, 2);
        assert_eq!(out.rounds, out.schedule.num_rounds());
        out.schedule.verify(&topo, &set).unwrap();
        let report = out.degradation.as_ref().unwrap();
        assert_eq!(report.dropped, 0);
        assert_eq!(report.routed, 2);
        assert_eq!(report.rerouted, 1);
        assert_eq!(report.extra_rounds, 1);
        assert_eq!(report.reroutes[0].edge, 5);
        // Power was re-metered for the split schedule.
        let replayed = ctx.meter_schedule(&topo, &out.schedule);
        assert_eq!(replayed.total_units, out.power.total_units);
    }

    #[test]
    fn cached_route_hits_and_matches() {
        let topo = CstTopology::with_leaves(16);
        let set = CommSet::from_pairs(16, &[(0, 7), (1, 6), (8, 15)]);
        let mut ctx = EngineCtx::new();
        ctx.enable_cache(DEFAULT_CACHE_CAPACITY);
        let miss = ctx.route(&Csa, &topo, &set).unwrap();
        assert!(matches!(miss.extra, RouteExtra::Csa { .. }), "first call is a miss");
        let hit = ctx.route(&Csa, &topo, &set).unwrap();
        assert_eq!(hit.schedule, miss.schedule);
        assert_eq!(hit.power, miss.power);
        assert_eq!(hit.rounds, miss.rounds);
        assert_eq!(hit.router, "csa");
        match hit.extra {
            RouteExtra::Cached { stats } => {
                assert_eq!((stats.hits, stats.misses), (1, 1));
                assert_eq!(stats.entries, 1);
            }
            ref other => panic!("expected Cached extra, got {other:?}"),
        }
        let stats = ctx.cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
        // A different router misses: keys include the router name.
        let other = ctx.route(&General, &topo, &set).unwrap();
        assert!(!matches!(other.extra, RouteExtra::Cached { .. }));
    }

    #[test]
    fn mask_flip_never_serves_stale_schedule() {
        // Satellite regression: identical set, mask toggling between
        // requests — the cache must key on the mask.
        let topo = CstTopology::with_leaves(16);
        let set = CommSet::from_pairs(16, &[(0, 7), (1, 6), (8, 15)]);
        let mut mask = FaultMask::empty(&topo);
        assert!(mask.kill_switch(NodeId(4)));
        let mut ctx = EngineCtx::new();
        ctx.enable_cache(DEFAULT_CACHE_CAPACITY);
        let plain = ctx.route(&Csa, &topo, &set).unwrap();
        let masked = ctx.route_masked(&Csa, &topo, &set, &mask).unwrap();
        assert_ne!(masked.schedule, plain.schedule, "mask dropped comms");
        assert_eq!(masked.degradation.as_ref().unwrap().dropped, 2);
        // Hits on both keys, each byte-faithful to its own mode.
        let plain2 = ctx.route(&Csa, &topo, &set).unwrap();
        let masked2 = ctx.route_masked(&Csa, &topo, &set, &mask).unwrap();
        assert!(matches!(plain2.extra, RouteExtra::Cached { .. }));
        assert!(matches!(masked2.extra, RouteExtra::Cached { .. }));
        assert_eq!(plain2.schedule, plain.schedule);
        assert_eq!(masked2.schedule, masked.schedule);
        assert_eq!(masked2.degradation, masked.degradation);
        // Empty mask shares the plain entry and reports fault-free.
        let empty = FaultMask::empty(&topo);
        let clean = ctx.route_masked(&Csa, &topo, &set, &empty).unwrap();
        assert!(matches!(clean.extra, RouteExtra::Cached { .. }));
        assert_eq!(clean.schedule, plain.schedule);
        assert!(clean.degradation.unwrap().is_clean());
    }

    #[test]
    fn masked_routing_works_for_every_canonical_router() {
        let topo = CstTopology::with_leaves(16);
        let set = CommSet::from_pairs(16, &[(0, 7), (1, 6), (8, 15)]);
        let mut mask = FaultMask::empty(&topo);
        assert!(mask.kill_switch(NodeId(4))); // under node 2, over leaves 0..=3
        let mut ctx = EngineCtx::new();
        for name in CANONICAL {
            let router = find(name).unwrap();
            let out = ctx.route_masked(router.as_ref(), &topo, &set, &mask).unwrap();
            let report = out.degradation.as_ref().unwrap();
            assert_eq!(report.routed + report.dropped, set.len(), "{name}");
            assert_eq!(report.dropped, 2, "{name}");
            ctx.recycle(out);
        }
    }
}
