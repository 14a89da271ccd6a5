//! Integration tests of the streaming front-end: the schedule cache as
//! `EngineCtx` state (off until `enable_cache`, then consulted by
//! `route`, `route_masked` and `route_general`), its keying, LRU eviction
//! and stats, asserting that a cached outcome is byte-identical (serde)
//! to a freshly scheduled one.

use cst::comm::CommSet;
use cst::core::{CstTopology, FaultMask, GeneralCommSet, NodeId};
use cst::engine::{Csa, EngineCtx, RouteExtra, DEFAULT_CACHE_CAPACITY};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serde bytes of a schedule — the strongest equality the workspace has.
fn bytes(s: &cst::comm::Schedule) -> String {
    serde_json::to_string(s).unwrap()
}

/// One plain, one masked and one general request against `ctx`, each
/// as serde bytes (plus the masked request's degradation report).
fn route_all_three(
    ctx: &mut EngineCtx,
    topo: &CstTopology,
    set: &CommSet,
    mask: &FaultMask,
    gset: &GeneralCommSet,
) -> [String; 4] {
    let plain = ctx.route(&Csa, topo, set).unwrap();
    let masked = ctx.route_masked(&Csa, topo, set, mask).unwrap();
    let general = ctx.route_general(&Csa, topo, gset).unwrap();
    let report = format!("{:?}", masked.degradation);
    let out = [bytes(&plain.schedule), bytes(&masked.schedule), bytes(&general.schedule), report];
    ctx.recycle(plain);
    ctx.recycle(masked);
    ctx.recycle_general(general);
    out
}

fn three_requests() -> (CstTopology, CommSet, FaultMask, GeneralCommSet) {
    let topo = CstTopology::with_leaves(32);
    let set = CommSet::from_pairs(32, &[(0, 15), (1, 14), (2, 13), (16, 31)]);
    let mut mask = FaultMask::empty(&topo);
    assert!(mask.kill_switch(NodeId(8)));
    let gset = GeneralCommSet::from_pairs(32, &[(0, 16), (8, 24), (4, 20), (1, 3)]);
    (topo, set, mask, gset)
}

#[test]
fn routing_leaves_the_cache_off_until_enabled() {
    let (topo, set, mask, gset) = three_requests();
    let mut ctx = EngineCtx::new();
    for _ in 0..2 {
        route_all_three(&mut ctx, &topo, &set, &mask, &gset);
        assert_eq!(ctx.cache_stats(), None, "no enable_cache, no cache");
    }
}

#[test]
fn enabled_cache_hits_plain_masked_and_general_requests() {
    let (topo, set, mask, gset) = three_requests();
    let fresh = route_all_three(&mut EngineCtx::new(), &topo, &set, &mask, &gset);
    let mut ctx = EngineCtx::new();
    ctx.enable_cache(DEFAULT_CACHE_CAPACITY);
    let cold = route_all_three(&mut ctx, &topo, &set, &mask, &gset);
    let after_cold = ctx.cache_stats().unwrap();
    assert_eq!(after_cold.hits, 0);
    let warm = route_all_three(&mut ctx, &topo, &set, &mask, &gset);
    assert_eq!(cold, fresh, "a miss returns exactly what an uncached context routes");
    assert_eq!(warm, fresh, "a hit returns exactly what an uncached context routes");
    let after_warm = ctx.cache_stats().unwrap();
    assert_eq!(after_warm.misses, after_cold.misses, "the repeat missed nothing");
    // One hit each for the plain and masked request, one per general layer.
    let layers = ctx.decomposition_for(&gset).num_layers() as u64;
    assert_eq!(after_warm.hits, 2 + layers);
}

#[test]
fn cached_schedule_is_serde_identical_to_fresh() {
    let n = 256;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0x57EA);
    for trial in 0..10 {
        let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.6);
        let mut cached_ctx = EngineCtx::new();
        cached_ctx.enable_cache(DEFAULT_CACHE_CAPACITY);
        let miss = cached_ctx.route(&Csa, &topo, &set).unwrap();
        let hit = cached_ctx.route(&Csa, &topo, &set).unwrap();
        let mut fresh_ctx = EngineCtx::new();
        let fresh = fresh_ctx.route(&Csa, &topo, &set).unwrap();
        assert_eq!(bytes(&hit.schedule), bytes(&fresh.schedule), "trial {trial}");
        assert_eq!(bytes(&miss.schedule), bytes(&fresh.schedule), "trial {trial}");
        assert_eq!(hit.power, fresh.power, "trial {trial}");
        assert_eq!(hit.rounds, fresh.rounds, "trial {trial}");
        assert!(matches!(hit.extra, RouteExtra::Cached { .. }), "trial {trial}");
    }
}

#[test]
fn mask_flip_between_identical_requests_is_never_stale() {
    // Regression: a cache-enabled `route_masked` must key on the mask —
    // flipping a mask on and off between identical requests must flip the
    // served schedule with it.
    let topo = CstTopology::with_leaves(32);
    let set = CommSet::from_pairs(32, &[(0, 15), (1, 14), (2, 13), (16, 31)]);
    let mut mask = FaultMask::empty(&topo);
    assert!(mask.kill_switch(NodeId(8)));

    let mut ctx = EngineCtx::new();
    ctx.enable_cache(DEFAULT_CACHE_CAPACITY);
    let plain = ctx.route(&Csa, &topo, &set).unwrap();
    for flip in 0..4 {
        let masked = ctx.route_masked(&Csa, &topo, &set, &mask).unwrap();
        let replain = ctx.route(&Csa, &topo, &set).unwrap();
        assert_ne!(
            bytes(&masked.schedule),
            bytes(&replain.schedule),
            "flip {flip}: masked and plain schedules must differ"
        );
        assert_eq!(bytes(&replain.schedule), bytes(&plain.schedule), "flip {flip}");
        assert!(
            masked.degradation.as_ref().unwrap().dropped > 0,
            "flip {flip}: the dead switch drops communications"
        );
        if flip > 0 {
            assert!(matches!(masked.extra, RouteExtra::Cached { .. }), "flip {flip}");
            assert!(matches!(replain.extra, RouteExtra::Cached { .. }), "flip {flip}");
        }
    }
    // Two distinct entries: one per (set, mask) key.
    let stats = ctx.cache_stats().unwrap();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.collisions, 0);
}

#[test]
fn different_masks_are_distinct_entries() {
    let topo = CstTopology::with_leaves(32);
    let set = CommSet::from_pairs(32, &[(0, 15), (1, 14), (16, 31)]);
    let mut m1 = FaultMask::empty(&topo);
    assert!(m1.kill_switch(NodeId(8)));
    let mut m2 = FaultMask::empty(&topo);
    assert!(m2.degrade_edge(NodeId(2)));

    let mut ctx = EngineCtx::new();
    ctx.enable_cache(DEFAULT_CACHE_CAPACITY);
    let a1 = ctx.route_masked(&Csa, &topo, &set, &m1).unwrap();
    let a2 = ctx.route_masked(&Csa, &topo, &set, &m2).unwrap();
    let b1 = ctx.route_masked(&Csa, &topo, &set, &m1).unwrap();
    let b2 = ctx.route_masked(&Csa, &topo, &set, &m2).unwrap();
    assert_eq!(bytes(&a1.schedule), bytes(&b1.schedule));
    assert_eq!(bytes(&a2.schedule), bytes(&b2.schedule));
    assert_eq!(b1.degradation, a1.degradation);
    assert_eq!(b2.degradation, a2.degradation);
    assert_eq!(ctx.cache_stats().unwrap().entries, 2);
}

#[test]
fn eviction_stats_track_a_tiny_cache() {
    let n = 64;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0xE71C);
    let sets: Vec<CommSet> =
        (0..4).map(|_| cst::workloads::well_nested_with_density(&mut rng, n, 0.5)).collect();

    let mut ctx = EngineCtx::new();
    ctx.enable_cache(2);
    // Fill: A, B resident. C evicts A (LRU). A again evicts B.
    for s in [&sets[0], &sets[1], &sets[2], &sets[0]] {
        let out = ctx.route(&Csa, &topo, s).unwrap();
        ctx.recycle(out);
    }
    let stats = ctx.cache_stats().unwrap();
    assert_eq!(stats.misses, 4, "every request was a miss");
    assert_eq!(stats.evictions, 2, "capacity-2 cache evicted twice");
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.capacity, 2);
    // C is still resident (A evicted B, not C): hits.
    let out = ctx.route(&Csa, &topo, &sets[2]).unwrap();
    assert!(matches!(out.extra, RouteExtra::Cached { .. }));
    ctx.recycle(out);
}
