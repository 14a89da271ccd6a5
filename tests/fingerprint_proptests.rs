//! Fingerprint soundness (proptest): equal sets always fingerprint
//! equally, unequal sets essentially never do — and when they *are*
//! forced to collide (truncated fingerprints), the cache's equality
//! fallback turns the collision into a counted miss, never a wrong
//! schedule.

use cst::comm::CommSet;
use cst::core::CstTopology;
use cst::engine::{Csa, EngineCtx};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Structural equality implies fingerprint equality — a set rebuilt
    /// from its own pairs (fresh allocations, same content) fingerprints
    /// identically.
    #[test]
    fn equal_sets_have_equal_fingerprints(seed in 0u64..1_000_000, n_exp in 3u32..=10) {
        let n = 1usize << n_exp;
        let mut rng = StdRng::seed_from_u64(seed);
        let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.5);
        let pairs: Vec<(usize, usize)> =
            set.comms().iter().map(|c| (c.source.0, c.dest.0)).collect();
        let rebuilt = CommSet::from_pairs(n, &pairs);
        prop_assert_eq!(set.clone(), rebuilt.clone(), "rebuild must be structurally equal");
        prop_assert_eq!(set.fingerprint(), rebuilt.fingerprint());
    }

    /// A one-communication perturbation always changes the fingerprint
    /// (sanity: the fingerprint actually depends on the content).
    #[test]
    fn removing_a_communication_changes_the_fingerprint(seed in 0u64..1_000_000) {
        let n = 128;
        let mut rng = StdRng::seed_from_u64(seed);
        let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.5);
        if set.is_empty() {
            return Ok(());
        }
        let pairs: Vec<(usize, usize)> =
            set.comms().iter().skip(1).map(|c| (c.source.0, c.dest.0)).collect();
        let smaller = CommSet::from_pairs(n, &pairs);
        prop_assert_ne!(set.fingerprint(), smaller.fingerprint());
    }
}

#[test]
fn birthday_sweep_finds_no_full_width_collisions() {
    // ~4k distinct generated sets on trees up to 1024 leaves: with 64-bit
    // fingerprints the collision expectation is ~2^-41; any hit here
    // means the mixing is broken, not that we got unlucky.
    let mut by_fp: HashMap<u64, CommSet> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(0xB1127);
    let mut distinct = 0usize;
    for n_exp in [4usize, 6, 8, 10] {
        let n = 1 << n_exp;
        for _ in 0..1024 {
            let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.4);
            match by_fp.get(&set.fingerprint()) {
                Some(prev) => assert_eq!(
                    prev, &set,
                    "64-bit fingerprint collision between distinct sets"
                ),
                None => {
                    by_fp.insert(set.fingerprint(), set);
                    distinct += 1;
                }
            }
        }
    }
    assert!(distinct > 3000, "sweep generated too few distinct sets: {distinct}");
}

#[test]
fn truncated_fingerprints_collide_but_never_cross_schedules() {
    // Force collisions by truncating cache fingerprints to 4 bits, then
    // stream distinct sets through the cache: every returned schedule
    // must match a fresh route of its own request, and the collision
    // counter must show the fallback actually fired.
    let n = 64;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0xC0111DE);
    let sets: Vec<CommSet> =
        (0..64).map(|_| cst::workloads::well_nested_with_density(&mut rng, n, 0.5)).collect();

    let mut ctx = EngineCtx::new();
    ctx.enable_cache(256);
    ctx.set_cache_fp_bits(4); // 16 possible keys for 64 distinct sets
    let mut fresh_ctx = EngineCtx::new();
    for (i, set) in sets.iter().enumerate() {
        let out = ctx.route(&Csa, &topo, set).unwrap();
        let fresh = fresh_ctx.route(&Csa, &topo, set).unwrap();
        assert_eq!(
            serde_json::to_string(&out.schedule).unwrap(),
            serde_json::to_string(&fresh.schedule).unwrap(),
            "request {i}: collision must never serve another set's schedule"
        );
        ctx.recycle(out);
        fresh_ctx.recycle(fresh);
    }
    let stats = ctx.cache_stats().unwrap();
    assert!(stats.collisions > 0, "4-bit fingerprints must collide: {stats:?}");
    assert_eq!(stats.hits, 0, "all 64 sets are distinct; nothing may hit");
    assert!(stats.entries <= 16, "one resident entry per truncated key");
}

#[test]
fn general_and_well_nested_fingerprints_are_domain_separated() {
    // A GeneralCommSet and a CommSet built from the *same* pair bytes
    // must never fingerprint equally: the layered route memo and the
    // schedule cache share no keyspace, so a general request can never
    // masquerade as a well-nested one (or vice versa). The two hashes
    // differ only by domain tag — this is the regression that guards it.
    use cst::core::GeneralCommSet;
    let mut rng = StdRng::seed_from_u64(0xD0 ^ 0x5E);
    for n_exp in [3usize, 5, 7, 9] {
        let n = 1 << n_exp;
        for _ in 0..256 {
            let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.5);
            let pairs: Vec<(usize, usize)> =
                set.comms().iter().map(|c| (c.source.0, c.dest.0)).collect();
            let gset = GeneralCommSet::new(n, &pairs).unwrap();
            assert_ne!(
                set.fingerprint(),
                gset.fingerprint(),
                "identical pair content must hash apart across set kinds (n={n})"
            );
        }
    }
}
