//! End-to-end stress suite for the cst-serve daemon (docs/SERVE.md).
//!
//! The contract under test: a pool of concurrent clients hammering one
//! shared server must observe **exactly** the behavior of a fresh
//! single-caller [`EngineCtx`] — every response payload carries the
//! serde-byte-identical schedule, every audited schedule is analyzer-
//! and reference-model-clean, and the final [`ServeStats`] satisfy the
//! conservation invariants
//! (`hits + misses + coalesced_waits == requests - coalesced`,
//! `computations == cache.misses` on error-free runs, shard roll-up
//! equals the shard sum, collisions are counted but never served).
//!
//! The thundering-herd tests pin the single-flight layer's headline
//! property: N connections concurrently demanding one fingerprint cost
//! **exactly one** engine computation, and a failing leader degrades to
//! per-caller typed errors, never a hang.
//!
//! The truncated-fingerprint test reuses the engine cache's `fp_bits`
//! knob through [`ServeConfig::cache_fp_bits`]: with 4-bit fingerprints
//! collisions are guaranteed by pigeonhole, and byte-identity then
//! proves the sharded cache's full-equality fallback reroutes rather
//! than serves them.

use cst::check::{analyze, CheckOptions};
use cst::comm::CommSet;
use cst::core::{CstTopology, FaultMask, NodeId};
use cst::engine::EngineCtx;
use cst::serve::wire::decode_payload;
use cst::serve::{ClientError, ErrorCode, ServeClient, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

const CLIENTS: usize = 4;
const REQUESTS: usize = 256; // per client
const PES: usize = 64;
const WORKING: usize = 8;
const ROUTERS: [&str; 3] = ["csa", "greedy", "general"];

fn working_sets() -> Vec<CommSet> {
    let mut rng = StdRng::seed_from_u64(0x5E57E55);
    (0..WORKING).map(|_| cst::workloads::well_nested_with_density(&mut rng, PES, 0.5)).collect()
}

fn stress_mask(topo: &CstTopology) -> FaultMask {
    let mut mask = FaultMask::empty(topo);
    assert!(mask.kill_switch(NodeId(8)));
    assert!(mask.degrade_edge(NodeId(2)));
    mask
}

/// The deterministic request plan: rotate routers and working-set
/// members per (client, i); every 5th request is masked.
fn op_for(client: usize, i: usize) -> (usize, usize, bool) {
    let router_idx = (client + i) % ROUTERS.len();
    let set_idx = (client * 3 + i * 7) % WORKING;
    let masked = i % 5 == 4;
    (router_idx, set_idx, masked)
}

/// Fresh single-caller reference for one (router, set, mask) key, and
/// the audit gates that every served payload must clear.
fn verify_payload(
    topo: &CstTopology,
    router: &str,
    set: &CommSet,
    mask: Option<&FaultMask>,
    payload: &[u8],
) {
    let mut ctx = EngineCtx::new();
    let fresh = match mask {
        Some(m) => {
            let rb = cst::engine::find(router).expect("registry router");
            ctx.route_masked(rb.as_ref(), topo, set, m).expect("fresh masked route")
        }
        None => ctx.route_named(router, topo, set).expect("fresh route"),
    };
    let (summary, schedule_json) = decode_payload(payload).expect("payload decodes");
    let expected_json = serde_json::to_string(&fresh.schedule).expect("serde");
    assert_eq!(
        schedule_json,
        expected_json.as_bytes(),
        "{router} response schedule must be serde-byte-identical to a fresh EngineCtx"
    );
    assert_eq!(summary.router, router);
    assert_eq!(summary.rounds as usize, fresh.rounds);
    assert_eq!(summary.power_total_units, fresh.power.total_units);
    assert_eq!(summary.power_max_units, fresh.power.max_units);
    assert_eq!(summary.degradation.is_some(), fresh.degradation.is_some());
    if let (Some(ds), Some(dr)) = (&summary.degradation, &fresh.degradation) {
        assert_eq!(ds.dropped as usize, dr.dropped);
        assert_eq!(ds.extra_rounds as usize, dr.extra_rounds);
    }

    // Audit gates on the (byte-identical) schedule: the reference
    // model's conformance pass, and the static analyzer for fault-free
    // schedules (strict for the paper's CSA, lenient otherwise).
    if mask.is_none() {
        let conform = cst::model::conform_schedule(set, &fresh.schedule, &[]);
        assert!(
            !conform.has_errors(),
            "{router}: model conformance findings:\n{}",
            conform.render_text()
        );
        let options =
            if router == "csa" { CheckOptions::strict() } else { CheckOptions::lenient() };
        let report = analyze(topo, set, &fresh.schedule, &options);
        assert!(!report.has_errors(), "{router}: analyzer findings:\n{}", report.render_text());
    }
    ctx.recycle(fresh);
}

#[test]
fn concurrent_soak_is_byte_identical_to_a_fresh_engine() {
    let topo = CstTopology::with_leaves(PES);
    let sets = working_sets();
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServeConfig { workers: CLIENTS, cache_capacity: 128, shard_bits: 2, ..Default::default() },
    )
    .expect("bind");
    let addr = server.tcp_addr().expect("tcp addr");

    // N clients, each replaying its deterministic slice of the plan.
    type Recorded = Vec<((usize, usize, bool), bool, Vec<u8>)>;
    let recorded: Vec<Recorded> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let sets = &sets;
                let topo = &topo;
                scope.spawn(move || -> Recorded {
                    let mask = stress_mask(topo);
                    let mut client = ServeClient::connect_tcp(addr).expect("connect");
                    let mut out = Vec::with_capacity(REQUESTS);
                    for i in 0..REQUESTS {
                        let (router_idx, set_idx, masked) = op_for(c, i);
                        let reply = client
                            .route(
                                ROUTERS[router_idx],
                                &sets[set_idx],
                                if masked { Some(&mask) } else { None },
                            )
                            .expect("route");
                        out.push(((router_idx, set_idx, masked), reply.cached, reply.payload));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    // Concurrent determinism: all responses for the same key carry the
    // same bytes; then each unique key is verified against a fresh
    // single-caller engine and the audit gates.
    let mut by_key: HashMap<(usize, usize, bool), Vec<u8>> = HashMap::new();
    let mut total = 0usize;
    for (key, _cached, payload) in recorded.into_iter().flatten() {
        total += 1;
        match by_key.get(&key) {
            Some(first) => assert_eq!(
                first, &payload,
                "concurrent responses for one request key must be byte-identical"
            ),
            None => {
                by_key.insert(key, payload);
            }
        }
    }
    assert_eq!(total, CLIENTS * REQUESTS);
    let mask = stress_mask(&topo);
    for ((router_idx, set_idx, masked), payload) in &by_key {
        let mask = if *masked { Some(&mask) } else { None };
        verify_payload(&topo, ROUTERS[*router_idx], &sets[*set_idx], mask, payload);
    }

    // Conservation invariants on the final snapshot.
    let s = server.stats();
    assert_eq!(s.connections, CLIENTS as u64);
    assert_eq!(s.frames, (CLIENTS * REQUESTS) as u64);
    assert_eq!(s.requests, (CLIENTS * REQUESTS) as u64);
    assert_eq!(s.responses, s.requests);
    assert_eq!(s.errors, 0);
    assert_eq!(s.coalesced, 0);
    assert_eq!(
        s.cache.hits + s.cache.misses + s.coalesced_waits,
        s.requests - s.coalesced,
        "every admitted request probes the shared cache exactly once or parks on a flight"
    );
    assert_eq!(s.cache.collisions, 0, "64-bit fingerprints never collide on this plan");
    assert!(s.cache.hits > s.cache.misses, "the soak is dominated by cache hits: {s:?}");
    assert_eq!(s.computations, s.cache.misses, "every locked miss routes exactly once");
    assert!(s.singleflight_leaders <= s.computations);
    assert!(s.cache.tier_hits <= s.cache.hits, "tier hits are a subset of hits");
    assert_eq!(s.cache, shard_sum(&s.shards), "roll-up must equal the field-wise shard sum");
    server.shutdown();
}

/// Field-wise sum of per-shard counters, for the roll-up invariant.
fn shard_sum(shards: &[cst::engine::CacheStats]) -> cst::engine::CacheStats {
    let mut sum = cst::engine::CacheStats::default();
    for sh in shards {
        sum.hits += sh.hits;
        sum.misses += sh.misses;
        sum.evictions += sh.evictions;
        sum.collisions += sh.collisions;
        sum.entries += sh.entries;
        sum.capacity += sh.capacity;
        sum.tier_hits += sh.tier_hits;
    }
    sum
}

#[test]
fn truncated_fingerprint_collisions_are_counted_but_never_served() {
    let topo = CstTopology::with_leaves(PES);
    let sets = working_sets();
    // 4-bit fingerprints: 16 distinct (router, set) keys into 16 fp
    // values collide with near-certainty; the equality fallback must
    // reroute every one of them.
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            cache_capacity: 64,
            shard_bits: 2,
            cache_fp_bits: 4,
            ..Default::default()
        },
    )
    .expect("bind");
    let mut client = ServeClient::connect_tcp(server.tcp_addr().expect("tcp addr")).expect("connect");

    let mut requests = 0u64;
    for _pass in 0..3 {
        for router in ["csa", "greedy"] {
            for set in &sets {
                let reply = client.route(router, set, None).expect("route");
                requests += 1;
                verify_payload(&topo, router, set, None, &reply.payload);
            }
        }
    }

    let s = server.stats();
    assert_eq!(s.requests, requests);
    assert_eq!(s.errors, 0);
    assert_eq!(s.cache.hits + s.cache.misses, s.requests);
    assert!(
        s.cache.collisions > 0,
        "4-bit fingerprints must collide across 16 distinct keys: {:?}",
        s.cache
    );
    // Truncated fps have empty high bits, so every entry lands in the
    // masked shard 0 — the other shards stay untouched.
    for sh in &s.shards[1..] {
        assert_eq!((sh.hits, sh.misses, sh.entries), (0, 0, 0), "truncation confines to shard 0");
    }
    server.shutdown();
}

#[test]
fn batch_requests_coalesce_identical_items() {
    let sets = working_sets();
    let topo = CstTopology::with_leaves(PES);
    let server = Server::bind_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = ServeClient::connect_tcp(server.tcp_addr().expect("tcp addr")).expect("connect");

    let batch =
        vec![sets[0].clone(), sets[1].clone(), sets[0].clone(), sets[2].clone(), sets[1].clone()];
    let items = client.batch("csa", &batch).expect("batch");
    assert_eq!(items.len(), 5);
    let replies: Vec<_> = items.into_iter().map(|r| r.expect("batch item")).collect();
    // Items 2 and 4 duplicate items 0 and 1: same payload, served as
    // cached copies without a second probe or route.
    assert_eq!(replies[2].payload, replies[0].payload);
    assert_eq!(replies[4].payload, replies[1].payload);
    assert!(replies[2].cached && replies[4].cached);
    assert!(!replies[0].cached && !replies[1].cached && !replies[3].cached);
    for (set, reply) in [&sets[0], &sets[1], &sets[0], &sets[2], &sets[1]]
        .into_iter()
        .zip(&replies)
    {
        verify_payload(&topo, "csa", set, None, &reply.payload);
    }

    let s = server.stats();
    assert_eq!(s.requests, 5);
    assert_eq!(s.coalesced, 2);
    assert_eq!(s.responses, 5);
    assert_eq!(s.errors, 0);
    assert_eq!(s.cache.hits + s.cache.misses, s.requests - s.coalesced);
    assert_eq!(s.computations, 3, "three unique items, three routes");
    server.shutdown();
}

#[test]
fn masked_batch_items_route_and_coalesce_per_full_key() {
    let sets = working_sets();
    let topo = CstTopology::with_leaves(PES);
    let mask = stress_mask(&topo);
    let server = Server::bind_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = ServeClient::connect_tcp(server.tcp_addr().expect("tcp addr")).expect("connect");

    // One set under three guises: unmasked, masked, and a masked
    // duplicate. Only the exact (set, mask) duplicate coalesces.
    let items = vec![
        (sets[0].clone(), None),
        (sets[0].clone(), Some(mask.clone())),
        (sets[0].clone(), Some(mask.clone())),
    ];
    let replies: Vec<_> = client
        .batch_masked("csa", &items)
        .expect("masked batch")
        .into_iter()
        .map(|r| r.expect("batch item"))
        .collect();
    assert_eq!(replies.len(), 3);
    assert_ne!(
        replies[0].payload, replies[1].payload,
        "masked and unmasked routes of one set must differ"
    );
    assert_eq!(replies[2].payload, replies[1].payload);
    assert!(replies[2].cached, "the exact duplicate is served as a cached copy");
    verify_payload(&topo, "csa", &sets[0], None, &replies[0].payload);
    verify_payload(&topo, "csa", &sets[0], Some(&mask), &replies[1].payload);

    let s = server.stats();
    assert_eq!(s.requests, 3);
    assert_eq!(s.coalesced, 1);
    assert_eq!(s.computations, 2, "two distinct full keys, two routes");
    assert_eq!(s.errors, 0);
    server.shutdown();
}

#[test]
fn large_batches_coalesce_far_apart_duplicates_and_only_those() {
    // 3,000 items over 40 sets, each plain or masked: 80 full keys.
    // Duplicates recur up to the whole batch apart, and one set masked
    // and unmasked is two keys. Every item must coalesce exactly as the
    // pairwise first-occurrence scan says, over two frames on one worker.
    use cst::serve::wire::{decode_response, encode_batch_masked_request, Response};
    use cst::serve::{ServeShared, WorkerCore};
    use rand::Rng;
    use std::sync::Arc;

    const ITEMS: usize = 3000;
    let topo = CstTopology::with_leaves(PES);
    let mask = stress_mask(&topo);
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let mut pool: Vec<CommSet> = Vec::new();
    while pool.len() < 40 {
        let set = cst::workloads::well_nested_with_density(&mut rng, PES, 0.4);
        if !pool.contains(&set) {
            pool.push(set);
        }
    }
    let mut keys: Vec<(usize, bool)> =
        (0..ITEMS).map(|_| (rng.gen_range(0..pool.len()), rng.gen_bool(0.5))).collect();
    keys[ITEMS - 1] = keys[0];
    let first: Vec<usize> =
        (0..ITEMS).map(|i| (0..i).find(|&j| keys[j] == keys[i]).unwrap_or(i)).collect();
    let distinct = first.iter().enumerate().filter(|&(i, &f)| i == f).count();
    let items: Vec<(CommSet, Option<FaultMask>)> = keys
        .iter()
        .map(|&(k, masked)| (pool[k].clone(), masked.then(|| mask.clone())))
        .collect();

    let shared = Arc::new(ServeShared::new(ServeConfig::default()));
    let mut core = WorkerCore::new(Arc::clone(&shared));
    let (mut body, mut out) = (Vec::new(), Vec::new());
    encode_batch_masked_request(&mut body, "csa", &items);
    for frame in 0..2 {
        core.handle_frame(&body, &mut out);
        let Ok(Response::Batch(replies)) = decode_response(&out) else {
            panic!("frame {frame}: expected a batch response");
        };
        let replies: Vec<_> = replies.into_iter().map(|r| r.expect("batch item")).collect();
        assert_eq!(replies.len(), ITEMS);
        for (i, reply) in replies.iter().enumerate() {
            if first[i] == i {
                // The first frame routes every key; the second hits.
                assert_eq!(reply.cached, frame == 1, "frame {frame} item {i}");
            } else {
                assert!(reply.cached, "frame {frame} item {i} duplicates item {}", first[i]);
                assert_eq!(reply.payload, replies[first[i]].payload, "item {i}");
            }
        }
        for &i in &[0, 1, ITEMS - 1] {
            let (set, mask) = &items[i];
            verify_payload(&topo, "csa", set, mask.as_ref(), &replies[i].payload);
        }
        let s = shared.stats();
        assert_eq!(s.requests as usize, (frame + 1) * ITEMS);
        assert_eq!(s.coalesced as usize, (frame + 1) * (ITEMS - distinct));
        assert_eq!(s.computations as usize, distinct, "one route per full key");
        assert_eq!(s.errors, 0);
    }
    assert_eq!(distinct, 80, "every key occurs");
}

#[test]
fn unknown_router_is_a_typed_error_not_a_dead_connection() {
    let sets = working_sets();
    let server = Server::bind_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = ServeClient::connect_tcp(server.tcp_addr().expect("tcp addr")).expect("connect");

    match client.route("no-such-router", &sets[0], None) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::UnknownRouter),
        other => panic!("expected a typed UnknownRouter error, got {other:?}"),
    }
    // The connection survives the error; the next request is served.
    let reply = client.route("csa", &sets[0], None).expect("route after error");
    assert!(!reply.payload.is_empty());

    let s = server.stats();
    assert_eq!(s.errors, 1);
    // The failed item was admitted and probed (a counted miss) before
    // the registry lookup failed, so conservation still holds.
    assert_eq!(s.requests, 2);
    assert_eq!(s.cache.hits + s.cache.misses, s.requests);
    server.shutdown();
}

#[test]
fn thundering_herd_costs_exactly_one_computation() {
    const HERD: usize = 8;
    let topo = CstTopology::with_leaves(PES);
    let sets = working_sets();
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServeConfig { workers: HERD, ..Default::default() },
    )
    .expect("bind");
    let addr = server.tcp_addr().expect("tcp addr");

    // All clients connect first, then release together and demand the
    // same (router, set) key. However the arrivals interleave — parked
    // on the leader's flight, served by the first probe, or landing a
    // counted hit after the insert — the engine must route exactly once.
    let barrier = std::sync::Barrier::new(HERD);
    let payloads: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..HERD)
            .map(|_| {
                let barrier = &barrier;
                let set = &sets[0];
                scope.spawn(move || {
                    let mut client = ServeClient::connect_tcp(addr).expect("connect");
                    barrier.wait();
                    client.route("csa", set, None).expect("herd route").payload
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("herd client")).collect()
    });
    for p in &payloads[1..] {
        assert_eq!(p, &payloads[0], "herd responses must be byte-identical");
    }
    verify_payload(&topo, "csa", &sets[0], None, &payloads[0]);

    let s = server.stats();
    assert_eq!(s.requests, HERD as u64);
    assert_eq!(s.responses, HERD as u64);
    assert_eq!(s.errors, 0);
    assert_eq!(s.computations, 1, "one concurrently-demanded key, one route: {s:?}");
    assert_eq!(s.singleflight_leaders, 1);
    assert_eq!(s.cache.misses, 1, "only the leader's locked probe misses");
    assert_eq!(
        s.cache.hits + s.coalesced_waits,
        (HERD - 1) as u64,
        "every non-leader is served from memory: {s:?}"
    );
    server.shutdown();
}

#[test]
fn mixed_herd_and_unique_soak_conserves_every_counter() {
    const HERD_CLIENTS: usize = 6;
    const OPS: usize = 40; // per client
    let sets = working_sets();
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServeConfig { workers: HERD_CLIENTS, cache_capacity: 256, ..Default::default() },
    )
    .expect("bind");
    let addr = server.tcp_addr().expect("tcp addr");

    // Seeded mixed plan: every third op hammers one shared hot key (the
    // herd), the rest walk per-client slices of the working set (the
    // unique tail). Barrier-released so the hot key is genuinely
    // contended at the start.
    let barrier = std::sync::Barrier::new(HERD_CLIENTS);
    let recorded: Vec<Vec<(usize, Vec<u8>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..HERD_CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                let sets = &sets;
                scope.spawn(move || {
                    let mut client = ServeClient::connect_tcp(addr).expect("connect");
                    barrier.wait();
                    let mut out = Vec::with_capacity(OPS);
                    for i in 0..OPS {
                        let set_idx = if i % 3 == 0 { 0 } else { (c * 5 + i * 11) % WORKING };
                        let reply = client.route("csa", &sets[set_idx], None).expect("route");
                        out.push((set_idx, reply.payload));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("soak client")).collect()
    });
    let mut by_key: HashMap<usize, Vec<u8>> = HashMap::new();
    for (set_idx, payload) in recorded.into_iter().flatten() {
        match by_key.get(&set_idx) {
            Some(first) => assert_eq!(first, &payload, "one key, one byte sequence"),
            None => {
                by_key.insert(set_idx, payload);
            }
        }
    }

    let s = server.stats();
    assert_eq!(s.requests, (HERD_CLIENTS * OPS) as u64);
    assert_eq!(s.responses, s.requests);
    assert_eq!(s.errors, 0);
    assert_eq!(
        s.cache.hits + s.cache.misses + s.coalesced_waits,
        s.requests - s.coalesced,
        "probe-or-park conservation: {s:?}"
    );
    assert_eq!(s.computations, s.cache.misses, "every locked miss routes exactly once");
    assert!(s.singleflight_leaders <= s.computations);
    assert!(
        s.computations <= by_key.len() as u64 + s.cache.evictions,
        "computations are bounded by unique keys plus evicted re-routes: {s:?}"
    );
    assert!(s.cache.tier_hits <= s.cache.hits);
    assert_eq!(s.cache, shard_sum(&s.shards));
    server.shutdown();
}

#[test]
fn failing_leader_degrades_to_typed_errors_never_a_hang() {
    const HERD: usize = 8;
    let sets = working_sets();
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServeConfig { workers: HERD, ..Default::default() },
    )
    .expect("bind");
    let addr = server.tcp_addr().expect("tcp addr");

    // A herd on a key whose route fails (unknown router): the first
    // joiner leads, fails, and drops its lease; waiters must wake into
    // the solo path and observe their own typed error — no hang, no
    // poisoned flight, server fully alive afterwards.
    let barrier = std::sync::Barrier::new(HERD);
    std::thread::scope(|scope| {
        for _ in 0..HERD {
            let barrier = &barrier;
            let set = &sets[0];
            scope.spawn(move || {
                let mut client = ServeClient::connect_tcp(addr).expect("connect");
                barrier.wait();
                match client.route("no-such-router", set, None) {
                    Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::UnknownRouter),
                    other => panic!("expected a typed UnknownRouter error, got {other:?}"),
                }
            });
        }
    });

    let s = server.stats();
    assert_eq!(s.requests, HERD as u64);
    assert_eq!(s.errors, HERD as u64);
    assert_eq!(s.computations, 0, "the registry rejects before any route");
    assert_eq!(s.singleflight_leaders, 0);
    assert_eq!(
        s.cache.hits + s.cache.misses + s.coalesced_waits,
        s.requests,
        "failed-flight recovery still conserves probes: {s:?}"
    );

    // The same fingerprint must be routable once the failure cause is
    // gone — the failed flights left no residue.
    let mut client = ServeClient::connect_tcp(addr).expect("connect");
    let reply = client.route("csa", &sets[0], None).expect("route after herd failure");
    assert!(!reply.payload.is_empty());
    server.shutdown();
}

#[test]
fn unix_socket_serves_and_resets() {
    let sets = working_sets();
    let topo = CstTopology::with_leaves(PES);
    // Per-process path under the temp dir: independent of the working
    // directory (and of where cargo puts `target/`), and distinct for
    // concurrent runs.
    let path = std::env::temp_dir().join(format!("cst_serve_stress_{}.sock", std::process::id()));
    let server = Server::bind_unix(&path, ServeConfig::default()).expect("bind unix");
    let mut client = ServeClient::connect_unix(&path).expect("connect unix");

    let first = client.route("csa", &sets[3], None).expect("route");
    assert!(!first.cached);
    verify_payload(&topo, "csa", &sets[3], None, &first.payload);
    let second = client.route("csa", &sets[3], None).expect("route again");
    assert!(second.cached, "second identical request must be a cache hit");
    assert_eq!(second.payload, first.payload);

    client.reset().expect("reset");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.resets, 1);
    assert_eq!(stats.requests, 0, "reset zeroes the route counters");
    assert_eq!(stats.cache.entries, 0, "reset drops every cache entry");
    let third = client.route("csa", &sets[3], None).expect("route after reset");
    assert!(!third.cached, "the cache is cold again after reset");
    assert_eq!(third.payload, first.payload);
    server.shutdown();
    let removed_by_shutdown = !path.exists();
    let _ = std::fs::remove_file(&path);
    assert!(removed_by_shutdown, "shutdown removes the socket file");
}

#[test]
fn worker_pools_stay_flat_under_eviction_churn() {
    // Two workers share one small cache, so almost every insert evicts.
    // Worker 0 routes small sets and worker 1 large ones, the lopsided
    // case: each worker gets its own schedules back, and however the
    // evictions fall between them, each worker's pool must stay bounded
    // by what the cache can hold.
    use cst::serve::wire::{decode_payload, decode_response, encode_route_request, Response};
    use cst::serve::{ServeShared, WorkerCore};
    use std::sync::Arc;

    const MISSES: usize = 3000;
    const CAPACITY: usize = 8;
    let config = ServeConfig { workers: 2, cache_capacity: CAPACITY, ..ServeConfig::default() };
    let shared = Arc::new(ServeShared::new(config));
    let mut workers = [WorkerCore::new(Arc::clone(&shared)), WorkerCore::new(Arc::clone(&shared))];
    let mut rng = StdRng::seed_from_u64(0x9001);
    let (mut body, mut out) = (Vec::new(), Vec::new());
    let mut pooled = [vec![], vec![]];
    let mut max_rounds = 0;
    for i in 0..MISSES {
        let w = i % 2;
        let (n, density) = if w == 0 { (32, 0.3) } else { (256, 0.9) };
        let set = cst::workloads::well_nested_with_density(&mut rng, n, density);
        encode_route_request(&mut body, "csa", &set, None);
        workers[w].handle_frame(&body, &mut out);
        let Ok(Response::Route(reply)) = decode_response(&out) else {
            panic!("request {i}: expected a route response");
        };
        let (summary, _) = decode_payload(&reply.payload).unwrap();
        max_rounds = max_rounds.max(summary.rounds as usize);
        pooled[w].push(workers[w].pooled_shells());
    }
    let stats = shared.stats();
    assert!(stats.cache.evictions as usize > MISSES * 9 / 10, "{stats:?}");

    let peak = |half: &[(usize, usize)]| {
        half.iter().fold((0, 0), |m, p| (m.0.max(p.0), m.1.max(p.1)))
    };
    for (w, trace) in pooled.iter().enumerate() {
        let (first, second) = trace.split_at(trace.len() / 2);
        let (early, late) = (peak(first), peak(second));
        assert!(
            late.0 <= early.0 && late.1 <= early.1,
            "worker {w}: pooled (rounds, schedules) grew from {early:?} to {late:?}"
        );
        assert!(
            early.0 <= (CAPACITY + 1) * max_rounds,
            "worker {w}: {} pooled round shells, more than the cache can hold",
            early.0
        );
    }
}
