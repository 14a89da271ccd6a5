//! Allocation gate for the engine's headline guarantee: once an
//! [`EngineCtx`] is warm, a serial-CSA `route()` performs **zero** heap
//! allocations. The vendored counting allocator is installed as this test
//! binary's global allocator; counters are per-thread, so the measurement
//! sees exactly what the routing call itself does.
//!
//! Dispatch is direct (`ctx.route(&Csa, ..)`): name lookup through the
//! registry builds boxed routers and is deliberately outside the
//! guarantee — hot loops hold a router value, as the benches do.

#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

use cst::core::CstTopology;
use cst::engine::{Csa, EngineCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn warm_serial_csa_route_allocates_zero_bytes() {
    let n = 1024;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.7);
    let mut ctx = EngineCtx::new();

    // Cold call: sizes every scratch buffer (phase-1 counters, round
    // sweeps, the pooled schedule and meter).
    let (cold, out) = alloc_counter::measure(|| ctx.route(&Csa, &topo, &set).unwrap());
    assert!(cold.bytes_allocated > 0, "cold call must size the scratch");
    let expected = out.schedule.clone();
    ctx.recycle(out);

    // Second call: the pool now holds a right-sized schedule and meter;
    // this settles any remaining monotonic growth.
    let (_, out) = alloc_counter::measure(|| ctx.route(&Csa, &topo, &set).unwrap());
    ctx.recycle(out);

    // Warm call: the guarantee under test.
    let (warm, out) = alloc_counter::measure(|| ctx.route(&Csa, &topo, &set).unwrap());
    assert_eq!(out.schedule, expected, "warm route must still be correct");
    assert_eq!(
        (warm.allocations, warm.bytes_allocated),
        (0, 0),
        "warm serial-CSA route() must not touch the heap: {warm:?}"
    );
    ctx.recycle(out);

    // For BENCH notes: cold-vs-warm footprint of this n=1024 request.
    println!(
        "alloc gate n={n}: cold {} allocations / {} bytes, warm {} / {}",
        cold.allocations, cold.bytes_allocated, warm.allocations, warm.bytes_allocated
    );
}

#[test]
fn warm_cache_hit_allocates_zero_bytes() {
    // The streaming guarantee: once `enable_cache` has run, a repeated
    // `route` is a schedule-cache hit that never touches the scheduler,
    // and once the pool holds right-sized shells it never touches the
    // heap either — fingerprint, lookup, copy-out, report
    // clone are all allocation-free.
    let n = 1024;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.7);
    let mut ctx = EngineCtx::new();
    ctx.enable_cache(16);

    // Cold call: a miss — routes, sizes the scratch, inserts the entry.
    let out = ctx.route(&Csa, &topo, &set).unwrap();
    let expected = out.schedule.clone();
    ctx.recycle(out);

    // First hit: copies the schedule out through pooled shells, growing
    // them to this request's shape.
    let out = ctx.route(&Csa, &topo, &set).unwrap();
    ctx.recycle(out);

    // Warm hit: the guarantee under test.
    let (warm, out) = alloc_counter::measure(|| ctx.route(&Csa, &topo, &set).unwrap());
    assert_eq!(out.schedule, expected, "cache hit must return the cached schedule");
    assert!(
        matches!(out.extra, cst::engine::RouteExtra::Cached { .. }),
        "third identical request must be served from the cache"
    );
    assert_eq!(
        (warm.allocations, warm.bytes_allocated),
        (0, 0),
        "warm cache hit must not touch the heap: {warm:?}"
    );
    ctx.recycle(out);
    let stats = ctx.cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (2, 1));
}

#[test]
fn warm_compiled_replay_allocates_zero_bytes() {
    // The compiled-replay guarantee: once a schedule is lowered into a
    // `CompiledProgram` and the `ReplayScratch` shells are sized, every
    // further replay — state reset, delta application, flat delivery
    // walks, meter/schedule clone_from — is allocation-free. (Payload
    // clones are refcount bumps on `Bytes`, not heap traffic.)
    use cst::sim::{default_payloads, CompiledProgram, ReplayScratch};
    let n = 1024;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.7);
    let mut ctx = EngineCtx::new();
    let out = ctx.route(&Csa, &topo, &set).unwrap();

    let prog = CompiledProgram::compile(&topo, &set, &out.schedule).unwrap();
    let payloads = default_payloads(&set);
    let mut scratch = ReplayScratch::new();

    // Two sizing passes: the first grows the scratch shells, the second
    // settles the recycled meter/schedule capacities.
    for _ in 0..2 {
        let sim = prog.replay_with(&mut scratch, &payloads).unwrap();
        scratch.recycle(sim);
    }

    let (warm, sim) =
        alloc_counter::measure(|| prog.replay_with(&mut scratch, &payloads).unwrap());
    assert_eq!(sim.schedule, out.schedule, "warm replay must still be correct");
    assert_eq!(sim.deliveries.len(), set.len());
    assert_eq!(
        (warm.allocations, warm.bytes_allocated),
        (0, 0),
        "warm compiled replay must not touch the heap: {warm:?}"
    );
    scratch.recycle(sim);
    ctx.recycle(out);
}

#[test]
fn warm_context_stays_allocation_free_on_smaller_requests() {
    // Buffers grow monotonically: after serving a large request, a warm
    // context must serve any smaller shape without heap traffic either.
    let big = CstTopology::with_leaves(1024);
    let small = CstTopology::with_leaves(64);
    let mut rng = StdRng::seed_from_u64(0xA110D);
    let big_set = cst::workloads::well_nested_with_density(&mut rng, 1024, 0.7);
    let small_set = cst::workloads::well_nested_with_density(&mut rng, 64, 0.7);
    let mut ctx = EngineCtx::new();

    for _ in 0..2 {
        let out = ctx.route(&Csa, &big, &big_set).unwrap();
        ctx.recycle(out);
        let out = ctx.route(&Csa, &small, &small_set).unwrap();
        ctx.recycle(out);
    }

    let (warm, out) = alloc_counter::measure(|| ctx.route(&Csa, &small, &small_set).unwrap());
    assert_eq!(
        (warm.allocations, warm.bytes_allocated),
        (0, 0),
        "re-targeting a warm context to a smaller tree must not allocate: {warm:?}"
    );
    ctx.recycle(out);
}

#[test]
fn warm_csa_route_stays_allocation_free_between_sparse_and_dense_sets() {
    // Sparse sets (a decomposed layer: few endpoints on a big tree) take
    // the footprint-sized Phase-1 / Phase-2 setup, dense ones the flat
    // sweep. Switching between the two on one topology must not grow the
    // CSA scratch: the dense path reserves what the sparse path needs.
    let n = 1024;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0x5BA55);
    let dense = cst::workloads::well_nested_with_density(&mut rng, n, 0.7);
    let gset = cst::workloads::arbitrary_permutation(&mut rng, n);
    let mut ctx = EngineCtx::new();
    let sparse = ctx.decomposition_for(&gset).layer_sets[0].clone();
    assert!(2 * sparse.len() * 8 <= n, "layer must be sparse: {} pairs", sparse.len());
    assert!(2 * dense.len() * 8 > n, "set must be dense: {} pairs", dense.len());

    // Through the engine: the context's first sparse layer, after it
    // has only ever seen the dense set.
    for _ in 0..2 {
        let out = ctx.route(&Csa, &topo, &dense).unwrap();
        ctx.recycle(out);
    }
    let (warm, out) = alloc_counter::measure(|| ctx.route(&Csa, &topo, &sparse).unwrap());
    assert_eq!(
        (warm.allocations, warm.bytes_allocated),
        (0, 0),
        "sparse after dense: warm route() must not touch the heap: {warm:?}"
    );
    ctx.recycle(out);

    // Both directions on one scratch. A pooled round shell returned by a
    // small schedule is trimmed on purpose (`SchedulePool` keeps a few
    // times what a shell last held), so each shape draws its outcomes
    // from a pool of its own and only the scratch switches shape.
    let mut scratch = cst::padr::CsaScratch::new();
    let mut pools = [cst::comm::SchedulePool::new(), cst::comm::SchedulePool::new()];
    let sets = [&dense, &sparse];
    let mut route = |i: usize, scratch: &mut cst::padr::CsaScratch| {
        let out = scratch.schedule(&topo, sets[i], &mut pools[i]).unwrap();
        pools[i].put_meter(out.meter);
        pools[i].put_schedule(out.schedule);
    };
    for _ in 0..2 {
        route(0, &mut scratch);
        route(1, &mut scratch);
    }
    for (label, first, second) in [("sparse after dense", 0, 1), ("dense after sparse", 1, 0)] {
        route(first, &mut scratch);
        let (warm, ()) = alloc_counter::measure(|| route(second, &mut scratch));
        assert_eq!(
            (warm.allocations, warm.bytes_allocated),
            (0, 0),
            "{label}: warm CsaScratch::schedule must not touch the heap: {warm:?}"
        );
    }
}

#[test]
fn trace_instrumentation_is_zero_cost_when_disabled() {
    // The protocol-trace emitter hooks (cst-model conformance) thread an
    // `Option<&mut ProtocolTrace>` through the scheduler's round loop;
    // on the plain path that option is `None` and must cost nothing —
    // the streaming/e13 zero-allocation guarantee may not regress just
    // because tracing exists. A traced run in between must not poison
    // the warm path either.
    let n = 256;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0x7AACE);
    let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.7);
    let mut scratch = cst::padr::CsaScratch::new();
    let mut pool = cst::comm::SchedulePool::new();
    let mut trace = cst::core::ProtocolTrace::new();

    // Warm the scratch through the traced entry point (sizes the trace
    // and, with pruning forced off, the widest sweep buffers), then
    // settle the pool with two plain runs.
    let traced = scratch.schedule_traced(&topo, &set, &mut pool, &mut trace).unwrap();
    let expected_rounds = traced.rounds();
    pool.put_meter(traced.meter);
    pool.put_schedule(traced.schedule);
    for _ in 0..2 {
        let out = scratch.schedule(&topo, &set, &mut pool).unwrap();
        pool.put_meter(out.meter);
        pool.put_schedule(out.schedule);
    }

    let (warm, out) =
        alloc_counter::measure(|| scratch.schedule(&topo, &set, &mut pool).unwrap());
    assert_eq!(out.rounds(), expected_rounds, "tracing must not change results");
    assert_eq!(
        (warm.allocations, warm.bytes_allocated),
        (0, 0),
        "disabled trace emitter must not touch the heap: {warm:?}"
    );
    assert_eq!(trace.rounds.len(), expected_rounds, "traced run recorded every round");
}

#[test]
fn warm_general_route_hit_allocates_zero_bytes() {
    // The layered front-end's streaming guarantee: repeating the same
    // arbitrary (non-well-nested) request against a warm context is
    // memo hit + per-layer cache hits + pooled composite assembly +
    // pooled metering — no decomposition recompute, no heap traffic.
    let n = 256;
    let topo = CstTopology::with_leaves(n);
    let mut rng = StdRng::seed_from_u64(0x6E6E);
    let gset = cst::workloads::random_bipartite(&mut rng, n, 48);
    let mut ctx = EngineCtx::new();
    ctx.enable_cache(64);

    // Cold call: decomposes, routes every layer, sizes the scratch.
    let out = ctx.route_general(&Csa, &topo, &gset).unwrap();
    let expected = out.schedule.clone();
    let layers = out.num_layers;
    ctx.recycle_general(out);

    // Two settle calls: per-layer cache copies grow the pooled shells
    // to their final shapes.
    for _ in 0..2 {
        let out = ctx.route_general(&Csa, &topo, &gset).unwrap();
        ctx.recycle_general(out);
    }

    // Warm call: the guarantee under test.
    let (warm, out) =
        alloc_counter::measure(|| ctx.route_general(&Csa, &topo, &gset).unwrap());
    assert_eq!(out.schedule, expected, "warm layered route must still be correct");
    assert!(out.memo_hit, "warm call must reuse the memoized decomposition");
    assert_eq!(out.cached_layers, layers, "every layer must be served from the cache");
    assert_eq!(
        (warm.allocations, warm.bytes_allocated),
        (0, 0),
        "warm layered route must not touch the heap: {warm:?}"
    );
    ctx.recycle_general(out);
}

#[test]
fn warm_serve_worker_cached_request_allocates_zero_bytes() {
    // The daemon's streaming guarantee (docs/SERVE.md): a worker serving
    // a repeated cached unmasked Route frame is pure scratch reuse —
    // borrowed-slice decode into the pooled set, shared-cache probe, one
    // `Arc` payload clone, response bytes into the caller's buffer. Once
    // warm, none of that touches the heap.
    use cst::serve::wire::encode_route_request;
    use cst::serve::{ServeConfig, ServeShared, WorkerCore};

    let n = 1024;
    let mut rng = StdRng::seed_from_u64(0x5E44E);
    let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.7);
    let shared = std::sync::Arc::new(ServeShared::new(ServeConfig::default()));
    let mut core = WorkerCore::new(shared);
    let mut req = Vec::new();
    encode_route_request(&mut req, "csa", &set, None);
    let mut out = Vec::new();

    // Cold frame: routes, serializes the payload, publishes it to the
    // shared cache. Settle frame: sizes the remaining scratch.
    core.handle_frame(&req, &mut out);
    let expected = out.clone();
    core.handle_frame(&req, &mut out);
    assert_eq!(out[0], cst::serve::wire::RESP_ROUTE);
    assert_eq!(out[1], 1, "second identical frame must be served cached");

    // Warm frame: the guarantee under test.
    let (warm, ()) = alloc_counter::measure(|| core.handle_frame(&req, &mut out));
    assert_eq!(
        (warm.allocations, warm.bytes_allocated),
        (0, 0),
        "a warm worker serving a cached request must not touch the heap: {warm:?}"
    );
    // Identical bytes to the cold response, modulo the cached flag.
    assert_eq!(out[0], cst::serve::wire::RESP_ROUTE);
    assert_eq!(out[1], 1);
    assert_eq!(out[2..], expected[2..], "cached payload bytes match the cold route");
}
