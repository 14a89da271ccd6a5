//! The `serve` and `bench-serve` subcommands (docs/SERVE.md).
//!
//! `serve` runs the cst-serve daemon in the foreground on a Unix socket
//! or TCP address. `bench-serve` is a seeded closed-loop load generator:
//! it connects to a running daemon (or self-hosts one on an ephemeral
//! loopback port), replays three phases — *uncached* (distinct sets,
//! every route a miss), *cached* (one warm set repeated), *soak*
//! (`--clients` threads over a drifting working set) — and reports
//! per-request latency (p50/p99 for the soak), throughput, and the
//! server's [`ServeStats`] snapshot. With `--herd <n>` a fourth
//! *thundering-herd* phase runs: `n` barrier-released connections
//! demand one fresh key (the single-flight layer must cost exactly one
//! engine computation), then hammer it warm for the contended-hit
//! p50/p99. Last, after the stats snapshot, the *floor* phase times
//! Stats-frame round trips on the first connection: they route nothing,
//! so `cached − floor` is the part of a hit that depends on the server's
//! work and the payload bytes. With `--clients 1` and `--reset` (and no
//! `--herd`), every stats field is a pure function of the flags;
//! scripts/ci.sh strips the timing fields and gates the rest against
//! `scripts/serve_golden.json`.

use crate::{flag_value, typed_flag};
use cst_serve::{ServeClient, ServeConfig, Server, ServeStats};
use std::time::Instant;

fn serve_config(args: &[String]) -> ServeConfig {
    ServeConfig {
        workers: typed_flag(args, "--workers", 4),
        cache_capacity: typed_flag(args, "--cache-cap", 256),
        shard_bits: typed_flag(args, "--shard-bits", 2),
        ..ServeConfig::default()
    }
}

/// `cst-tools serve --unix <path> | --tcp <addr>`: run the daemon in the
/// foreground until killed (or `--max-seconds` elapse — a watchdog for
/// scripted runs, 0 = forever). `--ready-file <path>` writes the bound
/// address once listening, so scripts can wait for startup.
pub fn run_serve(args: &[String]) {
    let unix = flag_value(args, "--unix");
    let tcp = flag_value(args, "--tcp");
    let config = serve_config(args);
    let max_seconds: u64 = typed_flag(args, "--max-seconds", 0);
    let server = match (unix, tcp) {
        (Some(path), None) => Server::bind_unix(&path, config),
        (None, Some(addr)) => Server::bind_tcp(&addr, config),
        _ => {
            eprintln!(
                "usage: cst-tools serve --unix <path> | --tcp <addr> \
                 [--workers <n>] [--cache-cap <n>] [--shard-bits <n>] \
                 [--ready-file <path>] [--max-seconds <s>]"
            );
            std::process::exit(2);
        }
    };
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            std::process::exit(1);
        }
    };
    let addr = match server.addr() {
        cst_serve::ServeAddr::Tcp(a) => format!("tcp:{a}"),
        cst_serve::ServeAddr::Unix(p) => format!("unix:{}", p.display()),
    };
    println!("cst-serve listening on {addr}");
    if let Some(ready) = flag_value(args, "--ready-file") {
        if let Err(e) = std::fs::write(&ready, &addr) {
            eprintln!("cannot write ready file {ready}: {e}");
            std::process::exit(1);
        }
    }
    let t0 = Instant::now();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        if max_seconds > 0 && t0.elapsed().as_secs() >= max_seconds {
            println!("cst-serve: --max-seconds {max_seconds} elapsed, shutting down");
            server.shutdown();
            return;
        }
    }
}

/// Machine-readable `bench-serve` report. Everything above the timing
/// block is a pure function of the flags for `--clients 1` runs that
/// start from `--reset`; scripts/ci.sh strips the timing fields
/// by name (`*_ns*`, `speedup`, `*_per_sec`, plus
/// `available_parallelism`) and gates the rest, so a new timing field
/// must follow that naming.
#[derive(serde::Serialize)]
struct BenchServeReport {
    router: String,
    pes: usize,
    working: usize,
    requests: usize,
    clients: usize,
    herd: usize,
    /// `std::thread::available_parallelism()` on the bench host —
    /// context for the contended numbers (a single-core box serializes
    /// the herd, so coalescing shows up in computations, not latency).
    available_parallelism: usize,
    density: f64,
    repeat: f64,
    delta: usize,
    seed: u64,
    transport: String,
    soak_requests: usize,
    /// Stats-delta computations over the herd phase divided by its one
    /// fresh key: exactly 1 when the single-flight layer holds (0 when
    /// the phase is disabled).
    herd_computations_per_key: u64,
    stats: ServeStats,
    uncached_ns_per_req: u64,
    cached_ns_per_req: u64,
    /// Stats-frame round trip on the first connection: the transport
    /// floor under every served request.
    floor_ns_per_req: u64,
    speedup: f64,
    soak_p50_ns: u64,
    soak_p99_ns: u64,
    soak_requests_per_sec: u64,
    contended_hit_p50_ns: u64,
    contended_hit_p99_ns: u64,
    elapsed_ns: u64,
}

enum Target {
    Unix(String),
    Tcp(String),
}

impl Target {
    fn connect(&self) -> std::io::Result<ServeClient> {
        match self {
            Target::Unix(path) => ServeClient::connect_unix(path),
            Target::Tcp(addr) => ServeClient::connect_tcp(addr.as_str()),
        }
    }
}

fn die(context: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("bench-serve: {context}: {e}");
    std::process::exit(1);
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * pct / 100]
}

/// `cst-tools bench-serve`: the seeded closed-loop load generator.
pub fn run_bench_serve(args: &[String]) {
    use rand::{Rng, SeedableRng};
    let router = crate::router_arg(args);
    let pes: usize = typed_flag(args, "--pes", 1024);
    let requests: usize = typed_flag(args, "--requests", 256);
    let working: usize = typed_flag(args, "--working", 8);
    let clients: usize = typed_flag(args, "--clients", 1);
    let density: f64 = typed_flag(args, "--density", 0.5);
    let repeat: f64 = typed_flag(args, "--repeat", 0.75);
    let delta: usize = typed_flag(args, "--delta", 2);
    let seed: u64 = typed_flag(args, "--seed", 0);
    let herd: usize = typed_flag(args, "--herd", 0);
    let reset = args.iter().any(|a| a == "--reset");
    if working == 0 || clients == 0 || !(0.0..=1.0).contains(&repeat) {
        eprintln!("--working and --clients want >= 1; --repeat wants a probability in [0, 1]");
        std::process::exit(2);
    }

    // Target: an external daemon, or a self-hosted one on an ephemeral
    // loopback port (no socket files; `serve --unix` covers that path).
    let mut hosted: Option<Server> = None;
    let (target, transport) = match (flag_value(args, "--unix"), flag_value(args, "--tcp")) {
        (Some(path), None) => (Target::Unix(path), "unix".to_string()),
        (None, Some(addr)) => (Target::Tcp(addr), "tcp".to_string()),
        (None, None) => {
            let server = match Server::bind_tcp("127.0.0.1:0", serve_config(args)) {
                Ok(s) => s,
                Err(e) => die("cannot self-host", e),
            };
            let Some(addr) = server.tcp_addr() else {
                die("cannot self-host", "no tcp address after bind")
            };
            hosted = Some(server);
            (Target::Tcp(addr.to_string()), "tcp-self-hosted".to_string())
        }
        _ => {
            eprintln!("--unix and --tcp are mutually exclusive");
            std::process::exit(2);
        }
    };

    let mut client = match target.connect() {
        Ok(c) => c,
        Err(e) => die("cannot connect", e),
    };
    if reset {
        if let Err(e) = client.reset() {
            die("reset failed", e);
        }
    }

    // Seeded working set, shared by all phases.
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let sets: Vec<cst_comm::CommSet> = (0..working)
        .map(|_| cst_workloads::well_nested_with_density(&mut rng, pes, density))
        .collect();

    let t_run = Instant::now();

    // Phase 1 — uncached: every working-set member routed once, each a
    // fresh miss (the server was just reset / freshly hosted).
    let t0 = Instant::now();
    for set in &sets {
        if let Err(e) = client.route(&router, set, None) {
            die("uncached route failed", e);
        }
    }
    let uncached_ns_per_req = (t0.elapsed().as_nanos() / working as u128) as u64;

    // Phase 2 — cached: one already-warm member repeated; every reply
    // comes straight from the shared payload cache.
    let t1 = Instant::now();
    for _ in 0..requests {
        if let Err(e) = client.route(&router, &sets[0], None) {
            die("cached route failed", e);
        }
    }
    let cached_ns_per_req = (t1.elapsed().as_nanos() / requests.max(1) as u128) as u64;

    // Phase 3 — soak: `clients` closed-loop threads, each replaying
    // `requests` requests over its own drifting copy of the working set
    // (repeat probability `repeat`, `delta` PE changes otherwise).
    let t2 = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(clients * requests);
    let soak = |c: usize| -> Result<Vec<u64>, String> {
        let mut client = target.connect().map_err(|e| e.to_string())?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            seed.wrapping_add(1).wrapping_add(c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut sets = sets.clone();
        let mut touched = Vec::new();
        let mut lat = Vec::with_capacity(requests);
        for _ in 0..requests {
            let idx = rng.gen_range(0..sets.len());
            if !rng.gen_bool(repeat) {
                let changes = cst_workloads::random_changes(&mut rng, &sets[idx], delta);
                touched.clear();
                sets[idx].apply_changes(&changes, &mut touched).map_err(|e| e.to_string())?;
            }
            let t = Instant::now();
            client.route(&router, &sets[idx], None).map_err(|e| e.to_string())?;
            lat.push(t.elapsed().as_nanos() as u64);
        }
        Ok(lat)
    };
    let soak_results: Vec<Result<Vec<u64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients).map(|c| scope.spawn(move || soak(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".to_string())))
            .collect()
    });
    for r in soak_results {
        match r {
            Ok(lat) => latencies.extend(lat),
            Err(e) => die("soak client failed", e),
        }
    }
    let soak_elapsed_ns = t2.elapsed().as_nanos().max(1);
    latencies.sort_unstable();

    // Phase 4 (optional) — thundering herd: `herd` barrier-released
    // connections demand one *fresh* key (distinct derived seed, so no
    // earlier phase warmed it). The stats delta across the phase counts
    // engine computations: single-flight coalescing makes it exactly 1
    // however the arrivals interleave. The key is then hammered warm
    // from all connections at once for the contended-hit percentiles.
    let mut herd_computations_per_key = 0u64;
    let mut contended_latencies: Vec<u64> = Vec::new();
    if herd > 0 {
        let mut herd_rng =
            rand::rngs::StdRng::seed_from_u64(seed ^ 0xE16_CAFE_F00D);
        let herd_set = cst_workloads::well_nested_with_density(&mut herd_rng, pes, density);
        let before = match client.stats() {
            Ok(s) => s,
            Err(e) => die("pre-herd stats fetch failed", e),
        };
        let barrier = std::sync::Barrier::new(herd);
        let herd_run = |_c: usize| -> Result<Vec<u64>, String> {
            let mut client = target.connect().map_err(|e| e.to_string())?;
            barrier.wait();
            client.route(&router, &herd_set, None).map_err(|e| e.to_string())?;
            let mut lat = Vec::with_capacity(requests);
            for _ in 0..requests {
                let t = Instant::now();
                client.route(&router, &herd_set, None).map_err(|e| e.to_string())?;
                lat.push(t.elapsed().as_nanos() as u64);
            }
            Ok(lat)
        };
        let herd_results: Vec<Result<Vec<u64>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..herd).map(|c| scope.spawn(move || herd_run(c))).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("herd thread panicked".to_string())))
                .collect()
        });
        for r in herd_results {
            match r {
                Ok(lat) => contended_latencies.extend(lat),
                Err(e) => die("herd client failed", e),
            }
        }
        let after = match client.stats() {
            Ok(s) => s,
            Err(e) => die("post-herd stats fetch failed", e),
        };
        herd_computations_per_key = after.computations.saturating_sub(before.computations);
        contended_latencies.sort_unstable();
    }

    let stats = match client.stats() {
        Ok(s) => s,
        Err(e) => die("stats fetch failed", e),
    };

    // Phase 5 — floor: Stats-frame round trips on the same connection.
    // It runs after the snapshot above so the reported counters stay a
    // pure function of the flags.
    let t3 = Instant::now();
    for _ in 0..requests {
        if let Err(e) = client.stats() {
            die("floor stats fetch failed", e);
        }
    }
    let floor_ns_per_req = (t3.elapsed().as_nanos() / requests.max(1) as u128) as u64;

    let report = BenchServeReport {
        router,
        pes,
        working,
        requests,
        clients,
        herd,
        available_parallelism: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        density,
        repeat,
        delta,
        seed,
        transport,
        soak_requests: latencies.len(),
        herd_computations_per_key,
        stats,
        uncached_ns_per_req,
        cached_ns_per_req,
        floor_ns_per_req,
        speedup: if cached_ns_per_req == 0 {
            0.0
        } else {
            uncached_ns_per_req as f64 / cached_ns_per_req as f64
        },
        soak_p50_ns: percentile(&latencies, 50),
        soak_p99_ns: percentile(&latencies, 99),
        soak_requests_per_sec: (latencies.len() as u128 * 1_000_000_000 / soak_elapsed_ns) as u64,
        contended_hit_p50_ns: percentile(&contended_latencies, 50),
        contended_hit_p99_ns: percentile(&contended_latencies, 99),
        elapsed_ns: t_run.elapsed().as_nanos() as u64,
    };

    if let Some(path) = flag_value(args, "--bench-json") {
        // With a herd phase the run measures the contended hit path and
        // emits the E16 ids; without one it is the E15 serve baseline.
        let json = if herd > 0 {
            format!(
                "{{\n  \"e16_herd/contended-hit-p50/{pes}\": {},\n  \
                 \"e16_herd/contended-hit-p99/{pes}\": {},\n  \
                 \"e16_herd/computations-per-key/{pes}\": {}\n}}\n",
                report.contended_hit_p50_ns,
                report.contended_hit_p99_ns,
                report.herd_computations_per_key,
            )
        } else {
            format!(
                "{{\n  \"e15_serve/uncached/{pes}\": {},\n  \"e15_serve/cached/{pes}\": {},\n  \
                 \"e15_serve/floor/{pes}\": {},\n  \
                 \"e15_serve/soak-p50/{pes}\": {},\n  \"e15_serve/soak-p99/{pes}\": {}\n}}\n",
                report.uncached_ns_per_req,
                report.cached_ns_per_req,
                floor_ns_per_req,
                report.soak_p50_ns,
                report.soak_p99_ns,
            )
        };
        if let Err(e) = std::fs::write(&path, json) {
            die("cannot write bench json", e);
        }
    }

    if args.iter().any(|a| a == "--json") {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => die("cannot serialize report", e),
        }
    } else {
        println!(
            "{} working sets on {} PEs via {} over {} (seed {}, {} clients x {} soak requests)",
            report.working,
            report.pes,
            report.router,
            report.transport,
            report.seed,
            report.clients,
            report.requests,
        );
        println!(
            "uncached {} ns/req, cached {} ns/req ({:.1}x), floor {} ns/req, \
             soak p50 {} ns p99 {} ns ({} req/s)",
            report.uncached_ns_per_req,
            report.cached_ns_per_req,
            report.speedup,
            floor_ns_per_req,
            report.soak_p50_ns,
            report.soak_p99_ns,
            report.soak_requests_per_sec,
        );
        if report.herd > 0 {
            println!(
                "herd: {} connections x 1 fresh key = {} computation(s); \
                 contended hit p50 {} ns p99 {} ns ({} cores)",
                report.herd,
                report.herd_computations_per_key,
                report.contended_hit_p50_ns,
                report.contended_hit_p99_ns,
                report.available_parallelism,
            );
        }
        let s = &report.stats;
        println!(
            "server: {} requests, {} responses, {} errors; cache {} hits / {} misses \
             ({} tier hits), {} collisions, {} evictions across {} shards; \
             {} computations, {} flight leaders, {} coalesced waits",
            s.requests,
            s.responses,
            s.errors,
            s.cache.hits,
            s.cache.misses,
            s.cache.tier_hits,
            s.cache.collisions,
            s.cache.evictions,
            s.shards.len(),
            s.computations,
            s.singleflight_leaders,
            s.coalesced_waits,
        );
    }

    if let Some(server) = hosted {
        server.shutdown();
    }
}
