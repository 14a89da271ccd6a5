//! `cst-tools` — command-line driver for the reproduction.
//!
//! ```text
//! cst-tools experiments [--quick]     run E1..E12, print all tables
//! cst-tools report [--quick]          print the EXPERIMENTS.md body
//! cst-tools csv <E1..E12>              print one experiment as CSV
//! cst-tools trace <n> <levels>        simulate a bus and dump the JSON trace
//! cst-tools schedule <pattern>        schedule a paren pattern, show rounds
//! cst-tools sim <pattern>             schedule a pattern, execute it on cst-sim
//! cst-tools viz <pattern>             draw the scheduled rounds as ASCII trees
//! cst-tools bundle <pattern>          schedule a paren pattern, emit a JSON bundle
//! cst-tools check <bundle.json>       statically analyze a schedule bundle
//! cst-tools inject <pattern>          route a pattern under a fault mask
//! cst-tools campaign                  run the seeded fault campaign, emit JSON
//! cst-tools stream                    replay a seeded request stream, report hit rate
//! cst-tools decomp                    route seeded arbitrary sets via layering, audit
//! cst-tools model enumerate           exhaustively cross-check the protocol at small n
//! cst-tools model conform [pattern]   replay emitter traces through the reference model
//! cst-tools serve                     run the routing daemon (TCP or Unix socket)
//! cst-tools bench-serve               seeded closed-loop load generator for the daemon
//! cst-tools bench-gate <fresh-dir>    check a bench smoke run and the checked-in BENCH files
//! cst-tools list-routers              print the engine registry
//! ```
//!
//! `schedule`, `viz` and `bundle` accept `--router <name>` to dispatch
//! through any engine-registry router (default `csa`); `list-routers`
//! prints the registry (`--canonical` restricts to the ten canonical
//! routers).
//!
//! `check` reads a [`cst_check::ScheduleBundle`] (as emitted by `bundle`),
//! runs the static analyzer and prints the findings; `--json` switches to
//! the machine-readable report, `--lenient` drops the CSA-only passes
//! (orientation, Theorem 5 round count, Theorem 8 budget, selection
//! order). Exit status: 0 clean (warnings allowed), 1 errors found or the
//! bundle is malformed, 2 usage.
//!
//! `inject` routes a pattern under a hardware fault mask (docs/FAULTS.md):
//! `--kill-switch <n>` and `--kill-link <n^|nv>` (`^` = upward, `v` =
//! downward link above node `n`) place faults by hand, `--degrade <n>`
//! marks the edge above `n` half-duplex, and `--fault-seed <s>` with
//! `--fault-rate <p>` samples a reproducible random mask on top. The
//! degraded schedule is audited with the `CST10x` fault pass; `--json`
//! emits the machine-readable outcome. Exit status: 0 audit-clean, 1
//! audit findings or routing failure, 2 usage.
//!
//! `sim` schedules a pattern and executes the verified schedule on the
//! cst-sim interpreter, printing cycles, deliveries and power. With
//! `--compiled` (off by default) it also lowers the schedule into a
//! [`cst_sim::CompiledProgram`] and replays it, printing an
//! interpreter-vs-compiled agreement line; exit 1 if the two outcomes
//! diverge in any field.
//!
//! `campaign` runs the deterministic `cst-faults` sweep (`--seed <s>`,
//! `--quick` for the small CI grid) and prints the report JSON; the same
//! seed always prints the same bytes (soak-checked in scripts/ci.sh).
//! `--interpreted` switches the per-trial execution cross-check to the
//! event-driven interpreter and `--compiled` (the default) to lowered
//! replay — the report is byte-identical either way, which scripts/ci.sh
//! also gates.
//!
//! `stream` replays a seeded request stream through the engine's schedule
//! cache (docs/ENGINE.md §"Caching & streaming"): a working set of
//! `--working` sets on `--pes` leaves at `--density`; each of `--requests`
//! requests repeats a working-set member with probability `--repeat`,
//! otherwise mutates one with `--delta` random PE changes first. Prints a
//! throughput/hit-rate report; every count in the report is a pure
//! function of the flags (the seed included), which scripts/ci.sh gates
//! after stripping the timing fields. `--json` for the machine-readable
//! form, `--router <name>` to pick the scheduler (default `csa`).
//!
//! `decomp` exercises the layered decomposition front-end
//! (docs/DECOMP.md): a seeded sweep of `--requests` arbitrary
//! communication sets (`--workload matching|hotspot|bipartite|mixed`,
//! `--pes`, `--pairs`, `--seed`) is routed through
//! `EngineCtx::route_general` on a cache-enabled context with `--router`
//! (default `csa`) per layer; every composite is audited with the `CST3xx` decomposition
//! pass, each layer (rebuilt from provenance) with the static analyzer
//! and the reference model's schedule conformance. `--report` prints the
//! machine-readable JSON summary — layer counts vs. the certificate lower
//! bound, packed rounds vs. the congestion bound and the layers' back-to-
//! back total, proven-optimal tallies, cache counters — with no timing
//! fields, so identical
//! flags print identical bytes (gated in scripts/ci.sh against
//! `scripts/decomp_golden.json`). Exit 0 iff every audit is clean, 1 on
//! findings, 2 usage.
//!
//! `model` drives the executable reference model (docs/MODEL.md).
//! `model enumerate` runs the exhaustive small-`n` state-space
//! cross-check against `switch_logic` — every well-nested set up to
//! `--max-n` (default 8) plus a seeded shape-exhaustive sweep at
//! `--seeded-n` (default 16; 0 disables) with `--seeded-pairs` pairs and
//! `--placements` embeddings per shape under `--seed`. `model conform
//! '<pattern>'` schedules a pattern through all three trace emitters
//! (host CSA, event simulator, RTL machine) and replays each trace
//! through the model, then audits every registry router's schedule;
//! without a pattern it sweeps `--requests` seeded random sets
//! (`--pes`, `--density`, `--seed`). All output is a pure function of
//! the flags; exit 0 iff everything conforms, 1 on findings, 2 usage.

use cst_analysis::experiments as exp;
use cst_analysis::Table;

mod bench_gate;
mod report;
mod serve_cmd;
mod viz;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    match args.first().map(String::as_str) {
        Some("experiments") => {
            for t in run_all(quick) {
                println!("{}", t.render_text());
            }
        }
        Some("report") => {
            print!("{}", report::experiments_md(&run_all(quick), quick));
        }
        Some("csv") => match args.get(1).map(String::as_str) {
            Some(id) => {
                let tables = run_all(quick);
                match tables.iter().find(|t| t.id.eq_ignore_ascii_case(id)) {
                    Some(t) => print!("{}", t.render_csv()),
                    None => {
                        eprintln!("unknown experiment id {id} (use E1..E12)");
                        std::process::exit(2);
                    }
                }
            }
            None => {
                eprintln!("usage: cst-tools csv <E1..E12>");
                std::process::exit(2);
            }
        },
        Some("trace") => {
            let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(64);
            let levels: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3);
            let (topo, set, sim) = exp::e7_bus::simulate_bus(n, levels);
            let trace = cst_sim::Trace::from_sim(&topo, &set, &sim);
            println!("{}", trace.to_json());
        }
        Some("viz") => {
            let pattern = match pattern_arg(&args) {
                Some(p) => p,
                None => {
                    eprintln!("usage: cst-tools viz '((.))(..)' [--router <name>]");
                    std::process::exit(2);
                }
            };
            viz_pattern(&pattern, &router_arg(&args));
        }
        Some("schedule") => {
            let pattern = match pattern_arg(&args) {
                Some(p) => p,
                None => {
                    eprintln!("usage: cst-tools schedule '((.))(..)' [--router <name>]");
                    std::process::exit(2);
                }
            };
            schedule_pattern(&pattern, &router_arg(&args));
        }
        Some("bundle") => {
            let pattern = match pattern_arg(&args) {
                Some(p) => p,
                None => {
                    eprintln!("usage: cst-tools bundle '((.))(..)' [--router <name>]");
                    std::process::exit(2);
                }
            };
            bundle_pattern(&pattern, &router_arg(&args));
        }
        Some("list-routers") => {
            let canonical = args.iter().any(|a| a == "--canonical");
            for router in cst_engine::registry() {
                if canonical && !cst_engine::CANONICAL.contains(&router.name()) {
                    continue;
                }
                println!("{:<18} {}", router.name(), router.description());
            }
        }
        Some("check") => {
            let path = match args.iter().skip(1).find(|a| !a.starts_with("--")) {
                Some(p) => p.clone(),
                None => {
                    eprintln!("usage: cst-tools check <bundle.json> [--json] [--lenient]");
                    std::process::exit(2);
                }
            };
            let json = args.iter().any(|a| a == "--json");
            let lenient = args.iter().any(|a| a == "--lenient");
            check_bundle(&path, json, lenient);
        }
        Some("inject") => {
            let pattern = match pattern_arg(&args) {
                Some(p) => p,
                None => {
                    eprintln!(
                        "usage: cst-tools inject '((.))(..)' [--router <name>] \
                         [--kill-switch <n>]... [--kill-link <n^|nv>]... [--degrade <n>]... \
                         [--fault-seed <s> --fault-rate <p>] [--json]"
                    );
                    std::process::exit(2);
                }
            };
            inject_pattern(&pattern, &router_arg(&args), &args);
        }
        Some("sim") => {
            let pattern = match pattern_arg(&args) {
                Some(p) => p,
                None => {
                    eprintln!("usage: cst-tools sim '((.))(..)' [--router <name>] [--compiled]");
                    std::process::exit(2);
                }
            };
            sim_pattern(&pattern, &router_arg(&args), args.iter().any(|a| a == "--compiled"));
        }
        Some("campaign") => {
            let seed = flag_value(&args, "--seed").and_then(|s| s.parse().ok());
            let backend = if args.iter().any(|a| a == "--interpreted") {
                cst_faults::SimBackend::Interpreted
            } else {
                cst_faults::SimBackend::Compiled
            };
            run_fault_campaign(seed, quick, backend);
        }
        Some("stream") => {
            run_stream(&args);
        }
        Some("decomp") => {
            run_decomp_sweep(&args);
        }
        Some("model") => {
            run_model(&args);
        }
        Some("serve") => {
            serve_cmd::run_serve(&args);
        }
        Some("bench-serve") => {
            serve_cmd::run_bench_serve(&args);
        }
        Some("bench-gate") => {
            bench_gate::run_bench_gate(&args);
        }
        _ => {
            eprintln!(
                "usage: cst-tools <experiments|report|csv|trace|schedule|sim|viz|bundle|check|inject|campaign|stream|decomp|model|serve|bench-serve|bench-gate|list-routers> [args] [--quick]"
            );
            std::process::exit(2);
        }
    }
}

/// Run all eight experiments; `quick` shrinks sweeps for fast iteration.
fn run_all(quick: bool) -> Vec<Table> {
    let threads = cst_analysis::default_threads();
    let e1 = if quick {
        exp::e1_rounds::Config {
            n: 128,
            widths: vec![1, 2, 4, 8, 16],
            seeds: (0..3).collect(),
            threads,
        }
    } else {
        exp::e1_rounds::Config::default()
    };
    let e2 = if quick {
        exp::e2_changes::Config {
            n: 128,
            widths: vec![1, 4, 16, 64],
            seeds: (0..3).collect(),
            threads,
        }
    } else {
        exp::e2_changes::Config::default()
    };
    let e3 = if quick {
        exp::e3_total_power::Config {
            sizes: vec![64, 256, 1024],
            density: 0.5,
            seeds: (0..3).collect(),
            threads,
        }
    } else {
        exp::e3_total_power::Config::default()
    };
    let e4 = if quick {
        exp::e4_control::Config { sizes: vec![64, 256, 1024], density: 0.5, seed: 4 }
    } else {
        exp::e4_control::Config::default()
    };
    let e5 = if quick {
        exp::e5_throughput::Config {
            sizes: vec![256, 1024],
            density: 0.5,
            repeats: 3,
            seed: 5,
        }
    } else {
        exp::e5_throughput::Config::default()
    };
    let e6 = if quick {
        exp::e6_histogram::Config { n: 256, width: 32, seed: 6, bucket_width: 4 }
    } else {
        exp::e6_histogram::Config::default()
    };
    let e7 = if quick {
        exp::e7_bus::Config { sizes: vec![64, 256], levels: vec![1, 2, 4] }
    } else {
        exp::e7_bus::Config::default()
    };
    let e8 = if quick {
        exp::e8_ablation::Config { n: 256, widths: vec![4, 16, 64], seed: 8 }
    } else {
        exp::e8_ablation::Config::default()
    };

    let mut tables = vec![
        exp::e1_rounds::run(&e1),
        exp::e2_changes::run(&e2),
        exp::e3_total_power::run(&e3),
        exp::e4_control::run(&e4),
        exp::e5_throughput::run(&e5),
    ];
    let r6 = exp::e6_histogram::run(&e6);
    tables.push(r6.table);
    tables.push(exp::e7_bus::run(&e7));
    tables.push(exp::e8_ablation::run(&e8));
    let e9 = if quick {
        exp::e9_applications::Config { grid_sides: vec![4, 8], array_sizes: vec![64] }
    } else {
        exp::e9_applications::Config::default()
    };
    tables.push(exp::e9_applications::run(&e9));
    let e10 = if quick {
        exp::e10_sessions::Config { n: 64, batches: 4, seed: 10 }
    } else {
        exp::e10_sessions::Config::default()
    };
    tables.push(exp::e10_sessions::run(&e10));
    let e11 = if quick {
        exp::e11_bus_emulation::Config { n: 64, segment_counts: vec![1, 4, 16] }
    } else {
        exp::e11_bus_emulation::Config::default()
    };
    tables.push(exp::e11_bus_emulation::run(&e11));
    let e12 = if quick {
        exp::e12_motivation::Config { sizes: vec![16, 64], inputs: 4, seed: 12 }
    } else {
        exp::e12_motivation::Config::default()
    };
    tables.push(exp::e12_motivation::run(&e12));
    tables
}

/// Flags that consume the following argument as their value.
const VALUE_FLAGS: [&str; 20] = [
    "--workload",
    "--pairs",
    "--router",
    "--kill-switch",
    "--kill-link",
    "--degrade",
    "--fault-seed",
    "--fault-rate",
    "--seed",
    "--requests",
    "--pes",
    "--density",
    "--working",
    "--repeat",
    "--delta",
    "--cache-cap",
    "--max-n",
    "--seeded-n",
    "--seeded-pairs",
    "--placements",
];

/// First non-flag argument after the subcommand, if any.
fn pattern_arg(args: &[String]) -> Option<String> {
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            it.next(); // skip the flag's value
        } else if !a.starts_with("--") {
            return Some(a.clone());
        }
    }
    None
}

/// Value of the first occurrence of a `--flag value` pair.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// Values of every occurrence of a repeatable `--flag value` pair.
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    args.windows(2)
        .filter(|w| w[0] == flag)
        .map(|w| w[1].clone())
        .collect()
}

/// Value of `--router <name>`, defaulting to the serial CSA router.
fn router_arg(args: &[String]) -> String {
    args.iter()
        .position(|a| a == "--router")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "csa".to_string())
}

/// Parse a parenthesis pattern and pad it onto a power-of-two tree,
/// exiting on malformed input.
fn parse_pattern(pattern: &str) -> (cst_core::CstTopology, cst_comm::CommSet) {
    let set = match cst_comm::from_paren_string(pattern) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid pattern: {e}");
            std::process::exit(1);
        }
    };
    let n = set.num_leaves().next_power_of_two().max(2);
    let pairs: Vec<(usize, usize)> =
        set.comms().iter().map(|c| (c.source.0, c.dest.0)).collect();
    let set = cst_comm::CommSet::from_pairs(n, &pairs);
    let topo = cst_core::CstTopology::with_leaves(n);
    (topo, set)
}

/// Dispatch one pattern through the engine registry, exiting on failure.
fn route_pattern(
    pattern: &str,
    router: &str,
) -> (cst_core::CstTopology, cst_comm::CommSet, cst_engine::RouteOutcome) {
    let (topo, set) = parse_pattern(pattern);
    match cst_engine::route_once(router, &topo, &set) {
        Ok(out) => (topo, set, out),
        Err(e) => {
            eprintln!("cannot schedule: {e}");
            std::process::exit(1);
        }
    }
}

/// Build the fault mask an `inject` invocation describes: explicit
/// `--kill-switch` / `--kill-link` / `--degrade` placements over an
/// optional seeded random base (`--fault-seed` + `--fault-rate`).
fn mask_from_args(args: &[String], topo: &cst_core::CstTopology) -> cst_core::FaultMask {
    use cst_core::{DirectedLink, NodeId};
    let mut mask = match flag_value(args, "--fault-rate") {
        Some(rate_s) => {
            let rate: f64 = match rate_s.parse() {
                Ok(r) if (0.0..=1.0).contains(&r) => r,
                _ => {
                    eprintln!("--fault-rate wants a probability in [0, 1], got {rate_s}");
                    std::process::exit(2);
                }
            };
            let seed: u64 = flag_value(args, "--fault-seed")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            cst_faults::sample_mask(&mut rng, topo, rate)
        }
        None => cst_core::FaultMask::empty(topo),
    };
    let parse_node = |s: &str| -> usize {
        match s.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("expected a node id, got {s}");
                std::process::exit(2);
            }
        }
    };
    for s in flag_values(args, "--kill-switch") {
        if !mask.kill_switch(NodeId(parse_node(&s))) {
            eprintln!("--kill-switch {s}: not an internal switch (or already dead)");
            std::process::exit(2);
        }
    }
    for s in flag_values(args, "--kill-link") {
        let (node_s, up) = match s.strip_suffix('^') {
            Some(rest) => (rest, true),
            None => match s.strip_suffix('v') {
                Some(rest) => (rest, false),
                None => {
                    eprintln!("--kill-link wants <node>^ (upward) or <node>v (downward), got {s}");
                    std::process::exit(2);
                }
            },
        };
        let child = NodeId(parse_node(node_s));
        let link =
            if up { DirectedLink::up_from(child) } else { DirectedLink::down_to(child) };
        if !mask.kill_link(link) {
            eprintln!("--kill-link {s}: no such tree link (or already dead)");
            std::process::exit(2);
        }
    }
    for s in flag_values(args, "--degrade") {
        if !mask.degrade_edge(NodeId(parse_node(&s))) {
            eprintln!("--degrade {s}: no such tree edge (or already degraded)");
            std::process::exit(2);
        }
    }
    mask
}

/// Machine-readable `inject` outcome (`--json`).
#[derive(serde::Serialize)]
struct InjectOutcome {
    router: String,
    num_leaves: usize,
    comms: usize,
    faults: usize,
    rounds: usize,
    power_units: u64,
    degradation: cst_engine::DegradationReport,
    audit_clean: bool,
}

/// Route a pattern under a fault mask, audit the degraded schedule, and
/// report. Exit 0 when the fault audit is clean, 1 otherwise.
fn inject_pattern(pattern: &str, router: &str, args: &[String]) {
    let (topo, set) = parse_pattern(pattern);
    let mask = mask_from_args(args, &topo);
    let routed = cst_engine::find(router)
        .ok_or_else(|| cst_core::CstError::UnknownRouter { name: router.to_string() })
        .and_then(|r| cst_engine::EngineCtx::new().route_masked(r.as_ref(), &topo, &set, &mask));
    let out = match routed {
        Ok(out) => out,
        Err(e) => {
            eprintln!("cannot schedule: {e}");
            std::process::exit(1);
        }
    };
    let report = out.degradation.clone().unwrap_or_default();
    let dropped: Vec<usize> = report.drops.iter().map(|d| d.comm).collect();
    let audit = cst_check::analyze_with_faults(
        &topo,
        &set,
        &out.schedule,
        &cst_check::CheckOptions::lenient(),
        &mask,
        &dropped,
    );
    if args.iter().any(|a| a == "--json") {
        let outcome = InjectOutcome {
            router: out.router.to_string(),
            num_leaves: topo.num_leaves(),
            comms: set.len(),
            faults: mask.num_faults(),
            rounds: out.rounds,
            power_units: out.power.total_units,
            degradation: report,
            audit_clean: audit.is_clean(),
        };
        match serde_json::to_string_pretty(&outcome) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("cannot serialize outcome: {e}");
                std::process::exit(1);
            }
        }
    } else {
        println!(
            "{} PEs, {} communications, {} faults injected (router {})",
            topo.num_leaves(),
            set.len(),
            mask.num_faults(),
            out.router
        );
        println!(
            "routed {} ({} rerouted), dropped {}, {} rounds ({} added by half-duplex splits), {} power units",
            report.routed,
            report.rerouted,
            report.dropped,
            out.rounds,
            report.extra_rounds,
            out.power.total_units
        );
        for d in &report.drops {
            println!("  dropped c{} ({} -> {}): {}", d.comm, d.source, d.dest, d.cause);
        }
        for r in &report.reroutes {
            println!("  rerouted c{} off the degraded edge above n{}", r.comm, r.edge);
        }
        if audit.is_clean() {
            println!("fault audit: clean");
        } else {
            print!("fault audit:\n{}", audit.render_text());
        }
    }
    std::process::exit(if audit.is_clean() { 0 } else { 1 });
}

/// Schedule a pattern and execute the verified schedule on cst-sim. With
/// `compiled`, also lower it into a replay program and pin the two
/// execution paths against each other; exit 1 on divergence.
fn sim_pattern(pattern: &str, router: &str, compiled: bool) {
    let (topo, set, out) = route_pattern(pattern, router);
    let sim = match cst_sim::simulate_schedule(&topo, &set, &out.schedule, None) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    };
    let power = sim.meter.report(&topo);
    println!(
        "{} PEs, {} communications, {} rounds, {} cycles, {} deliveries (router {})",
        topo.num_leaves(),
        set.len(),
        sim.schedule.num_rounds(),
        sim.cycles,
        sim.deliveries.len(),
        out.router
    );
    println!(
        "power: {} total units, max {} per switch, max {} port transitions",
        power.total_units, power.max_units, power.max_port_transitions
    );
    if compiled {
        let replayed = cst_sim::CompiledProgram::compile(&topo, &set, &out.schedule)
            .and_then(|prog| prog.replay(None));
        let replayed = match replayed {
            Ok(r) => r,
            Err(e) => {
                eprintln!("compiled replay failed: {e}");
                std::process::exit(1);
            }
        };
        if replayed == sim {
            println!(
                "compiled replay: agrees with the interpreter ({} deliveries, {} cycles, {} power units)",
                replayed.deliveries.len(),
                replayed.cycles,
                power.total_units
            );
        } else {
            eprintln!("compiled replay DIVERGES from the interpreter");
            std::process::exit(1);
        }
    }
}

/// Run the deterministic `cst-faults` campaign and print its JSON report.
fn run_fault_campaign(seed: Option<u64>, quick: bool, backend: cst_faults::SimBackend) {
    let mut cfg = if quick {
        cst_faults::CampaignConfig {
            sizes: vec![16, 32],
            rates: vec![0.0, 0.05],
            routers: vec!["csa".to_string(), "greedy".to_string()],
            trials: 4,
            ..cst_faults::CampaignConfig::default()
        }
    } else {
        cst_faults::CampaignConfig::default()
    };
    if let Some(s) = seed {
        cfg.seed = s;
    }
    let report = match cst_faults::run_campaign_with(&cfg, backend) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            std::process::exit(1);
        }
    };
    match serde_json::to_string_pretty(&report) {
        Ok(s) => println!("{s}"),
        Err(e) => {
            eprintln!("cannot serialize report: {e}");
            std::process::exit(1);
        }
    }
}

/// Machine-readable `stream` report (`--json`). Every field above the
/// timing pair is a pure function of the flags; scripts/ci.sh strips
/// `elapsed_ns` / `requests_per_sec` and gates the rest against a golden.
#[derive(serde::Serialize)]
struct StreamReport {
    router: String,
    requests: usize,
    pes: usize,
    working: usize,
    repeat: f64,
    delta: usize,
    seed: u64,
    cache_capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    collisions: u64,
    entries: usize,
    total_rounds: usize,
    total_power_units: u64,
    elapsed_ns: u64,
    requests_per_sec: u64,
}

/// Parse one typed flag value with a default, exiting on malformed input.
fn typed_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match flag_value(args, flag) {
        Some(s) => match s.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("{flag} cannot parse {s}");
                std::process::exit(2);
            }
        },
        None => default,
    }
}

/// One request's row in the machine-readable `decomp` report. Every
/// field is a pure function of the flags (no timings).
#[derive(serde::Serialize)]
struct DecompRow {
    workload: &'static str,
    pairs: usize,
    layers: usize,
    lower_bound: usize,
    proven_optimal: bool,
    rounds: usize,
    rounds_lower_bound: usize,
    layered_rounds: usize,
    power_units: u64,
    cached_layers: usize,
    audit_errors: usize,
}

/// Machine-readable `decomp` report (`--report`). Byte-stable for fixed
/// flags; scripts/ci.sh gates it against `scripts/decomp_golden.json`.
#[derive(serde::Serialize)]
struct DecompReport {
    router: String,
    workload: String,
    requests: usize,
    pes: usize,
    pairs: usize,
    seed: u64,
    clean: bool,
    proven_optimal: usize,
    total_layers: usize,
    total_lower_bound: usize,
    rounds_at_bound: usize,
    cache_hits: u64,
    cache_misses: u64,
    rows: Vec<DecompRow>,
}

/// Seeded sweep of arbitrary (non-well-nested) sets through the layered
/// decomposition front-end, with the full three-stage audit per request:
/// `CST3xx` composition pass, then static analysis and reference-model
/// schedule conformance of every layer, rebuilt from provenance.
fn run_decomp_sweep(args: &[String]) {
    use rand::SeedableRng;
    let requests: usize = typed_flag(args, "--requests", 9);
    let pes: usize = typed_flag(args, "--pes", 64);
    let pairs: usize = typed_flag(args, "--pairs", 24);
    let seed: u64 = typed_flag(args, "--seed", 0);
    let workload: String = flag_value(args, "--workload").unwrap_or_else(|| "mixed".into());
    let router = router_arg(args);
    let families: &[&'static str] = match workload.as_str() {
        "matching" => &["matching"],
        "hotspot" => &["hotspot"],
        "bipartite" => &["bipartite"],
        "mixed" => &["matching", "hotspot", "bipartite"],
        other => {
            eprintln!("--workload wants matching|hotspot|bipartite|mixed, got {other}");
            std::process::exit(2);
        }
    };
    let Some(router_box) = cst_engine::find(&router) else {
        eprintln!("unknown router {router} (see cst-tools list-routers)");
        std::process::exit(2);
    };
    if !pes.is_power_of_two() || pes < 4 {
        eprintln!("--pes wants a power of two >= 4, got {pes}");
        std::process::exit(2);
    }

    let topo = cst_core::CstTopology::with_leaves(pes);
    let mut ctx = cst_engine::EngineCtx::new();
    ctx.enable_cache(cst_engine::DEFAULT_CACHE_CAPACITY);
    let layer_options = if router == "csa" {
        cst_check::CheckOptions::strict()
    } else {
        cst_check::CheckOptions::lenient()
    };
    let mut rows: Vec<DecompRow> = Vec::with_capacity(requests);
    let mut stages = cst_decomp::DecompTimings::default();
    let mut all_clean = true;
    for i in 0..requests {
        let family = families[i % families.len()];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(i as u64));
        let gset = match family {
            "matching" => cst_workloads::arbitrary_permutation(&mut rng, pes),
            "hotspot" => cst_workloads::hotspot(&mut rng, pes, pairs.min(pes - 1)),
            _ => cst_workloads::random_bipartite(&mut rng, pes, pairs.min(pes * pes / 4)),
        };
        let out = match ctx.route_general(router_box.as_ref(), &topo, &gset) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("request {i} ({family}): cannot route: {e}");
                std::process::exit(1);
            }
        };
        // The memo still holds this request's decomposition; audit the
        // composite against it, then each layer's own schedule, rebuilt
        // from provenance (no routing, so the cache counters stay put).
        let decomp = ctx.decomposition_for(&gset);
        let mut audit =
            cst_check::check_decomposition(&topo, &gset, decomp, &out.schedule, &out.layer_rounds);
        for (j, layer_set) in decomp.layer_sets.iter().enumerate() {
            let layer = cst_decomp::layer_schedule(
                &topo,
                &gset,
                &decomp.layers[j],
                &out.layer_round,
                out.layer_rounds[j],
            );
            audit.merge(cst_check::analyze(&topo, layer_set, &layer, &layer_options));
            audit.merge(cst_model::conform_schedule(layer_set, &layer, &[]));
        }
        if audit.has_errors() {
            all_clean = false;
            eprintln!("request {i} ({family}): audit findings:\n{}", audit.render_text());
        }
        rows.push(DecompRow {
            workload: family,
            pairs: gset.len(),
            layers: out.num_layers,
            lower_bound: out.lower_bound,
            proven_optimal: out.proven_optimal,
            rounds: out.rounds,
            rounds_lower_bound: out.rounds_lower_bound,
            layered_rounds: out.layer_rounds.iter().sum(),
            power_units: out.power.total_units,
            cached_layers: out.cached_layers,
            audit_errors: audit.error_count(),
        });
        stages += out.decomp_timings;
        ctx.recycle_general(out);
    }
    let stats = ctx.cache_stats().unwrap_or_default();
    let report = DecompReport {
        router,
        workload,
        requests,
        pes,
        pairs,
        seed,
        clean: all_clean,
        proven_optimal: rows.iter().filter(|r| r.proven_optimal).count(),
        total_layers: rows.iter().map(|r| r.layers).sum(),
        total_lower_bound: rows.iter().map(|r| r.lower_bound).sum(),
        rounds_at_bound: rows.iter().filter(|r| r.rounds == r.rounds_lower_bound).count(),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        rows,
    };
    if args.iter().any(|a| a == "--report" || a == "--json") {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("cannot serialize report: {e}");
                std::process::exit(1);
            }
        }
    } else {
        println!(
            "{} requests on {} PEs via {} (seed {}):",
            report.requests, report.pes, report.router, report.seed
        );
        for (i, r) in report.rows.iter().enumerate() {
            println!(
                "  #{i:<2} {:<9} {:>3} pairs -> {:>2} layers (bound {:>2}{}) {:>3} rounds \
                 (bound {:>3}, layered {:>3}) {:>5} power units{}",
                r.workload,
                r.pairs,
                r.layers,
                r.lower_bound,
                if r.proven_optimal { ", optimal" } else { "" },
                r.rounds,
                r.rounds_lower_bound,
                r.layered_rounds,
                r.power_units,
                if r.audit_errors == 0 { "" } else { "  AUDIT FINDINGS" },
            );
        }
        println!(
            "{} of {} proven optimal; {} layers total vs. {} certified lower bound; audits {}",
            report.proven_optimal,
            report.requests,
            report.total_layers,
            report.total_lower_bound,
            if report.clean { "clean" } else { "FAILED" },
        );
        println!(
            "{} of {} packed to the congestion bound",
            report.rounds_at_bound, report.requests
        );
        println!("decomposition time: {stages}");
    }
    if !all_clean {
        std::process::exit(1);
    }
}

/// Replay a seeded request stream through the schedule cache and report
/// throughput + hit rate (see the stream model docs in the module header).
fn run_stream(args: &[String]) {
    use rand::{Rng, SeedableRng};
    let requests: usize = typed_flag(args, "--requests", 1000);
    let pes: usize = typed_flag(args, "--pes", 256);
    let density: f64 = typed_flag(args, "--density", 0.5);
    let working: usize = typed_flag(args, "--working", 8);
    let repeat: f64 = typed_flag(args, "--repeat", 0.75);
    let delta: usize = typed_flag(args, "--delta", 2);
    let seed: u64 = typed_flag(args, "--seed", 0);
    let cache_cap: usize = typed_flag(args, "--cache-cap", cst_engine::DEFAULT_CACHE_CAPACITY);
    let router = router_arg(args);
    if !pes.is_power_of_two()
        || pes < 2
        || working == 0
        || !(0.0..=1.0).contains(&repeat)
        || !(0.0..=1.0).contains(&density)
    {
        eprintln!(
            "--pes wants a power of two >= 2; --working wants >= 1; \
             --repeat and --density want probabilities in [0, 1]"
        );
        std::process::exit(2);
    }

    let topo = cst_core::CstTopology::with_leaves(pes);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut sets: Vec<cst_comm::CommSet> = (0..working)
        .map(|_| cst_workloads::well_nested_with_density(&mut rng, pes, density))
        .collect();

    let Some(router_box) = cst_engine::find(&router) else {
        eprintln!(
            "cannot schedule request: {}",
            cst_core::CstError::UnknownRouter { name: router.clone() }
        );
        std::process::exit(1);
    };
    let mut ctx = cst_engine::EngineCtx::new();
    ctx.enable_cache(cache_cap);
    let mut touched = Vec::new();
    let mut total_rounds = 0usize;
    let mut total_power_units = 0u64;
    let t0 = std::time::Instant::now();
    for _ in 0..requests {
        let idx = rng.gen_range(0..sets.len());
        if !rng.gen_bool(repeat) {
            // Fresh work: drift this member by `delta` PE changes.
            let changes = cst_workloads::random_changes(&mut rng, &sets[idx], delta);
            touched.clear();
            if let Err(e) = sets[idx].apply_changes(&changes, &mut touched) {
                eprintln!("internal error: generated stream delta failed to apply: {e}");
                std::process::exit(1);
            }
        }
        match ctx.route(router_box.as_ref(), &topo, &sets[idx]) {
            Ok(out) => {
                total_rounds += out.rounds;
                total_power_units += out.power.total_units;
                ctx.recycle(out);
            }
            Err(e) => {
                eprintln!("cannot schedule request: {e}");
                std::process::exit(1);
            }
        }
    }
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let stats = ctx.cache_stats().unwrap_or_default();
    let requests_per_sec = if elapsed_ns == 0 {
        0
    } else {
        (requests as u128 * 1_000_000_000 / elapsed_ns as u128) as u64
    };
    let report = StreamReport {
        router,
        requests,
        pes,
        working,
        repeat,
        delta,
        seed,
        cache_capacity: cache_cap,
        hits: stats.hits,
        misses: stats.misses,
        evictions: stats.evictions,
        collisions: stats.collisions,
        entries: stats.entries,
        total_rounds,
        total_power_units,
        elapsed_ns,
        requests_per_sec,
    };
    if args.iter().any(|a| a == "--json") {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("cannot serialize report: {e}");
                std::process::exit(1);
            }
        }
    } else {
        println!(
            "{} requests over {} working sets ({} PEs, density {density}, repeat {}, delta {}, seed {}, router {})",
            report.requests,
            report.working,
            report.pes,
            report.repeat,
            report.delta,
            report.seed,
            report.router,
        );
        let hit_pct = if requests == 0 {
            0.0
        } else {
            100.0 * report.hits as f64 / requests as f64
        };
        println!(
            "cache: {} hits / {} misses ({hit_pct:.1}% hit rate), {} evictions, {} collisions, {} resident (cap {})",
            report.hits,
            report.misses,
            report.evictions,
            report.collisions,
            report.entries,
            report.cache_capacity,
        );
        println!(
            "work: {} total rounds, {} total power units",
            report.total_rounds, report.total_power_units
        );
        println!(
            "throughput: {} requests/sec ({:.3} ms total)",
            report.requests_per_sec,
            elapsed_ns as f64 / 1.0e6
        );
    }
}

/// Visualize a parenthesis pattern's schedule as ASCII trees.
fn viz_pattern(pattern: &str, router: &str) {
    let (topo, set, out) = route_pattern(pattern, router);
    print!("{}", viz::render_schedule(&topo, &set, &out.schedule));
}

/// Schedule a parenthesis pattern and emit the outcome as a JSON
/// [`cst_check::ScheduleBundle`] on stdout — the artifact `check` audits.
fn bundle_pattern(pattern: &str, router: &str) {
    let (topo, set, out) = route_pattern(pattern, router);
    // Phase-1 counters only apply to right-oriented sets; omit them when
    // the chosen router accepted a set the CSA front end would reject.
    let counters = cst_padr::phase1::run(&topo, &set).ok().map(|p1| p1.counter_table());
    let bundle = cst_check::ScheduleBundle::new(&set, out.schedule, counters);
    match serde_json::to_string_pretty(&bundle) {
        Ok(s) => println!("{s}"),
        Err(e) => {
            eprintln!("cannot serialize bundle: {e}");
            std::process::exit(1);
        }
    }
}

/// Statically analyze a schedule bundle file; exit 1 on any error finding.
fn check_bundle(path: &str, as_json: bool, lenient: bool) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let bundle: cst_check::ScheduleBundle = match serde_json::from_str(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{path} is not a schedule bundle: {e}");
            std::process::exit(1);
        }
    };
    let options =
        if lenient { cst_check::CheckOptions::lenient() } else { cst_check::CheckOptions::strict() };
    let report = match bundle.check(&options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bundle is structurally invalid: {e}");
            std::process::exit(1);
        }
    };
    if as_json {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("cannot serialize report: {e}");
                std::process::exit(1);
            }
        }
    } else if report.is_clean() {
        println!(
            "{path}: clean ({} PEs, {} communications, {} rounds)",
            bundle.num_leaves,
            bundle.comms.len(),
            bundle.schedule.num_rounds()
        );
    } else {
        // render_text ends with the error/warning tally line.
        print!("{path}:\n{}", report.render_text());
    }
    std::process::exit(if report.has_errors() { 1 } else { 0 });
}

/// Schedule a parenthesis pattern and print the rounds.
fn schedule_pattern(pattern: &str, router: &str) {
    let (topo, set, out) = route_pattern(pattern, router);
    println!(
        "{} PEs, {} communications, width {} (router {})",
        topo.num_leaves(),
        set.len(),
        cst_comm::width_on_topology(&topo, &set),
        out.router
    );
    for (i, round) in out.schedule.rounds.iter().enumerate() {
        let pairs: Vec<String> = round
            .comms
            .iter()
            .map(|&id| {
                let c = &set.comms()[id.0];
                format!("{}->{}", c.source.0, c.dest.0)
            })
            .collect();
        println!("round {i}: {}", pairs.join("  "));
    }
    println!(
        "power: {} total units, max {} per switch, max {} port transitions",
        out.power.total_units, out.power.max_units, out.power.max_port_transitions
    );
}

/// Dispatch the `model` subcommand (see the module docs).
fn run_model(args: &[String]) {
    match args.get(1).map(String::as_str) {
        Some("enumerate") => model_enumerate(args),
        Some("conform") => model_conform(args),
        _ => {
            eprintln!(
                "usage: cst-tools model <enumerate|conform> [args]\n\
                 \x20 model enumerate [--max-n 8] [--seeded-n 16] [--seeded-pairs 3] \
                 [--placements 4] [--seed 1]\n\
                 \x20 model conform '((.))(..)' | model conform [--requests 50] \
                 [--pes 64] [--density 0.5] [--seed 1]"
            );
            std::process::exit(2);
        }
    }
}

/// Exhaustive + seeded state-space cross-check against the reference model.
fn model_enumerate(args: &[String]) {
    let max_n: usize = typed_flag(args, "--max-n", 8);
    let seeded_n: usize = typed_flag(args, "--seeded-n", 16);
    let seeded_pairs: usize = typed_flag(args, "--seeded-pairs", 3);
    let placements: usize = typed_flag(args, "--placements", 4);
    let seed: u64 = typed_flag(args, "--seed", 1);
    if !max_n.is_power_of_two() || max_n < 2 {
        eprintln!("--max-n wants a power of two >= 2");
        std::process::exit(2);
    }
    let report = cst_model::explore_all(max_n);
    print!("exhaustive n<={max_n}: {}", report.render());
    let mut clean = report.is_clean();
    if seeded_n > 0 {
        if !seeded_n.is_power_of_two() {
            eprintln!("--seeded-n wants a power of two (or 0 to disable)");
            std::process::exit(2);
        }
        let seeded = cst_model::explore_seeded(seeded_n, seeded_pairs, placements, seed);
        print!("seeded n={seeded_n} (pairs<={seeded_pairs}, {placements} placements, seed {seed}): {}",
            seeded.render());
        clean &= seeded.is_clean();
    }
    std::process::exit(if clean { 0 } else { 1 });
}

/// Replay emitter traces (and registry schedules) through the model.
fn model_conform(args: &[String]) {
    if let Some(pattern) = pattern_arg(&args[1..]) {
        model_conform_pattern(&pattern);
    } else {
        model_conform_sweep(args);
    }
}

/// One finding-aware report line; returns the number of errors.
fn conform_line(what: &str, report: &cst_core::DiagReport, detail: String) -> usize {
    if report.is_clean() {
        println!("{what}: conforms ({detail})");
    } else {
        println!("{what}: {} findings ({detail})", report.error_count());
        print!("{}", report.render_text());
    }
    report.error_count()
}

fn model_conform_pattern(pattern: &str) {
    let (topo, set) = parse_pattern(pattern);
    let mut errors = 0usize;
    let mut trace = cst_core::ProtocolTrace::new();

    // Emitter 1: the host CSA scheduler (complete sweeps, pruning off).
    let mut scratch = cst_padr::CsaScratch::new();
    let mut pool = cst_comm::SchedulePool::default();
    match scratch.schedule_traced(&topo, &set, &mut pool, &mut trace) {
        Ok(out) => {
            let report = cst_model::conform_trace(&set, &trace);
            errors += conform_line(
                "csa trace",
                &report,
                format!("{} rounds, {} events", trace.rounds.len(), trace.num_events()),
            );
            let report = cst_model::conform_schedule(&set, &out.schedule, &[]);
            errors +=
                conform_line("csa schedule", &report, format!("{} rounds", out.rounds()));
        }
        Err(e) => {
            eprintln!("csa scheduling failed: {e}");
            std::process::exit(1);
        }
    }

    // Emitter 2: the event-driven simulator.
    match cst_sim::simulate_traced(&topo, &set, None, &mut trace) {
        Ok(sim) => {
            let report = cst_model::conform_trace(&set, &trace);
            errors += conform_line(
                "sim trace",
                &report,
                format!("{} cycles, {} events", sim.cycles, trace.num_events()),
            );
        }
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    }

    // Emitter 3: the RTL switch machine.
    match cst_sim::RtlMachine::new(&topo, &set).run_to_completion_traced(&set, &mut trace) {
        Ok(schedule) => {
            let report = cst_model::conform_trace(&set, &trace);
            errors += conform_line(
                "rtl trace",
                &report,
                format!("{} rounds, {} events", schedule.num_rounds(), trace.num_events()),
            );
        }
        Err(e) => {
            eprintln!("rtl run failed: {e}");
            std::process::exit(1);
        }
    }

    // Every registry router's schedule, judged by the model's independent
    // circuit computation.
    let mut ctx = cst_engine::EngineCtx::new();
    for router in cst_engine::registry() {
        match ctx.route(router.as_ref(), &topo, &set) {
            Ok(out) => {
                let report = cst_model::conform_schedule(&set, &out.schedule, &[]);
                errors += conform_line(
                    &format!("schedule [{}]", router.name()),
                    &report,
                    format!("{} rounds", out.rounds),
                );
                ctx.recycle(out);
            }
            Err(e) => {
                println!("schedule [{}]: routing failed: {e}", router.name());
                errors += 1;
            }
        }
    }
    std::process::exit(if errors == 0 { 0 } else { 1 });
}

fn model_conform_sweep(args: &[String]) {
    use rand::SeedableRng;
    let requests: usize = typed_flag(args, "--requests", 50);
    let pes: usize = typed_flag(args, "--pes", 64);
    let density: f64 = typed_flag(args, "--density", 0.5);
    let seed: u64 = typed_flag(args, "--seed", 1);
    if !pes.is_power_of_two() || pes < 2 || !(0.0..=1.0).contains(&density) {
        eprintln!("--pes wants a power of two >= 2; --density a probability in [0, 1]");
        std::process::exit(2);
    }
    let topo = cst_core::CstTopology::with_leaves(pes);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut scratch = cst_padr::CsaScratch::new();
    let mut pool = cst_comm::SchedulePool::default();
    let mut trace = cst_core::ProtocolTrace::new();
    let (mut errors, mut rounds, mut events) = (0usize, 0usize, 0usize);
    for i in 0..requests {
        let set = cst_workloads::well_nested_with_density(&mut rng, pes, density);
        match scratch.schedule_traced(&topo, &set, &mut pool, &mut trace) {
            Ok(out) => {
                let r = cst_model::conform_trace(&set, &trace);
                if !r.is_clean() {
                    println!("set {i} ({} comms): trace diverges", set.len());
                    print!("{}", r.render_text());
                    errors += r.error_count();
                }
                let r = cst_model::conform_schedule(&set, &out.schedule, &[]);
                if !r.is_clean() {
                    println!("set {i} ({} comms): schedule diverges", set.len());
                    print!("{}", r.render_text());
                    errors += r.error_count();
                }
                rounds += out.rounds();
                events += trace.num_events();
            }
            Err(e) => {
                println!("set {i}: scheduling failed: {e}");
                errors += 1;
            }
        }
    }
    println!(
        "conformed {requests} seeded sets on {pes} PEs (density {density}, seed {seed}): \
         {rounds} rounds, {events} events, {errors} findings"
    );
    std::process::exit(if errors == 0 { 0 } else { 1 });
}
