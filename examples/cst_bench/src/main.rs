//! cst_bench: the end-to-end benchmark of cst-serve and the CST engine.
//!
//! ```text
//! cst_bench [run] [--workload <name>] [--seed <n>] [--seconds <s>]
//!                 [--trace [0|1]] [--smoke] [--out <dir>]
//! cst_bench compare <dirA> <dirB> [--bench-json <path>]
//! ```
//!
//! Run from the repository root (`examples/cst_bench/run.sh` builds the
//! daemon and this binary, then execs it). See README.md for the
//! workloads, the metrics and how to read a traced run.

mod audit;
mod compare;
mod engine;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use report::{Metrics, ResultFile, END_TO_END, PER_LAYER};
use serve::{CallerLog, Daemon, Plan};
use stats::{mean, median, percentile, ratio};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use workload::{ServeStream, Stream, Workload};

/// Latency samples a measured window should collect, so that at least
/// 10 lie beyond the reported p99.
const MIN_TAIL_SAMPLES: u64 = 1000;
/// Set-ups per run, before and after the window; `setup_s` is their
/// median. Within one burst of set-ups the times agree closely, but a
/// burst samples the host at one moment: two bursts ~20 s apart halve
/// that run-to-run noise.
const SETUPS_BEFORE: usize = 6;
const SETUPS_AFTER: usize = 5;
/// Frames the traced run replays in-process, per workload.
fn replay_frames(w: Workload) -> usize {
    match w {
        Workload::ServeHit => 4096,
        Workload::ServeMiss => 1024,
        _ => 128,
    }
}
/// Where the public-path spans should put `span_coverage`: outside it,
/// the public path does work `handle_frame` skips, or the reverse. On a
/// hit, `decode_request` builds an owned request where `handle_frame`
/// decodes into reused buffers, which reads about 1.15.
const COVERAGE_BAND: (f64, f64) = (0.85, 1.15);
/// Sets the traced engine-general run decomposes in-process.
const DECOMP_SAMPLES: usize = 32;
/// Where sockets, result files and spans go, relative to the repository
/// root (kept short: a Unix socket path must fit in 108 bytes).
const WORKDIR: &str = "target/cst_bench";

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: cst_bench [run] [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--smoke] [--out <dir>]\n       \
         cst_bench compare <dirA> <dirB> [--bench-json <path>]",
        workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_run(args: &[String]) -> Options {
    let mut o = Options {
        workloads: workload::ALL.to_vec(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: Path::new(WORKDIR).join("results"),
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => {
                o.workloads = vec![Workload::parse(v).unwrap_or_else(|| usage())];
                i += 1;
            }
            ("--seed", Some(v)) => {
                o.seed = v.parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            ("--seconds", Some(v)) => {
                o.seconds = Some(
                    v.parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .unwrap_or_else(|| usage()),
                );
                i += 1;
            }
            ("--out", Some(v)) => {
                o.out = PathBuf::from(v);
                i += 1;
            }
            ("--trace", Some(v)) if v == "0" || v == "1" => {
                o.trace = v == "1";
                i += 1;
            }
            ("--trace", _) => o.trace = true,
            ("--smoke", _) => o.smoke = true,
            _ => usage(),
        }
        i += 1;
    }
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => std::process::exit(compare::main(&args[1..])),
        Some("run") => run(parse_run(&args[1..])),
        _ => run(parse_run(&args)),
    }
}

fn run(o: Options) {
    let tools = PathBuf::from(
        std::env::var("CST_TOOLS").unwrap_or_else(|_| "target/release/cst-tools".into()),
    );
    let workdir = PathBuf::from(WORKDIR);
    if let Err(e) = std::fs::create_dir_all(&workdir).and_then(|_| std::fs::create_dir_all(&o.out))
    {
        fatal(&format!("cannot create {}: {e}", o.out.display()));
    }
    let window = Duration::from_secs_f64(o.seconds.unwrap_or(if o.smoke { 1.0 } else { 20.0 }));
    let warmup = Duration::from_secs_f64(if o.smoke { 0.5 } else { 2.0 });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut all_ok = true;
    let mut total = (0u64, 0u64);
    let mut lines: Vec<report::MetricRecord> = Vec::new();
    for &w in &o.workloads {
        let started_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let stream = Stream::generate(w, o.seed);
        let digest = stream.digest();
        let audit = stream.audit_keys(o.seed);
        let plan = Plan {
            warmup,
            window,
            trace: o.trace,
            epoch: Instant::now(),
        };
        let result = match &stream {
            Stream::Serve(s) => run_serve(
                w, s, &stream, &audit, &plan, &tools, &workdir, threads, o.seed,
            ),
            Stream::General(sets) => run_general(sets, &audit, &plan, threads, o.seed),
        };
        let out = result.unwrap_or_else(|e| fatal(&format!("{}: {e}", w.name())));
        let correct = out.failed == 0;
        let defs = if o.trace { PER_LAYER } else { END_TO_END };
        let records = out.metrics.records(defs);
        println!(
            "== {} (seed {}, {:.0} s window{}) ==",
            w.name(),
            o.seed,
            window.as_secs_f64(),
            if o.trace { ", traced" } else { "" }
        );
        for m in &records {
            println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
        }
        for f in out.failures.iter().take(10) {
            println!("  FAILED: {f}");
        }
        if !o.smoke && !o.trace && out.samples < MIN_TAIL_SAMPLES {
            println!(
                "  NOTE: {} latency samples; p99 needs {MIN_TAIL_SAMPLES} for 10 beyond it",
                out.samples
            );
        }
        let file = ResultFile {
            schema: report::SCHEMA.into(),
            mode: if o.smoke { "smoke" } else { "measured" }.into(),
            trace: o.trace,
            workload: w.name().into(),
            seed: o.seed,
            window_s: window.as_secs_f64(),
            available_parallelism: threads as u64,
            git_rev: git_rev(),
            workload_digest: format!("{digest:016x}"),
            started_unix_ms,
            samples: out.samples,
            attempted: out.attempted,
            failed: out.failed,
            correct,
            failures: out.failures.clone(),
            metrics: out
                .metrics
                .records(END_TO_END)
                .into_iter()
                .chain(out.metrics.records(PER_LAYER))
                .collect(),
        };
        let name = format!(
            "{}-{}{}-seed{}-{}.json",
            w.name(),
            file.mode,
            if o.trace { "-trace" } else { "" },
            o.seed,
            started_unix_ms
        );
        match serde_json::to_string_pretty(&file) {
            Ok(json) => {
                if let Err(e) = std::fs::write(o.out.join(&name), json + "\n") {
                    fatal(&format!("cannot write result file: {e}"));
                }
            }
            Err(e) => fatal(&format!("cannot serialize result file: {e}")),
        }
        all_ok &= correct;
        total.0 += out.attempted;
        total.1 += out.failed;
        if o.workloads.len() == 1 {
            lines = records;
        } else {
            lines.extend(records.into_iter().map(|mut m| {
                m.name = format!("{}/{}", w.name(), m.name);
                m
            }));
        }
    }
    println!(
        "{}",
        report::json_line(all_ok, total.0.max(1), total.1, &lines)
    );
    std::process::exit(if all_ok { 0 } else { 1 });
}

fn fatal(msg: &str) -> ! {
    eprintln!("cst_bench: {msg}");
    std::process::exit(2);
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// One kind of latency sample from all of a window's callers, in µs,
/// ascending.
fn lat_us(logs: &[CallerLog], kind: fn(&CallerLog) -> &Vec<u64>) -> Vec<f64> {
    let mut v: Vec<f64> = logs
        .iter()
        .flat_map(kind)
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Traced over interleaved untraced `latency_p50_us`.
fn overhead_ratio(logs: &[CallerLog]) -> f64 {
    let traced = lat_us(logs, |l| &l.traced_lat_ns);
    let paired = lat_us(logs, |l| &l.paired_lat_ns);
    ratio(percentile(&traced, 0.5), percentile(&paired, 0.5))
}

fn median_self_us(logs: &[&[trace::Span]], name: &str) -> f64 {
    trace::self_us_by_name(logs)
        .get(name)
        .map_or(0.0, |v| median(v))
}

/// What one workload run produced.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Latency samples in the window.
    samples: u64,
}

impl Outcome {
    /// Latency, throughput and failure counts of one window's callers.
    fn from_window(logs: &[CallerLog], window: Duration) -> Outcome {
        let mut metrics = Metrics::default();
        let lat = lat_us(logs, |l| &l.lat_ns);
        metrics.set_from("latency_p50_us", percentile(&lat, 0.50), &lat);
        metrics.set_from("latency_p99_us", percentile(&lat, 0.99), &lat);
        let mut per_second = vec![
            0.0;
            logs.iter()
                .map(|l| l.per_second_ok.len())
                .max()
                .unwrap_or(0)
        ];
        for l in logs {
            for (total, &ok) in per_second.iter_mut().zip(&l.per_second_ok) {
                *total += ok as f64;
            }
        }
        let window_ok: u64 = logs.iter().map(|l| l.window_ok).sum();
        metrics.set_from(
            "routes_per_s",
            window_ok as f64 / window.as_secs_f64(),
            &per_second,
        );
        Outcome {
            metrics,
            attempted: logs.iter().map(|l| l.attempted).sum(),
            failed: logs.iter().map(|l| l.failed).sum(),
            failures: logs.iter().flat_map(|l| l.errors.iter().cloned()).collect(),
            samples: lat.len() as u64,
        }
    }

    /// Count failures found after the window (gates, audit, replay).
    fn fail(&mut self, failures: impl IntoIterator<Item = String>) {
        for f in failures {
            self.failed += 1;
            self.failures.push(f);
        }
    }

    fn audited(&mut self, a: audit::Audit) {
        self.metrics.set("rounds_per_route", a.rounds_per_route);
        self.metrics
            .set("power_units_per_route", a.power_units_per_route);
        self.fail(a.failures);
    }

    /// The success ratio every failure counts against; set last.
    fn finish(mut self) -> Outcome {
        let rate = ratio(self.failed as f64, self.attempted as f64);
        self.metrics.set("success_ratio", 1.0 - rate);
        self.metrics.set("error_rate", rate);
        self
    }
}

fn hashes(logs: &[CallerLog]) -> Vec<(u32, u64)> {
    logs.iter().flat_map(|l| l.hashes.iter().copied()).collect()
}

fn spans(logs: &[CallerLog]) -> Vec<&[trace::Span]> {
    logs.iter().map(|l| l.spans.as_slice()).collect()
}

#[allow(clippy::too_many_arguments)]
fn run_serve(
    w: Workload,
    s: &ServeStream,
    stream: &Stream,
    audit: &[bool],
    plan: &Plan,
    tools: &Path,
    workdir: &Path,
    threads: usize,
    seed: u64,
) -> Result<Outcome, String> {
    // Set-up: launch -> bind -> ready -> first successful response.
    let setup = |k: usize| -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let d = Daemon::start(tools, workdir, &format!("{}-{k}", std::process::id()))?;
        let mut conn = d.connect()?;
        match conn.round_trip(s, &s.frames[0], 0, None)? {
            cst_serve::Response::Error(e) => Err(format!("first request failed: {e}")),
            _ => Ok((d, t0.elapsed().as_secs_f64())),
        }
    };
    // The last daemon started before the window serves it.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for k in 0..SETUPS_BEFORE {
        drop(daemon.take());
        let (d, secs) = setup(k)?;
        setup_s.push(secs);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let run = serve::run_window(&daemon, s, plan);
    let peak_rss_mb = daemon.peak_rss_mb().unwrap_or(0.0);
    drop(daemon);
    for k in SETUPS_BEFORE..SETUPS_BEFORE + SETUPS_AFTER {
        setup_s.push(setup(k)?.1);
    }

    let logs = &run.logs;
    let mut out = Outcome::from_window(logs, plan.window);
    let m = &mut out.metrics;
    m.set_from("setup_s", median(&setup_s), &setup_s);
    m.set("peak_rss_mb", peak_rss_mb);
    // Counter conservation over the window's stats delta.
    let broken = match &run.stats {
        Some((s0, s1)) => {
            let d = serve::delta(s0, s1);
            let lookups = (d.cache.hits + d.cache.misses) as f64;
            let requests = d.requests as f64;
            m.set("shard.hit_ratio", ratio(d.cache.hits as f64, lookups));
            m.set(
                "shard.tier_hit_ratio",
                ratio(d.cache.tier_hits as f64, lookups),
            );
            m.set(
                "shard.evictions_per_route",
                ratio(d.cache.evictions as f64, requests),
            );
            m.set("shard.collisions", d.cache.collisions as f64);
            m.set(
                "flight.coalesced_ratio",
                ratio(d.coalesced_waits as f64, requests),
            );
            m.set(
                "flight.computations_per_route",
                ratio(d.computations as f64, requests),
            );
            m.set("batch.coalesced_ratio", ratio(d.coalesced as f64, requests));
            let items_sent = logs.iter().map(|l| l.window_items_sent).sum();
            serve::conservation(&d, s1, items_sent)
        }
        None => vec!["stats snapshots around the window are missing".into()],
    };
    out.fail(
        broken
            .into_iter()
            .map(|b| format!("counter conservation: {b}")),
    );
    out.audited(audit::audit_serve(
        s,
        &stream.item_keys(),
        audit,
        &hashes(logs),
        threads,
    ));

    if plan.trace {
        let spans = spans(logs);
        let m = &mut out.metrics;
        let encode = if w == Workload::ServeBatch {
            "encode_batch_masked_request"
        } else {
            "encode_route_request"
        };
        m.set("client.encode_us", median_self_us(&spans, encode));
        m.set("client.write_us", median_self_us(&spans, "write_frame"));
        m.set("client.wait_us", median_self_us(&spans, "read_frame"));
        m.set(
            "client.decode_us",
            median_self_us(&spans, "decode_response"),
        );
        let bytes = |f: fn(&CallerLog) -> &Vec<f64>| {
            mean(&logs.iter().flat_map(f).copied().collect::<Vec<_>>())
        };
        m.set("wire.request_bytes", bytes(|l| &l.req_bytes));
        m.set("wire.response_bytes", bytes(|l| &l.resp_bytes));
        m.set("trace.overhead_ratio", overhead_ratio(logs));

        let r = replay::replay(s, replay_frames(w), plan.epoch);
        for class in ["hit", "miss", "batch"] {
            let mut v = r.handle_us.get(class).cloned().unwrap_or_default();
            v.sort_by(f64::total_cmp);
            m.set_from(
                &format!("server.handle_frame_{class}_p50_us"),
                percentile(&v, 0.5),
                &v,
            );
            m.set_from(
                &format!("server.handle_frame_{class}_p99_us"),
                percentile(&v, 0.99),
                &v,
            );
            let (spans_ns, handle_ns) = r.coverage.get(class).copied().unwrap_or_default();
            let coverage = ratio(spans_ns as f64, handle_ns as f64);
            m.set(&format!("server.span_coverage_{class}"), coverage);
            if handle_ns > 0 && !(COVERAGE_BAND.0..=COVERAGE_BAND.1).contains(&coverage) {
                println!(
                    "  NOTE: {class} span coverage {coverage:.3} is outside [{}, {}]",
                    COVERAGE_BAND.0, COVERAGE_BAND.1
                );
            }
        }
        m.set("replay.payload_mismatches", r.mismatches as f64);
        let mut hit_wait: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.hit_wait_us.iter().copied())
            .collect();
        hit_wait.sort_by(f64::total_cmp);
        if !hit_wait.is_empty() {
            m.set(
                "transport.gap_us",
                percentile(&hit_wait, 0.5) - m.get("server.handle_frame_hit_p50_us"),
            );
        }
        let response = if w == Workload::ServeBatch {
            "encode_batch_response"
        } else {
            "encode_route_response"
        };
        for (metric, span) in [
            ("wire.decode_request_us", "decode_request"),
            ("engine.fingerprint_us", "request_fingerprint"),
            ("shard.tier_probe_us", "lookup_payload_tier"),
            ("flight.join_us", "SingleFlight::join"),
            ("shard.locked_probe_us", "lookup_payload"),
            ("registry.find_us", "cst_engine::find"),
            ("engine.route_us", "EngineCtx::route"),
            ("degrade.route_masked_us", "EngineCtx::route_masked"),
            ("encode.schedule_json_us", "serde_json::to_string"),
            ("encode.payload_us", "encode_payload"),
            ("shard.insert_us", "insert_with_payload"),
            ("encode.response_us", response),
        ] {
            m.set(metric, median_self_us(&[&r.spans], span));
        }
        m.set("csa.validate_us", median(&r.csa_validate_us));
        m.set("csa.phase1_us", median(&r.csa_phase1_us));
        m.set("csa.rounds_us", median(&r.csa_rounds_us));
        if r.mismatches > 0 {
            out.fail([format!(
                "replay: {} of {} frames differ from handle_frame",
                r.mismatches, r.frames
            )]);
        }
        let path = Path::new(WORKDIR).join(format!("spans-{}-seed{seed}.json", w.name()));
        write_spans(&path, "client", &spans, ("server-replay", &r.spans))?;
    }
    Ok(out.finish())
}

fn run_general(
    sets: &[cst_core::GeneralCommSet],
    audit: &[bool],
    plan: &Plan,
    threads: usize,
    seed: u64,
) -> Result<Outcome, String> {
    let topos = engine::Topos::for_sets(sets);
    let mut setup_s = (0..SETUPS_BEFORE)
        .map(|_| engine::setup_once(sets, &topos))
        .collect::<Result<Vec<f64>, _>>()?;
    let logs = engine::run_window(sets, &topos, plan);
    let peak_rss_mb = serve::peak_rss_mb("/proc/self/status").unwrap_or(0.0);
    for _ in 0..SETUPS_AFTER {
        setup_s.push(engine::setup_once(sets, &topos)?);
    }

    let mut out = Outcome::from_window(&logs, plan.window);
    out.metrics.set_from("setup_s", median(&setup_s), &setup_s);
    out.metrics.set("peak_rss_mb", peak_rss_mb);
    out.audited(audit::audit_general(sets, audit, &hashes(&logs), threads));

    if plan.trace {
        let m = &mut out.metrics;
        m.set("trace.overhead_ratio", overhead_ratio(&logs));
        let d = engine::decomposition_trace(sets, &topos, DECOMP_SAMPLES, plan.epoch);
        m.set_from(
            "decomp.decompose_ms",
            median(&d.decompose_ms),
            &d.decompose_ms,
        );
        m.set_from(
            "decomp.certificate_ms",
            median(&d.certificate_ms),
            &d.certificate_ms,
        );
        m.set_from("decomp.coloring_ms", median(&d.coloring_ms), &d.coloring_ms);
        m.set_from(
            "general.route_layers_ms",
            median(&d.route_layers_ms),
            &d.route_layers_ms,
        );
        m.set("decomp.layers_over_bound", mean(&d.layers_over_bound));
        m.set("decomp.proven_optimal_ratio", mean(&d.proven_optimal));
        m.set(
            "decomp.share_of_latency",
            ratio(m.get("decomp.decompose_ms") * 1e3, m.get("latency_p50_us")),
        );
        let path = Path::new(WORKDIR).join(format!("spans-engine-general-seed{seed}.json"));
        write_spans(&path, "caller", &spans(&logs), ("decomposition", &d.spans))?;
    }
    Ok(out.finish())
}

/// Write the callers' spans and one in-process replay's spans to
/// `path`, and print where the time went: per span name, the calls and
/// the median and total self time.
fn write_spans(
    path: &Path,
    caller: &str,
    callers: &[&[trace::Span]],
    replay: (&str, &[trace::Span]),
) -> Result<(), String> {
    let mut groups: Vec<(String, &[trace::Span])> = callers
        .iter()
        .enumerate()
        .map(|(c, s)| (format!("{caller}-{c}"), *s))
        .collect();
    groups.push((replay.0.to_string(), replay.1));
    trace::write_json(path, &groups)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    for (source, logs) in [(caller, callers), (replay.0, &[replay.1][..])] {
        println!("  -- {source} spans: self time per call --");
        for (name, v) in trace::self_us_by_name(logs) {
            println!(
                "  {:<36} {:>8} calls  p50 {:>10.2} us  total {:>12.1} us",
                name,
                v.len(),
                median(&v),
                v.iter().sum::<f64>()
            );
        }
    }
    Ok(())
}
