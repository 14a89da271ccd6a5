//! Serve workloads: the real `cst-tools serve` daemon over a Unix
//! socket, driven by a closed loop of two callers that share one
//! pre-generated stream through an atomic index.
//!
//! The daemon serves one connection per worker thread, so the run never
//! opens a third connection while both callers are connected: the stats
//! snapshots that bracket the window go over caller 0's connection while
//! caller 1 waits at a barrier, which also makes them quiescent (every
//! counter a request bumps is bumped before its response is written).

use crate::trace::{Recorder, Span, ROOT};
use crate::workload::{Frame, ServeStream};
use cst_serve::wire::{
    decode_response, encode_batch_masked_request, encode_route_request, encode_stats_request,
    read_frame, write_frame, Response, DEFAULT_MAX_FRAME,
};
use cst_serve::ServeStats;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Callers in the closed loop (each blocks for its reply).
pub const CALLERS: usize = 2;
/// Traced frames kept per caller; later frames run untraced.
pub const TRACE_CAP: usize = 5_000;
/// The daemon exits on its own after this long, should the benchmark
/// die without stopping it.
const WATCHDOG_S: &str = "200";

/// One spawned daemon. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    sock: PathBuf,
    ready: PathBuf,
}

impl Daemon {
    /// Spawn `cst-tools serve` on a fresh socket under `workdir` and wait
    /// until it reports ready.
    pub fn start(tools: &Path, workdir: &Path, tag: &str) -> Result<Daemon, String> {
        let sock = workdir.join(format!("{tag}.sock"));
        let ready = workdir.join(format!("{tag}.ready"));
        let _ = std::fs::remove_file(&ready);
        let child = Command::new(tools)
            .arg("serve")
            .arg("--unix")
            .arg(&sock)
            .args(["--workers", "2", "--cache-cap", "256", "--shard-bits", "2"])
            .arg("--ready-file")
            .arg(&ready)
            .args(["--max-seconds", WATCHDOG_S])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", tools.display()))?;
        let mut daemon = Daemon { child, sock, ready };
        let deadline = Instant::now() + Duration::from_secs(20);
        while !daemon.ready.exists() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited before ready: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon not ready after 20 s".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(daemon)
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.sock).map_err(|e| format!("connect: {e}"))?;
        Ok(Conn {
            stream,
            send: Vec::new(),
            recv: Vec::new(),
        })
    }

    /// Peak resident set (`VmHWM`) of the daemon, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
        let _ = std::fs::remove_file(&self.ready);
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One client connection with reusable buffers, speaking the wire
/// protocol through its public functions.
pub struct Conn {
    stream: UnixStream,
    send: Vec<u8>,
    recv: Vec<u8>,
}

fn step<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    parent: u32,
    req: u64,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(r) => r.time(name, parent, req, f),
        None => f(),
    }
}

impl Conn {
    /// Send one stream frame and read its response. With a recorder,
    /// each wire call becomes a child span of one `round_trip` span.
    pub fn round_trip(
        &mut self,
        stream: &ServeStream,
        frame: &Frame,
        req: u64,
        mut rec: Option<&mut Recorder>,
    ) -> Result<Response, String> {
        let root = rec
            .as_mut()
            .map_or(ROOT, |r| r.open("round_trip", ROOT, req));
        let Conn {
            stream: sock,
            send,
            recv,
        } = self;
        match frame {
            Frame::Route(k) => {
                let r = &stream.reqs[*k as usize];
                step(&mut rec, "encode_route_request", root, req, || {
                    encode_route_request(send, r.router, &r.set, r.mask.as_ref())
                });
            }
            Frame::Batch { items, .. } => {
                step(&mut rec, "encode_batch_masked_request", root, req, || {
                    encode_batch_masked_request(send, "csa", items)
                });
            }
        }
        step(&mut rec, "write_frame", root, req, || {
            write_frame(sock, send)
        })
        .map_err(|e| format!("write: {e}"))?;
        let got = step(&mut rec, "read_frame", root, req, || {
            read_frame(sock, recv, DEFAULT_MAX_FRAME)
        })
        .map_err(|e| format!("read: {e}"))?;
        if !got {
            return Err("daemon closed the connection".into());
        }
        let resp = step(&mut rec, "decode_response", root, req, || {
            decode_response(recv)
        })
        .map_err(|e| format!("decode: {e}"))?;
        if let Some(r) = rec {
            r.close(root);
        }
        Ok(resp)
    }

    pub fn stats(&mut self) -> Result<ServeStats, String> {
        encode_stats_request(&mut self.send);
        write_frame(&mut self.stream, &self.send).map_err(|e| format!("write: {e}"))?;
        if !read_frame(&mut self.stream, &mut self.recv, DEFAULT_MAX_FRAME)
            .map_err(|e| format!("read: {e}"))?
        {
            return Err("daemon closed the connection".into());
        }
        match decode_response(&self.recv).map_err(|e| format!("decode: {e}"))? {
            Response::Stats(s) => Ok(s),
            _ => Err("expected a Stats response".into()),
        }
    }

    /// Bytes of the last request and response frames, headers included.
    pub fn last_frame_bytes(&self) -> (usize, usize) {
        (self.send.len() + 4, self.recv.len() + 4)
    }
}

/// Fast 64-bit hash of a response payload, used to check that every
/// response to one key carries the same bytes.
pub fn payload_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = [K, K ^ 1, K ^ 2, K ^ 3];
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        for (lane, w) in h.iter_mut().zip(c.chunks_exact(8)) {
            let word = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ word).wrapping_mul(K).rotate_left(29);
        }
    }
    let mut tail = [0u8; 32];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    let mut out = bytes.len() as u64;
    for (lane, w) in h.iter().zip(tail.chunks_exact(8)) {
        let word = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        out = (out ^ lane ^ word).wrapping_mul(K).rotate_left(31);
    }
    out
}

/// What the items of one response did.
#[derive(Default)]
pub struct Served {
    pub ok: u64,
    pub failed: u64,
    /// The frame was a Route answered from the cache.
    pub cached_route: bool,
}

/// Everything one caller observed. Engine-general callers leave the
/// wire fields empty.
#[derive(Default)]
pub struct CallerLog {
    /// Round-trip times of untraced window frames (the first half, in a
    /// traced run).
    pub lat_ns: Vec<u64>,
    /// Round-trip times of traced frames, and of the untraced frames
    /// interleaved with them.
    pub traced_lat_ns: Vec<u64>,
    pub paired_lat_ns: Vec<u64>,
    /// Items sent during the window (whether or not they completed in it).
    pub window_items_sent: u64,
    /// Successful items completed inside the window.
    pub window_ok: u64,
    /// Successful items completed in each second of the window.
    pub per_second_ok: Vec<u64>,
    /// Items attempted and failed over warm-up and window.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// `(key, payload hash)` of every served item.
    pub hashes: Vec<(u32, u64)>,
    pub spans: Vec<Span>,
    /// Request and response frame bytes of window frames.
    pub req_bytes: Vec<f64>,
    pub resp_bytes: Vec<f64>,
    /// `read_frame` time of traced Route frames answered from the cache.
    pub hit_wait_us: Vec<f64>,
}

impl CallerLog {
    pub fn push_latency(&mut self, sample: Sample, rtt_ns: u64) {
        match sample {
            Sample::Untraced => self.lat_ns.push(rtt_ns),
            Sample::Traced => self.traced_lat_ns.push(rtt_ns),
            Sample::Paired => self.paired_lat_ns.push(rtt_ns),
            Sample::Dropped => {}
        }
    }

    fn record(&mut self, frame: &Frame, resp: Response) -> Served {
        let mut served = Served::default();
        let keys = frame.keys();
        match (frame, resp) {
            (Frame::Route(key), Response::Route(reply)) => {
                served.ok = 1;
                served.cached_route = reply.cached;
                self.hashes.push((*key, payload_hash(&reply.payload)));
            }
            (Frame::Batch { .. }, Response::Batch(items)) if items.len() == keys.len() => {
                for (&key, item) in keys.iter().zip(items) {
                    match item {
                        Ok(reply) => {
                            served.ok += 1;
                            self.hashes.push((key, payload_hash(&reply.payload)));
                        }
                        Err(e) => {
                            served.failed += 1;
                            self.errors.push(format!("batch item error: {e}"));
                        }
                    }
                }
            }
            (_, Response::Error(e)) => {
                served.failed = keys.len() as u64;
                self.errors.push(format!("error frame: {e}"));
            }
            _ => {
                served.failed = keys.len() as u64;
                self.errors
                    .push("response kind does not match the request".into());
            }
        }
        served
    }
}

/// Timing plan of one closed-loop run.
pub struct Plan {
    pub warmup: Duration,
    pub window: Duration,
    /// Trace in the second half of the window.
    pub trace: bool,
    pub epoch: Instant,
}

/// What a window frame contributes to the latency samples.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Sample {
    Untraced,
    Traced,
    /// Untraced, between two traced frames: the overhead baseline.
    Paired,
    /// Past the trace cap.
    Dropped,
}

/// Decides, frame by frame, which frames a caller traces: none in the
/// first half of the window; in the second half every other frame,
/// until [`TRACE_CAP`] are traced. Comparing traced frames with the
/// untraced ones between them measures tracing overhead within the
/// same seconds, free of the host's drift.
pub struct Tracing {
    from: Instant,
    seen: usize,
}

impl Tracing {
    pub fn new(plan: &Plan, start: Instant) -> Tracing {
        let half = if plan.trace {
            plan.window / 2
        } else {
            plan.window
        };
        Tracing {
            from: start + half,
            seen: 0,
        }
    }

    pub fn sample(&mut self, t0: Instant) -> Sample {
        if t0 < self.from {
            return Sample::Untraced;
        }
        if self.seen >= 2 * TRACE_CAP {
            return Sample::Dropped;
        }
        self.seen += 1;
        if self.seen % 2 == 1 {
            Sample::Traced
        } else {
            Sample::Paired
        }
    }
}

/// Result of [`run_window`].
pub struct WindowRun {
    pub logs: Vec<CallerLog>,
    /// Stats snapshots bracketing the window, when both could be taken.
    pub stats: Option<(ServeStats, ServeStats)>,
}

/// Warm up, then measure one window with [`CALLERS`] callers.
pub fn run_window(daemon: &Daemon, stream: &ServeStream, plan: &Plan) -> WindowRun {
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(CALLERS);
    let snapshots: Mutex<Vec<ServeStats>> = Mutex::new(Vec::new());
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|c| {
                let (next, barrier, snapshots) = (&next, &barrier, &snapshots);
                scope.spawn(move || caller(c, daemon, stream, plan, next, barrier, snapshots))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let snaps = snapshots
        .into_inner()
        .expect("no caller panicked holding the lock");
    let stats = match <[ServeStats; 2]>::try_from(snaps) {
        Ok([s0, s1]) => Some((s0, s1)),
        Err(_) => None,
    };
    WindowRun { logs, stats }
}

fn caller(
    c: usize,
    daemon: &Daemon,
    stream: &ServeStream,
    plan: &Plan,
    next: &AtomicUsize,
    barrier: &Barrier,
    snapshots: &Mutex<Vec<ServeStats>>,
) -> CallerLog {
    let mut log = CallerLog::default();
    let mut rec = Recorder::new(plan.epoch);
    let mut conn = match daemon.connect() {
        Ok(conn) => Some(conn),
        Err(e) => {
            log.errors.push(e);
            None
        }
    };
    let send = |log: &mut CallerLog,
                conn: &mut Option<Conn>,
                rec: Option<&mut Recorder>|
     -> Option<(Served, usize)> {
        let cur = conn.as_mut()?;
        let i = next.fetch_add(1, Ordering::Relaxed);
        let frame = &stream.frames[i % stream.frames.len()];
        let items = frame.keys().len();
        log.attempted += items as u64;
        match cur.round_trip(stream, frame, i as u64, rec) {
            Ok(resp) => {
                let served = log.record(frame, resp);
                log.failed += served.failed;
                Some((served, items))
            }
            Err(e) => {
                log.failed += items as u64;
                log.errors.push(e);
                *conn = None;
                None
            }
        }
    };

    let warm_end = Instant::now() + plan.warmup;
    while Instant::now() < warm_end {
        if send(&mut log, &mut conn, None).is_none() && conn.is_none() {
            break;
        }
    }

    barrier.wait();
    if c == 0 {
        snapshot(&mut conn, &mut log, snapshots);
    }
    barrier.wait();

    if plan.trace {
        rec.spans.reserve(TRACE_CAP * 5);
    }
    let start = Instant::now();
    let end = start + plan.window;
    let mut tracing = Tracing::new(plan, start);
    log.per_second_ok = vec![0; plan.window.as_secs().max(1) as usize];
    loop {
        let t0 = Instant::now();
        if t0 >= end || conn.is_none() {
            break;
        }
        let sample = tracing.sample(t0);
        let traced = sample == Sample::Traced;
        let first_span = rec.spans.len();
        let Some((served, items)) = send(&mut log, &mut conn, traced.then_some(&mut rec)) else {
            continue;
        };
        let t1 = Instant::now();
        log.window_items_sent += items as u64;
        if t1 > end {
            continue;
        }
        log.window_ok += served.ok;
        let sec = ((t1 - start).as_secs() as usize).min(log.per_second_ok.len() - 1);
        log.per_second_ok[sec] += served.ok;
        let rtt = (t1 - t0).as_nanos() as u64;
        if let Some(cur) = conn.as_ref() {
            let (rq, rs) = cur.last_frame_bytes();
            log.req_bytes.push(rq as f64);
            log.resp_bytes.push(rs as f64);
        }
        log.push_latency(sample, rtt);
        if traced && served.cached_route {
            if let Some(read) = rec.spans[first_span..]
                .iter()
                .find(|s| s.name == "read_frame")
            {
                log.hit_wait_us.push(read.dur_ns() as f64 / 1e3);
            }
        }
    }

    barrier.wait();
    if c == 0 {
        snapshot(&mut conn, &mut log, snapshots);
    }
    log.spans = rec.spans;
    log
}

fn snapshot(conn: &mut Option<Conn>, log: &mut CallerLog, snapshots: &Mutex<Vec<ServeStats>>) {
    let Some(cur) = conn.as_mut() else { return };
    match cur.stats() {
        Ok(s) => snapshots.lock().expect("snapshot lock").push(s),
        Err(e) => log.errors.push(format!("stats: {e}")),
    }
}

/// Field-wise `after - before` of two snapshots (configuration fields
/// and resident counts are taken from `after`).
pub fn delta(before: &ServeStats, after: &ServeStats) -> ServeStats {
    fn cache(b: &cst_engine::CacheStats, a: &cst_engine::CacheStats) -> cst_engine::CacheStats {
        cst_engine::CacheStats {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            evictions: a.evictions - b.evictions,
            collisions: a.collisions - b.collisions,
            tier_hits: a.tier_hits - b.tier_hits,
            entries: a.entries,
            capacity: a.capacity,
        }
    }
    ServeStats {
        connections: after.connections - before.connections,
        frames: after.frames - before.frames,
        requests: after.requests - before.requests,
        responses: after.responses - before.responses,
        errors: after.errors - before.errors,
        coalesced: after.coalesced - before.coalesced,
        resets: after.resets - before.resets,
        workers: after.workers,
        computations: after.computations - before.computations,
        singleflight_leaders: after.singleflight_leaders - before.singleflight_leaders,
        coalesced_waits: after.coalesced_waits - before.coalesced_waits,
        cache: cache(&before.cache, &after.cache),
        shards: before
            .shards
            .iter()
            .zip(&after.shards)
            .map(|(b, a)| cache(b, a))
            .collect(),
    }
}

/// The counter conservation equalities over one window's stats delta.
/// Returns one message per broken equality.
pub fn conservation(d: &ServeStats, after: &ServeStats, items_sent: u64) -> Vec<String> {
    let mut broken = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            broken.push(what);
        }
    };
    let c = &d.cache;
    check(
        c.hits + c.misses + d.coalesced_waits == d.requests - d.coalesced,
        format!(
            "hits {} + misses {} + coalesced_waits {} != requests {} - coalesced {}",
            c.hits, c.misses, d.coalesced_waits, d.requests, d.coalesced
        ),
    );
    if d.errors == 0 {
        check(
            d.computations == c.misses,
            format!(
                "computations {} != cache misses {} on an error-free window",
                d.computations, c.misses
            ),
        );
    }
    check(
        c.tier_hits <= c.hits,
        format!("tier_hits {} > hits {}", c.tier_hits, c.hits),
    );
    for (name, total, parts) in [
        ("hits", c.hits, d.shards.iter().map(|s| s.hits).sum::<u64>()),
        ("misses", c.misses, d.shards.iter().map(|s| s.misses).sum()),
        (
            "evictions",
            c.evictions,
            d.shards.iter().map(|s| s.evictions).sum(),
        ),
        (
            "collisions",
            c.collisions,
            d.shards.iter().map(|s| s.collisions).sum(),
        ),
        (
            "tier_hits",
            c.tier_hits,
            d.shards.iter().map(|s| s.tier_hits).sum(),
        ),
        (
            "entries",
            after.cache.entries as u64,
            after.shards.iter().map(|s| s.entries as u64).sum(),
        ),
    ] {
        check(
            total == parts,
            format!("shard {name} sum {parts} != aggregate {total}"),
        );
    }
    check(
        d.requests == items_sent,
        format!(
            "server admitted {} items, callers sent {items_sent}",
            d.requests
        ),
    );
    broken
}
