//! The daemon: listener, worker pool, and the per-frame serving core.
//!
//! One [`Server`] owns `workers` OS threads. Each worker pins a private
//! [`WorkerCore`] — an [`EngineCtx`] (already allocation-free on the warm
//! serial-CSA path) plus decode scratch — and accepts connections from a
//! shared listener (`try_clone`d, so the kernel load-balances accepts).
//! A connection is served by one worker, frame by frame, until EOF.
//!
//! Cross-worker state lives in [`ServeShared`]: the sharded payload
//! cache ([`ShardedScheduleCache`], which answers warm repeats under a
//! shard's shared read lock), the cross-connection
//! [`SingleFlight`] table, and the atomic [`ServeCounters`]. Workers
//! never share routing scratch, so the engine's single-caller
//! invariants hold per-thread by construction; the stress suite
//! (`tests/serve_stress.rs`) then pins the *combined* behavior:
//! every concurrent response byte-identical to a fresh single-caller
//! `EngineCtx` on the same request.
//!
//! # The serve path, in order
//!
//! Each route item takes three steps, cheapest first:
//!
//! 1. **First probe** — the shard's LRU under its read lock. Warm
//!    repeats end here: shared read, full-key probe, recency stamp,
//!    `Arc` clone — no exclusive lock, no allocation. A hit counts in
//!    `hits` and `tier_hits`; a miss counts nothing yet.
//! 2. **Single-flight join** — on a first-probe miss the worker joins
//!    the in-flight table for the fingerprint. If another connection is
//!    already computing the same full key, this one parks on the
//!    flight's condvar and is served the leader's payload
//!    (`coalesced_waits`), never touching the cache.
//! 3. **Counted probe + route** — the join winner (leader) probes the
//!    shard again, this time counting a hit or a miss; on a genuine miss
//!    it routes (`computations`, `singleflight_leaders`), inserts the
//!    payload under the shard's write lock *and then* completes the
//!    flight, so any latecomer is guaranteed either the flight's payload
//!    or a cache hit — exactly one computation per concurrently-demanded
//!    key. A leader that fails (route error, panic) fails the flight;
//!    waiters wake into a counted probe and route solo, so the error
//!    path adds latency but never wrong bytes or a hang.
//!
//! Shutdown is cooperative: a flag plus one wake-connection per worker;
//! workers drain their current connection (read timeouts bound the
//! wait) and exit.

use crate::stats::{ServeCounters, ServeStats};
use crate::wire::{
    encode_batch_response, encode_error_response, encode_outcome_payload, encode_reset_response,
    encode_route_response, encode_stats_response, fit_frame_buf, take_mask, take_set,
    write_frame_parts, BodySink, ErrorCode, ErrorFrame, Reply, ServedItem, MAX_WIRE_LEAVES,
    REQ_BATCH, REQ_RESET, REQ_ROUTE, REQ_STATS,
};
use cst_comm::CommSet;
use cst_core::wire::{WireCursor, WireError};
use cst_core::{CstTopology, FaultMask};
use cst_engine::{request_fingerprint, EngineCtx, Joined, ShardedScheduleCache, SingleFlight};
use std::collections::HashMap;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads (each owns one `EngineCtx`).
    pub workers: usize,
    /// Total shared-cache capacity, split evenly across shards.
    pub cache_capacity: usize,
    /// `2^shard_bits` cache shards, addressed by fingerprint high bits.
    pub shard_bits: u32,
    /// Cap on one frame's body length, requests and responses alike.
    pub max_frame: usize,
    /// Socket read timeout; bounds how long a worker blocks on an idle
    /// connection before noticing shutdown.
    pub read_timeout_ms: u64,
    /// Effective fingerprint width. 64 in production; tests truncate it
    /// to force cache collisions under concurrency.
    #[doc(hidden)]
    pub cache_fp_bits: u32,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            cache_capacity: 256,
            shard_bits: 2,
            max_frame: crate::wire::DEFAULT_MAX_FRAME,
            read_timeout_ms: 50,
            cache_fp_bits: 64,
        }
    }
}

/// How long a coalesced waiter parks on a leader's flight before giving
/// up and routing solo. Routes complete in milliseconds; this bounds the
/// damage of a wedged leader without ever firing in healthy operation.
const FLIGHT_WAIT: Duration = Duration::from_secs(10);

/// State shared by every worker: the sharded cache, the single-flight
/// table, the counters, and the shutdown flag.
#[derive(Debug)]
pub struct ServeShared {
    /// The cross-worker payload cache.
    pub cache: ShardedScheduleCache,
    /// Cross-connection computation coalescing (one route per
    /// concurrently-demanded fingerprint).
    pub flights: SingleFlight,
    /// Live traffic counters.
    pub counters: ServeCounters,
    shutdown: AtomicBool,
    config: ServeConfig,
}

impl ServeShared {
    /// Fresh shared state for `config`.
    pub fn new(config: ServeConfig) -> ServeShared {
        ServeShared {
            cache: ShardedScheduleCache::with_fp_bits(
                config.cache_capacity,
                config.shard_bits,
                config.cache_fp_bits,
            ),
            flights: SingleFlight::new(),
            counters: ServeCounters::default(),
            shutdown: AtomicBool::new(false),
            config,
        }
    }

    /// The configuration this server was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Freeze all counters into a snapshot.
    pub fn stats(&self) -> ServeStats {
        ServeStats::snapshot(
            &self.counters,
            self.config.workers as u64,
            self.cache.stats(),
            self.cache.all_shard_stats(),
        )
    }

    /// Zero the counters and drop every cache entry (the `Reset` frame),
    /// then record the reset itself.
    pub fn reset(&self) {
        self.counters.reset();
        self.cache.clear();
        ServeCounters::bump(&self.counters.resets);
    }
}

/// One worker's private serving state: engine context, decode scratch,
/// and a handle to the shared state. `handle_frame` is the entire
/// request→response function, exposed so tests can drive it without
/// sockets (the allocation gate pins the warm cached path at 0 allocs).
pub struct WorkerCore {
    shared: Arc<ServeShared>,
    ctx: EngineCtx,
    /// Decoded request set (reused; `rebuild_from_pairs`).
    set: CommSet,
    /// Endpoint-role scratch for set validation.
    role: Vec<bool>,
    /// Decoded `(source, dest)` pairs.
    pairs: Vec<(usize, usize)>,
    /// Topology of the last request's size, rebuilt only when the leaf
    /// count changes.
    topo: Option<CstTopology>,
    /// Payload assembly buffer (miss path).
    payload_buf: Vec<u8>,
    /// In-frame duplicate finder for batch frames.
    batch_index: BatchIndex,
}

/// Finds, for each item of a batch frame, the first earlier item with
/// the same full key, in time linear in the batch. Keyed by request
/// fingerprint; kept across frames so a warm worker reuses its tables.
#[derive(Debug, Default)]
struct BatchIndex {
    /// Fingerprint -> the latest item that was the first of its key.
    head: HashMap<u64, usize>,
    /// `prior[i]`: the first-of-its-key item before item `i` with the
    /// same fingerprint. Only fingerprint collisions chain further.
    prior: Vec<Option<usize>>,
}

impl BatchIndex {
    /// Forget the last frame's items.
    fn clear(&mut self) {
        self.head.clear();
        self.prior.clear();
    }

    /// Admit the next item, fingerprint `fp`. Returns the earlier item
    /// it duplicates (`same(j)`: item `j` has its full key), or `None`
    /// after recording it as the first of its key.
    fn earlier(&mut self, fp: u64, same: impl Fn(usize) -> bool) -> Option<usize> {
        let mut at = self.head.get(&fp).copied();
        while let Some(j) = at {
            if same(j) {
                self.prior.push(None);
                return Some(j);
            }
            at = self.prior[j];
        }
        let i = self.prior.len();
        self.prior.push(self.head.insert(fp, i));
        None
    }
}

impl WorkerCore {
    /// A fresh core serving against `shared`.
    pub fn new(shared: Arc<ServeShared>) -> WorkerCore {
        WorkerCore {
            shared,
            ctx: EngineCtx::new(),
            set: CommSet::empty(0),
            role: Vec::new(),
            pairs: Vec::new(),
            topo: None,
            payload_buf: Vec::new(),
            batch_index: BatchIndex::default(),
        }
    }

    /// This worker's pooled `(round shells, schedule shells)`. Recycling
    /// eviction victims another worker routed never lifts it above the
    /// worker's own peak demand.
    pub fn pooled_shells(&self) -> (usize, usize) {
        self.ctx.pooled_shells()
    }

    /// Serve one request frame body, writing exactly one response frame
    /// body into `out`, payloads copied in. Never panics on arbitrary
    /// input: malformed or invalid requests become typed error frames.
    pub fn handle_frame(&mut self, body: &[u8], out: &mut Vec<u8>) {
        self.respond(body, out);
    }

    /// [`handle_frame`](Self::handle_frame) into any [`BodySink`]. The
    /// daemon passes a [`Reply`], which holds each served payload as its
    /// `Arc` instead of copying it.
    pub fn respond(&mut self, body: &[u8], out: &mut impl BodySink) {
        ServeCounters::bump(&self.shared.counters.frames);
        if let Err(err) = self.dispatch(body, out) {
            ServeCounters::bump(&self.shared.counters.errors);
            encode_error_response(out, &err);
        }
    }

    fn dispatch(&mut self, body: &[u8], out: &mut impl BodySink) -> Result<(), ErrorFrame> {
        let mut cur = WireCursor::new(body);
        let kind = cur.take_u8().map_err(bad_frame)?;
        match kind {
            REQ_ROUTE => self.dispatch_route(cur, out),
            REQ_BATCH => self.dispatch_batch(cur, out),
            REQ_STATS => {
                cur.expect_end().map_err(bad_frame)?;
                encode_stats_response(out, &self.shared.stats());
                Ok(())
            }
            REQ_RESET => {
                cur.expect_end().map_err(bad_frame)?;
                self.shared.reset();
                // Reset's own frame stays counted: bump after zeroing so
                // the double-run golden starts from a known state.
                ServeCounters::bump(&self.shared.counters.frames);
                encode_reset_response(out);
                Ok(())
            }
            _ => Err(ErrorFrame {
                code: ErrorCode::BadFrame,
                message: format!("unknown request kind 0x{kind:02x}"),
            }),
        }
    }

    /// Route request: decode into scratch (allocation-free when warm),
    /// then serve through the shared cache.
    fn dispatch_route(
        &mut self,
        mut cur: WireCursor<'_>,
        out: &mut impl BodySink,
    ) -> Result<(), ErrorFrame> {
        let router = cur.take_str().map_err(bad_frame)?;
        let num_leaves = cur.take_u64().map_err(bad_frame)?;
        if num_leaves > MAX_WIRE_LEAVES as u64 {
            return Err(ErrorFrame {
                code: ErrorCode::InvalidRequest,
                message: format!("num_leaves {num_leaves} exceeds the cap of {MAX_WIRE_LEAVES}"),
            });
        }
        let num_leaves = num_leaves as usize;
        let count = cur.take_u32().map_err(bad_frame)? as usize;
        self.pairs.clear();
        for _ in 0..count {
            let s = cur.take_u32().map_err(bad_frame)? as usize;
            let d = cur.take_u32().map_err(bad_frame)? as usize;
            self.pairs.push((s, d));
        }
        self.set
            .rebuild_from_pairs(num_leaves, self.pairs.iter().copied(), &mut self.role)
            .map_err(invalid)?;
        let mask = match cur.take_u8().map_err(bad_frame)? {
            0 => None,
            1 => {
                self.ensure_topo(num_leaves)?;
                let Some(topo) = self.topo.as_ref() else {
                    return Err(internal("topology missing after ensure"));
                };
                Some(take_mask(&mut cur, topo).map_err(bad_frame)?)
            }
            _ => return Err(bad_frame(WireError::Malformed("mask tag must be 0 or 1"))),
        };
        cur.expect_end().map_err(bad_frame)?;

        // Swap the scratch set out so `serve_one` can take `&mut self`
        // alongside it (moves Vec pointers, no allocation).
        let set = std::mem::replace(&mut self.set, CommSet::empty(0));
        let served = self.serve_one(router, &set, mask.as_ref());
        self.set = set;
        let (cached, payload) = served?;
        ServeCounters::bump(&self.shared.counters.responses);
        encode_route_response(out, cached, &payload);
        Ok(())
    }

    /// Batch request: decode all items (each with its own fault-mask
    /// tag, mirroring Route), then serve with fingerprint coalescing —
    /// an item identical to an earlier one in the same batch (same set
    /// *and* same mask) shares its payload `Arc` instead of re-probing
    /// or re-routing.
    fn dispatch_batch(
        &mut self,
        mut cur: WireCursor<'_>,
        out: &mut impl BodySink,
    ) -> Result<(), ErrorFrame> {
        let router = cur.take_str().map_err(bad_frame)?;
        let count = cur.take_u32().map_err(bad_frame)? as usize;
        let mut sets: Vec<CommSet> = Vec::with_capacity(count.min(1 << 16));
        let mut masks: Vec<Option<FaultMask>> = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let set = take_set(&mut cur).map_err(bad_frame)?;
            let mask = match cur.take_u8().map_err(bad_frame)? {
                0 => None,
                1 => {
                    self.ensure_topo(set.num_leaves())?;
                    let Some(topo) = self.topo.as_ref() else {
                        return Err(internal("topology missing after ensure"));
                    };
                    Some(take_mask(&mut cur, topo).map_err(bad_frame)?)
                }
                _ => {
                    return Err(bad_frame(WireError::Malformed(
                        "batch mask tag must be 0 or 1",
                    )))
                }
            };
            sets.push(set);
            masks.push(mask);
        }
        cur.expect_end().map_err(bad_frame)?;

        let mut items: Vec<ServedItem> = Vec::with_capacity(sets.len());
        self.batch_index.clear();
        for i in 0..sets.len() {
            let fp = request_fingerprint(router, &sets[i], masks[i].as_ref());
            if let Some(j) =
                self.batch_index.earlier(fp, |j| sets[j] == sets[i] && masks[j] == masks[i])
            {
                ServeCounters::bump(&self.shared.counters.requests);
                ServeCounters::bump(&self.shared.counters.coalesced);
                let item = match &items[j] {
                    // A coalesced copy of a served item is by definition
                    // served from memory: report it cached.
                    Ok((_, payload)) => {
                        ServeCounters::bump(&self.shared.counters.responses);
                        Ok((true, Arc::clone(payload)))
                    }
                    Err(e) => {
                        ServeCounters::bump(&self.shared.counters.errors);
                        Err(e.clone())
                    }
                };
                items.push(item);
                continue;
            }
            let item = self.serve_one(router, &sets[i], masks[i].as_ref());
            match &item {
                Ok(_) => ServeCounters::bump(&self.shared.counters.responses),
                Err(_) => ServeCounters::bump(&self.shared.counters.errors),
            }
            items.push(item);
        }
        encode_batch_response(out, &items);
        Ok(())
    }

    /// Serve one (router, set, mask) item through the three-step path
    /// described in the module docs: first probe, single-flight join,
    /// then the counted probe + route. Bumps `requests`; the caller
    /// accounts responses/errors (frame- and item-level counting
    /// differ).
    fn serve_one(
        &mut self,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Result<(bool, Arc<[u8]>), ErrorFrame> {
        ServeCounters::bump(&self.shared.counters.requests);
        let fp = request_fingerprint(router, set, mask);

        // Step 1: read-locked first probe. A `None` counts nothing —
        // hit/miss accounting happens further down.
        if let Some(payload) = self.shared.cache.lookup_payload_tier(fp, router, set, mask) {
            return Ok((true, payload));
        }

        // Step 2: join the in-flight table for this fingerprint.
        match self.shared.flights.join(fp, router, set, mask, FLIGHT_WAIT) {
            Joined::Wait(payload) => {
                // Another connection computed this exact key while we
                // waited. Served from memory, cache untouched.
                ServeCounters::bump(&self.shared.counters.coalesced_waits);
                Ok((true, payload))
            }
            Joined::Lead(lease) => {
                // Step 3, as the leader: the counted probe. Another
                // worker may have inserted this key since the first probe.
                if let Some(payload) = self.shared.cache.lookup_payload(fp, router, set, mask) {
                    lease.complete(Arc::clone(&payload));
                    return Ok((true, payload));
                }
                // Genuine miss: route on behalf of every waiter. The
                // cache insert inside `route_and_insert` happens before
                // `complete`, so a latecomer that finds the flight gone
                // is guaranteed a cache hit (exactly-once, not racily).
                match self.route_and_insert(router, set, mask, fp, true) {
                    Ok(payload) => {
                        lease.complete(Arc::clone(&payload));
                        Ok((false, payload))
                    }
                    // Dropping the lease fails the flight: waiters wake
                    // into the solo path below and see the error (or a
                    // success, if the failure was transient) themselves.
                    Err(e) => Err(e),
                }
            }
            // Fingerprint collision with a different in-flight key, or a
            // failed/timed-out leader: route solo after a counted probe,
            // never coalescing.
            Joined::Mismatch | Joined::Failed => {
                if let Some(payload) = self.shared.cache.lookup_payload(fp, router, set, mask) {
                    return Ok((true, payload));
                }
                let payload = self.route_and_insert(router, set, mask, fp, false)?;
                Ok((false, payload))
            }
        }
    }

    /// The miss path: route fresh, encode the payload once, insert it
    /// into the shared cache, and recycle the outcome into this worker's
    /// pool (the cache keeps only the payload). `lead` marks a
    /// single-flight leader; both it and `computations` are counted just
    /// before the engine route call, so requests rejected earlier
    /// (unknown router, bad topology) count as neither.
    fn route_and_insert(
        &mut self,
        router_name: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
        fp: u64,
        lead: bool,
    ) -> Result<Arc<[u8]>, ErrorFrame> {
        let router = cst_engine::find(router_name).ok_or_else(|| ErrorFrame {
            code: ErrorCode::UnknownRouter,
            message: format!("unknown router {router_name:?}"),
        })?;
        self.ensure_topo(set.num_leaves())?;
        let WorkerCore { ref mut ctx, ref topo, ref mut payload_buf, ref shared, .. } = *self;
        let Some(topo) = topo.as_ref() else {
            return Err(internal("topology missing after ensure"));
        };
        ServeCounters::bump(&shared.counters.computations);
        if lead {
            ServeCounters::bump(&shared.counters.singleflight_leaders);
        }
        let mut outcome = match mask {
            Some(m) => ctx.route_masked(router.as_ref(), topo, set, m),
            None => ctx.route(router.as_ref(), topo, set),
        }
        .map_err(|e| ErrorFrame { code: ErrorCode::RouteFailed, message: e.to_string() })?;

        encode_outcome_payload(payload_buf, &outcome);
        let payload: Arc<[u8]> = Arc::from(payload_buf.as_slice());

        let schedule = std::mem::take(&mut outcome.schedule);
        let returned = shared.cache.insert_with_payload(
            fp,
            outcome.router,
            set,
            mask,
            schedule,
            &outcome.power,
            outcome.degradation.as_ref(),
            Arc::clone(&payload),
        );
        // The cache hands the schedule straight back: recycle it and the
        // outcome's meter.
        outcome.schedule = returned.unwrap_or_default();
        ctx.recycle(outcome);
        Ok(payload)
    }

    fn ensure_topo(&mut self, num_leaves: usize) -> Result<(), ErrorFrame> {
        if self.topo.as_ref().is_none_or(|t| t.num_leaves() != num_leaves) {
            let topo = CstTopology::new(num_leaves).map_err(invalid)?;
            self.topo = Some(topo);
        }
        Ok(())
    }
}

fn bad_frame(e: WireError) -> ErrorFrame {
    let code = match e {
        WireError::TooLong { .. } => ErrorCode::Oversize,
        _ => ErrorCode::BadFrame,
    };
    ErrorFrame { code, message: e.to_string() }
}

fn invalid(e: cst_core::CstError) -> ErrorFrame {
    ErrorFrame { code: ErrorCode::InvalidRequest, message: e.to_string() }
}

fn internal(msg: &str) -> ErrorFrame {
    ErrorFrame { code: ErrorCode::InvalidRequest, message: msg.to_string() }
}

// ---------------------------------------------------------------------
// Sockets
// ---------------------------------------------------------------------

/// One accepted connection, TCP or Unix.
#[derive(Debug)]
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    /// Forwarded so a frame's header and body parts leave in one
    /// `writev`; the default would write only the first slice.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

#[derive(Debug)]
enum ListenerKind {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl ListenerKind {
    fn try_clone(&self) -> io::Result<ListenerKind> {
        match self {
            ListenerKind::Tcp(l) => l.try_clone().map(ListenerKind::Tcp),
            ListenerKind::Unix(l) => l.try_clone().map(ListenerKind::Unix),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            ListenerKind::Tcp(l) => l.accept().map(|(s, _)| {
                // A response frame can still leave in more than one write
                // (a partial write, a batch past one vectored call); with
                // Nagle on, the rest stalls behind the peer's delayed ACK
                // (~40ms) — three orders of magnitude above a warm hit.
                // The client side already disables it.
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            ListenerKind::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// Where a server is listening.
#[derive(Clone, Debug)]
pub enum ServeAddr {
    /// TCP socket address (resolved, so port 0 reads back the real port).
    Tcp(SocketAddr),
    /// Unix socket path.
    Unix(PathBuf),
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A running daemon: shared state + worker threads. Dropping the server
/// shuts it down (flag, wake, join).
#[derive(Debug)]
pub struct Server {
    shared: Arc<ServeShared>,
    handles: Vec<JoinHandle<()>>,
    addr: ServeAddr,
}

impl Server {
    /// Bind a TCP listener (e.g. `"127.0.0.1:0"` for an ephemeral port)
    /// and start the worker pool.
    pub fn bind_tcp(addr: &str, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Server::spawn(ListenerKind::Tcp(listener), ServeAddr::Tcp(local), config)
    }

    /// Bind a Unix socket (removing a stale socket file first) and start
    /// the worker pool.
    pub fn bind_unix(path: impl AsRef<Path>, config: ServeConfig) -> io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Server::spawn(ListenerKind::Unix(listener), ServeAddr::Unix(path), config)
    }

    fn spawn(listener: ListenerKind, addr: ServeAddr, config: ServeConfig) -> io::Result<Server> {
        let workers = config.workers.max(1);
        let shared = Arc::new(ServeShared::new(ServeConfig { workers, ..config }));
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("cst-serve-{w}"))
                .spawn(move || worker_loop(listener, shared))?;
            handles.push(handle);
        }
        Ok(Server { shared, handles, addr })
    }

    /// Where this server is listening.
    pub fn addr(&self) -> &ServeAddr {
        &self.addr
    }

    /// The resolved TCP address, when bound over TCP.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.addr {
            ServeAddr::Tcp(a) => Some(*a),
            ServeAddr::Unix(_) => None,
        }
    }

    /// The shared state (cache + counters), e.g. for in-process tests.
    pub fn shared(&self) -> &Arc<ServeShared> {
        &self.shared
    }

    /// Freeze the current counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Stop accepting, wake every worker, join the pool. Equivalent to
    /// dropping the server, but explicit at call sites.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for _ in 0..self.handles.len() {
            match &self.addr {
                ServeAddr::Tcp(a) => {
                    let _ = TcpStream::connect(a);
                }
                ServeAddr::Unix(p) => {
                    let _ = UnixStream::connect(p);
                }
            }
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        if let ServeAddr::Unix(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(listener: ListenerKind, shared: Arc<ServeShared>) {
    let mut core = WorkerCore::new(Arc::clone(&shared));
    let mut inbuf: Vec<u8> = Vec::new();
    let mut reply = Reply::default();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the accept was a shutdown wake-up
        }
        ServeCounters::bump(&shared.counters.connections);
        let _ = serve_conn(stream, &mut core, &shared, &mut inbuf, &mut reply);
    }
}

enum FrameRead {
    Frame,
    Eof,
    Shutdown,
    Oversize(usize),
}

/// Serve one connection until EOF, error, or shutdown. Any io error just
/// drops the connection — the daemon itself never dies with a client.
/// Each response is written from its parts, cached payloads straight
/// from their `Arc`s, and the parts are let go once written.
fn serve_conn(
    mut stream: Stream,
    core: &mut WorkerCore,
    shared: &ServeShared,
    inbuf: &mut Vec<u8>,
    reply: &mut Reply,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(shared.config.read_timeout_ms.max(1))))?;
    loop {
        match read_frame_interruptible(&mut stream, inbuf, shared)? {
            FrameRead::Frame => {
                core.respond(inbuf, reply);
                let written = write_frame_parts(&mut stream, reply.parts());
                reply.clear();
                written?;
            }
            FrameRead::Oversize(len) => {
                // Typed refusal, then drop the connection: the body was
                // never read, so the stream is out of sync by design.
                ServeCounters::bump(&shared.counters.errors);
                let err = ErrorFrame {
                    code: ErrorCode::Oversize,
                    message: format!(
                        "frame length {len} exceeds cap {}",
                        shared.config.max_frame
                    ),
                };
                encode_error_response(reply, &err);
                let written = write_frame_parts(&mut stream, reply.parts());
                reply.clear();
                return written;
            }
            FrameRead::Eof | FrameRead::Shutdown => return Ok(()),
        }
    }
}

enum Fill {
    Done,
    Eof,
    Shutdown,
}

/// `read_exact` that keeps polling across read timeouts so the worker
/// notices the shutdown flag on idle connections.
fn read_full(
    stream: &mut Stream,
    out: &mut [u8],
    shared: &ServeShared,
    eof_ok_at_start: bool,
) -> io::Result<Fill> {
    let mut filled = 0;
    while filled < out.len() {
        match stream.read(&mut out[filled..]) {
            Ok(0) => {
                if filled == 0 && eof_ok_at_start {
                    return Ok(Fill::Eof);
                }
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(Fill::Shutdown);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Done)
}

fn read_frame_interruptible(
    stream: &mut Stream,
    buf: &mut Vec<u8>,
    shared: &ServeShared,
) -> io::Result<FrameRead> {
    let mut header = [0u8; 4];
    match read_full(stream, &mut header, shared, true)? {
        Fill::Eof => return Ok(FrameRead::Eof),
        Fill::Shutdown => return Ok(FrameRead::Shutdown),
        Fill::Done => {}
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > shared.config.max_frame {
        return Ok(FrameRead::Oversize(len));
    }
    fit_frame_buf(buf, len);
    match read_full(stream, buf, shared, false)? {
        Fill::Done => Ok(FrameRead::Frame),
        Fill::Shutdown => Ok(FrameRead::Shutdown),
        Fill::Eof => Err(io::ErrorKind::UnexpectedEof.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::BatchIndex;

    #[test]
    fn batch_index_matches_the_pairwise_scan_under_collisions() {
        // Keys 0..12 over 3 fingerprints: distinct keys collide, and each
        // key recurs far from its first occurrence.
        let keys: Vec<u64> = (0..600).map(|i| (i * 7 + i / 50) % 12).collect();
        let fp = |k: u64| k % 3;
        let mut index = BatchIndex::default();
        for round in 0..2 {
            index.clear();
            for (i, &k) in keys.iter().enumerate() {
                let scan = (0..i).find(|&j| fp(keys[j]) == fp(k) && keys[j] == k);
                assert_eq!(index.earlier(fp(k), |j| keys[j] == k), scan, "round {round} item {i}");
            }
        }
    }
}
