//! The serve daemon's frame protocol.
//!
//! Every message is one **frame**: a little-endian `u32` byte length
//! followed by that many body bytes. The body starts with a one-byte
//! kind tag; everything after it is kind-specific, built from the
//! [`cst_core::wire`] primitives (LE fixed-width integers, `u32`
//! length-prefixed strings/blobs). The full grammar is tabulated in
//! `docs/SERVE.md`; the golden byte-pin in `tests/wire_proto.rs` keeps
//! it from drifting silently.
//!
//! ## Requests
//!
//! | kind | name  | body |
//! |------|-------|------|
//! | 0x01 | Route | router `str` · set · mask tag `u8` (0/1) · \[mask\] |
//! | 0x02 | Batch | router `str` · count `u32` · count × (set · mask tag `u8` (0/1) · \[mask\]) |
//! | 0x03 | Stats | — |
//! | 0x04 | Reset | — |
//!
//! A *set* is `num_leaves u64 · count u32 · count × (source u32, dest
//! u32)`. A *mask* is `switches u32 · ids… u32 · links u32 · (child u32,
//! up u8)… · edges u32 · ids… u32` (sized by the set's `num_leaves`).
//! Batch items carry their mask tag per item, mirroring Route.
//!
//! ## Responses
//!
//! | kind | name  | body |
//! |------|-------|------|
//! | 0x81 | Route | cached `u8` · payload `bytes` |
//! | 0x82 | Batch | count `u32` · count × (tag `u8`: 0 = error body, 1 = cached `u8` · payload `bytes`) |
//! | 0x83 | Stats | [`ServeStats`] binary (versioned, see below) |
//! | 0x84 | Reset | — |
//! | 0xEE | Error | code `u16` · message `str` |
//!
//! ## Stats frame versioning
//!
//! The Stats body is **append-only versioned**. The legacy (minor 0)
//! prefix — 8 service counters, the cache roll-up (6 `u64`s), shard
//! count, and per-shard blocks — is byte-identical to what PR 9 shipped,
//! so pre-extension clients' frames still decode here. After the shard
//! blocks the current encoder appends a minor tag `u8` ([`STATS_MINOR`],
//! currently 1) followed by the minor-1 fields: `computations u64 ·
//! singleflight_leaders u64 · coalesced_waits u64 · cache tier_hits u64 ·
//! per-shard tier_hits u64 × count`. A decoder that finds the cursor
//! empty at the minor-tag position treats the frame as minor 0 (new
//! fields zero); a minor tag greater than [`STATS_MINOR`] is decoded
//! through the known fields with any trailing bytes skipped, so this
//! decoder also accepts frames from *newer* servers.
//!
//! The **payload** is the unit the shared cache stores: a
//! [`RouteSummary`] followed by the schedule's JSON bytes (exactly what
//! `serde_json` writes; the server writes them in place with
//! `Schedule::write_json`, see [`encode_outcome_payload`]). It is
//! a pure function of the request — the `cached` flag lives *outside* it,
//! so a hit can serve the identical bytes a miss produced.

use crate::stats::ServeStats;
use cst_comm::CommSet;
use cst_core::wire::{
    put_bytes, put_bytes_with, put_str, put_u16, put_u32, put_u64, put_u8, WireCursor, WireError,
};
use cst_core::{CstTopology, DirectedLink, FaultMask, NodeId};
use cst_engine::{CacheStats, RouteOutcome};
use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;

/// One served batch item on the server side: `(cached, payload)` or a
/// typed per-item error.
pub type ServedItem = Result<(bool, Arc<[u8]>), ErrorFrame>;

/// Request frame kinds.
pub const REQ_ROUTE: u8 = 0x01;
/// See [`REQ_ROUTE`].
pub const REQ_BATCH: u8 = 0x02;
/// See [`REQ_ROUTE`].
pub const REQ_STATS: u8 = 0x03;
/// See [`REQ_ROUTE`].
pub const REQ_RESET: u8 = 0x04;

/// Response frame kinds.
pub const RESP_ROUTE: u8 = 0x81;
/// See [`RESP_ROUTE`].
pub const RESP_BATCH: u8 = 0x82;
/// See [`RESP_ROUTE`].
pub const RESP_STATS: u8 = 0x83;
/// See [`RESP_ROUTE`].
pub const RESP_RESET: u8 = 0x84;
/// See [`RESP_ROUTE`].
pub const RESP_ERROR: u8 = 0xEE;

/// Current minor version of the Stats response body (see the module docs
/// for the append-only extension scheme). 0 is reserved for the legacy
/// frame, which carries no tag at all — an explicit 0 on the wire is
/// malformed.
pub const STATS_MINOR: u8 = 1;

/// Default cap on one frame's body length. Large enough for a serialized
/// n = 4096 schedule, small enough that a hostile length prefix cannot
/// balloon server memory.
pub const DEFAULT_MAX_FRAME: usize = 64 << 20;

/// Largest leaf count a request set may declare (2^20 PEs). Set
/// validation sizes per-leaf scratch from this field before it checks a
/// single pair, so without the cap a 21-byte frame could demand a
/// terabyte. Above it, a set is rejected like any other invalid set.
pub const MAX_WIRE_LEAVES: usize = 1 << 20;

/// Typed error categories carried by error frames (`u16` on the wire so
/// the space can grow without a format change).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame body failed to decode (bad tag, truncation, garbage).
    BadFrame = 1,
    /// A declared length exceeded the server's frame cap.
    Oversize = 2,
    /// The requested router name is not in the registry.
    UnknownRouter = 3,
    /// The request decoded but is semantically invalid (bad leaf ids,
    /// reused endpoints, bad topology size, invalid fault mask).
    InvalidRequest = 4,
    /// The router rejected the set (e.g. not well-nested for a strict
    /// router) or routing failed.
    RouteFailed = 5,
}

impl ErrorCode {
    /// Decode from the wire representation.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::BadFrame),
            2 => Some(ErrorCode::Oversize),
            3 => Some(ErrorCode::UnknownRouter),
            4 => Some(ErrorCode::InvalidRequest),
            5 => Some(ErrorCode::RouteFailed),
            _ => None,
        }
    }
}

/// One typed error response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Error category.
    pub code: ErrorCode,
    /// Human-readable detail (never parsed by clients).
    pub message: String,
}

impl fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

/// A decoded request, owned. The server's hot path decodes in place
/// instead (see `WorkerCore`); this form is for clients, tests, and the
/// codec proptests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Route one set, optionally under a fault mask.
    Route {
        /// Registry router name.
        router: String,
        /// The communication set.
        set: CommSet,
        /// Optional fault mask (sized by the set's leaf count).
        mask: Option<FaultMask>,
    },
    /// Route many sets through one router with fingerprint coalescing.
    Batch {
        /// Registry router name.
        router: String,
        /// The communication sets with their optional per-item fault
        /// masks, in request order.
        items: Vec<(CommSet, Option<FaultMask>)>,
    },
    /// Snapshot the server's counters.
    Stats,
    /// Zero every counter and drop every cache entry.
    Reset,
}

/// A decoded response, owned.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// One routed (or cache-served) outcome.
    Route(RouteReply),
    /// Per-item outcomes of a batch, in request order.
    Batch(Vec<Result<RouteReply, ErrorFrame>>),
    /// Counter snapshot.
    Stats(ServeStats),
    /// Reset acknowledged.
    Reset,
    /// The request failed as a whole.
    Error(ErrorFrame),
}

/// One successful route response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteReply {
    /// True when the payload came from the shared cache.
    pub cached: bool,
    /// The encoded payload (summary + schedule JSON); decode with
    /// [`decode_payload`]. Byte-identical between a miss and every
    /// later hit on the same request.
    pub payload: Vec<u8>,
}

/// The routed outcome's summary, decoded from a payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteSummary {
    /// Router that produced the schedule.
    pub router: String,
    /// Rounds in the schedule.
    pub rounds: u64,
    /// Total hold-semantics power units.
    pub power_total_units: u64,
    /// Maximum hold-semantics units at any single switch.
    pub power_max_units: u32,
    /// Maximum per-port driver transitions at any single switch.
    pub max_port_transitions: u32,
    /// Degradation accounting for masked requests (`None` for plain).
    pub degradation: Option<DegradationSummary>,
}

/// Wire form of a `DegradationReport`'s totals, plus the dropped
/// communication ids (so a client can run `cst_model::conform_schedule`
/// from the response alone).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradationSummary {
    /// Size of the requested set.
    pub total: u64,
    /// Communications scheduled.
    pub routed: u64,
    /// Of the routed, how many moved to a split-off round.
    pub rerouted: u64,
    /// Communications unroutable under the mask.
    pub dropped: u64,
    /// Rounds added by the half-duplex split.
    pub extra_rounds: u64,
    /// Ids (in the request set) of the dropped communications.
    pub dropped_ids: Vec<u64>,
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Errors from the frame layer (below the body codec).
#[derive(Debug)]
pub enum FrameError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer declared a frame longer than the cap. Detected from the
    /// 4 header bytes alone — nothing is allocated or read for the body.
    Oversize {
        /// Declared body length.
        len: usize,
        /// The enforced cap.
        max: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io: {e}"),
            FrameError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Write one frame: `u32` LE body length, then the body, in one
/// `write_vectored` call when the writer takes it all.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    write_frame_parts(w, std::iter::once(body))
}

/// Write one frame whose body is `parts` in order (see [`Reply::parts`]):
/// the length header and the parts go out as up to 128 slices per
/// `write_vectored` call, and a partial write resumes where the writer
/// stopped. A Route reply is three slices and a 32-item Batch reply at
/// most 66, so either takes one call on a socket that accepts it all.
pub fn write_frame_parts<'a>(
    w: &mut impl Write,
    parts: impl Iterator<Item = &'a [u8]> + Clone,
) -> io::Result<()> {
    let len = u32::try_from(parts.clone().map(<[u8]>::len).sum::<usize>())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame body exceeds u32"))?;
    let header = len.to_le_bytes();
    let mut parts = parts.filter(|p| !p.is_empty());
    let mut slices = [IoSlice::new(&header); 128];
    let mut filled = 1; // slot 0 holds the header
    loop {
        for (slot, part) in slices[filled..].iter_mut().zip(&mut parts) {
            *slot = IoSlice::new(part);
            filled += 1;
        }
        if filled == 0 {
            return w.flush();
        }
        write_all_vectored(w, &mut slices[..filled])?;
        filled = 0;
    }
}

/// `write_vectored` until every byte of `bufs` is written.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one frame body into `buf` (reused across calls). Returns
/// `Ok(false)` on clean EOF at a frame boundary; `Oversize` when the
/// declared length exceeds `max` (before reading or allocating the
/// body); io errors otherwise (including EOF mid-frame).
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>, max: usize) -> Result<bool, FrameError> {
    let mut header = [0u8; 4];
    match r.read(&mut header) {
        Ok(0) => return Ok(false),
        Ok(n) => r.read_exact(&mut header[n..])?,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            r.read_exact(&mut header)?;
        }
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > max {
        return Err(FrameError::Oversize { len, max });
    }
    fit_frame_buf(buf, len);
    r.read_exact(buf)?;
    Ok(true)
}

/// Make `buf` exactly `len` bytes for `read_exact` to overwrite: only
/// bytes past its current length are zero-filled, so a reused buffer
/// costs nothing to resize.
pub(crate) fn fit_frame_buf(buf: &mut Vec<u8>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0);
    } else {
        buf.truncate(len);
    }
}

// ---------------------------------------------------------------------
// Request encoding
// ---------------------------------------------------------------------

fn put_set(buf: &mut Vec<u8>, set: &CommSet) {
    put_u64(buf, set.num_leaves() as u64);
    put_u32(buf, set.len() as u32);
    for c in set.comms() {
        put_u32(buf, c.source.0 as u32);
        put_u32(buf, c.dest.0 as u32);
    }
}

fn put_mask(buf: &mut Vec<u8>, mask: &FaultMask) {
    put_u32(buf, mask.dead_switches().len() as u32);
    for n in mask.dead_switches() {
        put_u32(buf, n.0 as u32);
    }
    put_u32(buf, mask.dead_links().len() as u32);
    for l in mask.dead_links() {
        put_u32(buf, l.child.0 as u32);
        put_u8(buf, u8::from(l.up));
    }
    put_u32(buf, mask.degraded_edges().len() as u32);
    for n in mask.degraded_edges() {
        put_u32(buf, n.0 as u32);
    }
}

/// Encode a Route request body into `buf` (cleared first).
pub fn encode_route_request(buf: &mut Vec<u8>, router: &str, set: &CommSet, mask: Option<&FaultMask>) {
    buf.clear();
    put_u8(buf, REQ_ROUTE);
    put_str(buf, router);
    put_set(buf, set);
    match mask {
        None => put_u8(buf, 0),
        Some(m) => {
            put_u8(buf, 1);
            put_mask(buf, m);
        }
    }
}

/// Encode a Batch request body into `buf` (cleared first): every item is
/// unmasked (mask tag 0). Convenience over
/// [`encode_batch_masked_request`].
pub fn encode_batch_request(buf: &mut Vec<u8>, router: &str, sets: &[CommSet]) {
    buf.clear();
    put_u8(buf, REQ_BATCH);
    put_str(buf, router);
    put_u32(buf, sets.len() as u32);
    for set in sets {
        put_set(buf, set);
        put_u8(buf, 0);
    }
}

/// Encode a Batch request body into `buf` (cleared first) with an
/// optional fault mask per item (each tagged 0/1 exactly like a Route
/// request's mask).
pub fn encode_batch_masked_request(
    buf: &mut Vec<u8>,
    router: &str,
    items: &[(CommSet, Option<FaultMask>)],
) {
    buf.clear();
    put_u8(buf, REQ_BATCH);
    put_str(buf, router);
    put_u32(buf, items.len() as u32);
    for (set, mask) in items {
        put_set(buf, set);
        match mask {
            None => put_u8(buf, 0),
            Some(m) => {
                put_u8(buf, 1);
                put_mask(buf, m);
            }
        }
    }
}

/// Encode a Stats request body into `buf` (cleared first).
pub fn encode_stats_request(buf: &mut Vec<u8>) {
    buf.clear();
    put_u8(buf, REQ_STATS);
}

/// Encode a Reset request body into `buf` (cleared first).
pub fn encode_reset_request(buf: &mut Vec<u8>) {
    buf.clear();
    put_u8(buf, REQ_RESET);
}

/// Encode any owned [`Request`].
pub fn encode_request(buf: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Route { router, set, mask } => {
            encode_route_request(buf, router, set, mask.as_ref())
        }
        Request::Batch { router, items } => encode_batch_masked_request(buf, router, items),
        Request::Stats => encode_stats_request(buf),
        Request::Reset => encode_reset_request(buf),
    }
}

// ---------------------------------------------------------------------
// Request decoding (owned — clients, tests; the server decodes in place)
// ---------------------------------------------------------------------

/// Decode one set (owned).
pub fn take_set(cur: &mut WireCursor<'_>) -> Result<CommSet, WireError> {
    let num_leaves = cur.take_u64()?;
    if num_leaves > MAX_WIRE_LEAVES as u64 {
        return Err(WireError::Malformed("set num_leaves exceeds MAX_WIRE_LEAVES"));
    }
    let num_leaves = num_leaves as usize;
    let count = cur.take_u32()? as usize;
    let mut set = CommSet::empty(0);
    let mut role = Vec::new();
    let mut pairs = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let s = cur.take_u32()? as usize;
        let d = cur.take_u32()? as usize;
        pairs.push((s, d));
    }
    set.rebuild_from_pairs(num_leaves, pairs, &mut role)
        .map_err(|_| WireError::Malformed("invalid communication set"))?;
    Ok(set)
}

/// Decode one mask (owned). Needs the topology because a `FaultMask` is
/// sized by it; fault ids the mask rejects are malformed.
pub fn take_mask(cur: &mut WireCursor<'_>, topo: &CstTopology) -> Result<FaultMask, WireError> {
    let mut mask = FaultMask::empty(topo);
    let switches = cur.take_u32()?;
    for _ in 0..switches {
        let id = cur.take_u32()? as usize;
        if !mask.kill_switch(NodeId(id)) {
            return Err(WireError::Malformed("invalid dead-switch id"));
        }
    }
    let links = cur.take_u32()?;
    for _ in 0..links {
        let child = cur.take_u32()? as usize;
        let up = match cur.take_u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::Malformed("link direction must be 0 or 1")),
        };
        if !mask.kill_link(DirectedLink { child: NodeId(child), up }) {
            return Err(WireError::Malformed("invalid dead-link id"));
        }
    }
    let edges = cur.take_u32()?;
    for _ in 0..edges {
        let id = cur.take_u32()? as usize;
        if !mask.degrade_edge(NodeId(id)) {
            return Err(WireError::Malformed("invalid degraded-edge id"));
        }
    }
    Ok(mask)
}

/// Decode a request body into its owned form. Arbitrary bytes must
/// produce `Err`, never a panic (property-tested).
pub fn decode_request(body: &[u8]) -> Result<Request, WireError> {
    let mut cur = WireCursor::new(body);
    let kind = cur.take_u8()?;
    let req = match kind {
        REQ_ROUTE => {
            let router = cur.take_str()?.to_string();
            let set = take_set(&mut cur)?;
            let mask = match cur.take_u8()? {
                0 => None,
                1 => {
                    let topo = CstTopology::new(set.num_leaves())
                        .map_err(|_| WireError::Malformed("mask on invalid topology size"))?;
                    Some(take_mask(&mut cur, &topo)?)
                }
                _ => return Err(WireError::Malformed("mask tag must be 0 or 1")),
            };
            Request::Route { router, set, mask }
        }
        REQ_BATCH => {
            let router = cur.take_str()?.to_string();
            let count = cur.take_u32()? as usize;
            let mut items = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let set = take_set(&mut cur)?;
                let mask = match cur.take_u8()? {
                    0 => None,
                    1 => {
                        let topo = CstTopology::new(set.num_leaves())
                            .map_err(|_| WireError::Malformed("mask on invalid topology size"))?;
                        Some(take_mask(&mut cur, &topo)?)
                    }
                    _ => return Err(WireError::Malformed("batch mask tag must be 0 or 1")),
                };
                items.push((set, mask));
            }
            Request::Batch { router, items }
        }
        REQ_STATS => Request::Stats,
        REQ_RESET => Request::Reset,
        _ => return Err(WireError::Malformed("unknown request kind")),
    };
    cur.expect_end()?;
    Ok(req)
}

// ---------------------------------------------------------------------
// Payload codec (the cached unit)
// ---------------------------------------------------------------------

/// Encode a payload into `buf` (cleared first): summary fields, then the
/// schedule's serde bytes. The server builds the same bytes in place with
/// [`encode_outcome_payload`]; this form takes the JSON ready-made.
#[allow(clippy::too_many_arguments)]
pub fn encode_payload(
    buf: &mut Vec<u8>,
    router: &str,
    rounds: u64,
    power_total_units: u64,
    power_max_units: u32,
    max_port_transitions: u32,
    degradation: Option<&DegradationSummary>,
    schedule_json: &[u8],
) {
    put_summary(buf, router, rounds, power_total_units, power_max_units, max_port_transitions);
    match degradation {
        None => put_u8(buf, 0),
        Some(d) => put_degradation(
            buf,
            [d.total, d.routed, d.rerouted, d.dropped, d.extra_rounds],
            d.dropped_ids.iter().copied(),
        ),
    }
    put_bytes(buf, schedule_json);
}

/// Encode the payload of a routed outcome into `buf` (cleared first):
/// byte for byte what [`encode_payload`] writes for the outcome's summary
/// and `serde_json::to_string(&outcome.schedule)`, but the schedule JSON
/// comes from [`cst_comm::Schedule::write_json`] straight into `buf`,
/// behind a length prefix filled in afterwards. The server calls this
/// once per cache miss; every hit re-serves the identical bytes.
pub fn encode_outcome_payload(buf: &mut Vec<u8>, outcome: &RouteOutcome) {
    let power = &outcome.power;
    put_summary(
        buf,
        outcome.router,
        outcome.rounds as u64,
        power.total_units,
        power.max_units,
        power.max_port_transitions,
    );
    match &outcome.degradation {
        None => put_u8(buf, 0),
        Some(d) => put_degradation(
            buf,
            [d.total, d.routed, d.rerouted, d.dropped, d.extra_rounds].map(|x| x as u64),
            d.drops.iter().map(|x| x.comm as u64),
        ),
    }
    put_bytes_with(buf, |b| outcome.schedule.write_json(b));
}

/// The payload's fixed summary fields (clears `buf` first).
fn put_summary(
    buf: &mut Vec<u8>,
    router: &str,
    rounds: u64,
    power_total_units: u64,
    power_max_units: u32,
    max_port_transitions: u32,
) {
    buf.clear();
    put_str(buf, router);
    put_u64(buf, rounds);
    put_u64(buf, power_total_units);
    put_u32(buf, power_max_units);
    put_u32(buf, max_port_transitions);
}

/// A present degradation block: tag 1, the five totals (total, routed,
/// rerouted, dropped, extra rounds), then the dropped ids.
fn put_degradation(
    buf: &mut Vec<u8>,
    totals: [u64; 5],
    dropped_ids: impl ExactSizeIterator<Item = u64>,
) {
    put_u8(buf, 1);
    for v in totals {
        put_u64(buf, v);
    }
    put_u32(buf, dropped_ids.len() as u32);
    for id in dropped_ids {
        put_u64(buf, id);
    }
}

/// Decode a payload into its summary and borrowed schedule JSON bytes.
pub fn decode_payload(payload: &[u8]) -> Result<(RouteSummary, &[u8]), WireError> {
    let mut cur = WireCursor::new(payload);
    let router = cur.take_str()?.to_string();
    let rounds = cur.take_u64()?;
    let power_total_units = cur.take_u64()?;
    let power_max_units = cur.take_u32()?;
    let max_port_transitions = cur.take_u32()?;
    let degradation = match cur.take_u8()? {
        0 => None,
        1 => {
            let total = cur.take_u64()?;
            let routed = cur.take_u64()?;
            let rerouted = cur.take_u64()?;
            let dropped = cur.take_u64()?;
            let extra_rounds = cur.take_u64()?;
            let n = cur.take_u32()? as usize;
            let mut dropped_ids = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                dropped_ids.push(cur.take_u64()?);
            }
            Some(DegradationSummary { total, routed, rerouted, dropped, extra_rounds, dropped_ids })
        }
        _ => return Err(WireError::Malformed("degradation tag must be 0 or 1")),
    };
    let schedule_json = cur.take_bytes()?;
    cur.expect_end()?;
    let summary = RouteSummary {
        router,
        rounds,
        power_total_units,
        power_max_units,
        max_port_transitions,
        degradation,
    };
    Ok((summary, schedule_json))
}

// ---------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------

/// Where a response encoder writes a body. A `Vec<u8>` takes it flat,
/// each payload copied in; a [`Reply`] keeps each served payload as the
/// `Arc` it was served from. Both hold the same bytes in the same order.
pub trait BodySink {
    /// Empty the body.
    fn clear(&mut self);
    /// The buffer the encoder's own fields are appended to.
    fn bytes(&mut self) -> &mut Vec<u8>;
    /// Append one payload as a `u32`-length-prefixed blob.
    fn put_payload(&mut self, payload: &Arc<[u8]>);
}

impl BodySink for Vec<u8> {
    fn clear(&mut self) {
        Vec::clear(self);
    }

    fn bytes(&mut self) -> &mut Vec<u8> {
        self
    }

    fn put_payload(&mut self, payload: &Arc<[u8]>) {
        put_bytes(self, payload);
    }
}

/// A response body as parts: the bytes the encoder wrote (`head`) with
/// each served payload spliced in by reference. The server writes it to
/// the socket with [`write_frame_parts`], so a cached payload goes from
/// the cache's `Arc` to the kernel without a copy.
#[derive(Debug, Default)]
pub struct Reply {
    head: Vec<u8>,
    /// `(at, payload)`: `payload` follows `head[..at]`, in order.
    payloads: Vec<(usize, Arc<[u8]>)>,
}

impl Reply {
    /// The body's parts in wire order: head segments and payloads.
    pub fn parts(&self) -> impl Iterator<Item = &[u8]> + Clone + '_ {
        let tail = self.payloads.last().map_or(0, |&(at, _)| at);
        let mut from = 0;
        self.payloads
            .iter()
            .flat_map(move |(at, payload)| {
                let segment = &self.head[from..*at];
                from = *at;
                [segment, &payload[..]]
            })
            .chain(std::iter::once(&self.head[tail..]))
    }
}

impl BodySink for Reply {
    /// Empty the body and let go of the payloads it held.
    fn clear(&mut self) {
        self.head.clear();
        self.payloads.clear();
    }

    fn bytes(&mut self) -> &mut Vec<u8> {
        &mut self.head
    }

    fn put_payload(&mut self, payload: &Arc<[u8]>) {
        assert!(payload.len() <= u32::MAX as usize, "blob exceeds u32 length prefix");
        put_u32(&mut self.head, payload.len() as u32);
        self.payloads.push((self.head.len(), Arc::clone(payload)));
    }
}

fn put_error_body(buf: &mut Vec<u8>, err: &ErrorFrame) {
    put_u16(buf, err.code as u16);
    put_str(buf, &err.message);
}

/// Encode an Error response body into `body` (cleared first).
pub fn encode_error_response(body: &mut impl BodySink, err: &ErrorFrame) {
    body.clear();
    let buf = body.bytes();
    put_u8(buf, RESP_ERROR);
    put_error_body(buf, err);
}

/// Encode a Route response body into `body` (cleared first).
pub fn encode_route_response(body: &mut impl BodySink, cached: bool, payload: &Arc<[u8]>) {
    body.clear();
    let buf = body.bytes();
    put_u8(buf, RESP_ROUTE);
    put_u8(buf, u8::from(cached));
    body.put_payload(payload);
}

/// Encode a Batch response body into `body` (cleared first).
pub fn encode_batch_response(body: &mut impl BodySink, items: &[ServedItem]) {
    body.clear();
    let buf = body.bytes();
    put_u8(buf, RESP_BATCH);
    put_u32(buf, items.len() as u32);
    for item in items {
        match item {
            Ok((cached, payload)) => {
                let buf = body.bytes();
                put_u8(buf, 1);
                put_u8(buf, u8::from(*cached));
                body.put_payload(payload);
            }
            Err(e) => {
                let buf = body.bytes();
                put_u8(buf, 0);
                put_error_body(buf, e);
            }
        }
    }
}

fn put_cache_stats(buf: &mut Vec<u8>, s: &CacheStats) {
    put_u64(buf, s.hits);
    put_u64(buf, s.misses);
    put_u64(buf, s.evictions);
    put_u64(buf, s.collisions);
    put_u64(buf, s.entries as u64);
    put_u64(buf, s.capacity as u64);
}

fn take_cache_stats(cur: &mut WireCursor<'_>) -> Result<CacheStats, WireError> {
    Ok(CacheStats {
        hits: cur.take_u64()?,
        misses: cur.take_u64()?,
        evictions: cur.take_u64()?,
        collisions: cur.take_u64()?,
        entries: cur.take_u64()? as usize,
        capacity: cur.take_u64()? as usize,
        // Not part of the legacy 6-u64 block; filled in from the minor-1
        // extension by the Stats decoder.
        tier_hits: 0,
    })
}

/// Encode a Stats response body into `body` (cleared first): the legacy
/// minor-0 prefix byte-for-byte, then the [`STATS_MINOR`] extension (see
/// the module docs).
pub fn encode_stats_response(body: &mut impl BodySink, stats: &ServeStats) {
    body.clear();
    let buf = body.bytes();
    put_u8(buf, RESP_STATS);
    put_u64(buf, stats.connections);
    put_u64(buf, stats.frames);
    put_u64(buf, stats.requests);
    put_u64(buf, stats.responses);
    put_u64(buf, stats.errors);
    put_u64(buf, stats.coalesced);
    put_u64(buf, stats.resets);
    put_u64(buf, stats.workers);
    put_cache_stats(buf, &stats.cache);
    put_u32(buf, stats.shards.len() as u32);
    for s in &stats.shards {
        put_cache_stats(buf, s);
    }
    // Minor-1 extension (append-only; old decoders that stop at the
    // legacy boundary lose only the new counters).
    put_u8(buf, STATS_MINOR);
    put_u64(buf, stats.computations);
    put_u64(buf, stats.singleflight_leaders);
    put_u64(buf, stats.coalesced_waits);
    put_u64(buf, stats.cache.tier_hits);
    for s in &stats.shards {
        put_u64(buf, s.tier_hits);
    }
}

/// Encode a Reset acknowledgment body into `body` (cleared first).
pub fn encode_reset_response(body: &mut impl BodySink) {
    body.clear();
    put_u8(body.bytes(), RESP_RESET);
}

// ---------------------------------------------------------------------
// Response decoding
// ---------------------------------------------------------------------

fn take_error_body(cur: &mut WireCursor<'_>) -> Result<ErrorFrame, WireError> {
    let raw = cur.take_u16()?;
    let code = ErrorCode::from_u16(raw).ok_or(WireError::Malformed("unknown error code"))?;
    let message = cur.take_str()?.to_string();
    Ok(ErrorFrame { code, message })
}

/// Decode a response body into its owned form. Arbitrary bytes must
/// produce `Err`, never a panic (property-tested).
pub fn decode_response(body: &[u8]) -> Result<Response, WireError> {
    let mut cur = WireCursor::new(body);
    let kind = cur.take_u8()?;
    let resp = match kind {
        RESP_ROUTE => {
            let cached = match cur.take_u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("cached flag must be 0 or 1")),
            };
            let payload = cur.take_bytes()?.to_vec();
            Response::Route(RouteReply { cached, payload })
        }
        RESP_BATCH => {
            let count = cur.take_u32()? as usize;
            let mut items = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                match cur.take_u8()? {
                    0 => items.push(Err(take_error_body(&mut cur)?)),
                    1 => {
                        let cached = match cur.take_u8()? {
                            0 => false,
                            1 => true,
                            _ => return Err(WireError::Malformed("cached flag must be 0 or 1")),
                        };
                        items.push(Ok(RouteReply { cached, payload: cur.take_bytes()?.to_vec() }));
                    }
                    _ => return Err(WireError::Malformed("batch item tag must be 0 or 1")),
                }
            }
            Response::Batch(items)
        }
        RESP_STATS => {
            let connections = cur.take_u64()?;
            let frames = cur.take_u64()?;
            let requests = cur.take_u64()?;
            let responses = cur.take_u64()?;
            let errors = cur.take_u64()?;
            let coalesced = cur.take_u64()?;
            let resets = cur.take_u64()?;
            let workers = cur.take_u64()?;
            let mut cache = take_cache_stats(&mut cur)?;
            let n = cur.take_u32()? as usize;
            let mut shards = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                shards.push(take_cache_stats(&mut cur)?);
            }
            // Versioned tail: an empty cursor here is a legacy (minor 0)
            // frame — the new counters default to zero. Otherwise the
            // minor tag must be >= 1; known minor-1 fields decode
            // strictly, and anything a *newer* minor appended after them
            // is skipped.
            let (mut computations, mut singleflight_leaders, mut coalesced_waits) = (0, 0, 0);
            if !cur.is_empty() {
                let minor = cur.take_u8()?;
                if minor < STATS_MINOR {
                    return Err(WireError::Malformed("stats minor tag must be >= 1"));
                }
                computations = cur.take_u64()?;
                singleflight_leaders = cur.take_u64()?;
                coalesced_waits = cur.take_u64()?;
                cache.tier_hits = cur.take_u64()?;
                for s in shards.iter_mut() {
                    s.tier_hits = cur.take_u64()?;
                }
                if minor > STATS_MINOR {
                    cur.take_rest();
                }
            }
            Response::Stats(ServeStats {
                connections,
                frames,
                requests,
                responses,
                errors,
                coalesced,
                resets,
                workers,
                computations,
                singleflight_leaders,
                coalesced_waits,
                cache,
                shards,
            })
        }
        RESP_RESET => Response::Reset,
        RESP_ERROR => Response::Error(take_error_body(&mut cur)?),
        _ => return Err(WireError::Malformed("unknown response kind")),
    };
    cur.expect_end()?;
    Ok(resp)
}
