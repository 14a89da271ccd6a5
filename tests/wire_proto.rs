//! Frame-codec suite for the serve wire protocol (docs/SERVE.md).
//!
//! Round-trips every request/response/error variant, rejects truncated
//! and oversized frames with typed errors (never a panic), pins one
//! canonical Route frame byte-for-byte, and drives the server's
//! [`WorkerCore`] with hostile bytes to prove malformed input always
//! comes back as a typed error frame.

use cst::comm::CommSet;
use cst::core::{CstTopology, DirectedLink, FaultMask, NodeId};
use cst::engine::{CacheStats, Csa, EngineCtx};
use cst::serve::wire::{
    decode_payload, decode_request, decode_response, encode_batch_masked_request,
    encode_batch_request, encode_batch_response, encode_error_response, encode_outcome_payload,
    encode_payload, encode_request, encode_reset_request, encode_route_request,
    encode_route_response, encode_stats_request, encode_stats_response, read_frame, write_frame,
    write_frame_parts, DegradationSummary, FrameError, Reply, DEFAULT_MAX_FRAME, MAX_WIRE_LEAVES,
    STATS_MINOR,
};
use cst::serve::{
    ErrorCode, ErrorFrame, Request, Response, ServeConfig, ServeCounters, ServeShared, ServeStats,
    Server, WorkerCore,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn sample_set() -> CommSet {
    CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)])
}

/// A mask valid on the 8-leaf topology of [`sample_set`] — the decoder
/// rebuilds masks against the request set's own topology, so the ids
/// must be in range there.
fn sample_mask() -> FaultMask {
    let topo = CstTopology::with_leaves(8);
    let mut mask = FaultMask::empty(&topo);
    assert!(mask.kill_switch(NodeId(4)));
    assert!(mask.kill_link(DirectedLink { child: NodeId(3), up: true }));
    assert!(mask.degrade_edge(NodeId(2)));
    mask
}

fn sample_error() -> ErrorFrame {
    ErrorFrame { code: ErrorCode::InvalidRequest, message: "leaf 9 out of range".to_string() }
}

#[test]
fn requests_round_trip() {
    let mut buf = Vec::new();
    let originals = vec![
        Request::Route { router: "csa".into(), set: sample_set(), mask: None },
        Request::Route { router: "greedy".into(), set: sample_set(), mask: Some(sample_mask()) },
        Request::Batch {
            router: "general".into(),
            items: vec![
                (sample_set(), Some(sample_mask())),
                (CommSet::from_pairs(4, &[(0, 3)]), None),
            ],
        },
        Request::Stats,
        Request::Reset,
    ];
    for req in originals {
        encode_request(&mut buf, &req);
        let decoded = decode_request(&buf).expect("round trip decodes");
        // Masks are compared through the fingerprint the cache itself
        // keys on — the codec identity the protocol actually relies on.
        match (&req, &decoded) {
            (
                Request::Route { router: r1, set: s1, mask: m1 },
                Request::Route { router: r2, set: s2, mask: m2 },
            ) => {
                assert_eq!(r1, r2);
                assert_eq!(s1, s2);
                assert_eq!(
                    m1.as_ref().map(FaultMask::fingerprint),
                    m2.as_ref().map(FaultMask::fingerprint)
                );
            }
            (
                Request::Batch { router: r1, items: x1 },
                Request::Batch { router: r2, items: x2 },
            ) => {
                assert_eq!(r1, r2);
                assert_eq!(x1.len(), x2.len());
                for ((s1, m1), (s2, m2)) in x1.iter().zip(x2) {
                    assert_eq!(s1, s2);
                    assert_eq!(
                        m1.as_ref().map(FaultMask::fingerprint),
                        m2.as_ref().map(FaultMask::fingerprint)
                    );
                }
            }
            (Request::Stats, Request::Stats) | (Request::Reset, Request::Reset) => {}
            other => panic!("request changed shape across the wire: {other:?}"),
        }
    }
}

fn sample_stats() -> ServeStats {
    ServeStats {
        connections: 3,
        frames: 120,
        requests: 100,
        responses: 98,
        errors: 2,
        coalesced: 7,
        resets: 1,
        workers: 4,
        computations: 13,
        singleflight_leaders: 11,
        coalesced_waits: 9,
        cache: CacheStats {
            hits: 80,
            misses: 13,
            evictions: 5,
            collisions: 1,
            entries: 8,
            capacity: 64,
            tier_hits: 60,
        },
        shards: vec![
            CacheStats {
                hits: 50,
                misses: 7,
                evictions: 3,
                collisions: 1,
                entries: 5,
                capacity: 32,
                tier_hits: 40,
            },
            CacheStats {
                hits: 30,
                misses: 6,
                evictions: 2,
                collisions: 0,
                entries: 3,
                capacity: 32,
                tier_hits: 20,
            },
        ],
    }
}

/// Byte length of the minor-1 extension appended to a Stats body: the
/// minor tag, four u64 counters, and one u64 tier-hit count per shard.
fn stats_extension_len(stats: &ServeStats) -> usize {
    1 + 4 * 8 + stats.shards.len() * 8
}

#[test]
fn responses_round_trip() {
    let mut buf = Vec::new();
    let payload: Arc<[u8]> = Arc::from(&b"payload-bytes"[..]);

    encode_route_response(&mut buf, true, &payload);
    match decode_response(&buf).expect("route response decodes") {
        Response::Route(reply) => {
            assert!(reply.cached);
            assert_eq!(reply.payload, payload.as_ref());
        }
        other => panic!("expected Route, got {other:?}"),
    }

    let items = vec![Ok((false, Arc::clone(&payload))), Err(sample_error())];
    encode_batch_response(&mut buf, &items);
    match decode_response(&buf).expect("batch response decodes") {
        Response::Batch(decoded) => {
            assert_eq!(decoded.len(), 2);
            let first = decoded[0].as_ref().expect("first item ok");
            assert!(!first.cached);
            assert_eq!(first.payload, payload.as_ref());
            assert_eq!(decoded[1].as_ref().expect_err("second item err"), &sample_error());
        }
        other => panic!("expected Batch, got {other:?}"),
    }

    encode_stats_response(&mut buf, &sample_stats());
    match decode_response(&buf).expect("stats response decodes") {
        Response::Stats(stats) => assert_eq!(stats, sample_stats()),
        other => panic!("expected Stats, got {other:?}"),
    }

    crate_reset_round_trip(&mut buf);

    encode_error_response(&mut buf, &sample_error());
    match decode_response(&buf).expect("error response decodes") {
        Response::Error(e) => assert_eq!(e, sample_error()),
        other => panic!("expected Error, got {other:?}"),
    }
}

fn crate_reset_round_trip(buf: &mut Vec<u8>) {
    cst::serve::wire::encode_reset_response(buf);
    assert!(matches!(decode_response(buf), Ok(Response::Reset)));
}

#[test]
fn payloads_round_trip_with_and_without_degradation() {
    let mut buf = Vec::new();
    let schedule_json = br#"{"rounds":[{"comms":[0,1]}]}"#;
    encode_payload(&mut buf, "csa", 3, 42, 7, 9, None, schedule_json);
    let (summary, json) = decode_payload(&buf).expect("payload decodes");
    assert_eq!(summary.router, "csa");
    assert_eq!(summary.rounds, 3);
    assert_eq!(summary.power_total_units, 42);
    assert_eq!(summary.power_max_units, 7);
    assert_eq!(summary.max_port_transitions, 9);
    assert!(summary.degradation.is_none());
    assert_eq!(json, schedule_json);

    let degradation = DegradationSummary {
        total: 5,
        routed: 3,
        rerouted: 1,
        dropped: 2,
        extra_rounds: 1,
        dropped_ids: vec![1, 4],
    };
    encode_payload(&mut buf, "greedy", 4, 50, 8, 12, Some(&degradation), schedule_json);
    let (summary, json) = decode_payload(&buf).expect("degraded payload decodes");
    assert_eq!(summary.degradation, Some(degradation));
    assert_eq!(json, schedule_json);
}

#[test]
fn golden_route_request_bytes() {
    // Byte-pin of the canonical frame body: Route, router "csa",
    // CommSet{4 leaves, (0,3),(1,2)}, no mask. Little-endian throughout;
    // strings and pair lists carry u32 length prefixes (docs/SERVE.md).
    let mut buf = Vec::new();
    let set = CommSet::from_pairs(4, &[(0, 3), (1, 2)]);
    encode_route_request(&mut buf, "csa", &set, None);
    #[rustfmt::skip]
    let golden: Vec<u8> = vec![
        0x01,                                           // kind = Route
        0x03, 0x00, 0x00, 0x00, b'c', b's', b'a',       // router
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // num_leaves = 4
        0x02, 0x00, 0x00, 0x00,                         // 2 pairs
        0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, // (0, 3)
        0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // (1, 2)
        0x00,                                           // no mask
    ];
    assert_eq!(buf, golden, "the wire format is a frozen contract; bump docs/SERVE.md to change it");
}

#[test]
fn miss_payload_written_in_place_equals_encode_payload_over_serde_bytes() {
    // A served miss writes its schedule JSON straight into the payload
    // (`Schedule::write_json` behind a back-filled length prefix). Pin it
    // to the ready-made form over serde's bytes, for the golden route
    // request and for a masked request that drops communications.
    let golden = CommSet::from_pairs(4, &[(0, 3), (1, 2)]);
    for (set, mask) in [(golden, None), (sample_set(), Some(sample_mask()))] {
        let mut body = Vec::new();
        encode_route_request(&mut body, "csa", &set, mask.as_ref());
        let mut core = WorkerCore::new(Arc::new(ServeShared::new(ServeConfig::default())));
        let mut out = Vec::new();
        core.handle_frame(&body, &mut out);
        let Ok(Response::Route(reply)) = decode_response(&out) else {
            panic!("expected a route response, got {:?}", decode_response(&out));
        };
        assert!(!reply.cached);

        let topo = CstTopology::with_leaves(set.num_leaves());
        let mut ctx = EngineCtx::new();
        let o = match &mask {
            Some(m) => ctx.route_masked(&Csa, &topo, &set, m),
            None => ctx.route(&Csa, &topo, &set),
        }
        .unwrap();
        let degradation = o.degradation.as_ref().map(|d| DegradationSummary {
            total: d.total as u64,
            routed: d.routed as u64,
            rerouted: d.rerouted as u64,
            dropped: d.dropped as u64,
            extra_rounds: d.extra_rounds as u64,
            dropped_ids: d.drops.iter().map(|x| x.comm as u64).collect(),
        });
        if mask.is_some() {
            assert!(degradation.as_ref().is_some_and(|d| d.dropped > 0), "mask must drop");
        }
        let json = serde_json::to_string(&o.schedule).unwrap();
        let mut reference = Vec::new();
        encode_payload(
            &mut reference,
            o.router,
            o.rounds as u64,
            o.power.total_units,
            o.power.max_units,
            o.power.max_port_transitions,
            degradation.as_ref(),
            json.as_bytes(),
        );
        assert_eq!(reply.payload, reference);
        let mut in_place = Vec::new();
        encode_outcome_payload(&mut in_place, &o);
        assert_eq!(in_place, reference);
    }
}

#[test]
fn golden_batch_request_bytes() {
    // Byte-pin of the canonical Batch frame body with per-item mask
    // tags: router "csa", item 0 = CommSet{4 leaves, (0,3)} unmasked,
    // item 1 = the same set under a mask killing switch 1.
    let mut buf = Vec::new();
    let set = CommSet::from_pairs(4, &[(0, 3)]);
    let topo = CstTopology::with_leaves(4);
    let mut mask = FaultMask::empty(&topo);
    assert!(mask.kill_switch(NodeId(1)));
    encode_batch_masked_request(&mut buf, "csa", &[(set.clone(), None), (set, Some(mask))]);
    #[rustfmt::skip]
    let golden: Vec<u8> = vec![
        0x02,                                           // kind = Batch
        0x03, 0x00, 0x00, 0x00, b'c', b's', b'a',       // router
        0x02, 0x00, 0x00, 0x00,                         // 2 items
        // item 0: the set, unmasked
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // num_leaves = 4
        0x01, 0x00, 0x00, 0x00,                         // 1 pair
        0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, // (0, 3)
        0x00,                                           // mask tag = none
        // item 1: the same set, masked
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // num_leaves = 4
        0x01, 0x00, 0x00, 0x00,                         // 1 pair
        0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, // (0, 3)
        0x01,                                           // mask tag = present
        0x01, 0x00, 0x00, 0x00,                         // 1 dead switch
        0x01, 0x00, 0x00, 0x00,                         //   node 1
        0x00, 0x00, 0x00, 0x00,                         // 0 dead links
        0x00, 0x00, 0x00, 0x00,                         // 0 degraded edges
    ];
    assert_eq!(buf, golden, "the wire format is a frozen contract; bump docs/SERVE.md to change it");
}

#[test]
fn masked_batch_requests_round_trip() {
    let mut buf = Vec::new();
    let items =
        vec![(sample_set(), None), (sample_set(), Some(sample_mask())), (sample_set(), None)];
    encode_batch_masked_request(&mut buf, "greedy", &items);
    match decode_request(&buf).expect("masked batch decodes") {
        Request::Batch { router, items: decoded } => {
            assert_eq!(router, "greedy");
            assert_eq!(decoded.len(), items.len());
            for ((s1, m1), (s2, m2)) in items.iter().zip(&decoded) {
                assert_eq!(s1, s2);
                assert_eq!(
                    m1.as_ref().map(FaultMask::fingerprint),
                    m2.as_ref().map(FaultMask::fingerprint)
                );
            }
        }
        other => panic!("expected Batch, got {other:?}"),
    }
}

#[test]
fn hostile_batch_mask_tags_are_typed_errors() {
    // A mask tag outside {0, 1} on any item must be a typed decode
    // error, and the serving core must answer it with an error frame.
    let mut buf = Vec::new();
    encode_batch_masked_request(&mut buf, "csa", &[(sample_set(), None)]);
    let tag_pos = buf.len() - 1;
    assert_eq!(buf[tag_pos], 0);
    buf[tag_pos] = 2;
    assert!(decode_request(&buf).is_err(), "mask tag 2 must not decode");

    let shared = Arc::new(ServeShared::new(ServeConfig::default()));
    let mut core = WorkerCore::new(shared);
    let mut out = Vec::new();
    core.handle_frame(&buf, &mut out);
    match decode_response(&out) {
        Ok(Response::Error(e)) => assert!(!e.message.is_empty()),
        other => panic!("expected a typed error frame, got {other:?}"),
    }
}

#[test]
fn every_truncated_prefix_is_a_typed_error_never_a_panic() {
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    let mut buf = Vec::new();
    encode_route_request(&mut buf, "csa", &sample_set(), Some(&sample_mask()));
    bodies.push(buf.clone());
    encode_batch_request(&mut buf, "csa", &[sample_set(), sample_set()]);
    bodies.push(buf.clone());
    encode_batch_masked_request(&mut buf, "csa", &[(sample_set(), Some(sample_mask()))]);
    bodies.push(buf.clone());
    encode_stats_request(&mut buf);
    bodies.push(buf.clone());
    for body in &bodies {
        for cut in 0..body.len() {
            assert!(
                decode_request(&body[..cut]).is_err(),
                "strict prefix of length {cut} must fail to decode"
            );
        }
        assert!(decode_request(body).is_ok());
    }

    let payload: Arc<[u8]> = Arc::from(&b"xyz"[..]);
    let mut resp_bodies: Vec<Vec<u8>> = Vec::new();
    encode_route_response(&mut buf, false, &payload);
    resp_bodies.push(buf.clone());
    encode_batch_response(&mut buf, &[Ok((true, payload)), Err(sample_error())]);
    resp_bodies.push(buf.clone());
    encode_error_response(&mut buf, &sample_error());
    resp_bodies.push(buf.clone());
    for body in &resp_bodies {
        for cut in 0..body.len() {
            assert!(decode_response(&body[..cut]).is_err());
        }
        assert!(decode_response(body).is_ok());
    }

    // Stats is the one versioned frame: exactly one strict prefix — the
    // cut at the legacy (minor-0) boundary — is a *valid* frame by
    // design. Every other prefix must still fail.
    let stats = sample_stats();
    encode_stats_response(&mut buf, &stats);
    let legacy_len = buf.len() - stats_extension_len(&stats);
    for cut in 0..buf.len() {
        if cut == legacy_len {
            assert!(
                decode_response(&buf[..cut]).is_ok(),
                "the legacy-boundary prefix is a valid minor-0 frame"
            );
        } else {
            assert!(
                decode_response(&buf[..cut]).is_err(),
                "stats prefix of length {cut} must fail to decode"
            );
        }
    }
    assert!(decode_response(&buf).is_ok());
}

#[test]
fn legacy_minor0_stats_frames_decode_with_new_counters_zeroed() {
    // A minor-0 peer stops writing at the legacy boundary. Decoding its
    // frame must succeed and leave every extension field at zero.
    let stats = sample_stats();
    let mut buf = Vec::new();
    encode_stats_response(&mut buf, &stats);
    buf.truncate(buf.len() - stats_extension_len(&stats));
    match decode_response(&buf).expect("legacy stats frame decodes") {
        Response::Stats(decoded) => {
            let mut expected = stats.clone();
            expected.computations = 0;
            expected.singleflight_leaders = 0;
            expected.coalesced_waits = 0;
            expected.cache.tier_hits = 0;
            for s in &mut expected.shards {
                s.tier_hits = 0;
            }
            assert_eq!(decoded, expected);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
}

#[test]
fn explicit_zero_stats_minor_tag_is_malformed() {
    // Minor 0 is expressed by *absence* (the legacy boundary); a frame
    // that writes a 0 tag byte is lying about its version.
    let stats = sample_stats();
    let mut buf = Vec::new();
    encode_stats_response(&mut buf, &stats);
    let legacy_len = buf.len() - stats_extension_len(&stats);
    assert_eq!(buf[legacy_len], STATS_MINOR);
    buf[legacy_len] = 0;
    assert!(decode_response(&buf).is_err());
}

#[test]
fn future_stats_minors_decode_their_known_prefix() {
    // A newer peer bumps the minor tag and appends fields we do not
    // know. The decoder must read the minor-1 fields it understands and
    // skip the rest.
    let stats = sample_stats();
    let mut buf = Vec::new();
    encode_stats_response(&mut buf, &stats);
    let legacy_len = buf.len() - stats_extension_len(&stats);
    buf[legacy_len] = STATS_MINOR + 1;
    buf.extend_from_slice(&0xdead_beef_u64.to_le_bytes()); // hypothetical minor-2 field
    match decode_response(&buf).expect("future-minor stats frame decodes") {
        Response::Stats(decoded) => assert_eq!(decoded, stats),
        other => panic!("expected Stats, got {other:?}"),
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut buf = Vec::new();
    encode_reset_request(&mut buf);
    buf.push(0xAB);
    assert!(decode_request(&buf).is_err(), "a valid body plus trailing bytes must not decode");
}

#[test]
fn oversized_and_truncated_frames_are_typed_io_errors() {
    // A header claiming more than the cap is refused before any
    // allocation or body read — including the hostile u32::MAX length.
    for claimed in [1025u32, u32::MAX] {
        let mut wire = Vec::new();
        wire.extend_from_slice(&claimed.to_le_bytes());
        wire.extend_from_slice(&[0x55; 1025]);
        let mut r = wire.as_slice();
        let mut body = Vec::new();
        match read_frame(&mut r, &mut body, 1024) {
            Err(FrameError::Oversize { len, max }) => {
                assert_eq!(len, claimed as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversize, got {other:?}"),
        }
        assert_eq!(r.len(), 1025, "only the 4 header bytes were consumed");
        assert_eq!(body.capacity(), 0, "nothing was allocated for the body");
    }

    // A frame cut off mid-body surfaces as UnexpectedEof, not a hang or
    // a panic.
    let mut wire = Vec::new();
    write_frame(&mut wire, b"hello world").expect("write");
    wire.truncate(wire.len() - 3);
    let mut body = Vec::new();
    match read_frame(&mut wire.as_slice(), &mut body, DEFAULT_MAX_FRAME) {
        Err(FrameError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("expected io error, got {other:?}"),
    }

    // Clean EOF at a frame boundary reads as `Ok(false)`.
    let mut empty: &[u8] = &[];
    assert!(!read_frame(&mut empty, &mut body, DEFAULT_MAX_FRAME).expect("clean eof"));

    // And an intact frame round-trips through the stream form.
    let mut wire = Vec::new();
    write_frame(&mut wire, b"hello world").expect("write");
    assert!(read_frame(&mut wire.as_slice(), &mut body, DEFAULT_MAX_FRAME).expect("read"));
    assert_eq!(body, b"hello world");
}

/// A writer that takes at most `k` bytes per call, optionally across
/// several slices of one `write_vectored` call, and counts its calls.
struct Trickle {
    wire: Vec<u8>,
    k: usize,
    vectored: bool,
    calls: usize,
}

impl std::io::Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        let n = buf.len().min(self.k);
        self.wire.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        if !self.vectored {
            // The default: only the first non-empty slice is written.
            let first = bufs.iter().find(|b| !b.is_empty()).map_or(&[][..], |b| &b[..]);
            return self.write(first);
        }
        self.calls += 1;
        let mut n = 0;
        for b in bufs {
            let take = b.len().min(self.k - n);
            self.wire.extend_from_slice(&b[..take]);
            n += take;
            if n == self.k {
                break;
            }
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn framed(body: &[u8]) -> Vec<u8> {
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(body);
    wire
}

#[test]
fn frames_survive_writers_that_take_a_few_bytes_per_call() {
    let payload: Arc<[u8]> = (0..=255u8).cycle().take(1000).collect::<Vec<u8>>().into();
    let mut route = Reply::default();
    encode_route_response(&mut route, true, &payload);
    let items = vec![
        Ok((false, Arc::clone(&payload))),
        Err(sample_error()),
        Ok((true, Arc::clone(&payload))),
        Err(sample_error()),
    ];
    let mut batch = Reply::default();
    encode_batch_response(&mut batch, &items);
    let (mut route_flat, mut batch_flat) = (Vec::new(), Vec::new());
    encode_route_response(&mut route_flat, true, &payload);
    encode_batch_response(&mut batch_flat, &items);

    for k in [1, 3, 4, 5, 4096] {
        for vectored in [false, true] {
            let trickle = || Trickle { wire: Vec::new(), k, vectored, calls: 0 };
            let mut w = trickle();
            write_frame(&mut w, b"hello world").expect("write_frame");
            assert_eq!(w.wire, framed(b"hello world"), "k={k} vectored={vectored}");
            if vectored && k == 4096 {
                assert_eq!(w.calls, 1, "header and body leave in one vectored call");
            }
            for (reply, flat) in [(&route, &route_flat), (&batch, &batch_flat)] {
                let mut w = trickle();
                write_frame_parts(&mut w, reply.parts()).expect("write_frame_parts");
                assert_eq!(w.wire, framed(flat), "k={k} vectored={vectored}");
            }
        }
    }
}

#[test]
fn read_frame_reuses_a_longer_buffer_without_a_stale_tail() {
    // Long frame, short frame, then a frame whose body is cut short: the
    // reused buffer must hold exactly each body, and the cut one must
    // still be an io `UnexpectedEof`.
    let mut wire = framed(&[0xAA; 100]);
    wire.extend_from_slice(&framed(b"short"));
    wire.extend_from_slice(&10u32.to_le_bytes());
    wire.extend_from_slice(b"four");
    let mut r = wire.as_slice();
    let mut body = Vec::new();
    assert!(read_frame(&mut r, &mut body, DEFAULT_MAX_FRAME).expect("long frame"));
    assert_eq!(body, [0xAA; 100]);
    assert!(read_frame(&mut r, &mut body, DEFAULT_MAX_FRAME).expect("short frame"));
    assert_eq!(body, b"short");
    match read_frame(&mut r, &mut body, DEFAULT_MAX_FRAME) {
        Err(FrameError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("expected UnexpectedEof, got {other:?}"),
    }
}

#[test]
fn socket_responses_are_the_handle_frame_bytes() {
    // The daemon writes each response from its parts (cached payloads
    // straight from their `Arc`s); a private worker on its own shared
    // state, fed the same frames, writes the flat `handle_frame` body.
    // Frame for frame the socket must carry exactly `len ‖ body`.
    let config = ServeConfig { workers: 1, ..ServeConfig::default() };
    let path = std::env::temp_dir().join(format!("cst_wire_proto_{}.sock", std::process::id()));
    let server = Server::bind_unix(&path, config.clone()).expect("bind unix");
    let shared = Arc::new(ServeShared::new(config));
    // The daemon counts the accepted connection outside `handle_frame`.
    ServeCounters::bump(&shared.counters.connections);
    let mut core = WorkerCore::new(shared);

    let mut rng = StdRng::seed_from_u64(0xB17E);
    let set = cst::workloads::well_nested_with_density(&mut rng, 256, 0.6);
    let other = cst::workloads::well_nested_with_density(&mut rng, 64, 0.6);
    let crossing = CommSet::from_pairs(8, &[(0, 4), (2, 6)]);
    let mut frames: Vec<(&str, Vec<u8>)> = Vec::new();
    let mut body = Vec::new();
    encode_route_request(&mut body, "csa", &set, None);
    frames.push(("route miss", body.clone()));
    frames.push(("route hit", body.clone()));
    encode_route_request(&mut body, "csa", &sample_set(), Some(&sample_mask()));
    frames.push(("masked route", body.clone()));
    encode_batch_request(&mut body, "csa", &[other.clone(), crossing, other, set]);
    frames.push(("batch with a duplicate and a failing item", body.clone()));
    encode_stats_request(&mut body);
    frames.push(("stats", body.clone()));

    let mut sock = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    // A reply shorter than expected must fail the test, not hang it.
    sock.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("read timeout");
    let mut expected = Vec::new();
    for (what, body) in &frames {
        write_frame(&mut sock, body).expect("send");
        core.handle_frame(body, &mut expected);
        let mut got = vec![0u8; 4 + expected.len()];
        std::io::Read::read_exact(&mut sock, &mut got).expect("response bytes");
        assert_eq!(got, framed(&expected), "{what}");
        if what.starts_with("batch") {
            let Ok(Response::Batch(items)) = decode_response(&expected) else {
                panic!("{what}: expected a Batch response");
            };
            assert!(items[1].is_err(), "the crossing item fails");
            assert!(items[2].as_ref().is_ok_and(|r| r.cached), "the duplicate is served cached");
        }
    }
    drop(sock);
    server.shutdown();
}

#[test]
fn worker_core_answers_hostile_bytes_with_typed_error_frames() {
    let shared = Arc::new(ServeShared::new(ServeConfig::default()));
    let mut core = WorkerCore::new(shared);
    let mut out = Vec::new();
    let hostile: Vec<Vec<u8>> = vec![
        vec![],                                  // empty body
        vec![0x7F],                              // unknown request kind
        vec![0x01, 0xFF, 0xFF, 0xFF, 0xFF],      // router length = u32::MAX
        vec![0x01, 0x03, 0x00, 0x00, 0x00],      // router bytes missing
        {
            // Valid route request for a set that fails validation
            // (self-communication 2 -> 2).
            let mut buf = Vec::new();
            buf.push(0x01);
            buf.extend_from_slice(&3u32.to_le_bytes());
            buf.extend_from_slice(b"csa");
            buf.extend_from_slice(&8u64.to_le_bytes());
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.extend_from_slice(&2u32.to_le_bytes());
            buf.extend_from_slice(&2u32.to_le_bytes());
            buf.push(0);
            buf
        },
    ];
    for (i, body) in hostile.iter().enumerate() {
        core.handle_frame(body, &mut out);
        match decode_response(&out) {
            Ok(Response::Error(e)) => {
                assert!(!e.message.is_empty(), "case {i}: error frames carry a message")
            }
            other => panic!("case {i}: expected a typed error frame, got {other:?}"),
        }
    }
}

#[test]
fn hostile_num_leaves_is_a_typed_error_not_an_abort() {
    // A set declaring 2^40 leaves and zero pairs: 21 bytes as a Route
    // frame. Validation scratch is sized by num_leaves, so without the
    // cap this frame alone would abort the daemon on allocation failure.
    let huge = 1u64 << 40;
    let mut route = vec![0x01];
    route.extend_from_slice(&3u32.to_le_bytes());
    route.extend_from_slice(b"csa");
    route.extend_from_slice(&huge.to_le_bytes());
    route.extend_from_slice(&0u32.to_le_bytes());
    route.push(0);
    assert_eq!(route.len(), 21);
    let mut batch = vec![0x02];
    batch.extend_from_slice(&3u32.to_le_bytes());
    batch.extend_from_slice(b"csa");
    batch.extend_from_slice(&1u32.to_le_bytes());
    batch.extend_from_slice(&huge.to_le_bytes());
    batch.extend_from_slice(&0u32.to_le_bytes());
    batch.push(0);

    let shared = Arc::new(ServeShared::new(ServeConfig::default()));
    let mut core = WorkerCore::new(shared);
    let mut out = Vec::new();
    for (body, code) in [(&route, ErrorCode::InvalidRequest), (&batch, ErrorCode::BadFrame)] {
        assert!(decode_request(body).is_err(), "the owned decoder rejects it too");
        core.handle_frame(body, &mut out);
        match decode_response(&out) {
            Ok(Response::Error(e)) => assert_eq!(e.code, code, "{}", e.message),
            other => panic!("expected a typed error frame, got {other:?}"),
        }
    }
    // The cap itself is still a valid size, and the worker keeps serving.
    let mut buf = Vec::new();
    encode_route_request(&mut buf, "csa", &CommSet::from_pairs(MAX_WIRE_LEAVES, &[(0, 1)]), None);
    assert!(matches!(decode_request(&buf), Ok(Request::Route { .. })));
    encode_route_request(&mut buf, "csa", &sample_set(), None);
    core.handle_frame(&buf, &mut out);
    assert!(matches!(decode_response(&out), Ok(Response::Route(_))), "valid frame still served");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Seeded random well-nested sets round-trip through the Route
    /// request encoding at every size.
    #[test]
    fn random_route_requests_round_trip(seed in 0u64..1_000_000, n_exp in 2u32..=8) {
        let n = 1usize << n_exp;
        let mut rng = StdRng::seed_from_u64(seed);
        let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.6);
        let mut buf = Vec::new();
        encode_route_request(&mut buf, "csa-parallel", &set, None);
        match decode_request(&buf) {
            Ok(Request::Route { router, set: decoded, mask: None }) => {
                prop_assert_eq!(router, "csa-parallel");
                prop_assert_eq!(decoded, set);
            }
            other => prop_assert!(false, "unexpected decode: {:?}", other),
        }
    }

    /// Arbitrary byte soup never panics the request decoder; it decodes
    /// or it returns a typed `WireError`.
    #[test]
    fn decoders_never_panic_on_byte_soup(
        bytes in proptest::collection::vec(0u8..=255u8, 256),
        len in 0usize..=256,
    ) {
        let soup = &bytes[..len];
        let _ = decode_request(soup);
        let _ = decode_response(soup);
        let _ = decode_payload(soup);
    }
}
