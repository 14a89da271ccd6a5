//! Server-side layer attribution: a single-caller, in-process replay of
//! the stream head, outside the daemon.
//!
//! Each frame goes through `WorkerCore::handle_frame` on one
//! `ServeShared` (side A, timed whole). It also goes through the
//! daemon's public functions, called in `serve_one` order with a span
//! around each, against an identically configured second `ServeShared`
//! (side B). Both sides see the same frames in the same order, so their
//! caches evolve alike and B must produce A's response bytes exactly.
//! B's spans, summed, must account for A's time (`span_coverage`).

use crate::trace::{Recorder, Span, ROOT};
use crate::workload::{Frame, ServeStream};
use cst_comm::CommSet;
use cst_core::{CstTopology, FaultMask};
use cst_engine::{request_fingerprint, EngineCtx, Joined};
use cst_serve::wire::{
    decode_request, encode_batch_masked_request, encode_batch_response, encode_payload,
    encode_route_request, encode_route_response, DegradationSummary, ErrorCode, ErrorFrame,
    Request, ServedItem, RESP_BATCH, RESP_ROUTE,
};
use cst_serve::{ServeConfig, ServeShared, WorkerCore};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The daemon's configuration, as `cst-tools serve` builds it from the
/// flags the benchmark passes.
fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        cache_capacity: 256,
        shard_bits: 2,
        ..ServeConfig::default()
    }
}

/// What the replay measured.
#[derive(Default)]
pub struct Replay {
    /// `handle_frame` time per class (hit, miss, batch), in µs.
    pub handle_us: BTreeMap<&'static str, Vec<f64>>,
    /// Per class: summed side-B span time and summed `handle_frame` time.
    pub coverage: BTreeMap<&'static str, (u64, u64)>,
    /// Frames whose side-B response bytes differ from side A's.
    pub mismatches: u64,
    pub frames: u64,
    pub spans: Vec<Span>,
    /// CSA phase split of side B's unmasked CSA-family routes, in µs.
    pub csa_validate_us: Vec<f64>,
    pub csa_phase1_us: Vec<f64>,
    pub csa_rounds_us: Vec<f64>,
}

/// Side B: the public calls of the serve path, each under a span.
struct PublicPath {
    shared: ServeShared,
    ctx: EngineCtx,
    topo: Option<CstTopology>,
    payload_buf: Vec<u8>,
    rec: Recorder,
    csa: [Vec<f64>; 3],
}

impl PublicPath {
    fn serve_one(
        &mut self,
        parent: u32,
        req: u64,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Result<(bool, Arc<[u8]>), ErrorFrame> {
        let PublicPath { shared, rec, .. } = self;
        let fp = rec.time("request_fingerprint", parent, req, || {
            request_fingerprint(router, set, mask)
        });
        if let Some(p) = rec.time("lookup_payload_tier", parent, req, || {
            shared.cache.lookup_payload_tier(fp, router, set, mask)
        }) {
            return Ok((true, p));
        }
        let joined = rec.time("SingleFlight::join", parent, req, || {
            shared
                .flights
                .join(fp, router, set, mask, Duration::from_secs(10))
        });
        let Joined::Lead(lease) = joined else {
            return Err(internal("a single caller always leads its flight"));
        };
        if let Some(p) = rec.time("lookup_payload", parent, req, || {
            shared.cache.lookup_payload(fp, router, set, mask)
        }) {
            rec.time("FlightLease::complete", parent, req, || {
                lease.complete(Arc::clone(&p))
            });
            return Ok((true, p));
        }
        let payload = self.route_and_insert(parent, req, router, set, mask, fp)?;
        self.rec.time("FlightLease::complete", parent, req, || {
            lease.complete(Arc::clone(&payload))
        });
        Ok((false, payload))
    }

    fn route_and_insert(
        &mut self,
        parent: u32,
        req: u64,
        router_name: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
        fp: u64,
    ) -> Result<Arc<[u8]>, ErrorFrame> {
        let PublicPath {
            shared,
            ctx,
            topo,
            payload_buf,
            rec,
            csa,
        } = self;
        let router = rec
            .time("cst_engine::find", parent, req, || {
                cst_engine::find(router_name)
            })
            .ok_or_else(|| ErrorFrame {
                code: ErrorCode::UnknownRouter,
                message: format!("unknown router {router_name:?}"),
            })?;
        let n = set.num_leaves();
        if topo.as_ref().is_none_or(|t| t.num_leaves() != n) {
            let built = rec.time("CstTopology::new", parent, req, || CstTopology::new(n));
            *topo = Some(built.map_err(|e| internal(&e.to_string()))?);
        }
        let topo = topo.as_ref().expect("topology just ensured");
        let routed = match mask {
            Some(m) => rec.time("EngineCtx::route_masked", parent, req, || {
                ctx.route_masked(router.as_ref(), topo, set, m)
            }),
            None => rec.time("EngineCtx::route", parent, req, || {
                ctx.route(router.as_ref(), topo, set)
            }),
        };
        let mut outcome = routed.map_err(|e| ErrorFrame {
            code: ErrorCode::RouteFailed,
            message: e.to_string(),
        })?;
        if mask.is_none() && (outcome.timings.phase1_ns > 0 || outcome.timings.rounds_ns > 0) {
            let t = outcome.timings;
            for (v, ns) in csa
                .iter_mut()
                .zip([t.validate_ns, t.phase1_ns, t.rounds_ns])
            {
                v.push(ns as f64 / 1e3);
            }
        }
        let json = rec
            .time("serde_json::to_string", parent, req, || {
                serde_json::to_string(&outcome.schedule)
            })
            .map_err(|e| ErrorFrame {
                code: ErrorCode::RouteFailed,
                message: e.to_string(),
            })?;
        let payload: Arc<[u8]> = rec.time("encode_payload", parent, req, || {
            let degradation = outcome.degradation.as_ref().map(|d| DegradationSummary {
                total: d.total as u64,
                routed: d.routed as u64,
                rerouted: d.rerouted as u64,
                dropped: d.dropped as u64,
                extra_rounds: d.extra_rounds as u64,
                dropped_ids: d.drops.iter().map(|x| x.comm as u64).collect(),
            });
            encode_payload(
                payload_buf,
                outcome.router,
                outcome.rounds as u64,
                outcome.power.total_units,
                outcome.power.max_units,
                outcome.power.max_port_transitions,
                degradation.as_ref(),
                json.as_bytes(),
            );
            Arc::from(payload_buf.as_slice())
        });
        let schedule = std::mem::take(&mut outcome.schedule);
        let victim = rec.time("insert_with_payload", parent, req, || {
            shared.cache.insert_with_payload(
                fp,
                outcome.router,
                set,
                mask,
                schedule,
                &outcome.power,
                outcome.degradation.as_ref(),
                Arc::clone(&payload),
            )
        });
        rec.time("EngineCtx::recycle", parent, req, || {
            outcome.schedule = victim.unwrap_or_default();
            ctx.recycle(outcome);
        });
        Ok(payload)
    }

    /// One frame through the public path, mirroring `handle_frame`.
    fn handle(&mut self, body: &[u8], out: &mut Vec<u8>, req: u64) {
        let root = self.rec.open("handle_frame(public path)", ROOT, req);
        let decoded = self
            .rec
            .time("decode_request", root, req, || decode_request(body));
        match decoded {
            Ok(Request::Route { router, set, mask }) => {
                let item = self.serve_one(root, req, &router, &set, mask.as_ref());
                self.rec
                    .time("encode_route_response", root, req, || match &item {
                        Ok((cached, payload)) => encode_route_response(out, *cached, payload),
                        Err(_) => out.clear(),
                    });
            }
            Ok(Request::Batch { router, items }) => {
                let mut fps: Vec<u64> = Vec::with_capacity(items.len());
                let mut served: Vec<ServedItem> = Vec::with_capacity(items.len());
                for (i, (set, mask)) in items.iter().enumerate() {
                    let fp = self.rec.time("request_fingerprint", root, req, || {
                        request_fingerprint(&router, set, mask.as_ref())
                    });
                    fps.push(fp);
                    let twin = self.rec.time("batch coalesce scan", root, req, || {
                        (0..i).find(|&j| fps[j] == fp && items[j].0 == *set && items[j].1 == *mask)
                    });
                    let item = match twin {
                        Some(j) => match &served[j] {
                            Ok((_, payload)) => Ok((true, Arc::clone(payload))),
                            Err(e) => Err(e.clone()),
                        },
                        None => self.serve_one(root, req, &router, set, mask.as_ref()),
                    };
                    served.push(item);
                }
                self.rec.time("encode_batch_response", root, req, || {
                    encode_batch_response(out, &served)
                });
            }
            _ => out.clear(),
        }
        self.rec.close(root);
    }
}

fn internal(msg: &str) -> ErrorFrame {
    ErrorFrame {
        code: ErrorCode::InvalidRequest,
        message: msg.to_string(),
    }
}

/// Replay the first `frames` stream frames through both sides.
pub fn replay(stream: &ServeStream, frames: usize, epoch: Instant) -> Replay {
    let mut worker = WorkerCore::new(Arc::new(ServeShared::new(config())));
    let mut public = PublicPath {
        shared: ServeShared::new(config()),
        ctx: EngineCtx::new(),
        topo: None,
        payload_buf: Vec::new(),
        rec: Recorder::new(epoch),
        csa: Default::default(),
    };
    let mut r = Replay::default();
    let (mut body, mut out_a, mut out_b) = (Vec::new(), Vec::new(), Vec::new());
    for (i, frame) in stream.frames.iter().take(frames).enumerate() {
        match frame {
            Frame::Route(k) => {
                let q = &stream.reqs[*k as usize];
                encode_route_request(&mut body, q.router, &q.set, q.mask.as_ref());
            }
            Frame::Batch { items, .. } => encode_batch_masked_request(&mut body, "csa", items),
        }
        // Alternate which side runs first, so neither always finds the
        // request bytes warm in cache.
        let mut a_ns = 0;
        let first_span = public.rec.spans.len();
        for side in [i % 2, 1 - i % 2] {
            if side == 0 {
                let t0 = Instant::now();
                worker.handle_frame(&body, &mut out_a);
                a_ns = t0.elapsed().as_nanos() as u64;
            } else {
                public.handle(&body, &mut out_b, i as u64);
            }
        }
        let class = match (out_a.first(), out_a.get(1)) {
            (Some(&RESP_ROUTE), Some(1)) => "hit",
            (Some(&RESP_ROUTE), _) => "miss",
            (Some(&RESP_BATCH), _) => "batch",
            _ => "error",
        };
        let root = &public.rec.spans[first_span];
        let covered: u64 = public.rec.spans[first_span + 1..]
            .iter()
            .filter(|s| s.parent == first_span as u32)
            .map(Span::dur_ns)
            .sum();
        debug_assert_eq!(root.parent, ROOT);
        let entry = r.coverage.entry(class).or_default();
        entry.0 += covered;
        entry.1 += a_ns;
        r.handle_us
            .entry(class)
            .or_default()
            .push(a_ns as f64 / 1e3);
        if out_a != out_b {
            r.mismatches += 1;
        }
        r.frames += 1;
    }
    let [validate, phase1, rounds] = public.csa;
    r.csa_validate_us = validate;
    r.csa_phase1_us = phase1;
    r.csa_rounds_us = rounds;
    r.spans = public.rec.spans;
    r
}
