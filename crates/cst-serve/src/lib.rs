//! cst-serve: sharded concurrent routing daemon for the CST engine.
//!
//! Serves routing requests over a length-prefixed binary protocol on TCP
//! or Unix sockets. Three layers:
//!
//! * [`wire`] — the frame codec: requests (`Route`/`Batch`/`Stats`/
//!   `Reset`), responses, typed error frames, and the cached route
//!   *payload* (summary + serde schedule bytes) that is the unit the
//!   shared cache stores, and the [`wire::Reply`] parts the daemon
//!   writes a response from (payloads by `Arc`, one vectored write).
//! * [`server`] — the daemon: a pool of worker threads, each pinning one
//!   warm [`cst_engine::EngineCtx`], in front of one shared
//!   [`cst_engine::ShardedScheduleCache`] keyed by the same request
//!   fingerprints the engine's own cache uses. [`WorkerCore`] is the
//!   socket-free per-frame core, exposed for direct testing (the
//!   allocation gate drives it warm and demands 0 allocs on cached
//!   requests).
//! * [`client`] — a blocking [`ServeClient`] used by `cst-tools
//!   bench-serve` and the stress suite.
//!
//! Design notes live in `docs/SERVE.md`; the end-to-end correctness
//! contract (concurrent responses byte-identical to a fresh
//! single-caller engine) is pinned by `tests/serve_stress.rs`.

pub mod client;
pub mod server;
pub mod stats;
pub mod wire;

pub use client::{ClientError, ServeClient};
pub use server::{ServeAddr, ServeConfig, ServeShared, Server, WorkerCore};
pub use stats::{ServeCounters, ServeStats};
pub use wire::{ErrorCode, ErrorFrame, Request, Response, RouteReply, RouteSummary};
