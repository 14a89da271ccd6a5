//! # cst-core — circuit switched tree substrate
//!
//! The substrate every other crate in this workspace builds on:
//!
//! * [`topology`] — the complete binary tree (N = 2^k leaves, N−1 switches);
//! * [`switch`] — the 3-sided circuit switch and its legal configurations;
//! * [`link`] — directed tree links, the unit of communication conflict;
//! * [`path`] — circuits (switch settings + links) for one communication;
//! * [`compat`] — the verifier's circuit-by-circuit round merge and
//!   compatibility check;
//! * [`round`] — flat per-round configuration storage (dense arena +
//!   compact sorted table) and [`CircuitTable`], the one writer of a
//!   round's table from its members;
//! * [`power`] — the PADR power model: one unit per connection established,
//!   holding is free;
//! * [`pe`] — processing-element roles;
//! * [`diag`] — typed `CST0xx` diagnostics shared by the static analyzer
//!   (`cst-check`) and the runtime verifiers;
//! * [`fault`] — dense hardware fault masks (dead switches/links,
//!   half-duplex edges) and the exact path-routability oracle;
//! * [`trace`] — neutral protocol traces (per-switch message records)
//!   emitted by the schedulers/simulators and replayed by the reference
//!   model (`cst-model`, `CST2xx` diagnostics);
//! * [`general`] — arbitrary (not-well-nested) communication sets, the
//!   input vocabulary of the decomposition front-end (`cst-decomp`,
//!   `CST3xx` diagnostics);
//! * [`wire`] — little-endian, length-prefixed binary codec primitives
//!   (borrowing decode, typed errors) underpinning the `cst-serve` frame
//!   protocol.
//!
//! The model follows El-Boghdadi, *"Power-Aware Routing for Well-Nested
//! Communications On The Circuit Switched Tree"*, IPPS 2007, §2.

pub mod compat;
pub mod diag;
pub mod error;
pub mod fault;
pub mod fp;
pub mod general;
pub mod link;
pub mod node;
pub mod path;
pub mod pe;
pub mod power;
pub mod round;
pub mod switch;
pub mod topology;
pub mod trace;
pub mod wire;

pub use compat::MergedRound;
pub use diag::{DiagCode, DiagReport, Diagnostic, Severity};
pub use error::CstError;
pub use fault::{FaultCause, FaultMask};
pub use fp::Fp64;
pub use general::{pairs_conflict, GeneralCommSet};
pub use link::{DirectedLink, LinkOccupancy};
pub use node::{LeafId, NodeId};
pub use path::Circuit;
pub use pe::PeRole;
pub use power::{charge_round, PowerMeter, PowerReport, SwitchPower, MAX_UNITS_PER_RECONFIG};
pub use round::{CircuitTable, ConfigArena, ConfigLookup, RoundConfigs};
pub use switch::{Connection, Side, SwitchConfig};
pub use topology::CstTopology;
pub use trace::{ProtoKind, ProtoMsg, ProtocolRound, ProtocolTrace, SwitchEvent};
pub use wire::{WireCursor, WireError};
