//! # cst-decomp — layered decomposition front-end
//!
//! Everything downstream of the partitioner speaks the paper's
//! Definition 1 vocabulary: right-oriented, well-nested, unique
//! endpoints. This crate turns arbitrary traffic into that vocabulary:
//! a [`cst_core::GeneralCommSet`] is split into a small number of
//! *layers*, each of which is a legal [`cst_comm::CommSet`], and the
//! layers are routed back to back by the engine (`cst-engine`'s
//! `route_general`), their schedules concatenated into one composite,
//! and the composite is packed toward the congestion bound ([`Packer`]):
//! each communication moves to the earliest round where its directed
//! links and PEs are free.
//!
//! Two pairs can share a layer iff they neither **cross** (partial
//! interval overlap — the well-nestedness obstruction) nor **share an
//! endpoint** (the paper's Step 1.1 allows each PE one role per set).
//! That pairwise relation is the whole feasibility condition, so layer
//! assignment is graph coloring of the conflict graph — a circle-graph
//! generalization of interval coloring, NP-hard in general. The layer
//! count does not set the round count, though: the packer moves each
//! communication to the earliest free round whatever layer it came
//! from, so the layering only has to be cheap and legal. The algorithm
//! ([`decompose`]):
//!
//! 0. **Conflict bitset**: the graph is built once, one `u64` row per
//!    pair (stored up to [`DENSE_LIMIT`] pairs, recomputed per use
//!    above).
//! 1. **First-fit coloring**, twice: in outermost-first order and in
//!    conflict-degree order (each layer the OR of its members' rows,
//!    so a fit test is one bit); the one with fewer layers wins.
//! 2. **Lower-bound certificate**: the max over endpoint multiplicity
//!    cliques and mutually-crossing cliques (anchored longest-increasing-
//!    subsequence sweep, exact over all anchors below
//!    [`STRONG_BOUND_LIMIT`]). The witness — a list of pairwise
//!    conflicting pair ids — ships with the result and is re-verified by
//!    `cst-check`'s `CST303` audit.
//!
//! [`Decomposition::proven_optimal`] is set exactly when the layer count
//! meets the bound. See `docs/DECOMP.md` for the full story and the
//! composition invariants the `CST3xx` diagnostics audit.

mod assemble;
mod certificate;
mod graph;
mod layering;
mod pack;

pub use assemble::{append_layer, layer_schedule};
pub use certificate::{certificate, Certificate};
pub use graph::DENSE_LIMIT;
pub use layering::{decompose, decompose_timed, DecompTimings, Decomposition, STRONG_BOUND_LIMIT};
pub use pack::Packer;
