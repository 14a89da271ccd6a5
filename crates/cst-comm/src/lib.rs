//! # cst-comm — communication sets on the circuit switched tree
//!
//! Models the inputs of the paper's scheduling problem:
//!
//! * [`communication`] — `(source, destination)` pairings and interval
//!   relations (nesting, disjointness, crossing);
//! * [`set`] — validated communication sets, well-nestedness and
//!   orientation checks, nesting depths, decomposition, mirroring;
//! * [`parens`] — the balanced-parenthesis view of well-nested sets;
//! * [`width`] — per-link load and the width `w` (the round lower bound);
//! * [`schedule`] — the common `Schedule` output type and its verifier;
//! * [`check`] — the diagnostic round pass shared with `cst-check`;
//! * [`delta`] — PE-level mutations ([`PeChange`]), the drift vocabulary
//!   of stream replay and the serve soak;
//! * [`transform`] — set algebra (shift, embed, concat, restrict) and an
//!   incremental builder;
//! * [`examples`] — canonical sets, including the paper's figures.

pub mod check;
pub mod communication;
pub mod delta;
pub mod examples;
pub mod parens;
pub mod schedule;
pub mod set;
pub mod transform;
pub mod width;

pub use check::check_rounds;
pub use communication::{CommId, Communication, Orientation};
pub use delta::PeChange;
pub use parens::{from_paren_string, is_balanced, to_paren_string};
pub use schedule::{Round, Schedule, SchedulePool};
pub use set::{CommSet, OrientedSubset, WellNestedChecker};
pub use transform::{concat, embedded, restricted, shifted, CommSetBuilder};
pub use width::{link_loads, max_incompatible_links, width_on_topology, depth_upper_bound, LinkLoads};
