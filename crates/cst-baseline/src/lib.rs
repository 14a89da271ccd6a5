//! # cst-baseline — comparator schedulers for the CST
//!
//! Centralized schedulers the paper's CSA is measured against:
//!
//! * [`roy`] — re-implementation in spirit of Roy, Vaidyanathan & Trahan
//!   (IJFCS 2006): per-communication IDs (link-aware nesting levels), one
//!   ID level per round, per-round path establishment — the O(w)
//!   configuration-changes comparator of the paper's §5;
//! * [`greedy`] — greedy maximal compatible sets under three scan orders
//!   (outermost-first, innermost-first, input-order), used by the E8
//!   selection-rule ablation;
//! * [`sequential`] — one communication per round (floor baseline);
//! * [`common`] — the scan orders they share.
//!
//! All baselines emit the same [`cst_comm::Schedule`] type as the CSA and
//! are metered by the same [`cst_core::PowerMeter`], reporting both hold
//! and write-through semantics (see `roy` module docs for why both).

pub mod common;
pub mod greedy;
pub mod roy;
pub mod sequential;

pub use common::{innermost_first_order, outermost_first_order};
pub use greedy::{GreedyOutcome, ScanOrder};
pub use roy::{assign_levels, LevelOrder, RoyOutcome};
