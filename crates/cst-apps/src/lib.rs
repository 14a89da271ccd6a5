//! # cst-apps — computational algorithms on the CST
//!
//! The paper's concluding remarks propose "using the PADR technique to
//! develop computational algorithms for reconfigurable models". This crate
//! does exactly that: classic parallel primitives whose communication
//! steps are scheduled by the power-aware universal CSA front end, with
//! values actually moved and results verified:
//!
//! * [`exec`] — the step executor (schedule + transfer + combine + power);
//! * [`prefix_sum`] — Hillis–Steele recursive doubling (maximally
//!   crossing traffic; stresses the layering extension);
//! * [`reduce`](mod@reduce) — tree reduction and broadcast (width-1 steps, `log n`
//!   rounds total);
//! * [`sort`] — odd–even transposition sort (adjacent exchanges; the
//!   minimal-power regime).

pub mod exec;
pub mod prefix_sum;
pub mod reduce;
pub mod sort;

pub use exec::StepExecutor;
pub use prefix_sum::{prefix_sums, PrefixOutcome};
pub use reduce::{broadcast, reduce, CollectiveOutcome};
pub use sort::{odd_even_sort, SortOutcome};
