//! # cst-srga — the Self-Reconfigurable Gate Array substrate
//!
//! The architecture the CST comes from (Sidhu et al., FPL 2000 — the
//! paper's reference \[7\]): a 2D array of PEs where every row and every
//! column is internally connected by its own circuit switched tree.
//!
//! * [`grid`] — the PE grid and its row/column CST topologies;
//! * [`router`] — dimension-ordered (row-then-column) routing of 2D
//!   communications in waves, each 1D phase scheduled by the power-aware
//!   universal CSA front end;
//! * [`algorithms`] — canonical patterns: transpose, cyclic shifts,
//!   column copies, arbitrary permutations.

pub mod algorithms;
pub mod grid;
pub mod router;

pub use algorithms::{column_copy, permutation, row_shift, transpose};
pub use grid::{Coord, SrgaGrid};
pub use router::{route, Comm2d, RouteOutcome, Wave};
