//! # cst-rmesh — the reconfigurable mesh, the paper's motivating model
//!
//! The paper opens: "Models such as the reconfigurable mesh (R-Mesh) \[5\]
//! provide very fast solutions to many problems ... Changing the
//! interconnection between processors ... translates to increasing the
//! power requirements." This crate is that model, built as a reference
//! implementation with the same hold-semantics power accounting as the
//! CST — so the speed-versus-power tradeoff that motivates PADR can be
//! measured instead of asserted (experiment E12):
//!
//! * [`mesh`] — PEs with 4-port partitions, union-find bus resolution,
//!   one-writer-per-bus step semantics, per-PE reconfiguration metering;
//! * [`algorithms`] — the classic O(1)-step computations: global
//!   broadcast, staircase counting, parity.

pub mod algorithms;
#[cfg(test)]
mod proptests;
pub mod mesh;

pub use algorithms::{broadcast, count_ones, parity};
pub use mesh::{Partition, Port, PortMeter, RMesh, ReadView, Write};
