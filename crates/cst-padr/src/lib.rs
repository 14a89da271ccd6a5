//! # cst-padr — Power-Aware Dynamic Reconfiguration on the CST
//!
//! The paper's contribution (El-Boghdadi, IPPS 2007): the **Configuration
//! and Scheduling Algorithm (CSA)** that schedules a right-oriented
//! well-nested communication set of width `w` on the circuit switched tree
//! in exactly `w` rounds while every switch changes configuration only a
//! constant number of times.
//!
//! * [`messages`] — the constant-size control messages (`C_U`, `C_D`);
//! * [`phase1`] — the one-time bottom-up sweep that computes each switch's
//!   `C_S` state (`M`, unmatched source/destination counts);
//! * [`switch_logic`] — the pure per-switch, per-round transition function
//!   (the paper's Fig. 5, completed — see module docs for the derivation);
//! * [`scheduler`] — the round driver: sweeps, schedule assembly, power
//!   metering, circuit tracing;
//! * [`layers`] — crossing-free layering of right-oriented sets (§6), one
//!   CSA run per layer;
//! * [`universal`] — the one composition of oriented halves: split, layer
//!   and CSA each half (the left one's rounds chosen on the mirrored leaf
//!   line), concatenate;
//! * [`degrade`] — partitioning a set against a fault mask, and the
//!   half-duplex repair;
//! * [`session`] — configuration retention across successive sets;
//! * [`verifier`] — one-call checking of Theorems 4, 5, 8 on an outcome.
//!
//! The host driver is serial. The algorithm is distributed — every
//! switch steps on local state — but a host pays a fork/join per round
//! to parallelize it, which costs more than the round's sweep; host
//! parallelism belongs across independent requests instead.
//!
//! ```
//! use cst_core::CstTopology;
//! use cst_comm::{CommSet, SchedulePool};
//! use cst_padr::CsaScratch;
//!
//! let topo = CstTopology::with_leaves(8);
//! let set = CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)]); // width 3
//! let (mut csa, mut pool) = (CsaScratch::new(), SchedulePool::new());
//! let out = csa.schedule(&topo, &set, &mut pool).unwrap();
//! assert_eq!(out.rounds(), 3); // Theorem 5
//! let report = cst_padr::verify_outcome(&topo, &set, &out).unwrap();
//! assert!(report.max_port_transitions <= cst_padr::CSA_PORT_TRANSITION_BOUND);
//! ```

pub mod degrade;
pub mod layers;
pub mod messages;
pub mod phase1;
pub mod scheduler;
pub mod session;
pub mod switch_logic;
pub mod universal;
pub mod verifier;

pub use degrade::{partition_by_mask, split_half_duplex, MaskPartition, Reroute, SplitStats};
pub use layers::{decompose, schedule_layered_in, LayeredOutcome, Layering};
pub use messages::{DownMsg, ReqKind, UpMsg, WORDS_DOWN, WORDS_UP};
pub use universal::{schedule_any_in, UniversalOutcome};
pub use phase1::{Phase1, SwitchState};
pub use scheduler::{trace_circuit, ControlMetrics, CsaOutcome, CsaScratch, CsaTimings, Options};
pub use session::{BatchReport, PadrSession};
pub use switch_logic::{step, Connections, StepError, StepResult};
pub use verifier::{verify_outcome, verify_phase1, VerifyReport, CSA_PORT_TRANSITION_BOUND};

