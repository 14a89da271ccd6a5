//! # cst — Power-Aware Routing for Well-Nested Communications on the
//! Circuit Switched Tree
//!
//! Umbrella crate re-exporting the whole workspace. A faithful, tested
//! reproduction of El-Boghdadi's IPPS 2007 paper:
//!
//! * [`core`] (`cst-core`) — the CST substrate: topology, 3-sided
//!   switches, circuits, compatibility, the PADR power model;
//! * [`comm`] (`cst-comm`) — communication sets, well-nestedness, width;
//! * [`decomp`] (`cst-decomp`) — layered decomposition front-end: splits
//!   arbitrary communication sets into well-nested layers by first-fit
//!   coloring, with a lower-bound certificate (see `docs/DECOMP.md`);
//! * [`check`] (`cst-check`) — static schedule analyzer: typed `CST0xx`
//!   diagnostics for every invariant (see `docs/DIAGNOSTICS.md`);
//! * [`padr`] (`cst-padr`) — the paper's Configuration and Scheduling
//!   Algorithm (CSA): `w` rounds, O(1) configuration changes per switch;
//! * [`model`] (`cst-model`) — independent executable reference model of
//!   the switch protocol: exhaustive small-n state-space checking and
//!   `CST2xx` trace conformance (see `docs/MODEL.md`);
//! * [`engine`] (`cst-engine`) — the `Router` trait, the scheduler
//!   registry, and `EngineCtx` for allocation-free repeated scheduling
//!   (see `docs/ENGINE.md`);
//! * [`baseline`] (`cst-baseline`) — Roy-style ID scheduler and greedy
//!   comparators;
//! * [`sim`] (`cst-sim`) — cycle-level simulator with payload transfer
//!   and an energy model;
//! * [`workloads`] (`cst-workloads`) — seeded generators;
//! * [`analysis`] (`cst-analysis`) — the E1..E8 experiment suite.
//!
//! ## Quickstart
//!
//! ```
//! use cst::core::CstTopology;
//! use cst::comm::CommSet;
//!
//! // 8 PEs, three nested right-oriented communications (width 3).
//! let topo = CstTopology::with_leaves(8);
//! let set = CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)]);
//!
//! // Every scheduler is a named `Router`; "csa" is the paper's CSA.
//! let out = cst::engine::route_once("csa", &topo, &set).unwrap();
//! assert_eq!(out.rounds, 3);                          // Theorem 5
//! assert!(out.power.max_port_transitions <= 9);       // Theorem 8
//!
//! // Repeated scheduling: one context, zero steady-state allocation.
//! let mut ctx = cst::engine::EngineCtx::new();
//! let warm = ctx.route_named("csa", &topo, &set).unwrap();
//! assert_eq!(warm.schedule, out.schedule);
//! ctx.recycle(warm);
//! ```

pub use cst_analysis as analysis;
pub use cst_baseline as baseline;
pub use cst_check as check;
pub use cst_comm as comm;
pub use cst_core as core;
pub use cst_decomp as decomp;
pub use cst_engine as engine;
pub use cst_faults as faults;
pub use cst_model as model;
pub use cst_padr as padr;
pub use cst_serve as serve;
pub use cst_sim as sim;
pub use cst_srga as srga;
pub use cst_apps as apps;
pub use cst_bus as bus;
pub use cst_rmesh as rmesh;
pub use cst_workloads as workloads;
