//! The normalized result every router returns: one schedule, one power
//! report, per-phase timings, and a typed bag of router-specific extras.

use cst_baseline::{GreedyOutcome, RoyOutcome, ScanOrder};
use cst_comm::Schedule;
use cst_core::{PowerMeter, PowerReport};
use cst_padr::{ControlMetrics, CsaTimings};

/// Wall-clock nanoseconds of one routing request, split by phase where the
/// router can attribute them. Every router fills `total_ns`; the CSA
/// family attributes the validate/phase1/rounds split, `layered`,
/// `universal`, `general` and `general-merged` report it summed over
/// their per-layer CSA runs (`general`'s well-nestedness check counts as
/// validation), and the other routers leave those at zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Input validation (orientation + well-nestedness checks).
    pub validate_ns: u64,
    /// Phase-1 bottom-up counter sweep.
    pub phase1_ns: u64,
    /// Round generation (Phase-2 sweeps, schedule assembly).
    pub rounds_ns: u64,
    /// End-to-end time of the `route` call.
    pub total_ns: u64,
}

impl PhaseTimings {
    /// Build from the CSA scratch's per-phase split plus the engine's
    /// end-to-end measurement.
    pub(crate) fn from_csa(t: CsaTimings, total_ns: u64) -> Self {
        PhaseTimings {
            validate_ns: t.validate_ns,
            phase1_ns: t.phase1_ns,
            rounds_ns: t.rounds_ns,
            total_ns,
        }
    }

    /// Total-only timings (routers without a phase split).
    pub(crate) fn total_only(total_ns: u64) -> Self {
        PhaseTimings { total_ns, ..Default::default() }
    }
}

/// Router-specific results that do not fit the common shape. Typed, so
/// consumers can match instead of stringly-typed downcasting.
#[derive(Clone, Debug)]
pub enum RouteExtra {
    /// CSA family (`csa`, its aliases, `csa-no-prune`): control-plane
    /// counters and the raw power meter (recycled by
    /// [`crate::EngineCtx::recycle`]).
    Csa {
        metrics: ControlMetrics,
        meter: PowerMeter,
    },
    /// Orientation decomposition: rounds per half.
    General { right_rounds: usize, left_rounds: usize },
    /// Crossing-free layering: number of layers.
    Layered { num_layers: usize },
    /// Orientation + layering composition: layers per half.
    Universal { right_layers: usize, left_layers: usize },
    /// Greedy baseline: the scan order used.
    Greedy { order: ScanOrder },
    /// Roy-style baseline: per-communication ID levels.
    Roy { levels: Vec<u32>, max_level: u32 },
    /// Served from the schedule cache without touching a scheduler; the
    /// stats snapshot includes this hit.
    Cached { stats: crate::CacheStats },
    /// Nothing beyond the common shape.
    None,
}

/// Normalized outcome of one routing request.
#[derive(Clone, Debug)]
pub struct RouteOutcome {
    /// Registry name of the router that produced this outcome.
    pub router: &'static str,
    /// The rounds: scheduled communications + per-switch configurations.
    pub schedule: Schedule,
    /// Number of rounds (`== schedule.num_rounds()`, denormalized for
    /// table-building consumers).
    pub rounds: usize,
    /// Power accounting under the PADR model (hold + write-through).
    pub power: PowerReport,
    /// Per-phase wall-clock timings of this request.
    pub timings: PhaseTimings,
    /// Router-specific extras.
    pub extra: RouteExtra,
    /// Fault-mask accounting; `None` unless the request went through
    /// [`crate::EngineCtx::route_masked`].
    pub degradation: Option<crate::DegradationReport>,
}

impl RouteOutcome {
    /// Reassemble the CSA-family outcome this route produced, or `None`
    /// for non-CSA routers. Consumes the outcome (the schedule and meter
    /// move into the returned value).
    pub fn into_csa(self) -> Option<cst_padr::CsaOutcome> {
        match self.extra {
            RouteExtra::Csa { metrics, meter } => Some(cst_padr::CsaOutcome {
                schedule: self.schedule,
                power: self.power,
                meter,
                metrics,
            }),
            _ => None,
        }
    }
}

pub(crate) fn from_greedy(
    router: &'static str,
    out: GreedyOutcome,
    power: PowerReport,
    timings: PhaseTimings,
) -> RouteOutcome {
    let rounds = out.schedule.num_rounds();
    RouteOutcome {
        router,
        schedule: out.schedule,
        rounds,
        power,
        timings,
        extra: RouteExtra::Greedy { order: out.order },
        degradation: None,
    }
}

pub(crate) fn from_roy(
    router: &'static str,
    out: RoyOutcome,
    power: PowerReport,
    timings: PhaseTimings,
) -> RouteOutcome {
    let rounds = out.schedule.num_rounds();
    RouteOutcome {
        router,
        schedule: out.schedule,
        rounds,
        power,
        timings,
        extra: RouteExtra::Roy { levels: out.levels, max_level: out.max_level },
        degradation: None,
    }
}
