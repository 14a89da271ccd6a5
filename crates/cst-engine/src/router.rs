//! The [`Router`] trait and one implementation per scheduler in the
//! workspace. Every scheduler — the paper's serial CSA (also served under
//! the alias names `csa-parallel` and `csa-threaded`), the
//! orientation/layering front ends, and the three baselines — is driven
//! through the same normalized interface.

use crate::ctx::EngineCtx;
use crate::outcome::{self, PhaseTimings, RouteExtra, RouteOutcome};
use cst_baseline::{greedy, roy, sequential, LevelOrder, ScanOrder};
use cst_comm::CommSet;
use cst_core::{CstError, CstTopology};
use cst_padr::{layers, universal, CsaOutcome, Options, UniversalOutcome};
use std::time::Instant;

/// A scheduler with a stable registry name, routable through a reusable
/// [`EngineCtx`].
pub trait Router: Send + Sync {
    /// Stable registry name (`"csa"`, `"greedy"`, ...). The single source
    /// of truth for CLI flags, bench IDs, and analysis tables.
    fn name(&self) -> &'static str;

    /// One-line human description for `list-routers` output.
    fn description(&self) -> &'static str;

    /// Schedule `set` on `topo`, reusing `ctx`'s scratch buffers.
    fn route(
        &self,
        ctx: &mut EngineCtx,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError>;
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Package a CSA-family outcome without touching its allocations.
fn csa_route(router: &'static str, out: CsaOutcome, timings: PhaseTimings) -> RouteOutcome {
    let rounds = out.schedule.num_rounds();
    RouteOutcome {
        router,
        schedule: out.schedule,
        rounds,
        power: out.power,
        timings,
        extra: RouteExtra::Csa { metrics: out.metrics, meter: out.meter },
        degradation: None,
    }
}

/// Serial CSA under `router`'s name: [`Csa`] and its aliases.
fn serial_csa(
    router: &'static str,
    ctx: &mut EngineCtx,
    topo: &CstTopology,
    set: &CommSet,
) -> Result<RouteOutcome, CstError> {
    let start = Instant::now();
    let out = ctx.csa.schedule(topo, set, &mut ctx.pool)?;
    let timings = PhaseTimings::from_csa(ctx.csa.timings(), elapsed_ns(start));
    Ok(csa_route(router, out, timings))
}

/// The paper's serial CSA (strict preconditions: right-oriented,
/// well-nested). The only router with a guaranteed zero-allocation warm
/// path, asserted by the workspace allocation gate.
pub struct Csa;

impl Router for Csa {
    fn name(&self) -> &'static str {
        "csa"
    }
    fn description(&self) -> &'static str {
        "serial power-aware CSA: w rounds, O(1) config changes per switch"
    }
    fn route(
        &self,
        ctx: &mut EngineCtx,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        serial_csa(self.name(), ctx, topo, set)
    }
}

/// Serial CSA with quiescent-subtree pruning disabled (every round sweeps
/// all switches). Identical output; used by the work-reduction ablation.
pub struct CsaNoPrune;

impl Router for CsaNoPrune {
    fn name(&self) -> &'static str {
        "csa-no-prune"
    }
    fn description(&self) -> &'static str {
        "serial CSA without quiescent-subtree pruning (ablation; identical output)"
    }
    fn route(
        &self,
        ctx: &mut EngineCtx,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        let start = Instant::now();
        let options = Options { prune_quiescent: false };
        let out = ctx.csa.schedule_with(topo, set, options, &mut ctx.pool)?;
        let timings = PhaseTimings::from_csa(ctx.csa.timings(), elapsed_ns(start));
        Ok(csa_route(self.name(), out, timings))
    }
}

/// `csa-parallel`: an alias of serial [`Csa`], kept so requests, tables
/// and scripts that name it keep working. The CSA runs serially because
/// a host fork/join per round costs more than the round's sweep.
pub struct CsaParallel;

impl Router for CsaParallel {
    fn name(&self) -> &'static str {
        "csa-parallel"
    }
    fn description(&self) -> &'static str {
        "alias of csa (serial CSA; name kept for wire compatibility)"
    }
    fn route(
        &self,
        ctx: &mut EngineCtx,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        serial_csa(self.name(), ctx, topo, set)
    }
}

/// `csa-threaded`: an alias of serial [`Csa`], kept for wire
/// compatibility like [`CsaParallel`].
pub struct CsaThreaded;

impl Router for CsaThreaded {
    fn name(&self) -> &'static str {
        "csa-threaded"
    }
    fn description(&self) -> &'static str {
        "alias of csa (serial CSA; name kept for wire compatibility)"
    }
    fn route(
        &self,
        ctx: &mut EngineCtx,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        serial_csa(self.name(), ctx, topo, set)
    }
}

/// `general`'s composition: the well-nestedness check, then
/// [`universal::schedule_any_in`], where each oriented half is one
/// crossing-free layer and so one CSA run (the left half mirrored). The
/// check's time counts as validation.
fn general_in(
    ctx: &mut EngineCtx,
    topo: &CstTopology,
    set: &CommSet,
) -> Result<UniversalOutcome, CstError> {
    let start = Instant::now();
    set.require_well_nested()?;
    let validate_ns = elapsed_ns(start);
    let mut out = universal::schedule_any_in(&mut ctx.csa, &mut ctx.pool, topo, set)?;
    out.timings.validate_ns += validate_ns;
    Ok(out)
}

/// Mixed-orientation well-nested sets: decompose into oriented halves,
/// CSA each (the left half's rounds chosen on the mirrored leaf line),
/// concatenate.
pub struct General;

impl Router for General {
    fn name(&self) -> &'static str {
        "general"
    }
    fn description(&self) -> &'static str {
        "orientation decomposition: CSA per oriented half, rounds concatenated"
    }
    fn route(
        &self,
        ctx: &mut EngineCtx,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        let start = Instant::now();
        let UniversalOutcome { schedule, right_rounds, timings, csa_power, .. } =
            general_in(ctx, topo, set)?;
        let power = csa_power.unwrap_or_else(|| ctx.meter_schedule(topo, &schedule));
        let rounds = schedule.num_rounds();
        Ok(RouteOutcome {
            router: self.name(),
            schedule,
            rounds,
            power,
            timings: PhaseTimings::from_csa(timings, elapsed_ns(start)),
            extra: RouteExtra::General { right_rounds, left_rounds: rounds - right_rounds },
            degradation: None,
        })
    }
}

/// Like [`General`], then re-timed by the composite packer with the two
/// halves as bands: each communication moves into the earliest round
/// where its directed links and PEs are free, so the halves share rounds
/// and the schedule never grows.
pub struct GeneralMerged;

impl Router for GeneralMerged {
    fn name(&self) -> &'static str {
        "general-merged"
    }
    fn description(&self) -> &'static str {
        "orientation decomposition with round merging across the two halves"
    }
    fn route(
        &self,
        ctx: &mut EngineCtx,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        let start = Instant::now();
        let UniversalOutcome { mut schedule, right_rounds, timings, csa_power, .. } =
            general_in(ctx, topo, set)?;
        let pairs: Vec<_> = set.comms().iter().map(|c| (c.source, c.dest)).collect();
        let halves = [right_rounds, schedule.num_rounds() - right_rounds];
        let mut layer_round = std::mem::take(&mut ctx.layer_round_scratch);
        let repacked =
            ctx.packer.pack(topo, &pairs, &mut schedule, &halves, &mut layer_round, &mut ctx.pool);
        ctx.layer_round_scratch = layer_round;
        let power = match csa_power {
            Some(power) if !repacked => power,
            _ => ctx.meter_schedule(topo, &schedule),
        };
        let rounds = schedule.num_rounds();
        Ok(RouteOutcome {
            router: self.name(),
            schedule,
            rounds,
            power,
            timings: PhaseTimings::from_csa(timings, elapsed_ns(start)),
            extra: RouteExtra::None,
            degradation: None,
        })
    }
}

/// Arbitrary right-oriented sets: crossing-free layering, CSA per layer.
/// A one-layer set costs one CSA run: the run's own power report is the
/// composite's, so only multi-layer composites are metered again.
pub struct Layered;

impl Router for Layered {
    fn name(&self) -> &'static str {
        "layered"
    }
    fn description(&self) -> &'static str {
        "crossing-free layering of right-oriented sets, CSA per layer"
    }
    fn route(
        &self,
        ctx: &mut EngineCtx,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        let start = Instant::now();
        let out = layers::schedule_layered_in(&mut ctx.csa, &mut ctx.pool, topo, set)?;
        let layers::LayeredOutcome { schedule, layering, timings, csa_power } = out;
        let num_layers = layering.layers.len();
        let power = csa_power.unwrap_or_else(|| ctx.meter_schedule(topo, &schedule));
        let rounds = schedule.num_rounds();
        Ok(RouteOutcome {
            router: self.name(),
            schedule,
            rounds,
            power,
            timings: PhaseTimings::from_csa(timings, elapsed_ns(start)),
            extra: RouteExtra::Layered { num_layers },
            degradation: None,
        })
    }
}

/// Any valid set: orientation decomposition plus layering per half.
/// Metered again only when the composite is more than one unmirrored CSA
/// run.
pub struct Universal;

impl Router for Universal {
    fn name(&self) -> &'static str {
        "universal"
    }
    fn description(&self) -> &'static str {
        "any valid set: orientation decomposition + crossing-free layering per half"
    }
    fn route(
        &self,
        ctx: &mut EngineCtx,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        let start = Instant::now();
        let out = universal::schedule_any_in(&mut ctx.csa, &mut ctx.pool, topo, set)?;
        let UniversalOutcome { schedule, right_layers, left_layers, timings, csa_power, .. } = out;
        let power = csa_power.unwrap_or_else(|| ctx.meter_schedule(topo, &schedule));
        let rounds = schedule.num_rounds();
        Ok(RouteOutcome {
            router: self.name(),
            schedule,
            rounds,
            power,
            timings: PhaseTimings::from_csa(timings, elapsed_ns(start)),
            extra: RouteExtra::Universal { right_layers, left_layers },
            degradation: None,
        })
    }
}

/// Greedy maximal-compatible-set baseline. The registry exposes one entry
/// per scan order (`"greedy"`, `"greedy-innermost"`, `"greedy-input"`).
pub struct Greedy {
    pub order: ScanOrder,
}

impl Router for Greedy {
    fn name(&self) -> &'static str {
        match self.order {
            ScanOrder::OutermostFirst => "greedy",
            ScanOrder::InnermostFirst => "greedy-innermost",
            ScanOrder::InputOrder => "greedy-input",
        }
    }
    fn description(&self) -> &'static str {
        match self.order {
            ScanOrder::OutermostFirst => "greedy maximal compatible sets, outermost-first scan",
            ScanOrder::InnermostFirst => "greedy maximal compatible sets, innermost-first scan",
            ScanOrder::InputOrder => "greedy maximal compatible sets, input-order scan",
        }
    }
    fn route(
        &self,
        ctx: &mut EngineCtx,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        let start = Instant::now();
        let out = greedy::run(topo, set, self.order)?;
        let power = ctx.meter_schedule(topo, &out.schedule);
        let timings = PhaseTimings::total_only(elapsed_ns(start));
        Ok(outcome::from_greedy(self.name(), out, power, timings))
    }
}

/// Roy-style ID-level comparator. The registry exposes one entry per
/// level order (`"roy"` = innermost-first, `"roy-outermost"`).
pub struct Roy {
    pub order: LevelOrder,
}

impl Router for Roy {
    fn name(&self) -> &'static str {
        match self.order {
            LevelOrder::InnermostFirst => "roy",
            LevelOrder::OutermostFirst => "roy-outermost",
        }
    }
    fn description(&self) -> &'static str {
        match self.order {
            LevelOrder::InnermostFirst => {
                "Roy-style ID levels, one level per round (innermost-first)"
            }
            LevelOrder::OutermostFirst => {
                "Roy-style ID levels, one level per round (outermost-first)"
            }
        }
    }
    fn route(
        &self,
        ctx: &mut EngineCtx,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        let start = Instant::now();
        let out = roy::run(topo, set, self.order)?;
        let power = ctx.meter_schedule(topo, &out.schedule);
        let timings = PhaseTimings::total_only(elapsed_ns(start));
        Ok(outcome::from_roy(self.name(), out, power, timings))
    }
}

/// One communication per round — the floor baseline.
pub struct Sequential;

impl Router for Sequential {
    fn name(&self) -> &'static str {
        "sequential"
    }
    fn description(&self) -> &'static str {
        "one communication per round (floor baseline)"
    }
    fn route(
        &self,
        ctx: &mut EngineCtx,
        topo: &CstTopology,
        set: &CommSet,
    ) -> Result<RouteOutcome, CstError> {
        let start = Instant::now();
        let schedule = sequential::run(topo, set)?;
        let power = ctx.meter_schedule(topo, &schedule);
        let rounds = schedule.num_rounds();
        Ok(RouteOutcome {
            router: self.name(),
            schedule,
            rounds,
            power,
            timings: PhaseTimings::total_only(elapsed_ns(start)),
            extra: RouteExtra::None,
            degradation: None,
        })
    }
}
