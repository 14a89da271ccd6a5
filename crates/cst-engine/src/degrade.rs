//! Masked routing: run any registry router against a hardware
//! [`FaultMask`] and report how the schedule degraded.
//!
//! The flow composes the two `cst-padr` degrade passes around the normal
//! router dispatch:
//!
//! 1. partition the set — unroutable communications (dead switch/link on
//!    their unique path) are dropped with a typed [`FaultCause`];
//! 2. route the survivors with the chosen router (ids are remapped back
//!    onto the caller's set afterwards);
//! 3. if the mask degrades any edge to half-duplex, split offending
//!    rounds so each round drives a degraded edge in one direction only.
//!
//! An empty mask short-circuits to the plain route call, so the fault-free
//! warm path stays allocation-free (the workspace allocation gate pins it
//! at 0 allocs / 0 bytes) and the schedule is byte-identical to unmasked
//! routing for every router.

use crate::ctx::EngineCtx;
use crate::outcome::{PhaseTimings, RouteExtra, RouteOutcome};
use crate::router::Router;
use cst_comm::CommSet;
use cst_core::{CstError, CstTopology, FaultCause, FaultMask};
use cst_padr::degrade;
use serde::{de_field, Deserialize, Error as SerdeError, Serialize, Value};
use std::time::Instant;

/// One unroutable communication and the fault responsible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DroppedComm {
    /// Id in the caller's communication set.
    pub comm: usize,
    /// Source PE.
    pub source: usize,
    /// Destination PE.
    pub dest: usize,
    /// The first dead switch or link on the communication's unique path.
    pub cause: FaultCause,
}

/// One temporal reroute: the communication still runs, but in a round
/// added by the half-duplex split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReroutedComm {
    /// Id in the caller's communication set.
    pub comm: usize,
    /// Child endpoint of the degraded edge that forced the move.
    pub edge: usize,
}

/// How a masked routing request degraded. Attached to
/// [`RouteOutcome::degradation`] by [`EngineCtx::route_masked`]; plain
/// routing leaves the field `None`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Size of the requested set (`routed + dropped`).
    pub total: usize,
    /// Communications scheduled (includes the rerouted ones).
    pub routed: usize,
    /// Of the routed, how many moved to a split-off round.
    pub rerouted: usize,
    /// Communications unroutable under the mask.
    pub dropped: usize,
    /// Rounds added by the half-duplex split.
    pub extra_rounds: usize,
    /// Per-drop attribution.
    pub drops: Vec<DroppedComm>,
    /// Per-reroute attribution.
    pub reroutes: Vec<ReroutedComm>,
}

impl DegradationReport {
    /// The report of a request nothing interfered with.
    pub fn fault_free(total: usize) -> DegradationReport {
        DegradationReport { total, routed: total, ..DegradationReport::default() }
    }

    /// True when every communication was routed in its original round.
    pub fn is_clean(&self) -> bool {
        self.dropped == 0 && self.rerouted == 0
    }
}

impl Serialize for DroppedComm {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("comm".to_string(), Value::UInt(self.comm as u64)),
            ("source".to_string(), Value::UInt(self.source as u64)),
            ("dest".to_string(), Value::UInt(self.dest as u64)),
            ("cause".to_string(), self.cause.to_value()),
        ])
    }
}

impl Deserialize for DroppedComm {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        Ok(DroppedComm {
            comm: de_field(v, "comm")?,
            source: de_field(v, "source")?,
            dest: de_field(v, "dest")?,
            cause: de_field(v, "cause")?,
        })
    }
}

impl Serialize for ReroutedComm {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("comm".to_string(), Value::UInt(self.comm as u64)),
            ("edge".to_string(), Value::UInt(self.edge as u64)),
        ])
    }
}

impl Deserialize for ReroutedComm {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        Ok(ReroutedComm { comm: de_field(v, "comm")?, edge: de_field(v, "edge")? })
    }
}

impl Serialize for DegradationReport {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("total".to_string(), Value::UInt(self.total as u64)),
            ("routed".to_string(), Value::UInt(self.routed as u64)),
            ("rerouted".to_string(), Value::UInt(self.rerouted as u64)),
            ("dropped".to_string(), Value::UInt(self.dropped as u64)),
            ("extra_rounds".to_string(), Value::UInt(self.extra_rounds as u64)),
            ("drops".to_string(), self.drops.to_value()),
            ("reroutes".to_string(), self.reroutes.to_value()),
        ])
    }
}

impl Deserialize for DegradationReport {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        Ok(DegradationReport {
            total: de_field(v, "total")?,
            routed: de_field(v, "routed")?,
            rerouted: de_field(v, "rerouted")?,
            dropped: de_field(v, "dropped")?,
            extra_rounds: de_field(v, "extra_rounds")?,
            drops: de_field(v, "drops")?,
            reroutes: de_field(v, "reroutes")?,
        })
    }
}

impl EngineCtx {
    /// Route `set` on `topo` under a hardware fault mask. Unroutable
    /// communications are dropped (never mis-routed), half-duplex edges
    /// trigger temporal rerouting, and the outcome carries a
    /// [`DegradationReport`] with `routed + dropped == set.len()`.
    ///
    /// With an empty mask this is exactly [`EngineCtx::route`] plus a
    /// clean report: same schedule bytes, same cache entry, no extra
    /// allocation on the warm serial-CSA path. Once
    /// [`EngineCtx::enable_cache`] has run, a live mask is part of the
    /// cache key.
    pub fn route_masked(
        &mut self,
        router: &dyn Router,
        topo: &CstTopology,
        set: &CommSet,
        mask: &FaultMask,
    ) -> Result<RouteOutcome, CstError> {
        if mask.is_empty() {
            let mut out = self.route(router, topo, set)?;
            out.degradation = Some(DegradationReport::fault_free(set.len()));
            return Ok(out);
        }
        if self.cache.is_some() {
            return self.route_via_cache(router, topo, set, Some(mask));
        }
        self.route_degraded(router, topo, set, mask)
    }

    /// The uncached masked route under a non-empty mask: partition,
    /// route the survivors, split half-duplex rounds.
    pub(crate) fn route_degraded(
        &mut self,
        router: &dyn Router,
        topo: &CstTopology,
        set: &CommSet,
        mask: &FaultMask,
    ) -> Result<RouteOutcome, CstError> {
        let start = Instant::now();
        let part = degrade::partition_by_mask(topo, set, mask);
        let mut report = DegradationReport {
            total: set.len(),
            routed: part.survivors.len(),
            dropped: part.drops.len(),
            ..DegradationReport::default()
        };
        for &(id, cause) in &part.drops {
            let c = &set.comms()[id.0];
            report.drops.push(DroppedComm {
                comm: id.0,
                source: c.source.0,
                dest: c.dest.0,
                cause,
            });
        }

        let mut out = if part.survivors.is_empty() {
            // Nothing left to route: an empty schedule, metered as such.
            let schedule = self.pool.take_schedule();
            let power = self.meter_schedule(topo, &schedule);
            RouteOutcome {
                router: router.name(),
                schedule,
                rounds: 0,
                power,
                timings: PhaseTimings::total_only(elapsed_ns(start)),
                extra: RouteExtra::None,
                degradation: None,
            }
        } else {
            let mut out = router.route(self, topo, &part.survivors)?;
            // Remap round membership back onto the caller's ids.
            for round in &mut out.schedule.rounds {
                for id in &mut round.comms {
                    *id = part.original[id.0];
                }
            }
            out
        };

        if mask.has_degraded() && !out.schedule.rounds.is_empty() {
            let schedule = std::mem::take(&mut out.schedule);
            let (schedule, stats) = degrade::split_half_duplex(
                topo,
                set,
                mask,
                schedule,
                &mut self.table,
                &mut self.pool,
            )?;
            out.schedule = schedule;
            report.rerouted = stats.reroutes.len();
            report.extra_rounds = stats.extra_rounds;
            for r in stats.reroutes {
                report.reroutes.push(ReroutedComm { comm: r.comm.0, edge: r.edge.0 });
            }
            if stats.extra_rounds > 0 {
                // Rounds changed: re-meter and refresh denormalized fields.
                out.power = self.meter_schedule(topo, &out.schedule);
            }
        }
        out.rounds = out.schedule.num_rounds();
        out.timings.total_ns = elapsed_ns(start);
        out.degradation = Some(report);
        Ok(out)
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}
