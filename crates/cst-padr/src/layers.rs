//! Extension ("other communication patterns", paper §6): scheduling
//! **arbitrary right-oriented sets** with the power-aware CSA by first
//! decomposing them into *well-nested layers*.
//!
//! Two communications conflict with the CSA's preconditions only if they
//! **cross** (partially overlap). Crossing-freedom is exactly
//! well-nestedness, so partitioning the set into crossing-free classes
//! lets each class run through the unmodified power-optimal CSA. Layers
//! run back to back; the schedule length is `Σ w_i` over layers, and each
//! switch's configuration cost is `O(#layers)` — the power guarantee
//! degrades gracefully with the amount of crossing in the workload.
//!
//! Layer assignment is greedy first-fit in outermost-first order, which
//! for interval overlap graphs colors with the minimum number of classes
//! on many structured families (not guaranteed minimal in general; the
//! crossing graph is not an interval graph).
//!
//! Cost: [`decompose`] never compares two communications directly. In
//! outermost-first order every placed member `(a, b)` has `a < l`, and
//! endpoints are distinct PEs, so `(l, r)` crosses it exactly when
//! `l < b < r`. Each layer keeps the right ends of its members still
//! open at `l`, a nested chain whose innermost end is on top; a layer
//! fits when that end lies beyond `r`. Each probe is O(1) amortized, so
//! the pass is O(m log m + m · layers probed) — a well-nested set is one
//! sort plus one probe per communication. [`schedule_layered_in`] adds
//! one CSA run per layer and one exact-capacity copy of each round.

use crate::scheduler::{CsaScratch, CsaTimings};
use cst_comm::{CommId, CommSet, Communication, Round, Schedule, SchedulePool};
use cst_core::{CstError, CstTopology, PowerReport};

/// The layer decomposition of a set.
#[derive(Clone, Debug)]
pub struct Layering {
    /// `layer_of[i]` = layer index of communication `i`.
    pub layer_of: Vec<usize>,
    /// Communications per layer (original ids).
    pub layers: Vec<Vec<CommId>>,
}

/// Greedy first-fit crossing-free layering of a set (by intervals; the
/// callers pass right-oriented sets).
pub fn decompose(set: &CommSet) -> Layering {
    // Outermost-first: big intervals first tend to pack layer 0 with the
    // enclosing structure.
    let mut order: Vec<usize> = (0..set.len()).collect();
    order.sort_unstable_by_key(|&i| {
        let (l, r) = set.comms()[i].interval();
        (l, usize::MAX - r)
    });
    let mut layer_of = vec![usize::MAX; set.len()];
    let mut layers: Vec<Vec<CommId>> = Vec::new();
    // open[li]: right ends of layer li's members that may still enclose
    // the current left end, strictly decreasing (innermost last).
    let mut open: Vec<Vec<usize>> = Vec::new();
    for &i in &order {
        let (l, r) = set.comms()[i].interval();
        let fit = open.iter_mut().position(|ends| {
            while ends.last().is_some_and(|&b| b < l) {
                ends.pop();
            }
            ends.last().is_none_or(|&b| b > r)
        });
        let li = fit.unwrap_or_else(|| {
            open.push(Vec::new());
            layers.push(Vec::new());
            layers.len() - 1
        });
        open[li].push(r);
        layers[li].push(CommId(i));
        layer_of[i] = li;
    }
    Layering { layer_of, layers }
}

/// Outcome of layered scheduling.
#[derive(Clone, Debug)]
pub struct LayeredOutcome {
    /// Combined schedule over all layers, ids referring to the input set.
    pub schedule: Schedule,
    /// The decomposition used.
    pub layering: Layering,
    /// Phase timings summed over the per-layer CSA runs.
    pub timings: CsaTimings,
    /// The CSA's own power report when the combined schedule is exactly
    /// one CSA run's (one layer); `None` when it needs metering, since
    /// hold semantics cross layer boundaries.
    pub csa_power: Option<PowerReport>,
}

impl LayeredOutcome {
    /// Total rounds across layers.
    pub fn rounds(&self) -> usize {
        self.schedule.num_rounds()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layering.layers.len()
    }
}

/// Schedule an arbitrary right-oriented set — layer, then CSA each layer —
/// reusing an engine's CSA scratch and pool for the per-layer CSA runs.
/// Each run's schedule and meter are dropped once its rounds are copied
/// into the composite: handing them back to `pool` raised serve-miss
/// peak RSS by ~3.5% with no latency gain.
pub fn schedule_layered_in(
    csa: &mut CsaScratch,
    pool: &mut SchedulePool,
    topo: &CstTopology,
    set: &CommSet,
) -> Result<LayeredOutcome, CstError> {
    set.require_right_oriented()?;
    let layering = decompose(set);
    let mut schedule = Schedule::default();
    let mut timings = CsaTimings::default();
    let mut csa_power = None;
    for ids in &layering.layers {
        let comms: Vec<Communication> = ids.iter().map(|&CommId(i)| set.comms()[i]).collect();
        let sub = CommSet::new(set.num_leaves(), comms)?;
        debug_assert!(sub.is_well_nested(), "layers are crossing-free by construction");
        let out = csa.schedule(topo, &sub, pool)?;
        timings += csa.timings();
        // Exact-capacity copies: the composite may outlive this request
        // (a cache entry), the pooled CSA shells do not.
        for round in &out.schedule.rounds {
            schedule.rounds.push(Round {
                comms: round.comms.iter().map(|&CommId(k)| ids[k]).collect(),
                configs: round.configs.clone(),
            });
        }
        if layering.layers.len() == 1 {
            csa_power = Some(out.power);
        }
    }
    Ok(LayeredOutcome { schedule, layering, timings, csa_power })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule_layered(topo: &CstTopology, set: &CommSet) -> Result<LayeredOutcome, CstError> {
        schedule_layered_in(&mut CsaScratch::new(), &mut SchedulePool::new(), topo, set)
    }

    #[test]
    fn well_nested_set_is_one_layer() {
        let topo = CstTopology::with_leaves(16);
        let set = cst_comm::examples::paper_figure_2();
        let out = schedule_layered(&topo, &set).unwrap();
        assert_eq!(out.num_layers(), 1);
        assert_eq!(out.rounds() as u32, cst_comm::width_on_topology(&topo, &set));
        out.schedule.verify(&topo, &set).unwrap();
    }

    #[test]
    fn two_crossing_comms_two_layers() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 4), (2, 6)]);
        let out = schedule_layered(&topo, &set).unwrap();
        assert_eq!(out.num_layers(), 2);
        assert_eq!(out.rounds(), 2);
        out.schedule.verify(&topo, &set).unwrap();
    }

    #[test]
    fn shuffle_pattern_layers_equal_size() {
        // (i, i + n/2): every pair crosses every other -> n/2 layers.
        let n = 16;
        let topo = CstTopology::with_leaves(n);
        let pairs: Vec<(usize, usize)> = (0..n / 2).map(|i| (i, i + n / 2)).collect();
        let set = CommSet::from_pairs(n, &pairs);
        let out = schedule_layered(&topo, &set).unwrap();
        assert_eq!(out.num_layers(), n / 2);
        // matches the width lower bound here: all cross the root upward
        assert_eq!(out.rounds(), n / 2);
        out.schedule.verify(&topo, &set).unwrap();
    }

    #[test]
    fn mixed_crossing_and_nesting() {
        let topo = CstTopology::with_leaves(16);
        // (0,7) ⊃ (1,6): nested; (5,10) crosses both... (5,10) vs (0,7):
        // 0<5<7<10 cross; vs (1,6): 1<5<6<10 cross. (8,9)... 8 used? ok:
        // (11,12) disjoint from everything.
        let set = CommSet::from_pairs(16, &[(0, 7), (1, 6), (5, 10), (11, 12)]);
        let out = schedule_layered(&topo, &set).unwrap();
        assert_eq!(out.num_layers(), 2);
        out.schedule.verify(&topo, &set).unwrap();
        // layer 0 holds the nested pair + the disjoint one
        assert_eq!(out.layering.layers[0].len(), 3);
        assert_eq!(out.layering.layers[1], vec![CommId(2)]);
    }

    #[test]
    fn power_cost_scales_with_layers_not_width() {
        // Crossing workload with k layers: per-switch cost stays O(k).
        let n = 64;
        let topo = CstTopology::with_leaves(n);
        let k = 4;
        // k mutually crossing "shifted nests": family j = (j, n/2 + j)
        // shifted chains... keep simple: j-th comm (j, n/2 + 2j).
        let pairs: Vec<(usize, usize)> = (0..k).map(|j| (j, n / 2 + 2 * j)).collect();
        let set = CommSet::from_pairs(n, &pairs);
        let out = schedule_layered(&topo, &set).unwrap();
        assert_eq!(out.num_layers(), k);
        let meter = out.schedule.meter_power(&topo);
        let report = meter.report(&topo);
        // each layer contributes O(1) per switch
        assert!(report.max_units <= 3 * k as u32);
    }

    #[test]
    fn rejects_left_oriented_input() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(5, 2)]);
        assert!(schedule_layered(&topo, &set).is_err());
    }
}
