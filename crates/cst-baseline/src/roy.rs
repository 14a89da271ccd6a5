//! Re-implementation in spirit of the comparator algorithm of
//! **Roy, Vaidyanathan & Trahan, "Routing Multiple Width Communications on
//! the Circuit Switched Tree", IJFCS 17(2), 2006** — the prior work the
//! paper improves on.
//!
//! The 2007 paper tells us everything we rely on about \[6\]: it assigns an
//! **ID to each communication**, uses the ID to configure switches and
//! establish each round's paths, takes `Θ(w)` rounds on well-nested sets,
//! and costs a switch **O(w)** configuration changes. The exact ID
//! assignment of \[6\] is not reproducible from the 2007 paper alone, so we
//! use the natural *link-aware nesting level*:
//!
//! > `level(c) = 1 + max { level(c') : c' ⊋ c and c' shares a directed
//! > link with c }`
//!
//! Same-level communications never share a link (sharing implies nesting
//! implies a level gap), so each level is a compatible set; scheduling one
//! level per round gives `max_level ∈ [w, …]` rounds. `max_level` can
//! exceed the width `w` on adversarial inputs (chains that share links
//! only consecutively — see `level_can_exceed_width_on_staircase`);
//! experiment E1 reports measured `rounds/w` ratios — on random
//! well-nested workloads they coincide almost always, consistent with
//! \[6\]'s `Θ(w)` bound.
//!
//! # Where the O(w)-vs-O(1) power contrast comes from
//!
//! An ID-based protocol runs a fresh path-establishment sweep every round:
//! a switch is told (implicitly, by the paths routed through it) what to
//! connect *this* round, and has no protocol-level basis for knowing that
//! a setting can be retained into the next round. Its power cost is
//! therefore the **write-through** metric of
//! [`cst_core::PowerMeter`] — one unit per connection per round it is
//! used — which is `Θ(w)` at hot switches (e.g. the apex of `w` matched
//! communications participates in `w` consecutive rounds).
//!
//! The PADR contribution is exactly the invariant (paper Lemmas 6–7: each
//! control stream alternates at most twice) that makes **hold** semantics
//! sound: a CSA switch knows its configuration persists until the stream
//! flips, so it re-arms a port only O(1) times total. A subtle point our
//! measurements make explicit: the *round partition* alone does not
//! explain the gap — any nesting-monotone order (the level order here, in
//! either direction) would also have O(1) per-port driver changes under
//! hold semantics, because all communications using one switch port share
//! that port's link and are therefore totally nested. The gap is a
//! protocol property (who may hold), which is why E2/E3 report both
//! metrics for both schedulers.

use crate::common::outermost_first_order;
use cst_comm::{CommId, CommSet, Schedule};
use cst_core::{Circuit, CstError, CstTopology, DirectedLink};
use std::collections::HashMap;

/// Order in which the ID levels are scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LevelOrder {
    /// Innermost (highest level) first — the default, power-oblivious
    /// ordering used for the paper's contrast.
    InnermostFirst,
    /// Outermost (level 1) first — used by the E8 ablation to isolate how
    /// much of CSA's power win comes purely from the selection order.
    OutermostFirst,
}

/// Outcome of the Roy-style scheduler.
#[derive(Clone, Debug)]
pub struct RoyOutcome {
    pub schedule: Schedule,
    /// The ID (level) assigned to each communication, by comm index.
    pub levels: Vec<u32>,
    /// Number of distinct levels (= rounds).
    pub max_level: u32,
}

/// Assign link-aware nesting levels to a right-oriented well-nested set.
///
/// Processes communications outermost-first and keeps, per directed link,
/// the maximum level of any communication already placed on it; a new
/// communication's level is one more than the maximum over its own links.
pub fn assign_levels(topo: &CstTopology, set: &CommSet) -> Vec<u32> {
    let mut levels = vec![0u32; set.len()];
    let mut link_max: HashMap<DirectedLink, u32> = HashMap::new();
    for id in outermost_first_order(set) {
        let c = &set.comms()[id.0];
        let circuit = Circuit::right_oriented(topo, c.source, c.dest);
        let base = circuit
            .links
            .iter()
            .filter_map(|l| link_max.get(l).copied())
            .max()
            .unwrap_or(0);
        let level = base + 1;
        levels[id.0] = level;
        for l in circuit.links {
            let e = link_max.entry(l).or_insert(0);
            *e = (*e).max(level);
        }
    }
    levels
}

/// Schedule `set` Roy-style: one ID level per round, members in id order.
pub fn run(topo: &CstTopology, set: &CommSet, order: LevelOrder) -> Result<RoyOutcome, CstError> {
    set.require_right_oriented()?;
    set.require_well_nested()?;
    let levels = assign_levels(topo, set);
    let max_level = levels.iter().copied().max().unwrap_or(0);
    let mut partition: Vec<Vec<CommId>> = vec![Vec::new(); max_level as usize];
    for (i, &lv) in levels.iter().enumerate() {
        partition[(lv - 1) as usize].push(CommId(i));
    }
    match order {
        LevelOrder::InnermostFirst => partition.reverse(),
        LevelOrder::OutermostFirst => {}
    }
    let endpoints = |id| set.get(id).map(|c| (c.source, c.dest));
    let schedule = Schedule::from_partition(topo, endpoints, &partition)?;
    Ok(RoyOutcome { schedule, levels, max_level })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_comm::examples;

    #[test]
    fn levels_on_plain_nest_match_depth() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5), (3, 4)]);
        let levels = assign_levels(&topo, &set);
        assert_eq!(levels, vec![1, 2, 3, 4]);
    }

    #[test]
    fn same_level_is_compatible_and_verifies() {
        let topo = CstTopology::with_leaves(16);
        let set = examples::paper_figure_2();
        let out = run(&topo, &set, LevelOrder::InnermostFirst).unwrap();
        out.schedule.verify(&topo, &set).unwrap();
    }

    #[test]
    fn disjoint_comms_share_level_one() {
        let topo = CstTopology::with_leaves(16);
        let set = examples::sibling_pairs(16);
        let out = run(&topo, &set, LevelOrder::InnermostFirst).unwrap();
        assert_eq!(out.max_level, 1);
        assert_eq!(out.schedule.num_rounds(), 1);
    }

    #[test]
    fn level_can_exceed_width_on_staircase() {
        // The depth-3/width-2 counterexample: level-based rounds pay the
        // chain length; CSA (cst-padr) pays only the width.
        let topo = CstTopology::with_leaves(16);
        let set = CommSet::from_pairs(16, &[(3, 9), (4, 8), (5, 6)]);
        let out = run(&topo, &set, LevelOrder::InnermostFirst).unwrap();
        assert_eq!(out.max_level, 3);
        assert_eq!(cst_comm::width_on_topology(&topo, &set), 2);
        out.schedule.verify(&topo, &set).unwrap();
    }

    #[test]
    fn both_orders_schedule_everything() {
        let topo = CstTopology::with_leaves(32);
        let set = examples::full_nest(32);
        for order in [LevelOrder::InnermostFirst, LevelOrder::OutermostFirst] {
            let out = run(&topo, &set, order).unwrap();
            assert_eq!(out.schedule.num_rounds(), 16);
            out.schedule.verify(&topo, &set).unwrap();
        }
    }

    #[test]
    fn roy_writethrough_power_grows_with_width() {
        // All communications of a full nest are matched at the root, which
        // under per-round path establishment pays every round: O(w) units.
        // CSA's hold-semantics cost at any switch stays constant.
        let mut prev_roy = 0;
        for n in [8usize, 16, 32, 64] {
            let topo = CstTopology::with_leaves(n);
            let set = examples::full_nest(n);
            let w = (n / 2) as u32;
            let out = run(&topo, &set, LevelOrder::InnermostFirst).unwrap();
            let report = out.schedule.meter_power(&topo).report(&topo);
            // root participates in every one of the w rounds
            assert!(report.max_writethrough_units >= w, "n={n}");
            assert!(report.max_writethrough_units > prev_roy);
            prev_roy = report.max_writethrough_units;
            let csa = cst_padr::CsaScratch::new()
                .schedule(&topo, &set, &mut cst_comm::SchedulePool::new())
                .unwrap();
            assert!(
                csa.power.max_units <= 6,
                "CSA hold units must stay constant, got {} at n={n}",
                csa.power.max_units
            );
        }
    }

    #[test]
    fn monotone_orders_are_retention_friendly_under_hold() {
        // The subtle finding documented in the module docs: Roy's *round
        // partition* in level order is also O(1) per port under hold
        // semantics — the O(w) gap is the write-through protocol, not the
        // partition.
        let topo = CstTopology::with_leaves(64);
        let set = examples::full_nest(64);
        let out = run(&topo, &set, LevelOrder::InnermostFirst).unwrap();
        let report = out.schedule.meter_power(&topo).report(&topo);
        assert!(report.max_port_transitions <= 6);
        assert!(report.max_writethrough_units >= 32);
    }
}
