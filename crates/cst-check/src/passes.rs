//! The schedule-level analysis passes: input-set structure, round count
//! (Theorem 5), port-transition budget (Theorem 8) and selection order
//! (§4). The round-level Theorem 4 / ownership pass lives in
//! [`cst_comm::check_rounds`] so `Schedule::verify` can reach it without a
//! dependency cycle.

use cst_comm::{width_on_topology, CommSet, Orientation, Schedule};
use cst_core::diag::{DiagCode, DiagReport, Diagnostic};
use cst_core::{CstTopology, FaultMask, SwitchConfig};

/// Structural checks on the input set: well-nestedness (`CST001`) and —
/// when `require_right_oriented` — orientation (`CST002`).
pub fn check_set(set: &CommSet, require_right_oriented: bool) -> DiagReport {
    let mut report = DiagReport::new();
    if let Some((a, b)) = set.well_nested_violation() {
        report.push(
            Diagnostic::new(
                DiagCode::NotWellNested,
                format!("communications {a} and {b} cross: set is not well-nested"),
            )
            .with_comm(a.0)
            .with_comm(b.0),
        );
    }
    if require_right_oriented {
        for (id, c) in set.iter() {
            if c.orientation() != Orientation::Right {
                report.push(
                    Diagnostic::new(
                        DiagCode::NotRightOriented,
                        format!("{id} runs {}->{}: not right-oriented", c.source, c.dest),
                    )
                    .with_comm(id.0),
                );
            }
        }
    }
    report
}

/// Theorem 5: an optimal schedule uses exactly `w` rounds, where `w` is the
/// maximum directed-link load (`CST030`).
pub fn check_round_count(topo: &CstTopology, set: &CommSet, schedule: &Schedule) -> DiagReport {
    let mut report = DiagReport::new();
    let width = width_on_topology(topo, set) as usize;
    let rounds = schedule.num_rounds();
    if rounds != width {
        report.push(Diagnostic::new(
            DiagCode::RoundCountMismatch,
            format!("schedule uses {rounds} rounds but the set has width {width}"),
        ));
    }
    report
}

/// Per-switch port transitions implied by the schedule alone: replay the
/// recorded configurations round by round against a persistent per-switch
/// state, counting every output-port driver change — the same hold
/// semantics the runtime [`cst_core::PowerMeter`] charges, but derived by
/// pure diffing, no protocol simulation.
pub fn static_port_transitions(topo: &CstTopology, schedule: &Schedule) -> Vec<u32> {
    let mut held = vec![SwitchConfig::empty(); topo.node_table_len()];
    let mut transitions = vec![0u32; topo.node_table_len()];
    for round in &schedule.rounds {
        for (node, cfg) in &round.configs {
            let h = &mut held[node.index()];
            for c in cfg.connections() {
                if !c.is_legal() {
                    continue; // CST022's domain; force() would debug-panic
                }
                if h.driver_of(c.to) != Some(c.from) {
                    transitions[node.index()] += 1;
                }
                h.force(c);
            }
        }
    }
    transitions
}

/// The maximum over switches of [`static_port_transitions`].
pub fn max_static_transitions(topo: &CstTopology, schedule: &Schedule) -> u32 {
    static_port_transitions(topo, schedule).into_iter().max().unwrap_or(0)
}

/// Theorem 8: every switch stays within the O(1) port-transition budget
/// (`CST040`), one diagnostic per offending switch.
pub fn check_transitions(topo: &CstTopology, schedule: &Schedule, bound: u32) -> DiagReport {
    let mut report = DiagReport::new();
    for (i, &t) in static_port_transitions(topo, schedule).iter().enumerate() {
        if t > bound {
            report.push(
                Diagnostic::new(
                    DiagCode::TransitionBudget,
                    format!("{t} port transitions exceed the O(1) budget {bound}"),
                )
                .with_node(cst_core::NodeId(i)),
            );
        }
    }
    report
}

/// Fault-model audit of a degraded schedule (`CST10x`, docs/FAULTS.md).
///
/// `dropped` is the set of communication ids the router claims are
/// unroutable under `mask`. The pass checks the three fault invariants:
///
/// * **CST100** — no scheduled communication's circuit crosses a dead
///   link or a dead switch (the path is unique, so walking it is exact);
/// * **CST101** — no round drives a degraded (half-duplex) edge in both
///   directions;
/// * **CST102** — every dropped communication really is unroutable: a
///   drop with no blocking fault on its path is a router bug.
///
/// It also re-checks coverage under the drop list, since plain
/// `check_rounds` coverage (CST012) cannot know which absences are
/// legitimate: a communication neither scheduled nor dropped is
/// `CST012` here, and one *both* scheduled and dropped is `CST011`.
pub fn check_faults(
    topo: &CstTopology,
    set: &CommSet,
    schedule: &Schedule,
    mask: &FaultMask,
    dropped: &[usize],
) -> DiagReport {
    let mut report = DiagReport::new();
    let mut is_dropped = vec![false; set.len()];
    for &id in dropped {
        if let Some(slot) = is_dropped.get_mut(id) {
            *slot = true;
        }
    }
    let mut scheduled = vec![false; set.len()];
    // Per-round direction usage of each degraded edge, child-node indexed:
    // bit 0 = upward, bit 1 = downward.
    let mut edge_dirs = vec![0u8; topo.node_table_len()];
    for (r, round) in schedule.rounds.iter().enumerate() {
        edge_dirs.iter_mut().for_each(|d| *d = 0);
        for &id in &round.comms {
            let Some(c) = set.comms().get(id.0) else { continue };
            scheduled[id.0] = true;
            for link in topo.path_links(c.source, c.dest) {
                if mask.link_dead(link) {
                    report.push(
                        Diagnostic::new(
                            DiagCode::MaskedLinkUsed,
                            format!("{id} crosses dead link {link}"),
                        )
                        .with_round(r)
                        .with_comm(id.0)
                        .with_link(link.child, link.up),
                    );
                }
                if let Some(sw) = link.child.parent() {
                    if mask.switch_dead(sw) {
                        report.push(
                            Diagnostic::new(
                                DiagCode::MaskedLinkUsed,
                                format!("{id} routes through dead switch {sw}"),
                            )
                            .with_round(r)
                            .with_comm(id.0)
                            .with_node(sw),
                        );
                    }
                }
                if mask.edge_degraded(link.child) {
                    edge_dirs[link.child.index()] |= if link.up { 0b01 } else { 0b10 };
                }
            }
        }
        for &edge in mask.degraded_edges() {
            if edge_dirs[edge.index()] == 0b11 {
                report.push(
                    Diagnostic::new(
                        DiagCode::HalfDuplexViolation,
                        format!("degraded edge above {edge} driven in both directions"),
                    )
                    .with_round(r)
                    .with_node(edge),
                );
            }
        }
    }
    for (id, c) in set.iter() {
        match (scheduled[id.0], is_dropped[id.0]) {
            (false, false) => report.push(
                Diagnostic::new(
                    DiagCode::MissingComm,
                    format!("{id} neither scheduled nor reported dropped"),
                )
                .with_comm(id.0),
            ),
            (true, true) => report.push(
                Diagnostic::new(
                    DiagCode::DuplicateComm,
                    format!("{id} reported dropped but present in the schedule"),
                )
                .with_comm(id.0),
            ),
            (false, true) => {
                if mask.blocking_fault(topo, c.source, c.dest).is_none() {
                    report.push(
                        Diagnostic::new(
                            DiagCode::DroppedRoutable,
                            format!(
                                "{id} ({} -> {}) was dropped but no fault blocks its path",
                                c.source, c.dest
                            ),
                        )
                        .with_comm(id.0),
                    );
                }
            }
            (true, false) => {}
        }
    }
    report
}

/// The switch a communication is matched at: the LCA of its endpoints,
/// where the circuit turns around (`l_i -> r_o` for right-oriented sets).
fn apex(topo: &CstTopology, source: cst_core::LeafId, dest: cst_core::LeafId) -> cst_core::NodeId {
    let mut a = topo.leaf_node(source).0;
    let mut b = topo.leaf_node(dest).0;
    while a != b {
        if a > b {
            a >>= 1;
        } else {
            b >>= 1;
        }
    }
    cst_core::NodeId(a)
}

/// §4 selection order `O_c(u)`: the communications matched at one switch
/// `u` all need `u`'s `r_o` port, so they run in distinct rounds — and the
/// CSA picks them outermost-first, so round indices must strictly increase
/// from the enclosing communication inward (`CST060`). The order is *per
/// matching switch*: communications matched at different switches are
/// scheduled independently, and a globally inner one may legitimately run
/// first. Equal rounds are a port conflict (`CST020`/`CST021` territory),
/// not a selection-order finding, and are skipped here.
///
/// Only meaningful for right-oriented well-nested sets; [`crate::analyze`]
/// guards the call accordingly.
pub fn check_selection_order(
    topo: &CstTopology,
    set: &CommSet,
    schedule: &Schedule,
) -> DiagReport {
    let mut report = DiagReport::new();
    // First (and, for clean schedules, only) round of each communication.
    let mut round_of: Vec<Option<usize>> = vec![None; set.len()];
    for (r, round) in schedule.rounds.iter().enumerate() {
        for &id in &round.comms {
            if let Some(slot) = round_of.get_mut(id.0) {
                slot.get_or_insert(r);
            }
        }
    }
    // Communications grouped by matching switch; (left endpoint, id,
    // round) — within one switch, ascending left endpoint is outermost
    // first (same-apex comms are totally nested).
    let mut per_apex: Vec<Vec<(usize, usize, usize)>> =
        vec![Vec::new(); topo.node_table_len()];
    for (id, c) in set.iter() {
        let Some(r) = round_of[id.0] else { continue };
        let (l, _) = c.interval();
        per_apex[apex(topo, c.source, c.dest).index()].push((l, id.0, r));
    }
    for (u, comms) in per_apex.iter_mut().enumerate() {
        if comms.len() < 2 {
            continue;
        }
        comms.sort_unstable();
        for w in comms.windows(2) {
            let (_, outer_id, outer_r) = w[0];
            let (_, inner_id, inner_r) = w[1];
            if inner_r < outer_r {
                report.push(
                    Diagnostic::new(
                        DiagCode::SelectionOrder,
                        format!(
                            "c{inner_id} (round {inner_r}) runs before enclosing c{outer_id} \
                             (round {outer_r}) matched at the same switch: not outermost-first"
                        ),
                    )
                    .with_node(cst_core::NodeId(u))
                    .with_round(inner_r)
                    .with_comm(outer_id)
                    .with_comm(inner_id),
                );
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_comm::{CommId, Round};
    use cst_core::NodeId;

    /// The schedule performing round `r`'s ids in round `r`.
    fn schedule_of(topo: &CstTopology, set: &CommSet, rounds: &[&[usize]]) -> Schedule {
        let ids = rounds.iter().map(|r| r.iter().map(|&i| CommId(i)).collect::<Vec<_>>());
        Schedule::from_partition(topo, |id| set.get(id).map(|c| (c.source, c.dest)), ids).unwrap()
    }

    #[test]
    fn set_pass_flags_crossing_and_orientation() {
        let crossing = CommSet::from_pairs(8, &[(0, 4), (2, 6)]);
        let rep = check_set(&crossing, true);
        assert_eq!(rep.error_count(), 1);
        assert_eq!(rep.diagnostics[0].code, DiagCode::NotWellNested);
        assert_eq!(rep.diagnostics[0].comms, vec![0, 1]);

        let left = CommSet::from_pairs(8, &[(3, 0)]);
        let rep = check_set(&left, true);
        assert_eq!(rep.diagnostics[0].code, DiagCode::NotRightOriented);
        assert!(check_set(&left, false).is_clean());
    }

    #[test]
    fn round_count_pass() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6)]);
        let sched = schedule_of(&topo, &set, &[&[0], &[1]]);
        assert!(check_round_count(&topo, &set, &sched).is_clean());
        let padded = Schedule {
            rounds: sched.rounds.iter().cloned().chain([Round::default()]).collect(),
        };
        let rep = check_round_count(&topo, &set, &padded);
        assert_eq!(rep.diagnostics[0].code, DiagCode::RoundCountMismatch);
    }

    #[test]
    fn static_transitions_match_meter() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)]);
        let sched = schedule_of(&topo, &set, &[&[0], &[1], &[2]]);
        let report = sched.meter_power(&topo).report(&topo);
        assert_eq!(max_static_transitions(&topo, &sched), report.max_port_transitions);
        assert!(check_transitions(&topo, &sched, 9).is_clean());
        // an absurd budget of 0 flags every active switch
        assert!(check_transitions(&topo, &sched, 0).has_errors());
    }

    #[test]
    fn selection_order_flags_inverted_rounds() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6)]);
        let good = schedule_of(&topo, &set, &[&[0], &[1]]);
        assert!(check_selection_order(&topo, &set, &good).is_clean());
        let bad = Schedule { rounds: good.rounds.iter().rev().cloned().collect() };
        let rep = check_selection_order(&topo, &set, &bad);
        assert!(rep.has_errors());
        let d = rep.first_error().unwrap();
        assert_eq!(d.code, DiagCode::SelectionOrder);
        assert_eq!(d.comms, vec![0, 1]);
        assert!(d.node.is_some());
    }

    #[test]
    fn fault_pass_is_clean_on_honest_degradation() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 2)]);
        let mut mask = FaultMask::empty(&topo);
        assert!(mask.kill_switch(NodeId(1))); // (0, 7) crosses the root
        // Schedule only the surviving (1, 2); report (0, 7) as dropped.
        let sched = schedule_of(&topo, &set, &[&[1]]);
        let rep = check_faults(&topo, &set, &sched, &mask, &[0]);
        assert!(rep.is_clean(), "{}", rep.render_text());
    }

    #[test]
    fn fault_pass_flags_masked_hardware_use() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7)]);
        let sched = schedule_of(&topo, &set, &[&[0]]);
        let mut dead_switch = FaultMask::empty(&topo);
        assert!(dead_switch.kill_switch(NodeId(1)));
        let rep = check_faults(&topo, &set, &sched, &dead_switch, &[]);
        assert!(rep.has_errors());
        assert_eq!(rep.first_error().unwrap().code, DiagCode::MaskedLinkUsed);

        let mut dead_link = FaultMask::empty(&topo);
        assert!(dead_link.kill_link(cst_core::DirectedLink::up_from(NodeId(2))));
        let rep = check_faults(&topo, &set, &sched, &dead_link, &[]);
        assert_eq!(rep.first_error().unwrap().code, DiagCode::MaskedLinkUsed);
        // The opposite direction of the same edge is a different link.
        let mut other_dir = FaultMask::empty(&topo);
        assert!(other_dir.kill_link(cst_core::DirectedLink::down_to(NodeId(2))));
        assert!(check_faults(&topo, &set, &sched, &other_dir, &[]).is_clean());
    }

    #[test]
    fn fault_pass_flags_half_duplex_violation() {
        let topo = CstTopology::with_leaves(8);
        // (0, 2) drives the edge above node 5 downward, (3, 6) upward.
        let set = CommSet::from_pairs(8, &[(0, 2), (3, 6)]);
        let mut mask = FaultMask::empty(&topo);
        assert!(mask.degrade_edge(NodeId(5)));
        let both = schedule_of(&topo, &set, &[&[0, 1]]);
        let rep = check_faults(&topo, &set, &both, &mask, &[]);
        assert_eq!(rep.first_error().unwrap().code, DiagCode::HalfDuplexViolation);
        let split = schedule_of(&topo, &set, &[&[0], &[1]]);
        assert!(check_faults(&topo, &set, &split, &mask, &[]).is_clean());
    }

    #[test]
    fn fault_pass_flags_bogus_drops_and_coverage() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 2)]);
        let mask = FaultMask::empty(&topo);
        // Nothing blocks (0, 7); dropping it anyway is a router bug.
        let sched = schedule_of(&topo, &set, &[&[1]]);
        let rep = check_faults(&topo, &set, &sched, &mask, &[0]);
        assert_eq!(rep.first_error().unwrap().code, DiagCode::DroppedRoutable);
        // Neither scheduled nor dropped → missing.
        let rep = check_faults(&topo, &set, &sched, &mask, &[]);
        assert_eq!(rep.first_error().unwrap().code, DiagCode::MissingComm);
        // Dropped but also scheduled → duplicate accounting.
        let full = schedule_of(&topo, &set, &[&[0], &[1]]);
        let rep = check_faults(&topo, &set, &full, &mask, &[0]);
        assert_eq!(rep.first_error().unwrap().code, DiagCode::DuplicateComm);
    }

    #[test]
    fn selection_order_ignores_disjoint_comms() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 3), (4, 7)]);
        // Disjoint comms share no link: any round order is fine.
        let sched = schedule_of(&topo, &set, &[&[1], &[0]]);
        assert!(check_selection_order(&topo, &set, &sched).is_clean());
        assert_eq!(NodeId::ROOT, NodeId(1)); // sanity on dense-index math
    }
}
