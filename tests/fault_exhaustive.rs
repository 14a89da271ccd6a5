//! Exhaustive single-fault enumeration on small trees (n <= 16).
//!
//! For every single dead switch, every single dead directed link, and
//! every single degraded (half-duplex) edge, the masked router's
//! routed/dropped partition is cross-checked against a brute-force
//! reachability oracle built from [`Circuit::between`] — a path
//! construction independent of `FaultMask::blocking_fault` — and every
//! surviving schedule is audited by `cst-check`'s fault pass.

use cst::check::{analyze_with_faults, CheckOptions};
use cst::comm::{examples, CommSet};
use cst::core::{CstTopology, Circuit, DirectedLink, FaultMask, NodeId};
use cst::engine::EngineCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Brute-force oracle: a communication survives iff no switch its circuit
/// configures is dead and no directed link it occupies is dead. Scans the
/// mask's fault lists linearly instead of using the bitset queries.
fn oracle_blocked(topo: &CstTopology, mask: &FaultMask, set: &CommSet, comm: usize) -> bool {
    let c = set.comms()[comm];
    let circuit = Circuit::between(topo, c.source, c.dest);
    circuit
        .settings
        .iter()
        .any(|(sw, _)| mask.dead_switches().contains(sw))
        || circuit
            .links
            .iter()
            .any(|l| mask.dead_links().contains(l))
}

/// The workload suite per size: canonical shapes plus seeded random
/// well-nested sets, all right-oriented.
fn workloads(n: usize) -> Vec<CommSet> {
    let mut sets = vec![examples::full_nest(n), examples::sibling_pairs(n)];
    if n == 16 {
        sets.push(examples::paper_figure_2());
    }
    for seed in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let set = cst::workloads::well_nested_with_density(&mut rng, n, 0.6);
        if !set.is_empty() {
            sets.push(set);
        }
    }
    sets
}

/// Route `set` under `mask`, check the drop partition against the oracle,
/// and audit the surviving schedule. Returns the number of drops.
fn route_and_check(
    ctx: &mut EngineCtx,
    topo: &CstTopology,
    set: &CommSet,
    mask: &FaultMask,
    router: &str,
    what: &str,
) -> usize {
    let routed = ctx.route_masked(cst::engine::find(router).unwrap().as_ref(), topo, set, mask);
    let out = routed.unwrap();
    let report = out.degradation.as_ref().expect("masked route reports");
    assert_eq!(
        report.routed + report.dropped,
        set.len(),
        "{router} under {what}: conservation violated"
    );

    let dropped: Vec<usize> = report.drops.iter().map(|d| d.comm).collect();
    for id in 0..set.len() {
        assert_eq!(
            oracle_blocked(topo, mask, set, id),
            dropped.contains(&id),
            "{router} under {what}: comm {id} disagrees with the circuit oracle"
        );
    }

    let audit = analyze_with_faults(
        topo,
        set,
        &out.schedule,
        &CheckOptions::lenient(),
        mask,
        &dropped,
    );
    assert!(
        audit.is_clean(),
        "{router} under {what}: fault audit found {:?}",
        audit.diagnostics
    );

    let drops = report.dropped;
    ctx.recycle(out);
    drops
}

#[test]
fn every_single_switch_fault_partitions_correctly() {
    let mut ctx = EngineCtx::new();
    for n in [4usize, 8, 16] {
        let topo = CstTopology::with_leaves(n);
        for set in workloads(n) {
            for sw in 1..topo.num_leaves() {
                let mut mask = FaultMask::empty(&topo);
                assert!(mask.kill_switch(NodeId(sw)));
                for router in ["csa", "greedy"] {
                    route_and_check(
                        &mut ctx,
                        &topo,
                        &set,
                        &mask,
                        router,
                        &format!("dead switch {sw} (n={n})"),
                    );
                }
            }
        }
    }
}

#[test]
fn every_single_link_fault_partitions_correctly() {
    let mut ctx = EngineCtx::new();
    for n in [4usize, 8, 16] {
        let topo = CstTopology::with_leaves(n);
        for set in workloads(n) {
            for child in 2..topo.node_table_len() {
                for link in [
                    DirectedLink::up_from(NodeId(child)),
                    DirectedLink::down_to(NodeId(child)),
                ] {
                    let mut mask = FaultMask::empty(&topo);
                    assert!(mask.kill_link(link));
                    route_and_check(
                        &mut ctx,
                        &topo,
                        &set,
                        &mask,
                        "csa",
                        &format!("dead link {link:?} (n={n})"),
                    );
                }
            }
        }
    }
}

#[test]
fn every_single_degraded_edge_reroutes_without_dropping() {
    let mut ctx = EngineCtx::new();
    for n in [4usize, 8, 16] {
        let topo = CstTopology::with_leaves(n);
        for set in workloads(n) {
            for child in 2..topo.node_table_len() {
                let mut mask = FaultMask::empty(&topo);
                assert!(mask.degrade_edge(NodeId(child)));
                let out = ctx.route_masked(&cst::engine::Csa, &topo, &set, &mask).unwrap();
                let report = out.degradation.as_ref().unwrap();
                // Half-duplex is a capacity fault, never a reachability
                // fault: nothing may be dropped.
                assert_eq!(report.dropped, 0, "degraded edge {child} dropped comms");
                assert_eq!(report.routed, set.len());
                assert_eq!(out.rounds, out.schedule.num_rounds());
                let audit = analyze_with_faults(
                    &topo,
                    &set,
                    &out.schedule,
                    &CheckOptions::lenient(),
                    &mask,
                    &[],
                );
                assert!(
                    audit.is_clean(),
                    "degraded edge {child} (n={n}): {:?}",
                    audit.diagnostics
                );
                ctx.recycle(out);
            }
        }
    }
}

/// A dead switch is strictly stronger than any one of its dead links:
/// killing switch `s` drops a superset of what killing any single link
/// adjacent to `s` drops.
#[test]
fn switch_death_dominates_adjacent_link_death() {
    let mut ctx = EngineCtx::new();
    let n = 16;
    let topo = CstTopology::with_leaves(n);
    let set = examples::paper_figure_2();
    for sw in 1..topo.num_leaves() {
        let mut switch_mask = FaultMask::empty(&topo);
        switch_mask.kill_switch(NodeId(sw));
        let switch_drops: Vec<usize> = {
            let out = ctx
                .route_masked(&cst::engine::Csa, &topo, &set, &switch_mask)
                .unwrap();
            let drops = out
                .degradation
                .as_ref()
                .unwrap()
                .drops
                .iter()
                .map(|d| d.comm)
                .collect();
            ctx.recycle(out);
            drops
        };
        // Adjacent links: above the switch (child = sw) and to each child.
        let adjacent = [
            DirectedLink::up_from(NodeId(sw)),
            DirectedLink::down_to(NodeId(sw)),
            DirectedLink::up_from(NodeId(2 * sw)),
            DirectedLink::down_to(NodeId(2 * sw)),
            DirectedLink::up_from(NodeId(2 * sw + 1)),
            DirectedLink::down_to(NodeId(2 * sw + 1)),
        ];
        for link in adjacent {
            let mut link_mask = FaultMask::empty(&topo);
            link_mask.kill_link(link);
            let out = ctx
                .route_masked(&cst::engine::Csa, &topo, &set, &link_mask)
                .unwrap();
            for d in &out.degradation.as_ref().unwrap().drops {
                assert!(
                    switch_drops.contains(&d.comm),
                    "link {link:?} dropped comm {} that dead switch {sw} kept",
                    d.comm
                );
            }
            ctx.recycle(out);
        }
    }
}
