//! A guided walkthrough of the paper's own figures, executed on the real
//! implementation:
//!
//! * Figure 1 — communications over the CST: a two-communication round
//!   with the switch settings printed per switch;
//! * Figure 2 — a well-nested communication set and its schedule;
//! * Figure 3(b) — Definitions 1 and 2 (outermost communication, x-th
//!   left-most source / right-most destination) evaluated on the example;
//! * Figure 5 — the per-switch transition function stepping a concrete
//!   switch state through a round.
//!
//! ```text
//! cargo run --release --example paper_walkthrough
//! ```

use cst::comm::{examples, to_paren_string, width_on_topology};
use cst::core::{CstTopology, NodeId};
use cst::padr::messages::DownMsg;
use cst::padr::phase1;
use cst::padr::switch_logic;

fn main() {
    figure_1();
    figure_2();
    figure_3b();
    figure_5();
}

fn figure_1() {
    println!("--- Figure 1: communications over the CST -------------------");
    let topo = CstTopology::with_leaves(8);
    let set = cst::comm::CommSet::from_pairs(8, &[(0, 3), (4, 7)]);
    let out = cst::engine::route_once("csa", &topo, &set).unwrap();
    assert_eq!(out.rounds, 1);
    let round = &out.schedule.rounds[0];
    println!("one round carries both communications; switch settings:");
    for (node, cfg) in &round.configs {
        println!("  switch {node}: {cfg}");
    }
    println!();
}

fn figure_2() {
    println!("--- Figure 2: a well-nested communication set ----------------");
    let set = examples::paper_figure_2();
    let topo = CstTopology::with_leaves(16);
    println!("pattern : {}", to_paren_string(&set).unwrap());
    println!("width   : {}", width_on_topology(&topo, &set));
    let out = cst::engine::route_once("csa", &topo, &set).unwrap();
    for (i, round) in out.schedule.rounds.iter().enumerate() {
        let pairs: Vec<String> = round
            .comms
            .iter()
            .map(|&id| {
                let c = &set.comms()[id.0];
                format!("({},{})", c.source.0, c.dest.0)
            })
            .collect();
        println!("round {i}: {}", pairs.join(" "));
    }
    println!();
}

fn figure_3b() {
    println!("--- Figure 3(b): Definitions 1 and 2 -------------------------");
    let set = examples::paper_figure_3b();
    let topo = CstTopology::with_leaves(16);
    let p1 = phase1::run(&topo, &set).unwrap();
    // The switch where the boundary-crossing communications are matched:
    let u = topo.lca(cst::core::LeafId(0), cst::core::LeafId(15));
    let st = p1.state(u);
    println!("switch u = {u} (covers leaves {:?})", topo.leaf_range(u));
    println!("  matched pairs M            : {}", st.matched);
    println!("  unmatched left sources     : {}  (these lie LEFT of the matched ones)", st.left_sources);
    println!("  unmatched right dests      : {}  (these lie RIGHT of the matched ones)", st.right_dests);
    println!(
        "  outermost matched comm = connect S_u({}) to D_u({}) per Definitions 1-2",
        st.left_sources, st.right_dests
    );
    println!();
}

fn figure_5() {
    println!("--- Figure 5: stepping the switch transition function --------");
    // A switch with 2 matched pairs, 3 outer left sources, 1 outer right
    // dest — the [null,null] branch of the pseudocode.
    let mut st = cst::padr::SwitchState {
        matched: 2,
        left_sources: 3,
        right_sources: 0,
        left_dests: 0,
        right_dests: 1,
    };
    println!("state before: {st:?}");
    let r = switch_logic::step(&mut st, DownMsg::NULL).unwrap();
    println!("[null,null] received:");
    for c in r.connections {
        println!("  connect {c}");
    }
    println!("  to left child : {}", r.to_left);
    println!("  to right child: {}", r.to_right);
    println!("state after : {st:?}");
    let _ = NodeId::ROOT;
}
