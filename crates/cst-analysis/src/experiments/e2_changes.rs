//! **E2 — Theorem 8 vs \[6\] (per-switch configuration cost vs width).**
//!
//! Sweeps the width `w` at fixed `N` and reports, for the hottest switch:
//!
//! * CSA under hold semantics: power units and port transitions — must
//!   stay **flat** (O(1)) as `w` grows;
//! * Roy-style baseline under write-through semantics: units — must grow
//!   **linearly** in `w` (the hot apex participates in `w` rounds).

use super::measure_all;
use crate::runner::parallel_map;
use crate::table::Table;
use cst_core::CstTopology;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for E2.
#[derive(Clone, Debug)]
pub struct Config {
    pub n: usize,
    pub widths: Vec<usize>,
    pub seeds: Vec<u64>,
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 1024,
            widths: vec![1, 2, 4, 8, 16, 32, 64, 128],
            seeds: (0..5).collect(),
            threads: crate::runner::default_threads(),
        }
    }
}

/// Run E2.
pub fn run(cfg: &Config) -> Table {
    let mut table = Table::new(
        "E2",
        "per-switch configuration cost vs width (Theorem 8: CSA O(1), Roy O(w))",
        &[
            "w",
            "csa_max_units",
            "csa_max_port_transitions",
            "csa_max_change_rounds",
            "roy_max_wt_units",
            "roy_max_active_rounds",
        ],
    );
    let points: Vec<(usize, u64)> = cfg
        .widths
        .iter()
        .flat_map(|&w| cfg.seeds.iter().map(move |&s| (w, s)))
        .collect();
    let results = parallel_map(points.clone(), cfg.threads, |&(w, seed)| {
        let topo = CstTopology::with_leaves(cfg.n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE2);
        let set = cst_workloads::with_width(&mut rng, cfg.n, w, 0.5);
        measure_all(&topo, &set)
    });

    let mut csa_flat_max = 0u32;
    for &w in &cfg.widths {
        let group: Vec<_> = points
            .iter()
            .zip(&results)
            .filter(|((pw, _), _)| *pw == w)
            .map(|(_, m)| m)
            .collect();
        let max_of = |f: &dyn Fn(&super::AllSchedulers) -> u32| {
            group.iter().map(|m| f(m)).max().unwrap_or(0)
        };
        let csa_units = max_of(&|m| m.csa.power.max_units);
        let csa_trans = max_of(&|m| m.csa.power.max_port_transitions);
        let csa_rounds = max_of(&|m| m.csa.power.max_change_rounds);
        let roy_wt = max_of(&|m| m.roy.power.max_writethrough_units);
        let roy_active = max_of(&|m| m.roy.power.max_active_rounds);
        csa_flat_max = csa_flat_max.max(csa_units).max(csa_trans);
        // Theorem 8: CSA cost is a constant independent of w.
        assert!(
            csa_trans <= cst_padr::CSA_PORT_TRANSITION_BOUND,
            "CSA transitions {csa_trans} exceed bound at w={w}"
        );
        // The Roy apex participates in at least w rounds.
        assert!(roy_wt as usize >= w, "roy write-through {roy_wt} below w={w}");
        table.row(vec![
            w.to_string(),
            csa_units.to_string(),
            csa_trans.to_string(),
            csa_rounds.to_string(),
            roy_wt.to_string(),
            roy_active.to_string(),
        ]);
    }
    table.note(format!(
        "csa columns flat (max observed {csa_flat_max}, bound {}); roy_max_wt_units grows ~linearly in w",
        cst_padr::CSA_PORT_TRANSITION_BOUND
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csa_flat_roy_linear_small() {
        let cfg = Config { n: 128, widths: vec![2, 8, 32], seeds: vec![0, 1], threads: 2 };
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 3);
        let units: Vec<u32> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let roy: Vec<u32> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        // CSA stays within a small constant while roy grows 16x.
        assert!(units.iter().max().unwrap() <= &9);
        assert!(roy[2] >= 4 * roy[0]);
    }
}
