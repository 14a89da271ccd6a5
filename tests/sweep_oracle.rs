//! Oracles for the Phase-2 round driver's sweep.
//!
//! The host driver may visit switches in any order and skip any subtree
//! that cannot act, as long as every switch that acts is stepped once per
//! round. These tests pin what that freedom must leave alone: every
//! round's communications and switch table, the power report and the
//! control-plane counters.
//!
//! * `seeded_corpus_digest_is_pinned` hashes all of it over a seeded
//!   corpus, pruned and unpruned, against a digest recorded from the
//!   driver's depth-first formulation.
//! * `pruned_and_unpruned_sweeps_agree` checks, on random sets, that
//!   pruning changes only the sweep work, and that each round's table is
//!   strictly increasing in heap index.

use cst::comm::{CommSet, SchedulePool};
use cst::core::{CstTopology, Side};
use cst::padr::{CsaOutcome, CsaScratch, Options};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PRUNED: Options = Options { prune_quiescent: true };
const UNPRUNED: Options = Options { prune_quiescent: false };

/// FNV-1a over 64-bit words: stable across platforms and toolchains.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Everything the sweep order must not change about one outcome.
    fn outcome(&mut self, out: &CsaOutcome) {
        self.word(out.schedule.rounds.len() as u64);
        for round in &out.schedule.rounds {
            self.word(round.comms.len() as u64);
            for id in &round.comms {
                self.word(id.0 as u64);
            }
            self.word(round.configs.len() as u64);
            for (node, cfg) in round.configs.iter() {
                self.word(node.0 as u64);
                for out in Side::ALL {
                    self.word(cfg.driver_of(out).map_or(0, |s| 1 + s.index() as u64));
                }
            }
        }
        let p = &out.power;
        for w in [
            p.total_units,
            p.total_writethrough_units,
            u64::from(p.max_units),
            u64::from(p.max_writethrough_units),
            u64::from(p.max_change_rounds),
            u64::from(p.max_active_rounds),
            u64::from(p.max_port_transitions),
            p.active_switches as u64,
            p.rounds as u64,
        ] {
            self.word(w);
        }
        let m = &out.metrics;
        for w in [
            u64::from(m.words_stored_per_switch),
            m.phase1_words,
            m.phase2_words,
            m.switch_steps,
            u64::from(m.max_words_per_switch_round),
        ] {
            self.word(w);
        }
    }
}

/// The corpus: well-nested sets over five sizes and three densities, then
/// the layer sets of two decomposed random permutations.
fn corpus() -> Vec<CommSet> {
    let mut rng = StdRng::seed_from_u64(0x5eed_0025);
    let mut sets = Vec::new();
    for n in [16usize, 64, 256, 1024, 4096] {
        for density in [0.1, 0.5, 1.0] {
            sets.push(cst::workloads::well_nested_with_density(&mut rng, n, density));
        }
    }
    for n in [256usize, 1024] {
        let gset = cst::workloads::arbitrary_permutation(&mut rng, n);
        sets.extend(cst::decomp::decompose(&gset).layer_sets);
    }
    sets
}

#[test]
fn seeded_corpus_digest_is_pinned() {
    let (mut csa, mut pool) = (CsaScratch::new(), SchedulePool::new());
    let mut digest = Digest::new();
    let sets = corpus();
    for set in &sets {
        let topo = CstTopology::with_leaves(set.num_leaves());
        for options in [PRUNED, UNPRUNED] {
            let out = csa.schedule_with(&topo, set, options, &mut pool).unwrap();
            digest.word(u64::from(options.prune_quiescent));
            digest.outcome(&out);
        }
    }
    assert_eq!(sets.len(), 70);
    assert_eq!(digest.0, 0x345a_7dbf_dee9_45a4, "digest {:#018x}", digest.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pruning skips host work only: same rounds, tables and power, no
    /// more switch steps; and every table is in strict heap order.
    #[test]
    fn pruned_and_unpruned_sweeps_agree(
        k in 2u32..11,
        density in 0.05f64..1.0,
        seed in 0u64..u64::MAX,
    ) {
        let n = 1usize << k;
        let set = cst::workloads::well_nested_with_density(
            &mut StdRng::seed_from_u64(seed),
            n,
            density,
        );
        let topo = CstTopology::with_leaves(n);
        let (mut csa, mut pool) = (CsaScratch::new(), SchedulePool::new());
        let pruned = csa.schedule_with(&topo, &set, PRUNED, &mut pool).unwrap();
        let full = csa.schedule_with(&topo, &set, UNPRUNED, &mut pool).unwrap();
        prop_assert_eq!(&pruned.schedule, &full.schedule);
        prop_assert_eq!(pruned.power, full.power);
        prop_assert!(pruned.metrics.switch_steps <= full.metrics.switch_steps);
        for round in &pruned.schedule.rounds {
            let nodes: Vec<usize> = round.configs.iter().map(|(node, _)| node.0).collect();
            prop_assert!(
                nodes.windows(2).all(|w| w[0] < w[1]),
                "round table out of heap order: {:?}",
                nodes
            );
        }
    }
}
