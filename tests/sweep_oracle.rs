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
//! * `serve_miss_paths_digest_is_pinned` hashes the other callers of the
//!   same sweep: every traced control message of
//!   `CsaScratch::schedule_traced`, the served payloads of
//!   `EngineCtx::route_masked` under seeded fault masks, and those of the
//!   `layered`, `universal` and `general` routers on sets that are not
//!   right-oriented well-nested. Its digest was recorded before the
//!   Phase-2 step packed its messages.
//! * `pruned_and_unpruned_sweeps_agree` checks, on random sets, that
//!   pruning changes only the sweep work, and that each round's table is
//!   strictly increasing in heap index.

use cst::comm::{CommSet, SchedulePool};
use cst::core::{CstTopology, ProtoMsg, ProtocolTrace, Side, SwitchConfig};
use cst::engine::EngineCtx;
use cst::padr::{CsaOutcome, CsaScratch, Options};
use cst::serve::wire::encode_outcome_payload;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

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

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn config(&mut self, cfg: &SwitchConfig) {
        for out in Side::ALL {
            self.word(cfg.driver_of(out).map_or(0, |s| 1 + s.index() as u64));
        }
    }

    fn msg(&mut self, m: ProtoMsg) {
        self.word(m.kind as u64);
        self.word(u64::from(m.x_s));
        self.word(u64::from(m.x_d));
    }

    /// The Phase-1 snapshot and every recorded switch event.
    fn trace(&mut self, t: &ProtocolTrace) {
        self.word(t.num_leaves as u64);
        self.word(t.phase1.len() as u64);
        for counters in &t.phase1 {
            counters.iter().for_each(|&c| self.word(u64::from(c)));
        }
        self.word(t.rounds.len() as u64);
        for round in &t.rounds {
            self.word(round.events.len() as u64);
            for e in &round.events {
                self.word(e.node.0 as u64);
                self.msg(e.req);
                self.config(&e.config);
                self.msg(e.to_left);
                self.msg(e.to_right);
            }
        }
    }

    /// A routed outcome as the server would send it, or its error text.
    fn routed(&mut self, routed: Result<cst::engine::RouteOutcome, cst::core::CstError>) {
        match routed {
            Ok(outcome) => {
                let mut buf = Vec::new();
                encode_outcome_payload(&mut buf, &outcome);
                self.word(1);
                self.bytes(&buf);
            }
            Err(e) => {
                self.word(0);
                self.bytes(e.to_string().as_bytes());
            }
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
                self.config(cfg);
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

/// `pairs` communications between random distinct PEs, crossings
/// allowed; each flipped to left-oriented with probability `flip`.
fn crossing_set(rng: &mut StdRng, n: usize, pairs: usize, flip: f64) -> CommSet {
    let mut pes = cst::workloads::sample_positions(rng, n, 2 * pairs);
    pes.shuffle(rng);
    let pairs: Vec<(usize, usize)> = pes
        .chunks(2)
        .map(|p| (p[0].min(p[1]), p[0].max(p[1])))
        .map(|(s, d)| if rng.gen_bool(flip) { (d, s) } else { (s, d) })
        .collect();
    CommSet::from_pairs(n, &pairs)
}

/// A well-nested set with a share `flip` of its directions reversed:
/// intervals, so nesting, are kept.
fn mixed_well_nested(rng: &mut StdRng, n: usize, density: f64, flip: f64) -> CommSet {
    let base = cst::workloads::well_nested_with_density(rng, n, density);
    let pairs: Vec<(usize, usize)> = base
        .comms()
        .iter()
        .map(|c| (c.source.0, c.dest.0))
        .map(|(s, d)| if rng.gen_bool(flip) { (d, s) } else { (s, d) })
        .collect();
    CommSet::from_pairs(n, &pairs)
}

#[test]
fn serve_miss_paths_digest_is_pinned() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0028);
    let mut digest = Digest::new();
    let (mut csa, mut pool) = (CsaScratch::new(), SchedulePool::new());
    let mut trace = ProtocolTrace::new();
    let mut ctx = EngineCtx::new();
    let [plain, layered, universal, general] =
        ["csa", "layered", "universal", "general"].map(|name| cst::engine::find(name).unwrap());
    let mut events = 0;
    for n in [16usize, 64, 256, 1024] {
        let topo = CstTopology::with_leaves(n);
        for density in [0.1, 0.5, 1.0] {
            // The traced sweep: one event per switch per round.
            let set = cst::workloads::well_nested_with_density(&mut rng, n, density);
            let out = csa.schedule_traced(&topo, &set, &mut pool, &mut trace).unwrap();
            digest.outcome(&out);
            digest.trace(&trace);
            events += trace.num_events();
            // The masked CSA route, under two seeded masks.
            for rate in [0.01, 0.05] {
                let mask = cst::faults::sample_mask(&mut rng, &topo, rate);
                digest.routed(ctx.route_masked(plain.as_ref(), &topo, &set, &mask));
            }
        }
        // Right-oriented crossings through `layered`; crossings of both
        // orientations through `universal` (and `layered`'s refusal);
        // mixed well-nested sets through `general`.
        let right = crossing_set(&mut rng, n, n / 4, 0.0);
        let mixed = crossing_set(&mut rng, n, n / 4, 0.4);
        let nested = mixed_well_nested(&mut rng, n, 0.6, 0.4);
        let mask = cst::faults::sample_mask(&mut rng, &topo, 0.02);
        for (router, set) in [
            (&layered, &right),
            (&universal, &right),
            (&layered, &mixed),
            (&universal, &mixed),
            (&general, &nested),
            (&universal, &nested),
        ] {
            digest.routed(ctx.route(router.as_ref(), &topo, set));
            digest.routed(ctx.route_masked(router.as_ref(), &topo, set, &mask));
        }
    }
    assert!(events > 0);
    assert_eq!(digest.0, 0x8863_d2e4_14a3_db6a, "digest {:#018x}", digest.0);
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
