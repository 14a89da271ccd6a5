//! The layered front ends against the formulations they replaced.
//!
//! * `cst_padr::decompose` finds crossings through per-layer chains of
//!   open right ends; the oracle here is the pairwise first-fit that
//!   compares every communication with every member of each layer it
//!   probes. The two must produce the same `Layering`, and on a large
//!   well-nested set `decompose` must beat the oracle by at least 10x.
//! * `split_half_duplex` finds offending rounds in one walk per circuit;
//!   the reference checks each degraded edge against every circuit. The
//!   split schedules and `SplitStats` must be equal.
//! * `layered` and `universal` take a one-run composite's power from the
//!   CSA and move rounds instead of copying them twice. Their served
//!   payloads must equal those of outcomes built the old way: oracle
//!   layering, a CSA run per layer, cloned rounds, the composite metered
//!   from scratch — plain and under sampled fault masks.

use cst::comm::{CommId, CommSet, Communication, Round, Schedule, SchedulePool};
use cst::core::{Circuit, CircuitTable, CstTopology, FaultMask, MergedRound, NodeId};
use cst::engine::{DegradationReport, DroppedComm, EngineCtx, RouteExtra, RouteOutcome};
use cst::padr::{
    decompose, partition_by_mask, split_half_duplex, CsaScratch, Reroute, SplitStats,
};
use mirror::mirror_round_configs;
use cst::serve::wire::encode_outcome_payload;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The pairwise first-fit: outermost-first, each communication joins the
/// first layer none of whose members it crosses. O(m²) comparisons.
fn reference_layering(set: &CommSet) -> (Vec<usize>, Vec<Vec<CommId>>) {
    let mut order: Vec<usize> = (0..set.len()).collect();
    order.sort_unstable_by_key(|&i| {
        let (l, r) = set.comms()[i].interval();
        (l, usize::MAX - r)
    });
    let mut layer_of = vec![usize::MAX; set.len()];
    let mut layers: Vec<Vec<CommId>> = Vec::new();
    for &i in &order {
        let c = &set.comms()[i];
        let fit = layers
            .iter()
            .position(|layer| layer.iter().all(|&CommId(j)| c.nests_with(&set.comms()[j])));
        let li = fit.unwrap_or_else(|| {
            layers.push(Vec::new());
            layers.len() - 1
        });
        layers[li].push(CommId(i));
        layer_of[i] = li;
    }
    (layer_of, layers)
}

/// `pairs` communications between random distinct PEs, crossings
/// allowed; right-oriented unless `mixed`, then each orientation is a
/// coin flip.
fn random_set(rng: &mut StdRng, n: usize, pairs: usize, mixed: bool) -> CommSet {
    let mut pes = cst::workloads::sample_positions(rng, n, 2 * pairs);
    pes.shuffle(rng);
    let comms = pes
        .chunks(2)
        .map(|p| {
            let (l, r) = (p[0].min(p[1]), p[0].max(p[1]));
            if mixed && rng.gen_bool(0.5) {
                Communication::of(r, l)
            } else {
                Communication::of(l, r)
            }
        })
        .collect();
    CommSet::new(n, comms).unwrap()
}

#[test]
fn layering_matches_pairwise_first_fit() {
    let mut multi_layer = 0;
    for n in [4usize, 8, 16, 64, 256, 1024, 4096] {
        let seeds = if n >= 1024 { 3 } else { 12 };
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed * 104_729 + n as u64);
            let sets = [
                cst::workloads::well_nested_with_density(&mut rng, n, 0.5),
                random_set(&mut rng, n, n / 4, false),
                random_set(&mut rng, n, n / 2, false),
            ];
            for set in &sets {
                let got = decompose(set);
                let (layer_of, layers) = reference_layering(set);
                assert_eq!(
                    got.layer_of, layer_of,
                    "n={n} seed={seed}: layer_of differs"
                );
                assert_eq!(
                    got.layers, layers,
                    "n={n} seed={seed}: member order differs"
                );
                if set.is_well_nested() {
                    assert!(
                        got.layers.len() <= 1,
                        "n={n} seed={seed}: well-nested set split"
                    );
                }
                multi_layer += usize::from(got.layers.len() > 1);
            }
        }
    }
    assert!(
        multi_layer > 50,
        "only {multi_layer} crossing sets needed several layers"
    );
}

/// A timing ratio, not an absolute bound: on a full-density well-nested
/// set every communication lands in layer 0, so the pairwise first-fit
/// makes m²/2 comparisons while `decompose` makes one probe each. The
/// two run on the same input in the same process (any build profile, any
/// host load); a pairwise `decompose` would sit near 1x the oracle.
#[test]
fn layering_does_not_compare_every_pair() {
    let n = 8_192;
    let mut rng = StdRng::seed_from_u64(7);
    let set = cst::workloads::well_nested_with_density(&mut rng, n, 1.0);
    assert!(set.len() >= n / 4, "too few communications: {}", set.len());
    let start = std::time::Instant::now();
    let (layer_of, layers) = reference_layering(&set);
    let pairwise = start.elapsed();
    let linear = (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            let got = decompose(&set);
            let took = start.elapsed();
            assert_eq!(
                (got.layer_of, got.layers),
                (layer_of.clone(), layers.clone())
            );
            took
        })
        .min()
        .unwrap();
    assert_eq!(layers.len(), 1);
    assert!(
        linear * 10 <= pairwise,
        "decompose took {linear:?}, the pairwise oracle {pairwise:?}: not 10x faster"
    );
}

const USED_UP: u8 = 0b01;
const USED_DOWN: u8 = 0b10;

/// Per-edge offence check: for every degraded edge, OR the directions of
/// every circuit in the round that crosses it.
fn reference_round_violates(
    topo: &CstTopology,
    set: &CommSet,
    mask: &FaultMask,
    round: &Round,
) -> bool {
    mask.degraded_edges().iter().any(|&edge| {
        let mut seen = 0u8;
        for &id in &round.comms {
            let c = set.get(id).unwrap();
            for link in topo.path_links(c.source, c.dest) {
                if link.child == edge {
                    seen |= if link.up { USED_UP } else { USED_DOWN };
                }
            }
        }
        seen == USED_UP | USED_DOWN
    })
}

/// The split around the per-edge check: offending rounds are repacked
/// greedily in round order, each circuit into the first sub-round none of
/// whose degraded edges it drives the other way.
fn reference_split(
    topo: &CstTopology,
    set: &CommSet,
    mask: &FaultMask,
    schedule: Schedule,
) -> (Schedule, SplitStats) {
    let mut stats = SplitStats::default();
    let mut out = Schedule::default();
    let mut merged = MergedRound::new(topo);
    for round in schedule.rounds {
        if !reference_round_violates(topo, set, mask, &round) {
            out.rounds.push(round);
            continue;
        }
        let mut sub_rounds: Vec<Vec<CommId>> = vec![Vec::new()];
        let mut sub_dirs: Vec<Vec<(NodeId, u8)>> = vec![Vec::new()];
        for &id in &round.comms {
            let c = set.get(id).unwrap();
            let uses: Vec<(NodeId, u8)> = topo
                .path_links(c.source, c.dest)
                .filter(|link| mask.edge_degraded(link.child))
                .map(|link| (link.child, if link.up { USED_UP } else { USED_DOWN }))
                .collect();
            if uses.is_empty() {
                sub_rounds[0].push(id);
                continue;
            }
            let clashes = |dirs: &[(NodeId, u8)], n: NodeId, bits: u8| {
                dirs.iter()
                    .any(|&(en, eb)| en == n && eb | bits == USED_UP | USED_DOWN)
            };
            let slot = sub_dirs
                .iter()
                .position(|dirs| uses.iter().all(|&(n, bits)| !clashes(dirs, n, bits)))
                .unwrap_or_else(|| {
                    sub_rounds.push(Vec::new());
                    sub_dirs.push(Vec::new());
                    sub_dirs.len() - 1
                });
            if slot > 0 {
                let edge = uses
                    .iter()
                    .find(|&&(n, bits)| clashes(&sub_dirs[0], n, bits))
                    .map_or(uses[0].0, |&(n, _)| n);
                stats.reroutes.push(Reroute { comm: id, edge });
            }
            for &(n, bits) in &uses {
                match sub_dirs[slot].iter_mut().find(|(en, _)| *en == n) {
                    Some(entry) => entry.1 |= bits,
                    None => sub_dirs[slot].push((n, bits)),
                }
            }
            sub_rounds[slot].push(id);
        }
        stats.extra_rounds += sub_rounds.len() - 1;
        for comms in sub_rounds {
            merged.reset_for(topo);
            for &id in &comms {
                let c = set.get(id).unwrap();
                merged
                    .add(&Circuit::between(topo, c.source, c.dest))
                    .unwrap();
            }
            out.rounds.push(Round {
                comms,
                configs: merged.take_configs(),
            });
        }
    }
    (out, stats)
}

#[test]
fn half_duplex_split_matches_per_edge_check() {
    let mut ctx = EngineCtx::new();
    let mut split_rounds = 0;
    for n in [16usize, 64, 256] {
        let topo = CstTopology::with_leaves(n);
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed * 31 + n as u64);
            let sampled = cst::faults::sample_mask(&mut rng, &topo, 0.05);
            // The sampled mask, and its degraded edges alone (nothing
            // dropped, so every round keeps all its circuits).
            let mut degraded_only = FaultMask::empty(&topo);
            for &edge in sampled.degraded_edges() {
                degraded_only.degrade_edge(edge);
            }
            let set = if seed % 2 == 0 {
                cst::workloads::well_nested_with_density(&mut rng, n, 0.7)
            } else {
                random_set(&mut rng, n, n / 2, true)
            };
            for mask in [&sampled, &degraded_only] {
                if !mask.has_degraded() {
                    continue;
                }
                let part = partition_by_mask(&topo, &set, mask);
                let survivors = &part.survivors;
                let schedule = ctx
                    .route_named("universal", &topo, survivors)
                    .unwrap()
                    .schedule;
                let (want, want_stats) = reference_split(&topo, survivors, mask, schedule.clone());
                let mut table = CircuitTable::new();
                let mut pool = SchedulePool::new();
                let (got, got_stats) =
                    split_half_duplex(&topo, survivors, mask, schedule, &mut table, &mut pool)
                        .unwrap();
                assert_eq!(got, want, "n={n} seed={seed}: split schedule differs");
                assert_eq!(
                    got_stats, want_stats,
                    "n={n} seed={seed}: split stats differ"
                );
                split_rounds += got_stats.extra_rounds;
            }
        }
    }
    assert!(split_rounds > 50, "only {split_rounds} rounds split");
}

/// Oracle layering, one fresh CSA run per layer, every round cloned with
/// its ids mapped back to `set`.
fn reference_layered(topo: &CstTopology, set: &CommSet) -> Schedule {
    let (_, layers) = reference_layering(set);
    let mut schedule = Schedule::default();
    for ids in &layers {
        let comms = ids.iter().map(|&CommId(i)| set.comms()[i]).collect();
        let sub = CommSet::new(set.num_leaves(), comms).unwrap();
        let out = CsaScratch::new()
            .schedule(topo, &sub, &mut SchedulePool::new())
            .unwrap();
        for round in &out.schedule.rounds {
            schedule.rounds.push(Round {
                comms: round.comms.iter().map(|&CommId(k)| ids[k]).collect(),
                configs: round.configs.clone(),
            });
        }
    }
    schedule
}

/// Right half layered, then the left half mirrored, layered and
/// reflected back.
fn reference_universal(topo: &CstTopology, set: &CommSet) -> Schedule {
    let (right, left) = set.decompose();
    let mut schedule = Schedule::default();
    if !right.set.is_empty() {
        for round in &reference_layered(topo, &right.set).rounds {
            schedule.rounds.push(Round {
                comms: round
                    .comms
                    .iter()
                    .map(|&CommId(i)| right.original[i])
                    .collect(),
                configs: round.configs.clone(),
            });
        }
    }
    if !left.set.is_empty() {
        for round in &reference_layered(topo, &left.set.mirrored()).rounds {
            schedule.rounds.push(Round {
                comms: round
                    .comms
                    .iter()
                    .map(|&CommId(i)| left.original[i])
                    .collect(),
                configs: mirror_round_configs(&round.configs),
            });
        }
    }
    schedule
}

fn reference_schedule(router: &str, topo: &CstTopology, set: &CommSet) -> Schedule {
    match router {
        "layered" => reference_layered(topo, set),
        _ => reference_universal(topo, set),
    }
}

fn payload(outcome: &RouteOutcome) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_outcome_payload(&mut buf, outcome);
    buf
}

/// Package `schedule` as a served outcome, metered from scratch.
fn reference_outcome(
    router: &'static str,
    topo: &CstTopology,
    schedule: Schedule,
    degradation: Option<DegradationReport>,
) -> RouteOutcome {
    let power = schedule.meter_power(topo).report(topo);
    RouteOutcome {
        router,
        rounds: schedule.num_rounds(),
        schedule,
        power,
        timings: Default::default(),
        extra: RouteExtra::None,
        degradation,
    }
}

/// The masked route the old way: partition, reference-route the
/// survivors, map ids back, split half-duplex rounds.
fn reference_masked(
    router: &'static str,
    topo: &CstTopology,
    set: &CommSet,
    mask: &FaultMask,
) -> RouteOutcome {
    let part = partition_by_mask(topo, set, mask);
    let mut schedule = Schedule::default();
    if !part.survivors.is_empty() {
        schedule = reference_schedule(router, topo, &part.survivors);
        for round in &mut schedule.rounds {
            for id in &mut round.comms {
                *id = part.original[id.0];
            }
        }
    }
    let mut report = DegradationReport {
        total: set.len(),
        routed: part.survivors.len(),
        dropped: part.drops.len(),
        ..DegradationReport::default()
    };
    for &(id, cause) in &part.drops {
        let c = set.comms()[id.0];
        report.drops.push(DroppedComm {
            comm: id.0,
            source: c.source.0,
            dest: c.dest.0,
            cause,
        });
    }
    if mask.has_degraded() && !schedule.rounds.is_empty() {
        let (split, stats) = reference_split(topo, set, mask, schedule);
        schedule = split;
        report.rerouted = stats.reroutes.len();
        report.extra_rounds = stats.extra_rounds;
    }
    reference_outcome(router, topo, schedule, Some(report))
}

#[test]
fn layered_and_universal_payloads_match_the_metered_reference() {
    let mut ctx = EngineCtx::new();
    let (mut one_layer, mut multi_layer, mut mirrored, mut split) = (0, 0, 0, 0);
    for n in [64usize, 256, 1024] {
        let topo = CstTopology::with_leaves(n);
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed * 7919 + n as u64);
            let nested = cst::workloads::well_nested_with_density(&mut rng, n, 0.5);
            let crossing = random_set(&mut rng, n, n / 4, false);
            let mixed = random_set(&mut rng, n, n / 4, true);
            let left_nested = nested.mirrored();
            let mask = cst::faults::sample_mask(&mut rng, &topo, 0.02);
            let cases: [(&'static str, &CommSet); 6] = [
                ("layered", &nested),
                ("layered", &crossing),
                ("universal", &nested),
                ("universal", &crossing),
                ("universal", &mixed),
                ("universal", &left_nested),
            ];
            for (router, set) in cases {
                let r = cst::engine::find(router).unwrap();
                let plain = ctx.route(r.as_ref(), &topo, set).unwrap();
                match plain.extra {
                    RouteExtra::Layered { num_layers: 1 }
                    | RouteExtra::Universal {
                        right_layers: 1,
                        left_layers: 0,
                    } => one_layer += 1,
                    RouteExtra::Universal {
                        right_layers: 0,
                        left_layers: 1,
                    } => mirrored += 1,
                    _ => multi_layer += 1,
                }
                let want =
                    reference_outcome(router, &topo, reference_schedule(router, &topo, set), None);
                assert!(
                    payload(&plain) == payload(&want),
                    "{router} n={n} seed={seed}: plain payload differs"
                );

                let masked = ctx.route_masked(r.as_ref(), &topo, set, &mask).unwrap();
                split += masked.degradation.as_ref().map_or(0, |d| d.extra_rounds);
                let want = reference_masked(router, &topo, set, &mask);
                assert!(
                    payload(&masked) == payload(&want),
                    "{router} n={n} seed={seed}: masked payload differs"
                );
            }
        }
    }
    assert!(
        one_layer >= 20 && multi_layer >= 20 && mirrored >= 10,
        "coverage: {one_layer} one-layer, {multi_layer} multi-layer, {mirrored} mirrored"
    );
    assert!(split > 0, "no masked route split a round");
}

/// The switch-config mirror the left half's tables were once reflected
/// back with, kept verbatim as `reference_universal`'s own.
mod mirror {
    use cst::core::{Connection, NodeId, RoundConfigs, Side, SwitchConfig};

    /// Mirror a node of the tree: the reflection maps each switch to the
    /// switch covering the reflected leaf interval (same depth, reversed
    /// position within the level).
    fn mirror_node(node: NodeId) -> NodeId {
        let level_start = 1usize << node.depth();
        let offset = node.index() - level_start;
        NodeId(level_start + (level_start - 1 - offset))
    }

    /// Mirror a whole round's switch configurations onto the reflected tree.
    /// (Mirroring reverses within-level order, so the result is re-sorted by
    /// `from_entries`.) A switch's reflection depends on its heap index
    /// alone, so no topology is needed.
    pub fn mirror_round_configs(configs: &RoundConfigs) -> RoundConfigs {
        RoundConfigs::from_entries(
            configs
                .iter()
                .map(|(node, cfg)| (mirror_node(node), mirror_config(cfg)))
                .collect(),
        )
    }

    /// Mirror a switch configuration: left and right swap; parent stays.
    fn mirror_config(cfg: &SwitchConfig) -> SwitchConfig {
        let flip = |s: Side| match s {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
            Side::Parent => Side::Parent,
        };
        let mut out = SwitchConfig::empty();
        for c in cfg.connections() {
            out.set(Connection { from: flip(c.from), to: flip(c.to) })
                .expect("mirroring preserves legality");
        }
        out
    }
}
