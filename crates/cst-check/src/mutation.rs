//! Mutation harness: the analyzer's own proof of discrimination.
//!
//! A checker that accepts everything is worse than none, so each
//! diagnostic class carries a *mutation*: a minimal, surgical corruption
//! of a known-clean scheduling artifact that must trigger exactly that
//! class — the expected code and no other error. `tests/mutation_coverage.rs`
//! drives every [`Mutation`] through [`run`] and asserts both directions:
//! the clean fixture is silent, and each corruption is attributed to
//! precisely its code.

use crate::counters::{check_counters, expected_counters, CounterTable};
use crate::{analyze, analyze_with_faults, CheckOptions};
use cst_comm::{CommId, CommSet, Round, Schedule};
use cst_core::diag::{DiagCode, DiagReport};
use cst_core::{
    Circuit, Connection, CstTopology, DirectedLink, FaultMask, NodeId, RoundConfigs,
};

/// One corruption per diagnostic class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Two crossing communications (`CST001`).
    CrossingComms,
    /// A left-oriented communication under the strict contract (`CST002`).
    LeftOriented,
    /// A round referencing a communication id outside the set (`CST010`).
    UnknownId,
    /// The same communication scheduled in two rounds (`CST011`).
    RepeatedComm,
    /// A communication dropped from every round (`CST012`).
    DroppedComm,
    /// Two circuits sharing a directed link in one round (`CST020`).
    CollidingRound,
    /// A required switch entry deleted from a round table (`CST021`).
    DeletedEntry,
    /// A same-side connection smuggled in via deserialization (`CST022`).
    IllegalDriver,
    /// A padding round beyond the width bound (`CST030`).
    PaddedRounds,
    /// An idle switch re-aimed every round past the budget (`CST040`).
    ThrashingSwitch,
    /// A switch's `C_S` off by one against Lemma 1 (`CST050`).
    SkewedState,
    /// A forwarded `C_U` breaking conservation (`CST051`).
    SkewedUpMsg,
    /// Rounds reversed: innermost scheduled first (`CST060`).
    InvertedOrder,
    /// One switch entry recorded twice in a round (`CST070`).
    TwoWriters,
    /// A connection no circuit asked for (`CST071`, warning).
    StraySetting,
    /// A scheduled communication crossing a dead link (`CST100`).
    MaskedHardware,
    /// One round driving a degraded edge in both directions (`CST101`).
    HalfDuplexTraffic,
    /// A routable communication reported as dropped (`CST102`).
    BogusDrop,
}

impl Mutation {
    /// Every mutation, in code order.
    pub const ALL: [Mutation; 18] = [
        Mutation::CrossingComms,
        Mutation::LeftOriented,
        Mutation::UnknownId,
        Mutation::RepeatedComm,
        Mutation::DroppedComm,
        Mutation::CollidingRound,
        Mutation::DeletedEntry,
        Mutation::IllegalDriver,
        Mutation::PaddedRounds,
        Mutation::ThrashingSwitch,
        Mutation::SkewedState,
        Mutation::SkewedUpMsg,
        Mutation::InvertedOrder,
        Mutation::TwoWriters,
        Mutation::StraySetting,
        Mutation::MaskedHardware,
        Mutation::HalfDuplexTraffic,
        Mutation::BogusDrop,
    ];

    /// The one diagnostic this corruption must produce.
    pub fn expected_code(self) -> DiagCode {
        match self {
            Mutation::CrossingComms => DiagCode::NotWellNested,
            Mutation::LeftOriented => DiagCode::NotRightOriented,
            Mutation::UnknownId => DiagCode::UnknownComm,
            Mutation::RepeatedComm => DiagCode::DuplicateComm,
            Mutation::DroppedComm => DiagCode::MissingComm,
            Mutation::CollidingRound => DiagCode::LinkConflict,
            Mutation::DeletedEntry => DiagCode::MissingConnection,
            Mutation::IllegalDriver => DiagCode::IllegalConfig,
            Mutation::PaddedRounds => DiagCode::RoundCountMismatch,
            Mutation::ThrashingSwitch => DiagCode::TransitionBudget,
            Mutation::SkewedState => DiagCode::CounterMismatch,
            Mutation::SkewedUpMsg => DiagCode::CounterFlow,
            Mutation::InvertedOrder => DiagCode::SelectionOrder,
            Mutation::TwoWriters => DiagCode::DoubleStamp,
            Mutation::StraySetting => DiagCode::ForeignConfig,
            Mutation::MaskedHardware => DiagCode::MaskedLinkUsed,
            Mutation::HalfDuplexTraffic => DiagCode::HalfDuplexViolation,
            Mutation::BogusDrop => DiagCode::DroppedRoutable,
        }
    }

    /// Whether the corruption legitimately drags extra *warnings* along
    /// (injected settings are foreign by construction); extra errors are
    /// never tolerated.
    pub fn tolerates_warnings(self) -> bool {
        matches!(self, Mutation::ThrashingSwitch | Mutation::IllegalDriver)
    }
}

/// A fault-mask context claimed by a degraded artifact: the mask the
/// schedule was routed under and the communications reported dropped.
#[derive(Clone, Debug)]
pub struct FaultScenario {
    pub mask: FaultMask,
    pub dropped: Vec<usize>,
}

/// A complete analysis subject: inputs, schedule, claimed counters and the
/// contract to check against.
#[derive(Clone, Debug)]
pub struct Fixture {
    pub topo: CstTopology,
    pub set: CommSet,
    pub schedule: Schedule,
    pub counters: Option<CounterTable>,
    pub options: CheckOptions,
    /// Present when the artifact claims degraded routing; switches the
    /// analysis to [`analyze_with_faults`].
    pub fault: Option<FaultScenario>,
}

/// Analyze a fixture: every schedule pass plus, when tables are claimed,
/// the Lemma 1 counter pass.
pub fn run(f: &Fixture) -> DiagReport {
    let mut report = match &f.fault {
        Some(s) => analyze_with_faults(&f.topo, &f.set, &f.schedule, &f.options, &s.mask, &s.dropped),
        None => analyze(&f.topo, &f.set, &f.schedule, &f.options),
    };
    if let Some(t) = &f.counters {
        report.merge(check_counters(&f.topo, &f.set, t));
    }
    report
}

/// The schedule performing round `r`'s ids in round `r`, with the honest
/// tables.
fn schedule_of<R: AsRef<[CommId]>>(
    topo: &CstTopology,
    set: &CommSet,
    rounds: impl IntoIterator<Item = R>,
) -> Schedule {
    Schedule::from_partition(topo, |id| set.get(id).map(|c| (c.source, c.dest)), rounds)
        .expect("fixture circuits are compatible")
}

/// A fixture built from `pairs` scheduled one communication per round, in
/// id order, with ground-truth counter tables.
fn fixture_of(num_leaves: usize, pairs: &[(usize, usize)]) -> Fixture {
    let topo = CstTopology::with_leaves(num_leaves);
    let set = CommSet::from_pairs(num_leaves, pairs);
    let schedule = schedule_of(&topo, &set, set.iter().map(|(id, _)| [id]));
    let counters = Some(expected_counters(&topo, &set));
    Fixture {
        topo,
        set,
        schedule,
        counters,
        options: CheckOptions::strict(),
        fault: None,
    }
}

/// The known-clean baseline: three nested communications on 8 PEs,
/// outermost-first, one per round — width 3, three rounds, every invariant
/// honest. [`run`] must return an empty report for it.
pub fn clean_fixture() -> Fixture {
    fixture_of(8, &[(0, 7), (1, 6), (2, 5)])
}

/// The clean fixture with exactly one corruption applied.
pub fn corrupted(m: Mutation) -> Fixture {
    let mut f = clean_fixture();
    match m {
        Mutation::CrossingComms => {
            // Crossing pairs still schedule round-per-comm cleanly (width
            // 2, two rounds); only the set structure is at fault.
            f = fixture_of(8, &[(0, 4), (2, 6)]);
        }
        Mutation::LeftOriented => {
            f = fixture_of(8, &[(3, 0)]);
        }
        Mutation::UnknownId => {
            f.schedule.rounds[0].comms.push(CommId(3));
        }
        Mutation::RepeatedComm => {
            f.schedule.rounds[0].comms.push(CommId(0));
        }
        Mutation::DroppedComm => {
            // Keep the round *count* (Theorem 5 stays satisfied); lose the
            // communication.
            f.schedule.rounds[2] = Round::default();
        }
        Mutation::CollidingRound => {
            // Cram comms 0 and 1 into round 0; their up-paths share the
            // link above n4. Configs are the force-union so only the
            // compatibility invariant is violated, not the bookkeeping.
            let donor = f.schedule.rounds.remove(1);
            f.schedule.rounds.push(Round::default()); // keep 3 rounds
            let r0 = &mut f.schedule.rounds[0];
            r0.comms.extend(donor.comms);
            for (node, cfg) in &donor.configs {
                let slot = r0.configs.entry_mut(node);
                for conn in cfg.connections() {
                    let _ = slot.force(conn);
                }
            }
        }
        Mutation::DeletedEntry => {
            let r0 = &mut f.schedule.rounds[0];
            let kept: Vec<_> =
                r0.configs.iter().filter(|&(n, _)| n != NodeId::ROOT).map(|(n, c)| (n, *c)).collect();
            r0.configs = RoundConfigs::from_entries(kept);
        }
        Mutation::IllegalDriver => {
            // `SwitchConfig::set` cannot produce p_i -> p_o; a corrupted
            // artifact can. Keep the required l_i -> r_o so nothing else
            // fires.
            *f.schedule.rounds[0].configs.entry_mut(NodeId::ROOT) =
                serde_json::from_str(r#"{"driver":[null,"Left","Parent"]}"#)
                    .expect("literal config");
        }
        Mutation::PaddedRounds => {
            f.schedule.rounds.push(Round::default());
        }
        Mutation::ThrashingSwitch => {
            // 16 nested comms on 32 PEs; n31 is idle after round 1, so
            // re-aiming its parent port every remaining round racks up 14
            // extra transitions — far past the budget of 9. The stray
            // settings are foreign (warnings), the budget breach is the
            // error.
            let pairs: Vec<_> = (0..16).map(|i| (i, 31 - i)).collect();
            f = fixture_of(32, &pairs);
            for r in 2..16 {
                let conn = if r % 2 == 0 { Connection::L_TO_P } else { Connection::R_TO_P };
                f.schedule.rounds[r]
                    .configs
                    .entry_mut(NodeId(31))
                    .set(conn)
                    .expect("n31 idle after round 1");
            }
        }
        Mutation::SkewedState => {
            let t = f.counters.as_mut().expect("clean fixture carries tables");
            t.states[NodeId::ROOT.index()][0] += 1;
        }
        Mutation::SkewedUpMsg => {
            let t = f.counters.as_mut().expect("clean fixture carries tables");
            t.up[2] = [1, 0];
        }
        Mutation::InvertedOrder => {
            f.schedule.rounds.reverse();
        }
        Mutation::TwoWriters => {
            let r0 = &mut f.schedule.rounds[0];
            let mut entries: Vec<_> = r0.configs.iter().map(|(n, c)| (n, *c)).collect();
            let dup = entries[0];
            entries.push(dup);
            r0.configs = RoundConfigs::from_entries_unchecked(entries);
        }
        Mutation::StraySetting => {
            // n5 takes no part in round 0 of the clean fixture.
            f.schedule.rounds[0]
                .configs
                .entry_mut(NodeId(5))
                .set(Connection::L_TO_R)
                .expect("n5 unused in round 0");
        }
        Mutation::MaskedHardware => {
            // The schedule is honest, but the artifact claims a mask under
            // which c0's last hop (down to leaf 7 = n15) is dead — keeping
            // c0 scheduled anyway crosses masked hardware.
            let mut mask = FaultMask::empty(&f.topo);
            assert!(mask.kill_link(DirectedLink::down_to(NodeId(15))));
            f.fault = Some(FaultScenario { mask, dropped: Vec::new() });
        }
        Mutation::HalfDuplexTraffic => {
            // Two disjoint comms legally share one round, but they drive
            // the edge above n5 in opposite directions — illegal once that
            // edge degrades to half-duplex.
            let topo = CstTopology::with_leaves(8);
            let set = CommSet::from_pairs(8, &[(0, 2), (3, 6)]);
            let schedule = schedule_of(&topo, &set, [[CommId(0), CommId(1)]]);
            let counters = Some(expected_counters(&topo, &set));
            let mut mask = FaultMask::empty(&topo);
            assert!(mask.degrade_edge(NodeId(5)));
            f = Fixture {
                topo,
                set,
                schedule,
                counters,
                options: CheckOptions::strict(),
                fault: Some(FaultScenario { mask, dropped: Vec::new() }),
            };
        }
        Mutation::BogusDrop => {
            // c2 is reported dropped, but the claimed mask is empty:
            // nothing blocks its path, so the drop is a router bug. The
            // empty padding round keeps Theorem 5 satisfied.
            f.schedule.rounds[2] = Round::default();
            f.fault = Some(FaultScenario {
                mask: FaultMask::empty(&f.topo),
                dropped: vec![2],
            });
        }
    }
    f
}

/// One corruption per `CST3xx` decomposition-audit invariant (the third
/// harness, alongside [`Mutation`] and `cst-model`'s `TraceMutation`).
/// `CST301` guards several packed-round invariants, so it has several.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecompMutation {
    /// Two conflicting pairs forced into one layer (`CST300`).
    LayerConflict,
    /// Two pairs sharing a directed link in one round (`CST301`).
    SharedLink,
    /// Two pairs sharing a PE in one round (`CST301`).
    SharedPe,
    /// A switch setting no member's circuit asks for (`CST301`).
    ForeignSetting,
    /// A member's switch setting dropped from its round (`CST301`).
    MissingSetting,
    /// More rounds than the layers take back to back (`CST301`).
    ExtraRound,
    /// A pair deleted from its layer and the composite (`CST302`).
    CoverageGap,
    /// The claimed lower bound inflated past its witness (`CST303`).
    BogusCertificate,
    /// Optimality claimed for a layering above its bound (`CST303`).
    FalseOptimality,
}

impl DecompMutation {
    /// Every decomposition mutation, in code order.
    pub const ALL: [DecompMutation; 9] = [
        DecompMutation::LayerConflict,
        DecompMutation::SharedLink,
        DecompMutation::SharedPe,
        DecompMutation::ForeignSetting,
        DecompMutation::MissingSetting,
        DecompMutation::ExtraRound,
        DecompMutation::CoverageGap,
        DecompMutation::BogusCertificate,
        DecompMutation::FalseOptimality,
    ];

    /// The one diagnostic this corruption must produce.
    pub fn expected_code(self) -> DiagCode {
        match self {
            DecompMutation::LayerConflict => DiagCode::LayerNotWellNested,
            DecompMutation::SharedLink
            | DecompMutation::SharedPe
            | DecompMutation::ForeignSetting
            | DecompMutation::MissingSetting
            | DecompMutation::ExtraRound => DiagCode::LayerRoundOverlap,
            DecompMutation::CoverageGap => DiagCode::DecompCoverage,
            DecompMutation::BogusCertificate | DecompMutation::FalseOptimality => {
                DiagCode::CertificateViolation
            }
        }
    }
}

/// A complete decomposition-audit subject: the general set, its claimed
/// decomposition, the composite schedule and each layer's standalone
/// round count.
#[derive(Clone, Debug)]
pub struct DecompFixture {
    pub topo: CstTopology,
    pub gset: cst_core::GeneralCommSet,
    pub decomp: cst_decomp::Decomposition,
    pub composite: Schedule,
    pub layer_rounds: Vec<usize>,
}

/// Audit a decomposition fixture (the decomposition analogue of [`run`]).
pub fn run_decomp(f: &DecompFixture) -> DiagReport {
    crate::decomp::check_decomposition(&f.topo, &f.gset, &f.decomp, &f.composite, &f.layer_rounds)
}

/// A round scheduling input pairs `ids`, its settings the union of their
/// circuits (the first writer wins where two collide at one switch).
fn packed_round(topo: &CstTopology, gset: &cst_core::GeneralCommSet, ids: &[usize]) -> Round {
    let mut configs = RoundConfigs::new();
    for &i in ids {
        let (s, d) = gset.pairs()[i];
        for (node, c) in Circuit::right_oriented(topo, s, d).settings {
            let _ = configs.entry_mut(node).set(c);
        }
    }
    Round { comms: ids.iter().map(|&i| CommId(i)).collect(), configs }
}

/// One round per pair, in layer order — legal for any decomposition —
/// and each layer's standalone round count.
fn one_pair_per_round(
    topo: &CstTopology,
    gset: &cst_core::GeneralCommSet,
    decomp: &cst_decomp::Decomposition,
) -> (Schedule, Vec<usize>) {
    let rounds = decomp.layers.iter().flatten().map(|&i| packed_round(topo, gset, &[i])).collect();
    (Schedule { rounds }, decomp.layers.iter().map(Vec::len).collect())
}

fn layer_set_of(gset: &cst_core::GeneralCommSet, ids: &[usize]) -> CommSet {
    let pairs: Vec<(usize, usize)> = ids
        .iter()
        .map(|&i| {
            let (s, d) = gset.pairs()[i];
            (s.0, d.0)
        })
        .collect();
    CommSet::from_pairs(gset.num_leaves(), &pairs)
}

/// Position of the composite round scheduling input pair `i`.
fn round_holding(f: &DecompFixture, i: usize) -> usize {
    f.composite.rounds.iter().position(|r| r.comms.contains(&CommId(i))).unwrap_or(0)
}

/// The known-clean decomposition baseline on 8 PEs: pairs 0 = (0,3),
/// 1 = (0,5), 2 = (1,4) and 3 = (6,7). Pair 0 conflicts with 1 (PE 0)
/// and 2 (crossing); 1 and 2 nest; 3 is disjoint from all. Two layers,
/// endpoint bound 2, provably minimal. The composite packs pair 3 into
/// pair 0's round: three rounds against the four the layers take back to
/// back (the audit is structural; each layer's own schedule is
/// [`crate::analyze`]'s job).
pub fn clean_decomp_fixture() -> DecompFixture {
    let topo = CstTopology::with_leaves(8);
    let gset = cst_core::GeneralCommSet::from_pairs(8, &[(0, 3), (0, 5), (1, 4), (6, 7)]);
    let decomp = cst_decomp::decompose(&gset);
    assert_eq!(decomp.num_layers(), 2, "fixture decomposes to two layers");
    assert_eq!(decomp.lower_bound, 2, "leaf 0 carries two pairs");
    let (mut composite, layer_rounds) = one_pair_per_round(&topo, &gset, &decomp);
    let three = composite.rounds.iter().position(|r| r.comms == [CommId(3)]).unwrap_or(0);
    composite.rounds.remove(three);
    let zero = composite.rounds.iter().position(|r| r.comms == [CommId(0)]).unwrap_or(0);
    composite.rounds[zero] = packed_round(&topo, &gset, &[0, 3]);
    DecompFixture { topo, gset, decomp, composite, layer_rounds }
}

/// The clean decomposition fixture with exactly one corruption applied.
pub fn corrupted_decomp(m: DecompMutation) -> DecompFixture {
    let mut f = clean_decomp_fixture();
    // Move pair `b` into pair `a`'s round: every pair still runs once
    // and no round is added; only the joined round is illegal.
    let join = |f: &mut DecompFixture, a: usize, b: usize| {
        let ids = |round: &Round, drop: usize| -> Vec<usize> {
            round.comms.iter().map(|c| c.0).filter(|&i| i != drop).collect()
        };
        let (ra, rb) = (round_holding(f, a), round_holding(f, b));
        let mut joined = ids(&f.composite.rounds[ra], b);
        joined.push(b);
        let left = ids(&f.composite.rounds[rb], b);
        f.composite.rounds[ra] = packed_round(&f.topo, &f.gset, &joined);
        f.composite.rounds[rb] = packed_round(&f.topo, &f.gset, &left);
        if left.is_empty() {
            f.composite.rounds.remove(rb);
        }
    };
    match m {
        DecompMutation::LayerConflict => {
            // Move pair #2 = (1,4) into pair #0 = (0,3)'s layer: they
            // cross (0 < 1 < 3 < 4) but keep unique endpoints, so the
            // mutated layer still materializes as a CommSet and every
            // partition/round invariant stays intact — only the
            // conflict-freedom of the layer is at fault.
            let from = f.decomp.layer_of[2];
            let to = f.decomp.layer_of[0];
            assert_ne!(from, to, "fixture separates pairs #0 and #2");
            f.decomp.layers[from].retain(|&i| i != 2);
            f.decomp.layers[to].push(2);
            f.decomp.layer_of[2] = to;
            for j in [from, to] {
                f.decomp.layer_sets[j] = layer_set_of(&f.gset, &f.decomp.layers[j]);
            }
            (f.composite, f.layer_rounds) = one_pair_per_round(&f.topo, &f.gset, &f.decomp);
        }
        // (0,5) and (1,4) both climb out of switch 4 into switch 2.
        DecompMutation::SharedLink => join(&mut f, 1, 2),
        // (0,3) and (0,5) share PE 0 (and the leaf's link).
        DecompMutation::SharedPe => join(&mut f, 1, 0),
        DecompMutation::ForeignSetting => {
            // Switch 7 (above leaves 6, 7) is idle in pair 1's round.
            let r = round_holding(&f, 1);
            let _ = f.composite.rounds[r].configs.entry_mut(NodeId(7)).set(Connection::L_TO_R);
        }
        DecompMutation::MissingSetting => {
            let r = round_holding(&f, 1);
            let configs = &mut f.composite.rounds[r].configs;
            let kept: Vec<_> = configs.iter().skip(1).map(|(n, c)| (n, *c)).collect();
            *configs = RoundConfigs::from_entries(kept);
        }
        DecompMutation::ExtraRound => {
            // Unpack pair 3 into two idle rounds of its own: five rounds
            // where the layers back to back take four.
            let zero = round_holding(&f, 0);
            f.composite.rounds[zero] = packed_round(&f.topo, &f.gset, &[0]);
            f.composite.rounds.push(packed_round(&f.topo, &f.gset, &[3]));
            f.composite.rounds.push(Round::default());
        }
        DecompMutation::CoverageGap => {
            // Delete pair #2 from its layer, its materialized set and the
            // composite: the layers no longer partition the input.
            let j = f.decomp.layer_of[2];
            f.decomp.layers[j].retain(|&i| i != 2);
            f.decomp.layer_sets[j] = layer_set_of(&f.gset, &f.decomp.layers[j]);
            let r = round_holding(&f, 2);
            f.composite.rounds.remove(r);
        }
        DecompMutation::BogusCertificate => {
            // Claim a bound of 3 with a 2-member witness: the witness no
            // longer certifies the bound (and 3 exceeds the 2 layers).
            f.decomp.lower_bound += 1;
        }
        DecompMutation::FalseOptimality => {
            // Split pair #3 = (6,7), disjoint from every other pair, off
            // into a third layer of its own. The layering stays a legal
            // partition and the composite stays packed, but three layers
            // against a bound of 2 are no longer optimal — yet the claim
            // stands.
            let j = f.decomp.layer_of[3];
            f.decomp.layers[j].retain(|&i| i != 3);
            f.decomp.layer_sets[j] = layer_set_of(&f.gset, &f.decomp.layers[j]);
            f.decomp.layers.push(vec![3]);
            f.decomp.layer_sets.push(layer_set_of(&f.gset, &[3]));
            f.decomp.layer_of[3] = f.decomp.layers.len() - 1;
            f.layer_rounds = f.decomp.layers.iter().map(Vec::len).collect();
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_exhaustive_and_codes_distinct() {
        let mut codes: Vec<_> = Mutation::ALL.iter().map(|m| m.expected_code()).collect();
        codes.sort_by_key(|c| c.as_str());
        codes.dedup();
        assert_eq!(codes.len(), Mutation::ALL.len());
        // The CST2xx model-conformance codes are exercised by the trace
        // mutation harness in `cst-model` and the CST3xx decomposition
        // codes by [`DecompMutation`]; together the three harnesses
        // cover `DiagCode::ALL` (asserted in `cst-model`, where all
        // three are in scope).
        assert_eq!(
            codes.len(),
            DiagCode::ALL.iter().filter(|c| !c.is_model() && !c.is_decomp()).count()
        );
    }

    #[test]
    fn decomp_mutations_cover_cst3xx() {
        let mut codes: Vec<_> = DecompMutation::ALL.iter().map(|m| m.expected_code()).collect();
        codes.sort_by_key(|c| c.as_str());
        codes.dedup();
        let cst3xx: Vec<_> = DiagCode::ALL.iter().copied().filter(|c| c.is_decomp()).collect();
        assert_eq!(codes, cst3xx);
        // CST303 guards two claims, the witness and the optimality
        // verdict: each has its own corruption, named by its finding.
        let cst303: Vec<_> = DecompMutation::ALL
            .into_iter()
            .filter(|m| m.expected_code() == DiagCode::CertificateViolation)
            .collect();
        assert_eq!(cst303, [DecompMutation::BogusCertificate, DecompMutation::FalseOptimality]);
        for (m, finding) in [
            (DecompMutation::BogusCertificate, "witness has 2 members"),
            (DecompMutation::FalseOptimality, "optimality claimed with 3 layers"),
        ] {
            let report = run_decomp(&corrupted_decomp(m));
            assert!(
                report.errors().any(|d| d.message.contains(finding)),
                "{m:?} must report {finding:?}:\n{}",
                report.render_text()
            );
        }
    }

    #[test]
    fn clean_fixture_is_clean() {
        assert!(run(&clean_fixture()).is_clean());
    }

    #[test]
    fn clean_decomp_fixture_is_clean() {
        let report = run_decomp(&clean_decomp_fixture());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn packed_round_mutations_name_their_finding() {
        for (m, finding) in [
            (DecompMutation::SharedLink, "share link"),
            (DecompMutation::SharedPe, "share PE"),
            (DecompMutation::ForeignSetting, "which no member's circuit needs"),
            (DecompMutation::MissingSetting, "absent from the round's settings"),
            (DecompMutation::ExtraRound, "back to back"),
        ] {
            let report = run_decomp(&corrupted_decomp(m));
            assert!(
                report.errors().any(|d| d.message.contains(finding)),
                "{m:?} must report {finding:?}:\n{}",
                report.render_text()
            );
        }
    }

    #[test]
    fn clean_decomp_fixture_packs_across_layers() {
        let f = clean_decomp_fixture();
        assert_eq!(f.composite.num_rounds(), 3);
        assert_eq!(f.layer_rounds.iter().sum::<usize>(), 4);
    }

    #[test]
    fn each_decomp_mutation_fires_exactly_its_code() {
        for m in DecompMutation::ALL {
            let report = run_decomp(&corrupted_decomp(m));
            assert!(report.has_errors(), "{m:?} produced a clean report");
            for d in report.errors() {
                assert_eq!(d.code, m.expected_code(), "{m:?} leaked {}: {}", d.code, d.message);
            }
        }
    }
}
