//! Decomposition audit — the `CST3xx` family.
//!
//! A layered routing artifact (a [`GeneralCommSet`], its
//! [`Decomposition`], the composite [`Schedule`] and the per-layer round
//! bands) promises four composition invariants, each with its own code:
//!
//! * **CST300** — every layer is conflict-free: no two member pairs
//!   cross or share an endpoint, so the layer is a legal well-nested
//!   `CommSet`;
//! * **CST301** — every packed round is legal: no two of its pairs
//!   share a directed link or a PE, its switch settings are exactly the
//!   union of its pairs' circuits, and the composite is no longer than
//!   its layers back to back (`rounds <= Σ layer_rounds`, one count per
//!   layer);
//! * **CST302** — the layers partition the input: every input pair id
//!   sits in exactly one layer, the materialized layer sets mirror the
//!   id lists, and the composite schedules each pair exactly once;
//! * **CST303** — the lower-bound certificate is sound: the witness has
//!   `lower_bound` distinct members that pairwise conflict, the bound
//!   does not exceed the layer count actually produced, and optimality
//!   is claimed exactly when the layer count meets the bound.
//!
//! Like every pass here this is structural: it never re-runs the
//! decomposition, so it audits artifacts from any producer (the engine,
//! a replay file, a foreign tool). Each layer's own schedule, rebuilt
//! from provenance by `cst_decomp::layer_schedule`, is
//! [`crate::analyze`]'s job.

use cst_comm::{CommId, Schedule};
use cst_core::diag::{DiagCode, DiagReport, Diagnostic};
use cst_core::{Circuit, Connection, CstTopology, DirectedLink, GeneralCommSet};
use cst_decomp::Decomposition;
use std::collections::{BTreeMap, BTreeSet};

/// Audit the composition invariants of one layered routing artifact.
pub fn check_decomposition(
    topo: &CstTopology,
    gset: &GeneralCommSet,
    decomp: &Decomposition,
    composite: &Schedule,
    layer_rounds: &[usize],
) -> DiagReport {
    let mut report = DiagReport::new();
    let m = gset.len();

    // --- CST302: the layers partition the input pair ids -------------
    if decomp.num_leaves != gset.num_leaves() || gset.num_leaves() != topo.num_leaves() {
        report.push(Diagnostic::new(
            DiagCode::DecompCoverage,
            format!(
                "leaf counts disagree: decomposition {}, set {}, topology {}",
                decomp.num_leaves,
                gset.num_leaves(),
                topo.num_leaves()
            ),
        ));
    }
    if decomp.layer_of.len() != m {
        report.push(Diagnostic::new(
            DiagCode::DecompCoverage,
            format!("layer_of table covers {} ids, input has {m}", decomp.layer_of.len()),
        ));
    }
    let mut seen = vec![0usize; m];
    for (j, ids) in decomp.layers.iter().enumerate() {
        for &i in ids {
            if i >= m {
                report.push(Diagnostic::new(
                    DiagCode::DecompCoverage,
                    format!("layer {j} names input pair #{i}, past the {m} input pairs"),
                ));
                continue;
            }
            seen[i] += 1;
            if decomp.layer_of.get(i) != Some(&j) {
                report.push(
                    Diagnostic::new(
                        DiagCode::DecompCoverage,
                        format!("layer {j} lists pair #{i} but layer_of assigns it elsewhere"),
                    )
                    .with_comm(i),
                );
            }
        }
    }
    for (i, &count) in seen.iter().enumerate() {
        if count != 1 {
            report.push(
                Diagnostic::new(
                    DiagCode::DecompCoverage,
                    format!("input pair #{i} appears in {count} layers (must be exactly 1)"),
                )
                .with_comm(i),
            );
        }
    }
    if decomp.layer_sets.len() != decomp.layers.len() {
        report.push(Diagnostic::new(
            DiagCode::DecompCoverage,
            format!(
                "{} materialized layer sets for {} id layers",
                decomp.layer_sets.len(),
                decomp.layers.len()
            ),
        ));
    }
    for (j, (ids, set)) in decomp.layers.iter().zip(&decomp.layer_sets).enumerate() {
        if set.len() != ids.len() || set.num_leaves() != gset.num_leaves() {
            report.push(Diagnostic::new(
                DiagCode::DecompCoverage,
                format!("layer {j}: materialized set shape does not match its id list"),
            ));
            continue;
        }
        for (k, &i) in ids.iter().enumerate() {
            if i >= m {
                continue; // already flagged above
            }
            let (s, d) = gset.pairs()[i];
            let c = set.comms()[k];
            if (c.source.0, c.dest.0) != (s.0, d.0) {
                report.push(
                    Diagnostic::new(
                        DiagCode::DecompCoverage,
                        format!("layer {j} entry {k} does not match input pair #{i}"),
                    )
                    .with_comm(i),
                );
            }
        }
    }

    // --- CST300: every layer is pairwise conflict-free ----------------
    for (j, ids) in decomp.layers.iter().enumerate() {
        for (a, &x) in ids.iter().enumerate() {
            if x >= m {
                continue;
            }
            for &y in &ids[a + 1..] {
                if y >= m || x == y {
                    continue;
                }
                if gset.conflicts(x, y) {
                    report.push(
                        Diagnostic::new(
                            DiagCode::LayerNotWellNested,
                            format!("layer {j}: pairs #{x} and #{y} cross or share an endpoint"),
                        )
                        .with_comm(x)
                        .with_comm(y),
                    );
                }
            }
        }
    }

    // --- CST301: every packed round is legal ------------------------
    check_packed_rounds(topo, gset, composite, &mut report);
    if layer_rounds.len() != decomp.layers.len() {
        report.push(Diagnostic::new(
            DiagCode::LayerRoundOverlap,
            format!("{} layer round counts for {} layers", layer_rounds.len(), decomp.layers.len()),
        ));
    }
    let layered: usize = layer_rounds.iter().sum();
    if composite.num_rounds() > layered {
        report.push(Diagnostic::new(
            DiagCode::LayerRoundOverlap,
            format!(
                "composite has {} rounds, more than the {layered} its layers take back to back",
                composite.num_rounds()
            ),
        ));
    }
    let mut scheduled = vec![0usize; m];
    for (r, round) in composite.rounds.iter().enumerate() {
        for &CommId(i) in &round.comms {
            if i < m {
                scheduled[i] += 1;
            } else {
                report.push(
                    Diagnostic::new(
                        DiagCode::DecompCoverage,
                        format!("round {r} schedules pair #{i}, past the {m} input pairs"),
                    )
                    .with_round(r)
                    .with_comm(i),
                );
            }
        }
    }
    for (i, &count) in scheduled.iter().enumerate() {
        if count != 1 {
            report.push(
                Diagnostic::new(
                    DiagCode::DecompCoverage,
                    format!("input pair #{i} is scheduled {count} times in the composite"),
                )
                .with_comm(i),
            );
        }
    }

    // --- CST303: the certificate is sound -----------------------------
    let witness = &decomp.witness;
    if witness.len() != decomp.lower_bound {
        report.push(Diagnostic::new(
            DiagCode::CertificateViolation,
            format!(
                "witness has {} members for a claimed bound of {}",
                witness.len(),
                decomp.lower_bound
            ),
        ));
    }
    let mut ids_valid = true;
    for &i in witness {
        if i >= m {
            report.push(Diagnostic::new(
                DiagCode::CertificateViolation,
                format!("witness names input pair #{i}, past the {m} input pairs"),
            ));
            ids_valid = false;
        }
    }
    let mut sorted = witness.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != witness.len() {
        report.push(Diagnostic::new(
            DiagCode::CertificateViolation,
            "witness repeats a member".to_string(),
        ));
    }
    if ids_valid {
        for (a, &x) in witness.iter().enumerate() {
            for &y in &witness[a + 1..] {
                if x != y && !gset.conflicts(x, y) {
                    report.push(
                        Diagnostic::new(
                            DiagCode::CertificateViolation,
                            format!("witness pairs #{x} and #{y} do not conflict"),
                        )
                        .with_comm(x)
                        .with_comm(y),
                    );
                }
            }
        }
    }
    if m > 0 && decomp.lower_bound > decomp.layers.len() {
        report.push(Diagnostic::new(
            DiagCode::CertificateViolation,
            format!(
                "claimed bound {} exceeds the {} layers actually produced",
                decomp.lower_bound,
                decomp.layers.len()
            ),
        ));
    }
    let meets_bound = decomp.layers.len() == decomp.lower_bound;
    if m > 0 && decomp.proven_optimal != meets_bound {
        let message = if meets_bound {
            "layer count meets the bound but optimality is not claimed".to_string()
        } else {
            format!(
                "optimality claimed with {} layers against a bound of {}",
                decomp.layers.len(),
                decomp.lower_bound
            )
        };
        report.push(Diagnostic::new(DiagCode::CertificateViolation, message));
    }
    report
}

/// CST301 proper: within each round no two members share a directed link
/// or a PE, and the round's switch settings are exactly the union of its
/// members' circuits (rebuilt here with [`Circuit::right_oriented`], not
/// the producer's walk). Members past the input are CST302's to report.
fn check_packed_rounds(
    topo: &CstTopology,
    gset: &GeneralCommSet,
    composite: &Schedule,
    report: &mut DiagReport,
) {
    let pairs = gset.pairs();
    let n = topo.num_leaves();
    let overlap = |message: String, r: usize| {
        Diagnostic::new(DiagCode::LayerRoundOverlap, message).with_round(r)
    };
    for (r, round) in composite.rounds.iter().enumerate() {
        // Claimant of each directed link and PE, and every setting asked for.
        let mut links: BTreeMap<DirectedLink, usize> = BTreeMap::new();
        let mut pes: BTreeMap<usize, usize> = BTreeMap::new();
        let mut wanted: BTreeMap<(usize, Connection), usize> = BTreeMap::new();
        for &CommId(i) in &round.comms {
            let Some(&(s, d)) = pairs.get(i) else { continue };
            if s.0 >= d.0 || d.0 >= n {
                continue; // not a pair of this topology: CST302's leaf-count finding
            }
            for pe in [s.0, d.0] {
                if let Some(j) = pes.insert(pe, i) {
                    report.push(
                        overlap(format!("round {r}: pairs #{j} and #{i} share PE {pe}"), r)
                            .with_comm(j)
                            .with_comm(i),
                    );
                }
            }
            let circuit = Circuit::right_oriented(topo, s, d);
            for &link in &circuit.links {
                if let Some(j) = links.insert(link, i) {
                    report.push(
                        overlap(format!("round {r}: pairs #{j} and #{i} share link {link}"), r)
                            .with_comm(j)
                            .with_comm(i),
                    );
                }
            }
            for &(node, conn) in &circuit.settings {
                wanted.entry((node.0, conn)).or_insert(i);
            }
        }
        let mut held: BTreeSet<(usize, Connection)> = BTreeSet::new();
        for (node, conn) in round.configs.requirements() {
            held.insert((node.0, conn));
            if !wanted.contains_key(&(node.0, conn)) {
                report.push(overlap(
                    format!(
                        "round {r}: switch {node} holds {conn}, which no member's circuit needs"
                    ),
                    r,
                ));
            }
        }
        for (&(node, conn), &i) in &wanted {
            if !held.contains(&(node, conn)) {
                report.push(
                    overlap(
                        format!("round {r}: pair #{i} needs {conn} at switch {node}, absent from the round's settings"),
                        r,
                    )
                    .with_comm(i),
                );
            }
        }
    }
}
