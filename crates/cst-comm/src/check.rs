//! Round-level static checks: the diagnostic-emitting core that
//! [`Schedule::verify`](crate::Schedule::verify) and the `cst-check`
//! analyzer share.
//!
//! [`check_rounds`] inspects a [`Schedule`] against its input [`CommSet`]
//! *without simulating the protocol*: it rebuilds each round's circuits,
//! re-merges them through one scratch [`MergedRound`] and compares the
//! result against the recorded configurations. Emitted codes:
//!
//! * `CST010/011/012` — coverage: unknown, duplicated, missing
//!   communications (Theorem 4, "performs the set");
//! * `CST020` — two circuits of one round share a directed link
//!   (Theorem 4, compatibility);
//! * `CST021` — a recorded round misses a switch or connection its
//!   circuits require;
//! * `CST022` — a recorded configuration is illegal (same-side connection
//!   or an input driving several outputs — representable only through a
//!   corrupted artifact, never through [`cst_core::SwitchConfig::set`]);
//! * `CST070` — one switch appears twice in a round table: two writers
//!   (the race class a parallel driver could introduce);
//! * `CST071` *(warning)* — a switch or connection is configured although
//!   no circuit of the round uses it.

use crate::communication::CommId;
use crate::schedule::Schedule;
use crate::set::CommSet;
use cst_core::diag::{DiagCode, DiagReport, Diagnostic};
use cst_core::{Circuit, CstError, CstTopology, MergedRound, NodeId, Side};

/// Check every round of `schedule` against `set` and collect diagnostics.
///
/// Never panics and never stops early: all findings across all rounds are
/// reported. One scratch [`MergedRound`] is reused, so the whole analysis
/// allocates O(N) once plus O(findings).
pub fn check_rounds(topo: &CstTopology, set: &CommSet, schedule: &Schedule) -> DiagReport {
    let mut report = DiagReport::new();
    // First round each communication was seen in (coverage bookkeeping).
    let mut first_seen: Vec<Option<usize>> = vec![None; set.len()];
    let mut merged = MergedRound::new(topo);

    for (r, round) in schedule.rounds.iter().enumerate() {
        // CST070: duplicate switch entries — the table is sorted, so two
        // writers claiming one switch sit adjacent.
        let mut prev: Option<NodeId> = None;
        for (node, _) in &round.configs {
            if prev == Some(node) {
                report.push(
                    Diagnostic::new(
                        DiagCode::DoubleStamp,
                        "switch claimed twice within one round (two writers)",
                    )
                    .with_round(r)
                    .with_node(node),
                );
            }
            prev = Some(node);
        }

        // CST022: illegal recorded configurations. `SwitchConfig::set`
        // cannot produce these; a deserialized artifact can.
        for (node, cfg) in &round.configs {
            for side in Side::ALL {
                if cfg.driver_of(side) == Some(side) {
                    report.push(
                        Diagnostic::new(
                            DiagCode::IllegalConfig,
                            format!("same-side connection {side}i->{side}o"),
                        )
                        .with_round(r)
                        .with_node(node)
                        .with_port(side),
                    );
                }
            }
            for inp in Side::ALL {
                let fan_out =
                    Side::ALL.into_iter().filter(|&o| cfg.driver_of(o) == Some(inp)).count();
                if fan_out > 1 {
                    report.push(
                        Diagnostic::new(
                            DiagCode::IllegalConfig,
                            format!("input {inp}i drives {fan_out} outputs (one-to-one violated)"),
                        )
                        .with_round(r)
                        .with_node(node),
                    );
                }
            }
        }

        // Coverage bookkeeping + the list of circuits to merge this round
        // (first global occurrence only: a duplicated id is a bookkeeping
        // corruption reported as CST011, not a second physical circuit).
        merged.clear();
        let mut mergeable: Vec<CommId> = Vec::with_capacity(round.comms.len());
        for &id in &round.comms {
            match first_seen.get(id.0).copied() {
                None => {
                    report.push(
                        Diagnostic::new(
                            DiagCode::UnknownComm,
                            format!("round references unknown communication {id}"),
                        )
                        .with_round(r)
                        .with_comm(id.0),
                    );
                }
                Some(Some(r0)) => {
                    report.push(
                        Diagnostic::new(
                            DiagCode::DuplicateComm,
                            format!("{id} scheduled in round {r0} and again in round {r}"),
                        )
                        .with_round(r)
                        .with_comm(id.0),
                    );
                }
                Some(None) => {
                    first_seen[id.0] = Some(r);
                    mergeable.push(id);
                }
            }
        }

        // CST020: rebuild and merge the round's circuits; any directed-link
        // (or, for degenerate inputs, switch-port) clash is a Theorem 4
        // violation. On failure the merged state is partial, so the
        // config-match and foreign-config passes are skipped for this round
        // to avoid cascading noise.
        let mut round_ok = true;
        for &id in &mergeable {
            // Ids in `mergeable` were validated against the set above.
            let Some(c) = set.get(id) else { continue };
            match merged.add(&Circuit::between(topo, c.source, c.dest)) {
                Ok(()) => {}
                Err(CstError::LinkConflict { node, upward }) => {
                    let dir = if upward { "up" } else { "down" };
                    report.push(
                        Diagnostic::new(
                            DiagCode::LinkConflict,
                            format!("directed {dir}-link above {node} used by two circuits"),
                        )
                        .with_round(r)
                        .with_link(node, upward)
                        .with_comm(id.0),
                    );
                    round_ok = false;
                    break;
                }
                Err(e) => {
                    report.push(
                        Diagnostic::new(
                            DiagCode::LinkConflict,
                            format!("circuits of the round cannot be merged: {e}"),
                        )
                        .with_round(r)
                        .with_comm(id.0),
                    );
                    round_ok = false;
                    break;
                }
            }
        }
        if !round_ok {
            continue;
        }

        // CST021: the recorded configs must contain every merged
        // requirement.
        for (node, need) in merged.iter() {
            match round.configs.get(node) {
                None => {
                    report.push(
                        Diagnostic::new(
                            DiagCode::MissingConnection,
                            "switch involved in the round has no recorded configuration",
                        )
                        .with_round(r)
                        .with_node(node),
                    );
                }
                Some(rec) => {
                    for conn in need.connections() {
                        if !rec.has(conn) {
                            report.push(
                                Diagnostic::new(
                                    DiagCode::MissingConnection,
                                    format!("round lacks required connection {conn}"),
                                )
                                .with_round(r)
                                .with_node(node)
                                .with_port(conn.to),
                            );
                        }
                    }
                }
            }
        }

        // CST071 (warning): anything recorded beyond the requirements.
        for (node, rec) in &round.configs {
            match merged.get(node) {
                None => {
                    report.push(
                        Diagnostic::new(
                            DiagCode::ForeignConfig,
                            "switch configured but unused by any circuit of the round",
                        )
                        .with_round(r)
                        .with_node(node),
                    );
                }
                Some(need) => {
                    for conn in rec.connections() {
                        if conn.is_legal() && !need.has(conn) {
                            report.push(
                                Diagnostic::new(
                                    DiagCode::ForeignConfig,
                                    format!("connection {conn} not required by any circuit"),
                                )
                                .with_round(r)
                                .with_node(node)
                                .with_port(conn.to),
                            );
                        }
                    }
                }
            }
        }
    }

    // CST012: every communication must have been scheduled somewhere.
    for (i, seen) in first_seen.iter().enumerate() {
        if seen.is_none() {
            report.push(
                Diagnostic::new(DiagCode::MissingComm, format!("c{i} never scheduled"))
                    .with_comm(i),
            );
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_core::diag::Severity;
    use cst_core::{Connection, RoundConfigs};

    /// The schedule performing round `r`'s ids in round `r`.
    fn schedule_of(topo: &CstTopology, set: &CommSet, rounds: &[&[usize]]) -> Schedule {
        let ids = rounds.iter().map(|r| r.iter().map(|&i| CommId(i)).collect::<Vec<_>>());
        Schedule::from_partition(topo, |id| set.get(id).map(|c| (c.source, c.dest)), ids).unwrap()
    }

    fn codes(r: &DiagReport) -> Vec<DiagCode> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_schedule_yields_empty_report() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)]);
        let sched = schedule_of(&topo, &set, &[&[0], &[1], &[2]]);
        assert!(check_rounds(&topo, &set, &sched).is_clean());
    }

    #[test]
    fn double_stamp_detected_in_duplicated_entries() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7)]);
        let mut sched = schedule_of(&topo, &set, &[&[0]]);
        let mut entries: Vec<_> =
            sched.rounds[0].configs.iter().map(|(n, c)| (n, *c)).collect();
        let dup = entries[0];
        entries.push(dup);
        sched.rounds[0].configs = RoundConfigs::from_entries_unchecked(entries);
        let rep = check_rounds(&topo, &set, &sched);
        assert_eq!(codes(&rep), vec![DiagCode::DoubleStamp]);
        assert_eq!(rep.diagnostics[0].node, Some(dup.0));
    }

    #[test]
    fn foreign_config_is_a_warning() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 1)]);
        let mut sched = schedule_of(&topo, &set, &[&[0]]);
        // Node 5 takes no part in the sibling pair (0,1).
        sched.rounds[0].configs.entry_mut(NodeId(5)).set(Connection::L_TO_R).unwrap();
        let rep = check_rounds(&topo, &set, &sched);
        assert_eq!(codes(&rep), vec![DiagCode::ForeignConfig]);
        assert_eq!(rep.diagnostics[0].severity, Severity::Warning);
        assert!(!rep.has_errors());
    }

    #[test]
    fn all_findings_reported_not_just_first() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(0, 7), (1, 6)]);
        // Round 0 fine; comm 1 dropped entirely; plus an unknown id.
        let mut sched = schedule_of(&topo, &set, &[&[0]]);
        sched.rounds[0].comms.push(CommId(9));
        let rep = check_rounds(&topo, &set, &sched);
        let cs = codes(&rep);
        assert!(cs.contains(&DiagCode::UnknownComm));
        assert!(cs.contains(&DiagCode::MissingComm));
        assert_eq!(rep.error_count(), 2);
    }

    #[test]
    fn left_oriented_rounds_check_cleanly() {
        // check_rounds is orientation-agnostic: circuits are rebuilt with
        // Circuit::between, which handles both directions.
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(7, 0), (6, 1)]);
        let sched = schedule_of(&topo, &set, &[&[0], &[1]]);
        assert!(check_rounds(&topo, &set, &sched).is_clean());
    }
}
