//! The on-disk artifact `cst-tools check` consumes: a schedule plus the
//! inputs it claims to serve, in one JSON document. Keeping the inputs in
//! the artifact makes a saved schedule *auditable* — the analyzer needs the
//! communication set to judge the rounds, and an artifact that only stored
//! switch settings could never be checked against anything.

use crate::counters::CounterTable;
use crate::{analyze, CheckOptions};
use cst_comm::{CommSet, Schedule};
use cst_core::diag::DiagReport;
use cst_core::{CstError, CstTopology};
use serde::{Deserialize, Serialize};

/// A self-contained, serializable schedule artifact.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ScheduleBundle {
    /// Number of PEs (leaves); must be a power of two for the CST.
    pub num_leaves: usize,
    /// The communication set as `(source, dest)` leaf pairs, id order.
    pub comms: Vec<(usize, usize)>,
    /// The schedule under audit.
    pub schedule: Schedule,
    /// Optional Phase-1 counter tables for the Lemma 1 pass; schedules
    /// from non-CSA schedulers simply omit them.
    pub counters: Option<CounterTable>,
}

impl ScheduleBundle {
    /// Bundle a scheduling outcome for serialization.
    pub fn new(set: &CommSet, schedule: Schedule, counters: Option<CounterTable>) -> Self {
        ScheduleBundle {
            num_leaves: set.num_leaves(),
            comms: set.comms().iter().map(|c| (c.source.0, c.dest.0)).collect(),
            schedule,
            counters,
        }
    }

    /// Reconstruct the topology and communication set the bundle claims.
    ///
    /// Fails on malformed inputs (non-power-of-two size, out-of-range or
    /// degenerate pairs) — structural problems below the diagnostic level.
    pub fn instantiate(&self) -> Result<(CstTopology, CommSet), CstError> {
        let topo = CstTopology::new(self.num_leaves)?;
        let comms = self
            .comms
            .iter()
            .map(|&(s, d)| cst_comm::Communication::new(cst_core::LeafId(s), cst_core::LeafId(d)))
            .collect::<Result<Vec<_>, _>>()?;
        let set = CommSet::new(self.num_leaves, comms)?;
        Ok((topo, set))
    }

    /// Run the full analysis on the bundle: every schedule pass via
    /// [`analyze`], plus the Lemma 1 counter pass when the bundle carries
    /// tables.
    pub fn check(&self, options: &CheckOptions) -> Result<DiagReport, CstError> {
        let (topo, set) = self.instantiate()?;
        let mut report = analyze(&topo, &set, &self.schedule, options);
        if let Some(t) = &self.counters {
            report.merge(crate::counters::check_counters(&topo, &set, t));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::expected_counters;

    #[test]
    fn bundle_roundtrips_and_checks() {
        let topo = CstTopology::with_leaves(8);
        let set = CommSet::from_pairs(8, &[(1, 6)]);
        let endpoints = |id| set.get(id).map(|c| (c.source, c.dest));
        let schedule =
            Schedule::from_partition(&topo, endpoints, [[cst_comm::CommId(0)]]).unwrap();
        let counters = Some(expected_counters(&topo, &set));
        let bundle = ScheduleBundle::new(&set, schedule, counters);

        let json = serde_json::to_string(&bundle).unwrap();
        let back: ScheduleBundle = serde_json::from_str(&json).unwrap();
        let report = back.check(&CheckOptions::strict()).unwrap();
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn bad_sizes_fail_instantiation_not_analysis() {
        let bundle = ScheduleBundle { num_leaves: 3, ..ScheduleBundle::default() };
        assert!(bundle.check(&CheckOptions::lenient()).is_err());
    }
}
