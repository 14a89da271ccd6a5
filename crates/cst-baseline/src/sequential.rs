//! The trivial one-communication-per-round scheduler: a floor baseline for
//! the round-count and power plots (E1/E3). Always valid, always `M`
//! rounds for `M` communications.

use cst_comm::{CommSet, Schedule};
use cst_core::{CstError, CstTopology};

/// Schedule every communication in its own round, in id order.
pub fn run(topo: &CstTopology, set: &CommSet) -> Result<Schedule, CstError> {
    set.require_right_oriented()?;
    let endpoints = |id| set.get(id).map(|c| (c.source, c.dest));
    Schedule::from_partition(topo, endpoints, set.iter().map(|(id, _)| [id]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_comm::examples;

    #[test]
    fn one_round_per_comm() {
        let topo = CstTopology::with_leaves(16);
        let set = examples::paper_figure_2();
        let s = run(&topo, &set).unwrap();
        assert_eq!(s.num_rounds(), set.len());
        s.verify(&topo, &set).unwrap();
    }

    #[test]
    fn handles_empty() {
        let topo = CstTopology::with_leaves(8);
        let s = run(&topo, &CommSet::empty(8)).unwrap();
        assert_eq!(s.num_rounds(), 0);
    }
}
