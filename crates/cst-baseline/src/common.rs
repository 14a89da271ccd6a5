//! Scan orders shared by the centralized baseline schedulers. Each
//! baseline chooses a round partition and hands it to
//! [`cst_comm::Schedule::from_partition`], so every scheduler's tables are
//! written, and metered, exactly as the CSA's are.

use cst_comm::{CommId, CommSet};

/// Sort communication ids outermost-first: by left endpoint ascending,
/// right endpoint descending. For well-nested sets this is a valid
/// "containment before contained" topological order.
pub fn outermost_first_order(set: &CommSet) -> Vec<CommId> {
    let mut ids: Vec<CommId> = set.iter().map(|(id, _)| id).collect();
    ids.sort_unstable_by_key(|&id| {
        let c = &set.comms()[id.0];
        let (l, r) = c.interval();
        (l, usize::MAX - r)
    });
    ids
}

/// Sort communication ids innermost-first: the exact reverse of
/// [`outermost_first_order`].
pub fn innermost_first_order(set: &CommSet) -> Vec<CommId> {
    let mut ids = outermost_first_order(set);
    ids.reverse();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_respect_containment() {
        let set = CommSet::from_pairs(16, &[(4, 5), (0, 7), (1, 6), (8, 9)]);
        let outer = outermost_first_order(&set);
        // (0,7) before (1,6) before (4,5); (8,9) sorted by left endpoint
        assert_eq!(outer, vec![CommId(1), CommId(2), CommId(0), CommId(3)]);
        let inner = innermost_first_order(&set);
        assert_eq!(inner, vec![CommId(3), CommId(0), CommId(2), CommId(1)]);
    }
}
