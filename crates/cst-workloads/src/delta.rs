//! Seeded delta generators for the streaming experiments.
//!
//! A streaming workload is a base set plus a chain of small mutations
//! ([`PeChange`]s). The generator keeps every intermediate set routable:
//! attaches pick a source/dest pair that stays **right-oriented and
//! well-nested** against the current set (the pair's interval must nest
//! inside or lie disjoint from every existing communication), detaches
//! remove a uniformly chosen existing communication. Both endpoints of an
//! attach are free leaves (no endpoint reuse).

use cst_comm::{CommSet, PeChange};
use cst_core::LeafId;
use rand::Rng;

/// Does attaching `(l, r)` keep `set` well-nested? True iff `[l, r]`
/// nests inside or lies disjoint from every existing interval (it can
/// also *contain* existing intervals whole). `O(M)` scan.
fn attach_keeps_nested(set: &CommSet, l: usize, r: usize) -> bool {
    set.comms().iter().all(|c| {
        let (s, d) = (c.source.0, c.dest.0);
        let disjoint = r < s || d < l;
        let inside = s < l && r < d;
        let contains = l < s && d < r;
        disjoint || inside || contains
    })
}

/// One random valid attach against `set`, or `None` if `attempts`
/// rejection-sampling tries all failed (dense sets can leave no room).
fn random_attach<R: Rng + ?Sized>(
    rng: &mut R,
    set: &CommSet,
    used: &[bool],
    attempts: usize,
) -> Option<PeChange> {
    let n = set.num_leaves();
    if 2 * (set.len() + 1) > n {
        return None;
    }
    for _ in 0..attempts {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let (l, r) = (a.min(b), a.max(b));
        if used[l] || used[r] {
            continue;
        }
        if attach_keeps_nested(set, l, r) {
            return Some(PeChange::attach(l, r));
        }
    }
    None
}

/// Generate `k` random [`PeChange`]s against `set`, applying each to a
/// scratch copy so later changes are valid against the evolved set. Every
/// prefix of the returned chain keeps the set right-oriented and
/// well-nested, so the CSA can route the set after each step. Attaches
/// and detaches are mixed roughly evenly; when one kind is impossible
/// (empty set, or no room to nest) the other is used.
///
/// # Examples
///
/// ```
/// use cst_workloads::{random_changes, well_nested_set};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut set = well_nested_set(&mut rng, 64, 12);
/// let changes = random_changes(&mut rng, &set, 5);
/// let mut touched = Vec::new();
/// set.apply_changes(&changes, &mut touched).unwrap();
/// assert!(set.is_well_nested() && set.is_right_oriented());
/// ```
pub fn random_changes<R: Rng + ?Sized>(
    rng: &mut R,
    set: &CommSet,
    k: usize,
) -> Vec<PeChange> {
    let mut work = set.clone();
    let mut used = vec![false; work.num_leaves()];
    for c in work.comms() {
        used[c.source.0] = true;
        used[c.dest.0] = true;
    }
    let mut changes = Vec::with_capacity(k);
    let mut touched: Vec<LeafId> = Vec::new();
    for _ in 0..k {
        let want_attach = rng.gen_bool(0.5);
        let attach = if want_attach || work.is_empty() {
            random_attach(rng, &work, &used, 64)
        } else {
            None
        };
        let change = match attach {
            Some(c) => c,
            None if !work.is_empty() => {
                let i = rng.gen_range(0..work.len());
                PeChange::detach(work.comms()[i].source.0)
            }
            // Empty set and no room to attach: nothing left to mutate.
            None => break,
        };
        touched.clear();
        work.apply_changes(&[change], &mut touched)
            .expect("generated change is valid against the evolved set");
        for &leaf in &touched {
            used[leaf.0] = matches!(change, PeChange::Attach { .. });
        }
        changes.push(change);
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::well_nested_set;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_prefix_stays_routable() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..50 {
            let mut set = well_nested_set(&mut rng, 128, 20);
            let changes = random_changes(&mut rng, &set, 8);
            let mut touched = Vec::new();
            for (i, &c) in changes.iter().enumerate() {
                touched.clear();
                set.apply_changes(&[c], &mut touched)
                    .unwrap_or_else(|e| panic!("trial {trial} step {i}: {e}"));
                assert!(set.is_right_oriented(), "trial {trial} step {i}");
                assert!(set.is_well_nested(), "trial {trial} step {i}");
            }
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let s1 = well_nested_set(&mut r1, 64, 10);
        let s2 = well_nested_set(&mut r2, 64, 10);
        assert_eq!(random_changes(&mut r1, &s1, 6), random_changes(&mut r2, &s2, 6));
    }

    #[test]
    fn dense_set_falls_back_to_detach() {
        // 2m == n: no room for any attach; all changes must be detaches.
        let mut rng = StdRng::seed_from_u64(3);
        let set = well_nested_set(&mut rng, 32, 16);
        let changes = random_changes(&mut rng, &set, 4);
        assert!(!changes.is_empty());
        assert!(changes.iter().any(|c| matches!(c, PeChange::Detach { .. })));
    }

    #[test]
    fn empty_set_with_no_room_yields_nothing() {
        let mut rng = StdRng::seed_from_u64(1);
        let set = CommSet::empty(1); // a single leaf cannot host a pair
        assert!(random_changes(&mut rng, &set, 4).is_empty());
    }
}
