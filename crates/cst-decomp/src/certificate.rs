//! Lower-bound certificates for the layer count.
//!
//! A clique of the conflict graph (pairs that pairwise cross or share an
//! endpoint) forces one layer per member, so any clique size is a valid
//! lower bound on the decomposition. Two clique families cover the
//! structures real traffic produces:
//!
//! * **endpoint cliques** — all pairs touching one leaf (hotspots);
//! * **crossing cliques** — mutually crossing "rainbows" (permutation
//!   traffic). For an anchor pair `f = (l_f, r_f)`, every candidate with
//!   `l_f < l < r_f < r` crosses `f` *and* crosses every other candidate
//!   whose `(l, r)` both increase — so the largest crossing clique with
//!   `f` leftmost is `1 +` the longest strictly-increasing-`r` chain over
//!   candidates sorted by `l` (ties in `l` are endpoint-sharing, which
//!   also conflicts, so the chain stays a clique).
//!
//! The result carries a **witness**: the member ids of the best clique
//! found. `cst-check`'s `CST303` pass re-verifies the witness pairwise,
//! so a decomposition can't claim a bound the artifact doesn't exhibit.

use crate::layering::STRONG_BOUND_LIMIT;
use cst_core::GeneralCommSet;

/// How many anchors the crossing-clique sweep tries above
/// [`STRONG_BOUND_LIMIT`] (the widest intervals enclose the most
/// candidates, so they are the most promising anchors).
const CHEAP_BOUND_ANCHORS: usize = 48;

/// A verifiable lower bound: `witness` is a set of pairwise-conflicting
/// pair ids and `lower_bound == witness.len()`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Certificate {
    pub lower_bound: usize,
    pub witness: Vec<usize>,
}

/// Compute the best clique bound over both families.
pub fn certificate(set: &GeneralCommSet) -> Certificate {
    let mut best = endpoint_clique(set);
    let crossing = crossing_clique(set);
    if crossing.lower_bound > best.lower_bound {
        best = crossing;
    }
    best
}

/// The leaf used by the most pairs; all of them mutually conflict.
fn endpoint_clique(set: &GeneralCommSet) -> Certificate {
    let mut count = vec![0usize; set.num_leaves()];
    for &(s, d) in set.pairs() {
        count[s.0] += 1;
        count[d.0] += 1;
    }
    let Some((leaf, &mult)) = count.iter().enumerate().max_by_key(|&(_, c)| *c) else {
        return Certificate::default();
    };
    if mult == 0 {
        return Certificate::default();
    }
    let witness: Vec<usize> = set
        .pairs()
        .iter()
        .enumerate()
        .filter(|&(_, &(s, d))| s.0 == leaf || d.0 == leaf)
        .map(|(i, _)| i)
        .collect();
    Certificate { lower_bound: witness.len(), witness }
}

/// Anchored LIS sweep over crossing cliques. The pairs are sorted by
/// `(l, r)` once; an anchor's candidates (`l_f < l < r_f < r`) are then
/// the `r > r_f` members of one contiguous `l`-range of that order,
/// already in the order the LIS walks them. Each anchor first measures
/// its chain length alone; only an anchor that beats the best so far
/// walks the range again to recover the chain.
fn crossing_clique(set: &GeneralCommSet) -> Certificate {
    let pairs = set.pairs();
    let m = pairs.len();
    let mut anchors: Vec<usize> = (0..m).collect();
    if m > STRONG_BOUND_LIMIT {
        anchors.sort_unstable_by_key(|&i| {
            let (l, r) = (pairs[i].0 .0, pairs[i].1 .0);
            (usize::MAX - (r - l), l)
        });
        anchors.truncate(CHEAP_BOUND_ANCHORS);
    }
    // Pairs are distinct, so `(l, r)` orders them totally.
    let mut by_left: Vec<usize> = (0..m).collect();
    by_left.sort_unstable_by_key(|&i| (pairs[i].0 .0, pairs[i].1 .0));
    let ls: Vec<usize> = by_left.iter().map(|&i| pairs[i].0 .0).collect();
    let rs: Vec<usize> = by_left.iter().map(|&i| pairs[i].1 .0).collect();

    let mut best = Certificate::default();
    let mut tails: Vec<usize> = Vec::new(); // r of the chain tail per length
    for &f in &anchors {
        let (lf, rf) = (pairs[f].0 .0, pairs[f].1 .0);
        let range = ls.partition_point(|&l| l <= lf)..ls.partition_point(|&l| l < rf);
        // Longest strictly-increasing subsequence in r (patience sorting).
        tails.clear();
        for &r in rs[range.clone()].iter().filter(|&&r| rf < r) {
            // First tail whose r >= this r gets replaced.
            let pos = tails.partition_point(|&t| t < r);
            if pos == tails.len() {
                tails.push(r);
            } else {
                tails[pos] = r;
            }
        }
        if 1 + tails.len() > best.lower_bound {
            best = anchored_chain(f, rf, &by_left[range.clone()], &rs[range]);
        }
    }
    best
}

/// The same patience sort over one anchor's range, keeping parent links
/// to recover the chain: `ids[k]` is the pair with right endpoint `rs[k]`.
fn anchored_chain(f: usize, rf: usize, ids: &[usize], rs: &[usize]) -> Certificate {
    let mut tails: Vec<(usize, usize)> = Vec::new(); // (r, k) of the chain tail per length
    let mut parent = vec![usize::MAX; rs.len()];
    for (k, &r) in rs.iter().enumerate().filter(|&(_, &r)| rf < r) {
        let pos = tails.partition_point(|&(t, _)| t < r);
        parent[k] = if pos > 0 { tails[pos - 1].1 } else { usize::MAX };
        if pos == tails.len() {
            tails.push((r, k));
        } else {
            tails[pos] = (r, k);
        }
    }
    let mut witness = vec![f];
    let mut at = tails.last().map_or(usize::MAX, |&(_, k)| k);
    while at != usize::MAX {
        witness.push(ids[at]);
        at = parent[at];
    }
    witness[1..].reverse();
    Certificate { lower_bound: witness.len(), witness }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_witness_is_clique(set: &GeneralCommSet, cert: &Certificate) {
        assert_eq!(cert.lower_bound, cert.witness.len());
        for (a, &i) in cert.witness.iter().enumerate() {
            for &j in &cert.witness[a + 1..] {
                assert!(set.conflicts(i, j), "witness pairs #{i} and #{j} do not conflict");
            }
        }
    }

    #[test]
    fn hotspot_bound_is_endpoint_multiplicity() {
        let set = GeneralCommSet::from_pairs(8, &[(0, 1), (0, 2), (0, 3), (5, 6)]);
        let cert = certificate(&set);
        assert_eq!(cert.lower_bound, 3);
        assert_witness_is_clique(&set, &cert);
    }

    #[test]
    fn shuffle_bound_is_the_full_rainbow() {
        // (i, i + n/2): all pairs mutually cross.
        let n = 16;
        let pairs: Vec<(usize, usize)> = (0..n / 2).map(|i| (i, i + n / 2)).collect();
        let set = GeneralCommSet::from_pairs(n, &pairs);
        let cert = certificate(&set);
        assert_eq!(cert.lower_bound, n / 2);
        assert_witness_is_clique(&set, &cert);
    }

    #[test]
    fn nested_set_bound_is_one() {
        let set = GeneralCommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)]);
        let cert = certificate(&set);
        assert_eq!(cert.lower_bound, 1);
        assert_witness_is_clique(&set, &cert);
    }

    #[test]
    fn empty_set_bound_is_zero() {
        let set = GeneralCommSet::empty(8);
        assert_eq!(certificate(&set), Certificate::default());
    }

    #[test]
    fn chain_with_shared_left_endpoints_still_verifies() {
        // Anchor (0,5); candidates (1,6) and (1,7) share l — endpoint
        // conflict keeps the chain a clique.
        let set = GeneralCommSet::from_pairs(16, &[(0, 5), (1, 6), (1, 7)]);
        let cert = certificate(&set);
        assert_eq!(cert.lower_bound, 3);
        assert_witness_is_clique(&set, &cert);
    }
}
