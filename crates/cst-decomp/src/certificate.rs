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

/// Anchored LIS sweep over crossing cliques, pruned by a per-anchor
/// upper bound. The pairs are sorted by `(l, r)` once; an anchor's
/// candidates `C(f)` (`l_f < l < r_f < r`) are then the `r > r_f`
/// members of one contiguous `l`-range of that order, already in the
/// order the LIS walks them.
///
/// With `E(k)` / `D(k)` the longest strictly-increasing-`r` chain over
/// the whole order ending / starting at position `k`, `f` can prefix
/// and suffix any chain of its candidates, so a chain of length `L` in
/// `C(f)` gives `L ≤ max E(C(f)) − E(f)` and `L ≤ D(f) − min D(C(f))`
/// ([`anchor_bounds`]). Anchors are measured in decreasing bound order,
/// and the sweep stops once no unmeasured anchor can beat the best or
/// tie it from earlier in the anchor order: the witness is the chain of
/// the *first* anchor (in anchor order) that reaches the maximum, the
/// one a plain sweep with a strict `>` keeps.
fn crossing_clique(set: &GeneralCommSet) -> Certificate {
    let pairs = set.pairs();
    let m = pairs.len();
    if m == 0 {
        return Certificate::default();
    }
    let mut anchors: Vec<usize> = (0..m).collect();
    if m > STRONG_BOUND_LIMIT {
        anchors.sort_unstable_by_key(|&i| {
            let (l, r) = (pairs[i].0 .0, pairs[i].1 .0);
            (usize::MAX - (r - l), l)
        });
        anchors.truncate(CHEAP_BOUND_ANCHORS);
    }
    // `(l, r, id)` in `(l, r)` order (pairs are distinct, so it is total).
    let mut sorted: Vec<(u32, u32, u32)> =
        pairs.iter().enumerate().map(|(i, &(l, r))| (l.0 as u32, r.0 as u32, i as u32)).collect();
    sorted.sort_unstable();
    let rs: Vec<u32> = sorted.iter().map(|p| p.1).collect();
    let mut pos = vec![0; m];
    for (k, p) in sorted.iter().enumerate() {
        pos[p.2 as usize] = k;
    }
    let at: Vec<usize> = anchors.iter().map(|&f| pos[f]).collect();

    // Candidates of the pair at position k: positions `lo[k]..hi[k]`,
    // past its own `l` and before the first `l >= r_k`.
    let mut lo = vec![m; m];
    for k in (0..m.saturating_sub(1)).rev() {
        lo[k] = if sorted[k + 1].0 == sorted[k].0 { lo[k + 1] } else { k + 1 };
    }
    let mut by_right: Vec<(u32, usize)> =
        rs.iter().enumerate().map(|(k, &r)| (u32::MAX - r, k)).collect();
    by_right.sort_unstable();
    let mut hi = vec![0; m];
    let mut end = m;
    for &(_, k) in &by_right {
        while end > 0 && sorted[end - 1].0 >= rs[k] {
            end -= 1;
        }
        hi[k] = end;
    }

    let bound = anchor_bounds(&rs, &by_right, &at, &lo, &hi);
    // Measure in decreasing-bound order, earlier anchors first on ties.
    let mut order: Vec<usize> = (0..anchors.len()).collect();
    order.sort_unstable_by_key(|&a| (std::cmp::Reverse(bound[a]), a));
    let mut best = (0, usize::MAX); // (clique size, anchor index)
    let mut tails = Vec::new();
    for a in order {
        let need = if a < best.1 { best.0 } else { best.0 + 1 };
        if bound[a] < need {
            break;
        }
        let k = at[a];
        let size = 1 + chain_len(&rs[lo[k]..hi[k]], rs[k], &mut tails);
        if size >= need {
            best = (size, a);
        }
    }
    let k = at[best.1];
    anchored_chain(anchors[best.1], rs[k], &sorted[lo[k]..hi[k]])
}

/// Longest strictly-increasing subsequence of the entries of `rs` above
/// `above` — the `r > r_f` candidates.
fn chain_len(rs: &[u32], above: u32, tails: &mut Vec<u32>) -> u32 {
    tails.clear();
    for &r in rs.iter().filter(|&&r| r > above) {
        extend_chain(tails, r);
    }
    tails.len() as u32
}

/// One patience-sorting step: `tails[j]` is the smallest tail of a
/// strictly increasing chain of length `j + 1` seen so far. `r` replaces
/// the first tail at or above it, or extends the longest chain; returns
/// the length of the longest chain ending at `r`.
fn extend_chain(tails: &mut Vec<u32>, r: u32) -> u32 {
    let p = tails.partition_point(|&t| t < r);
    if p == tails.len() {
        tails.push(r);
    } else {
        tails[p] = r;
    }
    p as u32 + 1
}

/// Every anchor's clique-size upper bound `1 + min(max E(C(f)) − E(f),
/// D(f) − min D(C(f)))` (`1` without candidates), from one offline sweep
/// by decreasing `r` over a max-`E` / min-`D` segment tree indexed by
/// `(l, r)` position: an anchor is queried after exactly the pairs with
/// `r > r_f` were inserted, so its position range `lo..hi` holds `C(f)`.
/// `at[a]` is anchor `a`'s position.
fn anchor_bounds(
    rs: &[u32],
    by_right: &[(u32, usize)],
    at: &[usize],
    lo: &[usize],
    hi: &[usize],
) -> Vec<u32> {
    let m = rs.len();
    let (ends, starts) = chain_lengths(rs);
    let mut anchor_at = vec![usize::MAX; m];
    for (a, &k) in at.iter().enumerate() {
        anchor_at[k] = a;
    }
    let mut tree = MaxMinTree::new(m);
    let mut bound = vec![1; at.len()];
    let mut group = 0..0;
    while group.end < m {
        // Pairs sharing one r: query them all before inserting any.
        let r = by_right[group.end].0;
        group = group.end..group.end + by_right[group.end..].partition_point(|p| p.0 == r);
        for &(_, k) in &by_right[group.clone()] {
            let a = anchor_at[k];
            if a == usize::MAX {
                continue;
            }
            let (max_end, min_start) = tree.query(lo[k]..hi[k]);
            if max_end > 0 {
                bound[a] = 1 + (max_end - ends[k]).min(starts[k] - min_start);
            }
        }
        for &(_, k) in &by_right[group.clone()] {
            tree.set(k, ends[k], starts[k]);
        }
    }
    bound
}

/// `(E, D)`: per position, the longest strictly-increasing-`r` chain
/// ending there and starting there.
fn chain_lengths(rs: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut tails = Vec::new();
    let ends = rs.iter().map(|&r| extend_chain(&mut tails, r)).collect();
    // Backwards, a chain increasing in r is one increasing in !r.
    let mut starts = vec![0; rs.len()];
    tails.clear();
    for (k, &r) in rs.iter().enumerate().rev() {
        starts[k] = extend_chain(&mut tails, !r);
    }
    (ends, starts)
}

/// Point-set, range-query segment tree over `(max E, min D)`; empty
/// slots hold `(0, u32::MAX)`.
struct MaxMinTree {
    size: usize,
    node: Vec<(u32, u32)>,
}

impl MaxMinTree {
    fn new(m: usize) -> Self {
        let size = m.next_power_of_two();
        MaxMinTree { size, node: vec![(0, u32::MAX); 2 * size] }
    }

    fn set(&mut self, k: usize, max: u32, min: u32) {
        let mut i = k + self.size;
        self.node[i] = (max, min);
        while i > 1 {
            i /= 2;
            let (a, b) = (self.node[2 * i], self.node[2 * i + 1]);
            let up = (a.0.max(b.0), a.1.min(b.1));
            if self.node[i] == up {
                break; // every ancestor already covers it
            }
            self.node[i] = up;
        }
    }

    fn query(&self, range: std::ops::Range<usize>) -> (u32, u32) {
        let (mut max, mut min) = (0, u32::MAX);
        let (mut lo, mut hi) = (range.start + self.size, range.end + self.size);
        while lo < hi {
            if lo & 1 == 1 {
                max = max.max(self.node[lo].0);
                min = min.min(self.node[lo].1);
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                max = max.max(self.node[hi].0);
                min = min.min(self.node[hi].1);
            }
            lo /= 2;
            hi /= 2;
        }
        (max, min)
    }
}

/// The same patience sort over one anchor's range, keeping parent links
/// to recover the chain: `range` holds the candidates' `(l, r, id)`.
fn anchored_chain(f: usize, rf: u32, range: &[(u32, u32, u32)]) -> Certificate {
    let mut tails: Vec<(u32, usize)> = Vec::new(); // (r, k) of the chain tail per length
    let mut parent = vec![usize::MAX; range.len()];
    for (k, &(_, r, _)) in range.iter().enumerate().filter(|&(_, p)| rf < p.1) {
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
        witness.push(range[at].2 as usize);
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
