//! The conflict graph as one adjacency bitset.
//!
//! Row `i` holds bit `j` iff pairs `i` and `j` conflict (share an
//! endpoint or cross). [`crate::decompose`] builds the graph once and
//! both first-fit passes read it, so the pairwise test runs once per
//! decomposition rather than once per pass, and placing a pair in a
//! layer ORs its row into the layer's bitset a word at a time.
//!
//! With `a < b` and `l < r`, pair `(l, r)` crosses `(a, b)` iff exactly
//! one of its endpoints lies strictly inside `(a, b)`, and
//! `[a < l < b] ^ [a < r < b] = open(b) ^ open(a + 1)` for
//! `open(x) = { j : l_j < x <= r_j }`, the pairs spanning the gap just
//! left of leaf `x`. So one sweep over the endpoints in leaf order builds
//! every row: it keeps `open` as a bitset (toggling bit `j` as each
//! endpoint of `j` is passed) and XORs it into row `i` just before
//! passing `b_i` and just after passing `a_i` — `O(m²/64)` word
//! operations for the whole graph. The identity says nothing about
//! pairs sharing an endpoint; those are the endpoints at one leaf, OR-ed
//! in once the sweep is done.
//!
//! Up to [`DENSE_LIMIT`] pairs every row is stored (`m²/8` bytes).
//! Above it only one row is kept, recomputed on each request by a
//! branch-free pairwise pass, so memory stays `O(m)` and the answers
//! are the same.

use cst_core::LeafId;

/// Largest pair count whose full adjacency matrix is stored: 8192 pairs
/// cost 8 MiB. Larger sets recompute each row on demand.
pub const DENSE_LIMIT: usize = 8192;

pub(crate) struct ConflictGraph {
    left: Vec<usize>,
    right: Vec<usize>,
    /// Words per row.
    words: usize,
    /// All rows back to back when dense; one scratch row otherwise.
    rows: Vec<u64>,
    dense: bool,
    degree: Vec<usize>,
}

impl ConflictGraph {
    /// Build the graph of `pairs`, storing every row iff there are at
    /// most `dense_limit` of them ([`DENSE_LIMIT`] in production).
    pub(crate) fn new(pairs: &[(LeafId, LeafId)], dense_limit: usize) -> Self {
        let m = pairs.len();
        let words = m.div_ceil(64);
        let dense = m <= dense_limit;
        let mut graph = ConflictGraph {
            left: pairs.iter().map(|p| p.0 .0).collect(),
            right: pairs.iter().map(|p| p.1 .0).collect(),
            words,
            rows: vec![0; if dense { m * words } else { words }],
            dense,
            degree: vec![0; m],
        };
        if dense {
            graph.sweep();
        }
        for i in 0..m {
            let degree = graph.row(i).iter().map(|w| w.count_ones() as usize).sum();
            graph.degree[i] = degree;
        }
        graph
    }

    /// Fill every stored row (see the module docs).
    fn sweep(&mut self) {
        let (m, words) = (self.len(), self.words);
        // Every endpoint as (leaf, pair, is_left), in leaf order.
        let mut ends: Vec<(usize, usize, bool)> = Vec::with_capacity(2 * m);
        for (j, (&l, &r)) in self.left.iter().zip(&self.right).enumerate() {
            ends.extend([(l, j, true), (r, j, false)]);
        }
        ends.sort_unstable();
        let mut open = vec![0u64; words];
        let xor_open = |rows: &mut [u64], i: usize, open: &[u64]| {
            let row = &mut rows[i * words..(i + 1) * words];
            row.iter_mut().zip(open).for_each(|(w, o)| *w ^= o);
        };
        for at_leaf in ends.chunk_by(|x, y| x.0 == y.0) {
            // `open` is open(v) for this leaf v: right endpoints read it.
            for &(_, i, is_left) in at_leaf {
                if !is_left {
                    xor_open(&mut self.rows, i, &open);
                }
            }
            for &(_, j, _) in at_leaf {
                open[j / 64] ^= 1 << (j % 64);
            }
            // Now open(v + 1): left endpoints read it.
            for &(_, i, is_left) in at_leaf {
                if is_left {
                    xor_open(&mut self.rows, i, &open);
                }
            }
        }
        // Pairs sharing a leaf conflict; set only once every XOR is in,
        // which would otherwise flip these bits. The diagonal goes last.
        for at_leaf in ends.chunk_by(|x, y| x.0 == y.0) {
            for &(_, i, _) in at_leaf {
                for &(_, j, _) in at_leaf {
                    self.rows[i * words + j / 64] |= 1 << (j % 64);
                }
            }
        }
        for i in 0..m {
            self.rows[i * words + i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Number of vertices (pairs).
    pub(crate) fn len(&self) -> usize {
        self.left.len()
    }

    /// `u64` words per row.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Conflict degree of every vertex.
    pub(crate) fn degree(&self) -> &[usize] {
        &self.degree
    }

    /// Row `i`: bit `j` set iff pairs `i` and `j` conflict.
    pub(crate) fn row(&mut self, i: usize) -> &[u64] {
        if self.dense {
            &self.rows[i * self.words..(i + 1) * self.words]
        } else {
            fill_row(&self.left, &self.right, i, &mut self.rows);
            &self.rows
        }
    }
}

/// Compute row `i` alone into `row`, pair by pair: with `a < b` and
/// `c < d`, the pairs conflict iff they share an endpoint or exactly one
/// of `c`, `d` lies strictly inside `(a, b)`; `x - (a + 1) < b - a - 1`
/// (wrapping) is the one-comparison form of `a < x < b`.
fn fill_row(left: &[usize], right: &[usize], i: usize, row: &mut [u64]) {
    let (a, b) = (left[i], right[i]);
    let inner = b - a - 1;
    for (w, word) in row.iter_mut().enumerate() {
        let lo = w * 64;
        let hi = (lo + 64).min(left.len());
        let mut acc = 0u64;
        for (k, (&c, &d)) in left[lo..hi].iter().zip(&right[lo..hi]).enumerate() {
            let shared = (a == c) | (a == d) | (b == c) | (b == d);
            let crossed = (c.wrapping_sub(a + 1) < inner) ^ (d.wrapping_sub(a + 1) < inner);
            acc |= u64::from(shared | crossed) << k;
        }
        *word = acc;
    }
    // A pair shares both endpoints with itself; it is not its own neighbor.
    row[i / 64] &= !(1u64 << (i % 64));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_core::{pairs_conflict, GeneralCommSet};

    fn sample_pairs() -> Vec<(LeafId, LeafId)> {
        // Every relation: shared endpoints, crossings both ways, nesting,
        // disjointness; more than 64 pairs so rows span two words.
        let mut raw = vec![(0, 3), (3, 6), (1, 5), (2, 4), (0, 7), (5, 9), (8, 9)];
        raw.extend((10..70).map(|i| (i, 200 - i)));
        raw.extend((70..80).map(|i| (i, i + 40)));
        GeneralCommSet::from_pairs(256, &raw).pairs().to_vec()
    }

    #[test]
    fn rows_and_degrees_match_the_pairwise_relation() {
        let pairs = sample_pairs();
        let mut graph = ConflictGraph::new(&pairs, DENSE_LIMIT);
        for i in 0..pairs.len() {
            let expected: Vec<usize> = (0..pairs.len())
                .filter(|&j| j != i && pairs_conflict(pairs[i], pairs[j]))
                .collect();
            let row = graph.row(i);
            let got: Vec<usize> =
                (0..pairs.len()).filter(|&j| row[j / 64] >> (j % 64) & 1 == 1).collect();
            assert_eq!(got, expected, "row {i}");
            assert_eq!(graph.degree()[i], expected.len(), "degree {i}");
        }
    }

    #[test]
    fn on_demand_rows_equal_stored_rows() {
        let pairs = sample_pairs();
        let mut dense = ConflictGraph::new(&pairs, DENSE_LIMIT);
        let mut lazy = ConflictGraph::new(&pairs, 0);
        assert_eq!(lazy.rows.len(), lazy.words(), "above the limit only one row is kept");
        assert_eq!(dense.degree(), lazy.degree());
        for i in 0..pairs.len() {
            assert_eq!(dense.row(i), lazy.row(i), "row {i}");
        }
    }
}
