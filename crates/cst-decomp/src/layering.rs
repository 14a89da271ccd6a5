//! Layer assignment: coloring the conflict graph.

use crate::certificate::{certificate, Certificate};
use crate::graph::{ConflictGraph, DENSE_LIMIT};
use cst_comm::{CommSet, Communication};
use cst_core::GeneralCommSet;
use std::time::Instant;

/// Up to this many pairs, the crossing-clique certificate sweeps every
/// anchor; above it, only the widest intervals are tried (the bound
/// stays valid, just possibly looser).
pub const STRONG_BOUND_LIMIT: usize = 1024;

/// A general set split into routable well-nested layers, with the
/// lower-bound certificate that prices the split.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Leaves of the target topology (copied from the input set).
    pub num_leaves: usize,
    /// `layer_of[i]` = layer index of input pair `i`.
    pub layer_of: Vec<usize>,
    /// Input pair ids per layer, outermost-first within each layer.
    pub layers: Vec<Vec<usize>>,
    /// Each layer as a legal `CommSet` (right-oriented, well-nested,
    /// unique endpoints), comms in `layers[j]` order — `CommId(k)` of
    /// `layer_sets[j]` is input pair `layers[j][k]`.
    pub layer_sets: Vec<CommSet>,
    /// Verified clique lower bound on the achievable layer count.
    pub lower_bound: usize,
    /// The clique: pairwise-conflicting input pair ids,
    /// `len() == lower_bound`.
    pub witness: Vec<usize>,
    /// True exactly when the layer count meets `lower_bound`, so no
    /// layering can use fewer layers.
    pub proven_optimal: bool,
}

impl Decomposition {
    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

/// Wall-clock split of one [`decompose_timed`] call, in nanoseconds.
/// Every stage runs on every call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecompTimings {
    /// The lower-bound certificate ([`certificate()`]).
    pub certificate_ns: u64,
    /// Building the conflict bitset and the degrees.
    pub graph_ns: u64,
    /// First-fit in outermost-first and conflict-degree order.
    pub first_fit_ns: u64,
    /// Compacting layer ids and building the per-layer `CommSet`s.
    pub build_ns: u64,
}

impl DecompTimings {
    /// Each stage's name and time, in pipeline order.
    pub fn stages(&self) -> [(&'static str, u64); 4] {
        [
            ("certificate", self.certificate_ns),
            ("graph", self.graph_ns),
            ("first-fit", self.first_fit_ns),
            ("build", self.build_ns),
        ]
    }

    /// Sum of every stage.
    pub fn total_ns(&self) -> u64 {
        self.stages().iter().map(|&(_, ns)| ns).sum()
    }
}

impl std::ops::AddAssign for DecompTimings {
    fn add_assign(&mut self, other: Self) {
        self.certificate_ns += other.certificate_ns;
        self.graph_ns += other.graph_ns;
        self.first_fit_ns += other.first_fit_ns;
        self.build_ns += other.build_ns;
    }
}

/// `certificate 1003 us, graph 83 us, ..., total 1884 us`.
impl std::fmt::Display for DecompTimings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, ns) in self.stages() {
            write!(f, "{name} {} us, ", ns / 1000)?;
        }
        write!(f, "total {} us", self.total_ns() / 1000)
    }
}

/// Split `set` into well-nested layers. See the crate docs for the
/// algorithm; the result is deterministic for a given input.
pub fn decompose(set: &GeneralCommSet) -> Decomposition {
    decompose_timed(set).0
}

/// [`decompose`], also reporting where the time went.
pub fn decompose_timed(set: &GeneralCommSet) -> (Decomposition, DecompTimings) {
    decompose_with(set, DENSE_LIMIT)
}

fn decompose_with(set: &GeneralCommSet, dense_limit: usize) -> (Decomposition, DecompTimings) {
    let pairs = set.pairs();
    let m = pairs.len();
    let mut timings = DecompTimings::default();
    let mut clock = Instant::now();
    let mut lap = |stage: &mut u64| {
        let now = Instant::now();
        *stage = (now - clock).as_nanos() as u64;
        clock = now;
    };

    let cert = certificate(set);
    lap(&mut timings.certificate_ns);
    let mut graph = ConflictGraph::new(pairs, dense_limit);
    lap(&mut timings.graph_ns);

    // The two first-fit orders share one layer scratch; the fewer
    // layers win, ties going to outermost-first.
    let mut hoods = LayerNeighborhoods::default();
    let mut outermost: Vec<usize> = (0..m).collect();
    outermost.sort_unstable_by_key(|&i| (pairs[i].0 .0, usize::MAX - pairs[i].1 .0));
    let mut best = first_fit(&mut graph, &outermost, &mut hoods);
    let mut by_degree = outermost;
    by_degree.sort_by_key(|&i| usize::MAX - graph.degree()[i]); // stable: ties stay outermost-first
    let tried = first_fit(&mut graph, &by_degree, &mut hoods);
    if count_layers(&tried) < count_layers(&best) {
        best = tried;
    }
    lap(&mut timings.first_fit_ns);

    let decomposition = build(set, best, cert);
    lap(&mut timings.build_ns);
    (decomposition, timings)
}

fn count_layers(layer_of: &[usize]) -> usize {
    layer_of.iter().map(|&l| l + 1).max().unwrap_or(0)
}

/// One bitset per open layer: the union of its members' conflict rows,
/// that is, every vertex that conflicts with some member. Conflicts are
/// symmetric, so vertex `i` fits layer `l` iff bit `i` of layer `l`'s
/// set is clear — one bit test per layer — and placing a vertex ORs its
/// row into its layer's set a word at a time.
#[derive(Default)]
struct LayerNeighborhoods {
    words: usize,
    bits: Vec<u64>,
}

impl LayerNeighborhoods {
    /// Drop every layer; rows now have `words` words.
    fn reset(&mut self, words: usize) {
        self.words = words;
        self.bits.clear();
    }

    fn count(&self) -> usize {
        self.bits.len().checked_div(self.words).unwrap_or(0)
    }

    /// The lowest layer vertex `i` fits, opening an empty one if none.
    fn fit(&mut self, i: usize) -> usize {
        let bit = 1u64 << (i % 64);
        let words = self.words;
        let found = self.bits.chunks_exact(words).position(|set| set[i / 64] & bit == 0);
        found.unwrap_or_else(|| {
            self.bits.resize(self.bits.len() + words, 0);
            self.count() - 1
        })
    }

    /// Record a member with conflict row `row` in layer `l`.
    fn add(&mut self, l: usize, row: &[u64]) {
        let set = &mut self.bits[l * self.words..(l + 1) * self.words];
        set.iter_mut().zip(row).for_each(|(s, r)| *s |= r);
    }
}

/// First-fit coloring in the given placement order: each vertex joins
/// the lowest layer it does not conflict with.
fn first_fit(
    graph: &mut ConflictGraph,
    order: &[usize],
    hoods: &mut LayerNeighborhoods,
) -> Vec<usize> {
    hoods.reset(graph.words());
    let mut layer_of = vec![usize::MAX; graph.len()];
    for &i in order {
        let layer = hoods.fit(i);
        hoods.add(layer, graph.row(i));
        layer_of[i] = layer;
    }
    layer_of
}

/// Assemble the result: compact layer ids into first-use order, sort each
/// layer outermost-first, and build the routable per-layer sets.
fn build(set: &GeneralCommSet, raw_layer_of: Vec<usize>, cert: Certificate) -> Decomposition {
    let pairs = set.pairs();
    let n = count_layers(&raw_layer_of);
    let mut remap = vec![usize::MAX; n];
    let mut layer_of = vec![usize::MAX; pairs.len()];
    let mut layers: Vec<Vec<usize>> = Vec::new();
    for (i, &raw) in raw_layer_of.iter().enumerate() {
        if remap[raw] == usize::MAX {
            remap[raw] = layers.len();
            layers.push(Vec::new());
        }
        layer_of[i] = remap[raw];
        layers[remap[raw]].push(i);
    }
    let layer_sets: Vec<CommSet> = layers
        .iter_mut()
        .map(|ids| {
            ids.sort_unstable_by_key(|&i| (pairs[i].0 .0, usize::MAX - pairs[i].1 .0));
            let comms: Vec<Communication> =
                ids.iter().map(|&i| Communication { source: pairs[i].0, dest: pairs[i].1 }).collect();
            CommSet::new(set.num_leaves(), comms)
                .expect("a conflict-free layer is a legal CommSet")
        })
        .collect();
    Decomposition {
        num_leaves: set.num_leaves(),
        proven_optimal: layers.len() == cert.lower_bound,
        layer_of,
        layers,
        layer_sets,
        lower_bound: cert.lower_bound,
        witness: cert.witness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_valid(set: &GeneralCommSet, d: &Decomposition) {
        assert_eq!(d.layer_of.len(), set.len());
        assert_eq!(d.layers.len(), d.layer_sets.len());
        let mut seen = vec![false; set.len()];
        for (li, ids) in d.layers.iter().enumerate() {
            for (k, &i) in ids.iter().enumerate() {
                assert_eq!(d.layer_of[i], li);
                assert!(!seen[i], "pair {i} in two layers");
                seen[i] = true;
                let c = d.layer_sets[li].comms()[k];
                assert_eq!((c.source, c.dest), set.pairs()[i]);
            }
            assert!(d.layer_sets[li].is_well_nested());
            assert!(d.layer_sets[li].is_right_oriented());
        }
        assert!(seen.iter().all(|&s| s), "every pair must land in a layer");
        if !set.is_empty() {
            assert!(d.lower_bound >= 1 && d.lower_bound <= d.num_layers());
        }
        assert_eq!(d.witness.len(), d.lower_bound);
        for (a, &i) in d.witness.iter().enumerate() {
            for &j in &d.witness[a + 1..] {
                assert!(set.conflicts(i, j));
            }
        }
    }

    #[test]
    fn well_nested_input_is_one_layer() {
        let set = GeneralCommSet::from_pairs(16, &[(0, 7), (1, 6), (2, 5), (8, 11)]);
        let d = decompose(&set);
        assert_eq!(d.num_layers(), 1);
        assert!(d.proven_optimal);
        check_valid(&set, &d);
    }

    #[test]
    fn shuffle_needs_one_layer_per_pair() {
        let n = 16;
        let pairs: Vec<(usize, usize)> = (0..n / 2).map(|i| (i, i + n / 2)).collect();
        let set = GeneralCommSet::from_pairs(n, &pairs);
        let d = decompose(&set);
        assert_eq!(d.num_layers(), n / 2);
        assert_eq!(d.lower_bound, n / 2);
        assert!(d.proven_optimal);
        check_valid(&set, &d);
    }

    #[test]
    fn hotspot_needs_one_layer_per_flow() {
        let set = GeneralCommSet::from_pairs(8, &[(4, 0), (4, 1), (4, 2), (4, 3)]);
        let d = decompose(&set);
        assert_eq!(d.num_layers(), 4);
        assert!(d.proven_optimal);
        check_valid(&set, &d);
    }

    #[test]
    fn endpoint_reuse_without_crossing_still_splits() {
        // (0,3) and (3,6) nest-compatible as intervals but share leaf 3.
        let set = GeneralCommSet::from_pairs(8, &[(0, 3), (3, 6)]);
        let d = decompose(&set);
        assert_eq!(d.num_layers(), 2);
        assert!(d.proven_optimal);
        check_valid(&set, &d);
    }

    #[test]
    fn empty_set_is_zero_layers() {
        let set = GeneralCommSet::empty(8);
        let d = decompose(&set);
        assert_eq!(d.num_layers(), 0);
        assert_eq!(d.lower_bound, 0);
        assert!(d.proven_optimal);
    }

    #[test]
    fn odd_cycle_needs_a_layer_above_its_clique_bound() {
        // A chordless 5-cycle in the conflict graph: (0,4) shares leaf 0
        // with (0,1) and leaf 4 with (3,4), and nests the two pairs in
        // between. It needs 3 layers, but its largest clique is an edge,
        // so the certificate proves only 2 and the verdict stays open.
        let set = GeneralCommSet::from_pairs(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let d = decompose(&set);
        assert_eq!(d.lower_bound, 2, "clique bound of C5 is 2");
        assert!(d.num_layers() >= 3, "C5 is 3-chromatic");
        assert!(!d.proven_optimal, "layers above the bound are not proven minimal");
        check_valid(&set, &d);
    }

    #[test]
    fn on_demand_rows_decompose_identically() {
        // Past the dense limit the graph keeps one row and recomputes it;
        // the layering, certificate and verdict must not notice.
        let mut raw: Vec<(usize, usize)> = (0..40).map(|i| (i, (i * 37 + 11) % 97 + 40)).collect();
        raw.extend([(3, 5), (3, 9), (20, 90)]);
        let set = GeneralCommSet::from_pairs(160, &raw);
        let (dense, _) = decompose_with(&set, DENSE_LIMIT);
        let (lazy, _) = decompose_with(&set, 0);
        assert_eq!(dense.layer_of, lazy.layer_of);
        assert_eq!(dense.witness, lazy.witness);
        assert_eq!(dense.proven_optimal, lazy.proven_optimal);
        check_valid(&set, &lazy);
    }

    #[test]
    fn timings_cover_exactly_the_stages_that_ran() {
        let pairs: Vec<(usize, usize)> = (0..32).map(|i| (i, (i * 13 + 7) % 32 + 32)).collect();
        let set = GeneralCommSet::from_pairs(64, &pairs);
        let (_, timings) = decompose_timed(&set);
        let stages = timings.stages();
        let names: Vec<&str> = stages.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, ["certificate", "graph", "first-fit", "build"]);
        for (name, ns) in stages {
            assert!(ns > 0, "stage {name} runs on every call");
        }
        assert_eq!(timings.total_ns(), stages.iter().map(|&(_, ns)| ns).sum::<u64>());
    }

    #[test]
    fn deterministic_for_same_input() {
        let pairs: Vec<(usize, usize)> = vec![(0, 9), (3, 12), (6, 15), (1, 4), (2, 11), (5, 14)];
        let set = GeneralCommSet::from_pairs(16, &pairs);
        let a = decompose(&set);
        let b = decompose(&set);
        assert_eq!(a.layer_of, b.layer_of);
        assert_eq!(a.witness, b.witness);
    }
}
