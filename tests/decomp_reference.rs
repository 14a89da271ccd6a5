//! Byte-identity gate for the layering pass: `cst_decomp::decompose`
//! colors on one conflict bitset with word-parallel first-fit and
//! level-bucketed DSATUR, and sweeps the crossing certificate over one
//! presorted order. This file keeps the straightforward pairwise
//! formulation of the same algorithm — every conflict test a call to
//! `pairs_conflict`, every first-fit probe a scan of the layer's
//! members, DSATUR a linear arg-max, one candidate scan and sort per
//! certificate anchor — and requires both to return the same layer of
//! every pair, the same witness and the same optimality verdict on
//! every workload family, across each size regime of the algorithm:
//! exact search (`m <= 16`), 64 iterated-greedy rounds (`m <= 256`),
//! 16 rounds, the widest-anchor certificate (`m > 1024`) and
//! first-fit only (`m > 2048`).

use cst::core::{pairs_conflict, GeneralCommSet, LeafId};
use cst::decomp::{
    certificate, decompose, Certificate, DSATUR_LIMIT, EXACT_LIMIT, STRONG_BOUND_LIMIT,
};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

type Pairs = [(LeafId, LeafId)];

fn count_layers(layer_of: &[usize]) -> usize {
    layer_of.iter().map(|&l| l + 1).max().unwrap_or(0)
}

/// Reference layering: returns `(layer_of, lower_bound, witness,
/// proven_optimal)` with layer ids compacted into first-use order, as
/// `Decomposition` reports them.
fn reference_decompose(set: &GeneralCommSet) -> (Vec<usize>, usize, Vec<usize>, bool) {
    let pairs = set.pairs();
    let m = pairs.len();
    let cert = reference_certificate(set);

    let mut outermost: Vec<usize> = (0..m).collect();
    outermost.sort_unstable_by_key(|&i| (pairs[i].0 .0, usize::MAX - pairs[i].1 .0));
    let mut best = first_fit(pairs, &outermost);
    let degree: Vec<usize> = (0..m)
        .map(|i| (0..m).filter(|&j| j != i && pairs_conflict(pairs[i], pairs[j])).count())
        .collect();
    let mut by_degree = outermost;
    by_degree.sort_by_key(|&i| usize::MAX - degree[i]);
    let tried = first_fit(pairs, &by_degree);
    if count_layers(&tried) < count_layers(&best) {
        best = tried;
    }
    if m <= DSATUR_LIMIT {
        let tried = dsatur(pairs, &degree);
        if count_layers(&tried) < count_layers(&best) {
            best = tried;
        }
        best = iterated_greedy(pairs, best, cert.lower_bound);
    }
    let mut proven = count_layers(&best) == cert.lower_bound;
    if !proven && m <= EXACT_LIMIT {
        best = exact_refine(pairs, &degree, cert.lower_bound, best);
        proven = true;
    }

    let mut remap = vec![usize::MAX; count_layers(&best)];
    let mut next = 0;
    let layer_of = best
        .iter()
        .map(|&raw| {
            if remap[raw] == usize::MAX {
                remap[raw] = next;
                next += 1;
            }
            remap[raw]
        })
        .collect();
    (layer_of, cert.lower_bound, cert.witness, proven)
}

fn first_fit(pairs: &Pairs, order: &[usize]) -> Vec<usize> {
    let mut layer_of = vec![usize::MAX; pairs.len()];
    let mut layers: Vec<Vec<usize>> = Vec::new();
    for &i in order {
        let found = layers
            .iter()
            .position(|members| members.iter().all(|&j| !pairs_conflict(pairs[i], pairs[j])));
        let layer = found.unwrap_or_else(|| {
            layers.push(Vec::new());
            layers.len() - 1
        });
        layers[layer].push(i);
        layer_of[i] = layer;
    }
    layer_of
}

fn iterated_greedy(pairs: &Pairs, mut best: Vec<usize>, lower_bound: usize) -> Vec<usize> {
    let rounds = if pairs.len() <= 256 { 64 } else { 16 };
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for round in 0..rounds {
        let k = count_layers(&best);
        if k <= lower_bound.max(1) {
            break;
        }
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &l) in best.iter().enumerate() {
            groups[l].push(i);
        }
        match round % 3 {
            0 => groups.reverse(),
            1 => groups.sort_by_key(|g| usize::MAX - g.len()),
            _ => {
                for i in (1..groups.len()).rev() {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let j = (state % (i as u64 + 1)) as usize;
                    groups.swap(i, j);
                }
            }
        }
        let order: Vec<usize> = groups.into_iter().flatten().collect();
        let tried = first_fit(pairs, &order);
        if count_layers(&tried) <= count_layers(&best) {
            best = tried;
        }
    }
    best
}

fn dsatur(pairs: &Pairs, degree: &[usize]) -> Vec<usize> {
    let m = pairs.len();
    let mut layer_of = vec![usize::MAX; m];
    let mut neighbor_colors: Vec<Vec<usize>> = vec![Vec::new(); m];
    for _ in 0..m {
        let v = (0..m)
            .filter(|&v| layer_of[v] == usize::MAX)
            .max_by_key(|&v| (neighbor_colors[v].len(), degree[v], m - v))
            .expect("an uncolored vertex remains");
        let color = (0..).find(|c| !neighbor_colors[v].contains(c)).expect("unbounded range");
        layer_of[v] = color;
        for u in 0..m {
            if layer_of[u] == usize::MAX
                && pairs_conflict(pairs[v], pairs[u])
                && !neighbor_colors[u].contains(&color)
            {
                neighbor_colors[u].push(color);
            }
        }
    }
    layer_of
}

/// Iterative deepening from the bound up to one below the incumbent.
fn exact_refine(
    pairs: &Pairs,
    degree: &[usize],
    lower_bound: usize,
    incumbent: Vec<usize>,
) -> Vec<usize> {
    fn try_color(
        pairs: &Pairs,
        order: &[usize],
        depth: usize,
        k: usize,
        colors: &mut [usize],
    ) -> bool {
        let Some(&v) = order.get(depth) else {
            return true;
        };
        let used = order[..depth].iter().map(|&u| colors[u] + 1).max().unwrap_or(0);
        for c in 0..k.min(used + 1) {
            if order[..depth].iter().all(|&u| colors[u] != c || !pairs_conflict(pairs[v], pairs[u]))
            {
                colors[v] = c;
                if try_color(pairs, order, depth + 1, k, colors) {
                    return true;
                }
                colors[v] = usize::MAX;
            }
        }
        false
    }
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_unstable_by_key(|&i| (usize::MAX - degree[i], i));
    for k in lower_bound.max(1)..count_layers(&incumbent) {
        let mut colors = vec![usize::MAX; pairs.len()];
        if try_color(pairs, &order, 0, k, &mut colors) {
            return colors;
        }
    }
    incumbent
}

fn reference_certificate(set: &GeneralCommSet) -> Certificate {
    let pairs = set.pairs();
    let mut count = vec![0usize; set.num_leaves()];
    for &(s, d) in pairs {
        count[s.0] += 1;
        count[d.0] += 1;
    }
    let mut best = Certificate::default();
    if let Some((leaf, &mult)) = count.iter().enumerate().max_by_key(|&(_, c)| *c) {
        if mult > 0 {
            let witness: Vec<usize> = (0..pairs.len())
                .filter(|&i| pairs[i].0 .0 == leaf || pairs[i].1 .0 == leaf)
                .collect();
            best = Certificate { lower_bound: witness.len(), witness };
        }
    }

    let mut anchors: Vec<usize> = (0..pairs.len()).collect();
    if pairs.len() > STRONG_BOUND_LIMIT {
        anchors.sort_unstable_by_key(|&i| {
            let (l, r) = (pairs[i].0 .0, pairs[i].1 .0);
            (usize::MAX - (r - l), l)
        });
        anchors.truncate(48);
    }
    let mut crossing = Certificate::default();
    for &f in &anchors {
        let (lf, rf) = (pairs[f].0 .0, pairs[f].1 .0);
        let mut cands: Vec<(usize, usize, usize)> = (0..pairs.len())
            .map(|i| (pairs[i].0 .0, pairs[i].1 .0, i))
            .filter(|&(l, r, _)| lf < l && l < rf && rf < r)
            .collect();
        if cands.len() < crossing.lower_bound {
            continue;
        }
        cands.sort_unstable();
        // Longest strictly-increasing run of r, by patience sorting.
        let mut tails: Vec<usize> = Vec::new();
        let mut parent = vec![usize::MAX; cands.len()];
        for (ci, &(_, r, _)) in cands.iter().enumerate() {
            let pos = tails.partition_point(|&t| cands[t].1 < r);
            parent[ci] = if pos > 0 { tails[pos - 1] } else { usize::MAX };
            if pos == tails.len() {
                tails.push(ci);
            } else {
                tails[pos] = ci;
            }
        }
        if 1 + tails.len() > crossing.lower_bound {
            let mut chain = Vec::new();
            let mut at = tails.last().copied().unwrap_or(usize::MAX);
            while at != usize::MAX {
                chain.push(cands[at].2);
                at = parent[at];
            }
            chain.push(f);
            chain.reverse();
            crossing = Certificate { lower_bound: chain.len(), witness: chain };
        }
    }
    if crossing.lower_bound > best.lower_bound {
        best = crossing;
    }
    best
}

fn random_general(rng: &mut StdRng, n: usize, m: usize) -> GeneralCommSet {
    let mut set = GeneralCommSet::empty(n);
    while set.len() < m {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            let _ = set.push(a, b);
        }
    }
    set
}

/// Decompose `set` both ways and demand identical results.
fn assert_identical(label: &str, set: &GeneralCommSet) {
    let d = decompose(set);
    let (layer_of, lower_bound, witness, proven) = reference_decompose(set);
    assert_eq!(d.layer_of, layer_of, "{label}: layer of every pair");
    assert_eq!(d.lower_bound, lower_bound, "{label}: lower bound");
    assert_eq!(d.witness, witness, "{label}: certificate witness");
    assert_eq!(d.proven_optimal, proven, "{label}: optimality verdict");
    assert_eq!(certificate(set).witness, witness, "{label}: standalone certificate");
}

#[test]
fn layering_matches_the_pairwise_reference_at_every_size_regime() {
    let mut rng = StdRng::seed_from_u64(0xB175E7);
    for n in [8usize, 16, 32, 64, 128, 256, 512, 1024] {
        for rep in 0..3 {
            let label = |family: &str| format!("{family} n={n} rep={rep}");
            let matching = cst::workloads::arbitrary_permutation(&mut rng, n);
            assert_identical(&label("matching"), &matching);
            let spokes = rng.gen_range(1..n.min(40));
            assert_identical(&label("hotspot"), &cst::workloads::hotspot(&mut rng, n, spokes));
            let m = rng.gen_range(1..=(n / 2).min(300));
            let bipartite = cst::workloads::random_bipartite(&mut rng, n, m);
            assert_identical(&label("bipartite"), &bipartite);
            let m = rng.gen_range(1..=n.min(300));
            assert_identical(&label("random"), &random_general(&mut rng, n, m));
        }
    }
}

#[test]
fn layering_matches_the_pairwise_reference_at_small_sizes() {
    // The exact-search regime, where the greedy stages hand over to the
    // branch-and-bound refinement.
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(4..=16);
        let m = rng.gen_range(1..=EXACT_LIMIT.min(n * (n - 1) / 2));
        assert_identical(&format!("seed {seed}"), &random_general(&mut rng, n, m));
    }
}

#[test]
fn layering_matches_the_pairwise_reference_above_the_search_limits() {
    // m in (STRONG_BOUND_LIMIT, DSATUR_LIMIT]: widest-anchor certificate
    // with DSATUR; m > DSATUR_LIMIT: first-fit orders only.
    let mut rng = StdRng::seed_from_u64(0x2049);
    let mid = random_general(&mut rng, 4096, STRONG_BOUND_LIMIT + 76);
    assert_identical("random m=1100", &mid);
    let large = cst::workloads::arbitrary_permutation(&mut rng, 2 * (DSATUR_LIMIT + 52));
    assert_identical("matching m=2100", &large);
}
