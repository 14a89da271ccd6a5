//! Packing the composite to the congestion bound.
//!
//! Concatenating the layers costs `Σ w_j` rounds (Theorem 5 per layer),
//! but no schedule on the CST can beat the *congestion bound* of the
//! whole set: the largest number of pairs sharing one directed link or
//! one PE, since each directed link carries one circuit per round and
//! each PE plays one role per round. [`Packer::pack`] re-times the
//! concatenation toward that bound: every communication, visited in
//! composite order (layer, then the layer's round, then position in the
//! round), moves into the earliest round where its directed links and
//! its two PEs are still free.
//!
//! Packing never adds rounds: by induction over composite order, a
//! communication from concatenated round `R` only ever meets earlier
//! communications placed at or before their own rounds, so round `R`
//! holds at most members of its own (legal) original round and always
//! fits it. A packed round's switch settings are rebuilt as the union of
//! its members' circuits — exactly what every registry router emits per
//! round — so the packed composite stays a legal schedule.
//!
//! Occupancy is kept per *row*: one row per directed link above an
//! internal switch, plus one row per PE (a PE's row subsumes its leaf
//! link in both directions). Rows carrying at least
//! `max(DENSE_MIN_LOAD, words / 4)` pairs, where `words` is the
//! composite length in 64-round words, hold a dense round bitset and
//! count their leading full words; every other row holds a slot list
//! sized from its load (CSR layout). A dense row takes about eight times
//! the bytes of the slot list it replaces at most, so memory is O(Σ path
//! lengths), not O(rows × rounds): about 0.3 MiB at n = 4096, where a
//! dense matrix would take 2 MiB. A probe ORs the slot lists' rounds
//! into one mask, then scans it together with the dense rows' words,
//! from the first word none of them has filled, for the first zero bit.
//!
//! Assembly counting-sorts the members by packed round and rewrites each
//! round's table from its members' circuits with a reused
//! [`CircuitTable`], which emits switches in heap order without sorting
//! them.

use cst_comm::{CommId, Schedule, SchedulePool};
use cst_core::{CircuitTable, CstTopology, LeafId};

/// Fewest pairs a row needs for a dense bitset, or a quarter of the
/// composite's word count when that is more, so a dense row takes about
/// eight times the bytes its slot list would at most. (A one-pair row
/// never constrains its pair; its empty slot list costs nothing.)
const DENSE_MIN_LOAD: usize = 2;

/// Marks a dense row's `base` (its offset into the dense words).
const DENSE: u32 = 1 << 31;

/// One occupancy row: where its rounds live, and how many claims its
/// slot list holds (slot-list row) or how many leading words are full
/// (dense row).
#[derive(Clone, Copy, Debug, Default)]
struct Row {
    base: u32,
    fill: u32,
}

/// Reusable scratch for [`Packer::pack`]; warm, a pack allocates
/// nothing.
#[derive(Debug, Default)]
pub struct Packer {
    rows: Vec<Row>,
    dense: Vec<u64>,
    slots: Vec<u32>,
    /// Per heap node, the subtree sums behind the upward and downward
    /// link loads.
    up: Vec<i32>,
    down: Vec<i32>,
    /// Probe scratch: the OR of a pair's slot-list rounds.
    mask: Vec<u64>,
    /// Packed round of each composite position, in composite order.
    placed: Vec<u32>,
    /// Input pair ids bucketed by packed round.
    members: Vec<u32>,
    round_end: Vec<u32>,
    /// Writes each packed round's switch table.
    table: CircuitTable,
    bound: usize,
}

impl Packer {
    /// An empty packer; buffers are sized by the first pack.
    pub fn new() -> Self {
        Packer::default()
    }

    /// The congestion bound of the set last passed to [`Packer::pack`]:
    /// max(max directed-link load, max PE degree). No schedule of that set
    /// has fewer rounds.
    pub fn rounds_lower_bound(&self) -> usize {
        self.bound
    }

    /// Re-time `composite` in place: the concatenation of the layers'
    /// schedules (layer `j` owning the `layer_rounds[j]` rounds after the
    /// ones before it), whose `CommId`s index `pairs`. Each pair is
    /// directed `(source, dest)`: its loads, rows and switch settings
    /// follow its own direction, so a layer may be left-oriented.
    ///
    /// Fills `layer_round[i]` with pair `i`'s round inside its own
    /// layer's schedule (provenance for per-layer audits; see
    /// [`crate::layer_schedule`]). Returns whether the composite was
    /// re-timed: it is left untouched when packing would not shorten it,
    /// in particular when it already meets the bound, as a single
    /// well-nested CSA layer always does. Packed round `p` reuses the
    /// composite's own shell `p`, so a warm context keeps every shell in
    /// its role; surplus shells go back to `pool`.
    pub fn pack(
        &mut self,
        topo: &CstTopology,
        pairs: &[(LeafId, LeafId)],
        composite: &mut Schedule,
        layer_rounds: &[usize],
        layer_round: &mut Vec<u32>,
        pool: &mut SchedulePool,
    ) -> bool {
        let n = topo.num_leaves();
        debug_assert_eq!(layer_rounds.iter().sum::<usize>(), composite.num_rounds());

        layer_round.clear();
        layer_round.resize(pairs.len(), 0);
        let mut offset = 0;
        for &band in layer_rounds {
            for (r, round) in composite.rounds[offset..offset + band].iter().enumerate() {
                for &CommId(i) in &round.comms {
                    layer_round[i] = r as u32;
                }
            }
            offset += band;
        }

        // Loads by subtree sums: the link above switch `x` carries the
        // pairs with an endpoint below `x` and their apex above it, so
        // its load is Σ over the subtree of endpoints minus apexes.
        let Packer { up, down, .. } = self;
        for sums in [&mut *up, &mut *down] {
            sums.clear();
            sums.resize(2 * n, 0);
        }
        for &(s, d) in pairs {
            let (sn, dn) = (n + s.0, n + d.0);
            let apex = sn >> (usize::BITS - (sn ^ dn).leading_zeros());
            up[sn] += 1;
            down[dn] += 1;
            up[apex] -= 1;
            down[apex] -= 1;
        }
        for v in (1..n).rev() {
            up[v] += up[2 * v] + up[2 * v + 1];
            down[v] += down[2 * v] + down[2 * v + 1];
        }
        let pe_degree = (n..2 * n).map(|leaf| up[leaf] + down[leaf]);
        let link_load = up[2..n].iter().chain(&down[2..n]).copied();
        self.bound = pe_degree.chain(link_load).max().unwrap_or(0) as usize;
        let total = composite.num_rounds();
        if total <= self.bound {
            return false;
        }

        self.layout(n, total);
        self.first_fit(n, pairs, composite);
        let packed = self.placed.iter().copied().max().map_or(0, |t| t as usize + 1);
        if packed >= total {
            return false;
        }
        self.assemble(topo, pairs, composite, packed, pool);
        true
    }

    /// Size the occupancy store for a `total`-round composite: dense
    /// bitsets for heavy rows, load-sized slot lists for the rest.
    fn layout(&mut self, n: usize, total: usize) {
        let words = total.div_ceil(64);
        let dense_load = DENSE_MIN_LOAD.max(words / 4) as u32;
        let (mut dense_words, mut slots) = (0u32, 0u32);
        let Packer { rows, up, down, .. } = self;
        let mut place = |load: i32| {
            let load = load as u32;
            let base = if load >= dense_load {
                dense_words += words as u32;
                DENSE | (dense_words - words as u32)
            } else {
                slots += load;
                slots - load
            };
            Row { base, fill: 0 }
        };
        // Row order of `for_each_row`: PEs, then two rows per switch.
        rows.clear();
        rows.extend((n..2 * n).map(|leaf| place(up[leaf] + down[leaf])));
        rows.extend([Row::default(); 4]); // no links above the root
        for v in 2..n {
            rows.push(place(down[v]));
            rows.push(place(up[v]));
        }
        self.dense.clear();
        self.dense.resize(dense_words as usize, 0);
        // Slot lists are read only up to their fill, so stale entries
        // need no clearing.
        if self.slots.len() < slots as usize {
            self.slots.resize(slots as usize, 0);
        }
        self.mask.clear();
        self.mask.resize(words, 0);
    }

    /// Place every communication, in composite order, into the earliest
    /// round free on all of its rows.
    fn first_fit(&mut self, n: usize, pairs: &[(LeafId, LeafId)], composite: &Schedule) {
        let words = self.mask.len();
        let Packer { rows, dense, slots, mask, placed, .. } = self;
        placed.clear();
        // A pair's rows, and the dense ones' offsets: at most two per
        // tree level.
        let mut path = [0u32; 2 * usize::BITS as usize];
        let mut dense_at = [0u32; 2 * usize::BITS as usize];
        for &CommId(i) in composite.rounds.iter().flat_map(|round| &round.comms) {
            let (s, d) = pairs[i];
            let mut len = 0;
            for_each_row(n, s, d, |row| {
                path[len] = row as u32;
                len += 1;
            });
            let path = &path[..len];
            // Probe: slot-list rounds into the mask; dense rows are ORed
            // in word by word from the first word none of them has filled.
            let (mut from, mut top, mut num_dense) = (0usize, 0usize, 0usize);
            for &row in path {
                let Row { base, fill } = rows[row as usize];
                if base & DENSE != 0 {
                    from = from.max(fill as usize);
                    dense_at[num_dense] = base & !DENSE;
                    num_dense += 1;
                } else {
                    for &t in &slots[base as usize..(base + fill) as usize] {
                        let w = t as usize >> 6;
                        mask[w] |= 1 << (t & 63);
                        top = top.max(w);
                    }
                }
            }
            let mut t = words * 64;
            for w in from..words {
                let mut busy = mask[w];
                for &base in &dense_at[..num_dense] {
                    busy |= dense[base as usize + w];
                }
                if busy != u64::MAX {
                    t = 64 * w + busy.trailing_ones() as usize;
                    break;
                }
            }
            debug_assert!(t < words * 64, "packing never adds rounds");
            for word in &mut mask[..=top] {
                *word = 0;
            }
            for &row in path {
                let Row { base, fill } = &mut rows[row as usize];
                if *base & DENSE != 0 {
                    let row_words = &mut dense[(*base & !DENSE) as usize..][..words];
                    row_words[t >> 6] |= 1 << (t & 63);
                    while (*fill as usize) < words && row_words[*fill as usize] == u64::MAX {
                        *fill += 1;
                    }
                } else {
                    slots[(*base + *fill) as usize] = t as u32;
                    *fill += 1;
                }
            }
            placed.push(t as u32);
        }
    }

    /// Rewrite `composite` as the `packed`-round schedule of the
    /// placement: members in composite order, switch settings the union
    /// of their circuits.
    fn assemble(
        &mut self,
        topo: &CstTopology,
        pairs: &[(LeafId, LeafId)],
        composite: &mut Schedule,
        packed: usize,
        pool: &mut SchedulePool,
    ) {
        let Packer { placed, members, round_end, table, .. } = self;
        // Counting sort of the members by round, read before any shell
        // is rewritten. `round_end[p]` starts as round `p`'s start and,
        // once filled, is its end.
        round_end.clear();
        round_end.resize(packed + 1, 0);
        for &t in placed.iter() {
            round_end[t as usize + 1] += 1;
        }
        for p in 1..=packed {
            round_end[p] += round_end[p - 1];
        }
        members.clear();
        members.resize(placed.len(), 0);
        let positions = composite.rounds.iter().flat_map(|r| &r.comms);
        for (&t, &CommId(i)) in placed.iter().zip(positions) {
            let cursor = &mut round_end[t as usize];
            members[*cursor as usize] = i as u32;
            *cursor += 1;
        }

        let mut start = 0;
        for (p, round) in composite.rounds[..packed].iter_mut().enumerate() {
            let ids = &members[start as usize..round_end[p] as usize];
            start = round_end[p];
            round.comms.clear();
            round.comms.extend(ids.iter().map(|&i| CommId(i as usize)));
            let circuits = ids.iter().map(|&i| pairs[i as usize]);
            let set = table.write(topo, circuits, &mut round.configs);
            debug_assert!(set.is_ok(), "packed rounds are link-disjoint");
        }
        // Surplus shells go back deepest-first, so the pool's front keeps
        // serving round `p` from position `p`.
        for surplus in composite.rounds.drain(packed..).rev() {
            pool.put_round(surplus);
        }
    }
}

/// Visit the occupancy rows of pair `(s, d)` on an `n`-leaf tree: its two
/// PEs (rows `0..n`), then the directed links above the internal switches
/// on its path (row `n + 2·child + up`).
#[inline]
fn for_each_row(n: usize, s: LeafId, d: LeafId, mut visit: impl FnMut(usize)) {
    let (sn, dn) = (n + s.0, n + d.0);
    let h = (usize::BITS - (sn ^ dn).leading_zeros()) as usize;
    visit(s.0);
    visit(d.0);
    for k in 1..h {
        visit(n + 2 * (sn >> k) + 1);
        visit(n + 2 * (dn >> k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{append_layer, decompose};
    use cst_comm::CommSet;
    use cst_core::{Circuit, GeneralCommSet};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// The PEs (`false`) and directed links (`true`) a round or pair uses.
    type Uses = HashSet<(bool, usize)>;

    /// Concatenate `bands` (disjoint lists of ids into `pairs`) as the
    /// engine would, each band scheduled by a greedy link- and
    /// PE-disjoint first fit in band order (a legal schedule under any
    /// router contract).
    fn concatenation(
        topo: &CstTopology,
        pairs: &[(LeafId, LeafId)],
        bands: &[Vec<usize>],
    ) -> (Schedule, Vec<usize>) {
        let mut composite = Schedule::default();
        let mut layer_rounds = Vec::new();
        for ids in bands {
            let mut rounds: Vec<(Vec<usize>, Uses)> = Vec::new();
            for (k, &i) in ids.iter().enumerate() {
                let uses = uses_of(topo, pairs[i]);
                match rounds.iter_mut().find(|(_, used)| used.is_disjoint(&uses)) {
                    Some((members, used)) => {
                        members.push(k);
                        used.extend(uses);
                    }
                    None => rounds.push((vec![k], uses)),
                }
            }
            let partition = rounds
                .iter()
                .map(|(locals, _)| locals.iter().map(|&k| CommId(k)).collect::<Vec<_>>());
            let endpoints = |CommId(k): CommId| ids.get(k).map(|&i| pairs[i]);
            let mut layer = Schedule::from_partition(topo, endpoints, partition).unwrap();
            layer_rounds.push(layer.num_rounds());
            append_layer(&mut composite, ids, &mut layer);
        }
        (composite, layer_rounds)
    }

    /// The PEs and directed links of the circuit `source -> dest`.
    fn uses_of(topo: &CstTopology, (s, d): (LeafId, LeafId)) -> Uses {
        let links = Circuit::between(topo, s, d).links;
        let pes = [(false, s.0), (false, d.0)];
        pes.into_iter().chain(links.iter().map(|l| (true, l.dense_index()))).collect()
    }

    /// Congestion bound straight from the circuits: the most pairs on one
    /// PE or one directed link.
    fn naive_bound(topo: &CstTopology, pairs: &[(LeafId, LeafId)]) -> usize {
        let mut load = std::collections::HashMap::new();
        for &pair in pairs {
            for key in uses_of(topo, pair) {
                *load.entry(key).or_insert(0) += 1;
            }
        }
        load.values().copied().max().unwrap_or(0)
    }

    fn random_set(rng: &mut StdRng, n: usize, m: usize) -> GeneralCommSet {
        let mut set = GeneralCommSet::empty(n);
        for _ in 0..8 * m {
            if set.len() == m {
                break;
            }
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                let _ = set.push(a, b);
            }
        }
        set
    }

    #[test]
    fn packed_composites_are_legal_and_never_longer() {
        let mut rng = StdRng::seed_from_u64(0x9AC);
        let (mut packer, mut pool) = (Packer::new(), SchedulePool::new());
        let mut packed_any = false;
        for case in 0..60 {
            let n = [8, 16, 64][case % 3];
            let topo = CstTopology::with_leaves(n);
            let m = rng.gen_range(1..2 * n);
            let gset = random_set(&mut rng, n, m);
            let pairs = gset.pairs();
            let (composite, layer_rounds) = concatenation(&topo, pairs, &decompose(&gset).layers);
            let (mut layer_round, mut out) = (Vec::new(), composite.clone());
            let repacked =
                packer.pack(&topo, pairs, &mut out, &layer_rounds, &mut layer_round, &mut pool);
            assert_eq!(packer.rounds_lower_bound(), naive_bound(&topo, pairs), "case {case}");
            // Provenance: each pair's round within its layer's band.
            let mut offset = 0;
            for &band in &layer_rounds {
                for (r, round) in composite.rounds[offset..offset + band].iter().enumerate() {
                    for c in &round.comms {
                        assert_eq!(layer_round[c.0], r as u32, "case {case}");
                    }
                }
                offset += band;
            }
            if !repacked {
                continue;
            }
            packed_any = true;
            assert!(out.num_rounds() < composite.num_rounds());
            assert!(out.num_rounds() >= packer.rounds_lower_bound());
            let mut seen = HashSet::new();
            for round in &out.rounds {
                let ids: Vec<usize> = round.comms.iter().map(|c| c.0).collect();
                for &i in &ids {
                    assert!(seen.insert(i), "case {case}: pair {i} scheduled twice");
                }
                let mut links = HashSet::new();
                let mut pes = HashSet::new();
                for &i in &ids {
                    let (s, d) = pairs[i];
                    assert!(pes.insert(s) && pes.insert(d), "case {case}: a PE plays twice");
                    for link in Circuit::between(&topo, s, d).links {
                        assert!(links.insert(link), "case {case}: link {link} shared");
                    }
                }
            }
            assert_eq!(seen.len(), gset.len());
            let endpoints = |id: CommId| pairs.get(id.0).copied();
            let rounds = out.rounds.iter().map(|r| &r.comms);
            let tables = Schedule::from_partition(&topo, endpoints, rounds);
            assert_eq!(tables.unwrap(), out, "case {case}");
        }
        assert!(packed_any, "the sample must exercise packing");
    }

    #[test]
    fn a_concatenation_at_the_bound_is_left_alone() {
        // Three nested pairs share the root's links: width 3, bound 3.
        let topo = CstTopology::with_leaves(8);
        let gset = GeneralCommSet::from_pairs(8, &[(0, 7), (1, 6), (2, 5)]);
        let pairs = gset.pairs();
        let (composite, layer_rounds) = concatenation(&topo, pairs, &decompose(&gset).layers);
        assert_eq!(composite.num_rounds(), 3);
        let (mut packer, mut pool) = (Packer::new(), SchedulePool::new());
        let (mut layer_round, mut out) = (Vec::new(), composite.clone());
        assert!(!packer.pack(&topo, pairs, &mut out, &layer_rounds, &mut layer_round, &mut pool));
        assert_eq!(packer.rounds_lower_bound(), 3);
        assert_eq!(out, composite, "left untouched");
    }

    #[test]
    fn pairs_of_different_layers_share_rounds() {
        // Pairs 0..3 pairwise conflict (shared leaves 0 and 1, and 0–2
        // shares a link with 1–3), so they need three rounds even though
        // the bound is two; pair 3 = (4,5) is disjoint from all and joins
        // round 0.
        let topo = CstTopology::with_leaves(8);
        let gset = GeneralCommSet::from_pairs(8, &[(0, 2), (0, 1), (1, 3), (4, 5)]);
        // Every layer scheduled one pair per round, as a router may.
        let pairs = gset.pairs();
        let d = decompose(&gset);
        let mut composite = Schedule::default();
        for ids in &d.layers {
            let endpoints = |CommId(k): CommId| ids.get(k).map(|&i| pairs[i]);
            let partition = (0..ids.len()).map(|k| [CommId(k)]);
            let mut layer = Schedule::from_partition(&topo, endpoints, partition).unwrap();
            append_layer(&mut composite, ids, &mut layer);
        }
        let layer_rounds: Vec<usize> = d.layers.iter().map(Vec::len).collect();
        assert_eq!(composite.num_rounds(), 4);
        let (mut packer, mut pool) = (Packer::new(), SchedulePool::new());
        let (mut layer_round, mut out) = (Vec::new(), composite.clone());
        assert!(packer.pack(&topo, pairs, &mut out, &layer_rounds, &mut layer_round, &mut pool));
        assert_eq!(packer.rounds_lower_bound(), 2);
        assert_eq!(out.num_rounds(), 3);
        assert!(out.rounds[0].comms.contains(&CommId(3)));
    }

    #[test]
    fn directed_halves_pack_to_verified_schedules() {
        // Random matchings: every pair left-oriented, or each flipped with
        // probability 0.4 and banded as right half then left half, the
        // bands `general-merged` hands the packer.
        let mut rng = StdRng::seed_from_u64(0xD1);
        let (mut packer, mut pool) = (Packer::new(), SchedulePool::new());
        let mut packed_any = false;
        for case in 0..60 {
            let n = [8, 16, 64][case % 3];
            let topo = CstTopology::with_leaves(n);
            let pure_left = case % 2 == 0;
            let mut pes: Vec<usize> = (0..n).collect();
            pes.shuffle(&mut rng);
            let raw: Vec<(usize, usize)> = pes[..2 * rng.gen_range(1..=n / 2)]
                .chunks(2)
                .map(|p| (p[0].min(p[1]), p[0].max(p[1])))
                .map(|(a, b)| if pure_left || rng.gen_bool(0.4) { (b, a) } else { (a, b) })
                .collect();
            let set = CommSet::from_pairs(n, &raw);
            let pairs: Vec<_> = set.comms().iter().map(|c| (c.source, c.dest)).collect();
            let bands: Vec<Vec<usize>> = if pure_left {
                // Three bands by id, so packing has rounds to share.
                (0..3).map(|b| (b..raw.len()).step_by(3).collect()).collect()
            } else {
                let (right, left) = (0..raw.len()).partition(|&i| raw[i].0 < raw[i].1);
                vec![right, left]
            };
            let (composite, layer_rounds) = concatenation(&topo, &pairs, &bands);
            let (mut layer_round, mut out) = (Vec::new(), composite.clone());
            let repacked =
                packer.pack(&topo, &pairs, &mut out, &layer_rounds, &mut layer_round, &mut pool);
            assert_eq!(packer.rounds_lower_bound(), naive_bound(&topo, &pairs), "case {case}");
            assert!(out.num_rounds() <= composite.num_rounds(), "case {case}");
            assert_eq!(repacked, out.num_rounds() < composite.num_rounds(), "case {case}");
            out.verify(&topo, &set).unwrap_or_else(|e| panic!("case {case}: {e}"));
            packed_any |= repacked;
        }
        assert!(packed_any, "the sample must exercise packing");
    }
}
