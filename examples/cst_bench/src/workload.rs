//! The four workloads and their seeded request streams.
//!
//! A stream is generated once, before any timing, from `(workload,
//! seed)` alone. Callers share it through an atomic index and wrap
//! around at its end. Each stream is far longer than the daemon's
//! 256-entry cache, so a wrapped request behaves like a fresh one.
//! Distinct requests are interned as *keys*: the audit checks each key
//! once, and every response to one key must carry the same bytes.
//!
//! Every mix (sizes, request kinds, routers, masks) is dealt from a
//! shuffled [`Deck`] rather than drawn independently, so each run sees
//! exactly the stated proportions in random order. Independent draws
//! would let the share of the costly n=4096 sets differ between seeds
//! by more than the regressions the benchmark must detect.

use cst_comm::CommSet;
use cst_core::{CstTopology, FaultMask, Fp64, GeneralCommSet};
use cst_engine::request_fingerprint;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Requests from the head of every stream that the audit always checks
/// and that `rounds_per_route` / `power_units_per_route` average over.
pub const HEAD: usize = 512;
/// One request in `SAMPLE_EVERY` past the head is audited as well.
pub const SAMPLE_EVERY: u64 = 64;

/// The benchmark's workloads, in presentation order.
pub const ALL: [Workload; 4] = [
    Workload::ServeHit,
    Workload::ServeMiss,
    Workload::ServeBatch,
    Workload::EngineGeneral,
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 32 resident n=1024 sets: every window request is a hit-tier hit.
    ServeHit,
    /// Drifting 64-set working set over mixed sizes and routers:
    /// misses, inserts, evictions, some hits and flight joins.
    ServeMiss,
    /// 32-item batch frames of small sets with in-frame duplicates.
    ServeBatch,
    /// In-process, uncached `route_general` on fresh arbitrary sets.
    EngineGeneral,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHit => "serve-hit",
            Workload::ServeMiss => "serve-miss",
            Workload::ServeBatch => "serve-batch",
            Workload::EngineGeneral => "engine-general",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    fn salt(self) -> u64 {
        match self {
            Workload::ServeHit => 0x5E_4E_01,
            Workload::ServeMiss => 0x5E_4E_02,
            Workload::ServeBatch => 0x5E_4E_03,
            Workload::EngineGeneral => 0x5E_4E_04,
        }
    }
}

/// One distinct serve request.
pub struct Req {
    pub router: &'static str,
    pub set: CommSet,
    pub mask: Option<FaultMask>,
}

/// One frame a caller sends.
pub enum Frame {
    /// A Route frame for one key.
    Route(u32),
    /// A Batch frame: the items as the batch encoder wants them, plus
    /// each item's key.
    Batch {
        items: Vec<(CommSet, Option<FaultMask>)>,
        keys: Vec<u32>,
    },
}

impl Frame {
    pub fn keys(&self) -> &[u32] {
        match self {
            Frame::Route(k) => std::slice::from_ref(k),
            Frame::Batch { keys, .. } => keys,
        }
    }
}

/// A serve workload's stream: distinct requests plus the frame sequence.
pub struct ServeStream {
    pub reqs: Vec<Req>,
    pub frames: Vec<Frame>,
}

/// The generated input of one run.
pub enum Stream {
    Serve(ServeStream),
    General(Vec<GeneralCommSet>),
}

impl Stream {
    pub fn generate(workload: Workload, seed: u64) -> Stream {
        let mut rng =
            StdRng::seed_from_u64(seed ^ workload.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match workload {
            Workload::ServeHit => Stream::Serve(serve_hit(&mut rng)),
            Workload::ServeMiss => Stream::Serve(serve_miss(&mut rng)),
            Workload::ServeBatch => Stream::Serve(serve_batch(&mut rng)),
            Workload::EngineGeneral => Stream::General(engine_general(&mut rng)),
        }
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        match self {
            Stream::Serve(s) => s.reqs.len(),
            Stream::General(sets) => sets.len(),
        }
    }

    /// Key of every item in stream order (a batch frame contributes one
    /// position per item).
    pub fn item_keys(&self) -> Vec<u32> {
        match self {
            Stream::Serve(s) => s
                .frames
                .iter()
                .flat_map(|f| f.keys().iter().copied())
                .collect(),
            Stream::General(sets) => (0..sets.len() as u32).collect(),
        }
    }

    /// `Fp64` over the whole generated stream: every distinct request,
    /// then the key sequence. Two runs measured the same inputs iff
    /// their digests match.
    pub fn digest(&self) -> u64 {
        let mut fp = Fp64::new("cst_bench/workload");
        match self {
            Stream::Serve(s) => {
                for r in &s.reqs {
                    fp.write_u64(request_fingerprint(r.router, &r.set, r.mask.as_ref()));
                }
                for f in &s.frames {
                    fp.write_usize(f.keys().len());
                    for &k in f.keys() {
                        fp.write_u32(k);
                    }
                }
            }
            Stream::General(sets) => {
                for g in sets {
                    fp.write_u64(g.fingerprint());
                }
            }
        }
        fp.finish()
    }

    /// Keys the audit checks: every key among the first [`HEAD`] item
    /// positions, plus the keys at a seeded one-in-[`SAMPLE_EVERY`]
    /// sample of the remaining positions.
    pub fn audit_keys(&self, seed: u64) -> Vec<bool> {
        let mut audit = vec![false; self.num_keys()];
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA0D1_7000);
        for (pos, key) in self.item_keys().into_iter().enumerate() {
            if pos < HEAD || rng.gen_range(0..SAMPLE_EVERY) == 0 {
                audit[key as usize] = true;
            }
        }
        audit
    }
}

/// Deals labels in shuffled rounds: each round holds every label its
/// stated number of times.
struct Deck<T: Copy> {
    round: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    fn new(mix: &[(T, usize)]) -> Deck<T> {
        let round = mix
            .iter()
            .flat_map(|&(label, n)| std::iter::repeat_n(label, n))
            .collect();
        Deck {
            round,
            left: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut StdRng) -> T {
        if self.left.is_empty() {
            self.left = self.round.clone();
            self.left.shuffle(rng);
        }
        self.left.pop().expect("a deck round is never empty")
    }
}

/// Interns requests by their cache key, so repeats share one key id.
struct Interner {
    reqs: Vec<Req>,
    by_fp: HashMap<u64, u32>,
}

impl Interner {
    fn new() -> Interner {
        Interner {
            reqs: Vec::new(),
            by_fp: HashMap::new(),
        }
    }

    fn intern(&mut self, router: &'static str, set: &CommSet, mask: Option<FaultMask>) -> u32 {
        let fp = request_fingerprint(router, set, mask.as_ref());
        *self.by_fp.entry(fp).or_insert_with(|| {
            self.reqs.push(Req {
                router,
                set: set.clone(),
                mask,
            });
            (self.reqs.len() - 1) as u32
        })
    }
}

fn serve_hit(rng: &mut StdRng) -> ServeStream {
    const SETS: u32 = 32;
    const FRAMES: usize = 1 << 16;
    let mut keys = Interner::new();
    for _ in 0..SETS {
        let set = cst_workloads::well_nested_with_density(rng, 1024, 0.5);
        keys.intern("csa", &set, None);
    }
    let mut deck = Deck::new(
        &(0..keys.reqs.len() as u32)
            .map(|k| (k, 1))
            .collect::<Vec<_>>(),
    );
    let frames = (0..FRAMES).map(|_| Frame::Route(deck.deal(rng))).collect();
    ServeStream {
        reqs: keys.reqs,
        frames,
    }
}

fn serve_miss(rng: &mut StdRng) -> ServeStream {
    const FRAMES: usize = 8192;
    const RECENT: usize = 16;
    const MASK_RATE: f64 = 0.002;
    #[derive(Clone, Copy)]
    enum Kind {
        Fresh,
        Recent,
        Twin,
    }
    // 64 working sets by size class: 26 at n=256, 32 at n=1024, 6 at
    // n=4096. Fresh requests pick the class 40/50/10 from a deck.
    let mut working: Vec<(usize, Vec<CommSet>)> = [(256, 26), (1024, 32), (4096, 6)]
        .into_iter()
        .map(|(n, count)| {
            (
                n,
                (0..count)
                    .map(|_| cst_workloads::well_nested_with_density(rng, n, 0.5))
                    .collect(),
            )
        })
        .collect();
    let topos: HashMap<usize, CstTopology> = working
        .iter()
        .map(|(n, _)| (*n, CstTopology::with_leaves(*n)))
        .collect();
    let mut kinds = Deck::new(&[(Kind::Fresh, 8), (Kind::Recent, 1), (Kind::Twin, 1)]);
    let mut sizes = Deck::new(&[(0usize, 4), (1, 5), (2, 1)]);
    let mut routers = Deck::new(&[
        ("csa", 7),
        ("csa-parallel", 1),
        ("layered", 1),
        ("universal", 1),
    ]);
    let mut masked = Deck::new(&[(true, 1), (false, 9)]);
    let mut keys = Interner::new();
    // The stream's first request, the one set-up time routes, is a plain
    // csa route of an n=1024 set, so set-up does not depend on the
    // seed's first draw.
    let first = keys.intern("csa", &working[1].1[0], None);
    let mut recent: Vec<u32> = vec![first];
    let mut touched = Vec::new();
    let mut frames = Vec::with_capacity(FRAMES);
    frames.push(Frame::Route(first));
    for _ in 1..FRAMES {
        let key = match kinds.deal(rng) {
            // Burst twin: the previous request again, so the caller that
            // took it is usually still routing and this one joins its flight.
            Kind::Twin => recent[recent.len() - 1],
            // A recent key, usually still cached: a hit.
            Kind::Recent => recent[rng.gen_range(0..recent.len())],
            // Fresh drift: two PE changes to one working-set member.
            Kind::Fresh => {
                let (n, sets) = &mut working[sizes.deal(rng)];
                let pick = rng.gen_range(0..sets.len());
                let set = &mut sets[pick];
                let changes = cst_workloads::random_changes(rng, set, 2);
                set.apply_changes(&changes, &mut touched)
                    .expect("random_changes keeps sets valid");
                let router = routers.deal(rng);
                let mask = masked
                    .deal(rng)
                    .then(|| cst_faults::sample_mask(rng, &topos[n], MASK_RATE));
                keys.intern(router, set, mask)
            }
        };
        if recent.len() == RECENT {
            recent.remove(0);
        }
        recent.push(key);
        frames.push(Frame::Route(key));
    }
    ServeStream {
        reqs: keys.reqs,
        frames,
    }
}

fn serve_batch(rng: &mut StdRng) -> ServeStream {
    const SETS: usize = 512;
    const FRAMES: usize = 1024;
    const ITEMS: usize = 32;
    const MASK_RATE: f64 = 0.01;
    let topos: HashMap<usize, CstTopology> = [64, 128]
        .into_iter()
        .map(|n| (n, CstTopology::with_leaves(n)))
        .collect();
    let pool: Vec<CommSet> = (0..SETS)
        .map(|i| {
            cst_workloads::well_nested_with_density(rng, if i % 2 == 0 { 64 } else { 128 }, 0.5)
        })
        .collect();
    let mut duplicate = Deck::new(&[(true, 1), (false, 3)]);
    let mut masked = Deck::new(&[(true, 1), (false, 3)]);
    let mut keys = Interner::new();
    let mut frames = Vec::with_capacity(FRAMES);
    for _ in 0..FRAMES {
        let mut items: Vec<(CommSet, Option<FaultMask>)> = Vec::with_capacity(ITEMS);
        let mut item_keys = Vec::with_capacity(ITEMS);
        for j in 0..ITEMS {
            if duplicate.deal(rng) && j > 0 {
                let d = rng.gen_range(0..j);
                items.push(items[d].clone());
                item_keys.push(item_keys[d]);
                continue;
            }
            let set = pool[rng.gen_range(0..SETS)].clone();
            let mask = masked
                .deal(rng)
                .then(|| cst_faults::sample_mask(rng, &topos[&set.num_leaves()], MASK_RATE));
            item_keys.push(keys.intern("csa", &set, mask.clone()));
            items.push((set, mask));
        }
        frames.push(Frame::Batch {
            items,
            keys: item_keys,
        });
    }
    ServeStream {
        reqs: keys.reqs,
        frames,
    }
}

fn engine_general(rng: &mut StdRng) -> Vec<GeneralCommSet> {
    const SETS: usize = 1024;
    let mut sizes = Deck::new(&[(1024, 9), (4096, 1)]);
    let mut sets: Vec<GeneralCommSet> = (0..SETS)
        .map(|_| {
            let n = sizes.deal(rng);
            cst_workloads::arbitrary_permutation(rng, n)
        })
        .collect();
    // Set-up time routes the first set: make it an n=1024 one.
    let first = sets
        .iter()
        .position(|g| g.num_leaves() == 1024)
        .expect("the deck deals n=1024 sets");
    sets.swap(0, first);
    sets
}
