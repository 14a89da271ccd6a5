//! The `bench-gate` subcommand: every check of the bench smoke run.
//!
//! `scripts/bench_smoke.sh` runs each bench once and leaves flat
//! `{ "<id>": ns }` files in a fresh directory. `cst-tools bench-gate
//! <fresh-dir>` checks them together with the checked-in `BENCH_*.json`
//! in the current directory. Each row of [`table`] is one of:
//!
//! * an id set: a file carries exactly the expected ids, no more;
//! * a ratio `lhs <= k × rhs` (or `lhs <= rhs / d`), within one file or
//!   across two;
//! * an exact value;
//! * the registry check: every router name in an e5 id is an engine
//!   registry name ([`cst_engine::names`]).
//!
//! and is scoped to the checked-in files, the fresh ones, both, or the
//! fresh figure against its checked-in baseline. The checked-in e5 and
//! e6 files nest their ids under `current`, and e5 keeps its same-run
//! front-end figures under `front_ends.same_run_ns`, keyed without the
//! group prefix; every other file, and every fresh one, is flat.
//!
//! Every check runs and prints one line with its figures and its limit,
//! so both copies of a file are checked before anything fails. The run
//! then lists the failed checks and exits 1 if there are any.

use serde::{Deserialize, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// Which copy of a BENCH file a figure comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Side {
    CheckedIn,
    Fresh,
}

/// The copies a check is judged on.
#[derive(Clone, Copy)]
enum Scope {
    CheckedIn,
    Fresh,
    Both,
    /// The left figure from the fresh run, the right one from the
    /// checked-in file.
    Baseline,
}

impl Scope {
    /// The (left, right) sides of each judgement, in order.
    fn sides(self) -> &'static [(Side, Side)] {
        const CHECKED_IN: (Side, Side) = (Side::CheckedIn, Side::CheckedIn);
        const FRESH: (Side, Side) = (Side::Fresh, Side::Fresh);
        match self {
            Scope::CheckedIn => &[CHECKED_IN],
            Scope::Fresh => &[FRESH],
            Scope::Both => &[CHECKED_IN, FRESH],
            Scope::Baseline => &[(Side::Fresh, Side::CheckedIn)],
        }
    }
}

/// A flat `id -> ns` map in one BENCH file. Fresh files are flat; the
/// checked-in copy nests the map under `path`. The table names ids
/// without the map's `group/` prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Map {
    file: &'static str,
    path: &'static [&'static str],
    group: &'static str,
}

const fn map(file: &'static str, path: &'static [&'static str], group: &'static str) -> Map {
    Map { file, path, group }
}

const E5: Map = map("BENCH_e5.json", &["current"], "");
const E5_SAME_RUN: Map = map("BENCH_e5.json", &["front_ends", "same_run_ns"], "");
const E6: Map = map("BENCH_e6.json", &["current"], "e6_stream");
const E13: Map = map("BENCH_e13.json", &[], "e13_compiled_replay");
const E14: Map = map("BENCH_e14.json", &[], "e14_decomp");
const E15: Map = map("BENCH_e15.json", &[], "e15_serve");
const E16: Map = map("BENCH_e16.json", &[], "e16_herd");
const MAPS: [Map; 7] = [E5, E5_SAME_RUN, E6, E13, E14, E15, E16];

impl Map {
    /// The full id of `id` in this map.
    fn id(self, id: &str) -> String {
        match self.group {
            "" => id.to_string(),
            group => format!("{group}/{id}"),
        }
    }
}

/// Where a map sits, as the check lines name it.
fn at(side: Side, map: Map) -> String {
    match side {
        Side::CheckedIn if map.path.is_empty() => format!("checked-in {}", map.file),
        Side::CheckedIn => format!("checked-in {} {}", map.file, map.path.join(".")),
        Side::Fresh => format!("fresh {}", map.file),
    }
}

/// One figure: a full id in a map.
struct Figure {
    map: Map,
    id: String,
}

fn fig(map: Map, id: &str) -> Figure {
    Figure {
        map,
        id: map.id(id),
    }
}

/// How far the left figure of a ratio may go.
#[derive(Clone, Copy)]
enum Limit {
    /// `lhs <= k × rhs`.
    Times(f64),
    /// `d × lhs <= rhs`.
    Over(f64),
}

impl Limit {
    /// Whether `lhs` is within the limit, and the largest `lhs` allowed.
    fn judge(self, lhs: f64, rhs: f64) -> (bool, f64) {
        match self {
            Limit::Times(k) => (lhs <= k * rhs, k * rhs),
            Limit::Over(d) => (d * lhs <= rhs, rhs / d),
        }
    }

    fn show(self, rhs: &str) -> String {
        match self {
            Limit::Times(k) => format!("{k} x {rhs}"),
            Limit::Over(d) => format!("{rhs} / {d}"),
        }
    }
}

enum Rule {
    /// The map holds exactly these full ids.
    Ids(Map, Vec<String>),
    /// The router name of every id (`<group>/<router>/<n>`) is in the
    /// engine registry.
    Routers(Map),
    /// The left figure is within the limit of the right one.
    Ratio(Figure, Limit, Figure),
    /// The figure equals the value.
    Exact(Figure, f64),
}

struct Check {
    scope: Scope,
    rule: Rule,
}

/// One judged check: its verdict, what it checked and the figures.
struct Outcome {
    ok: bool,
    label: String,
    detail: String,
}

impl Rule {
    fn judge(&self, (l, r): (Side, Side), figs: &Figures) -> Outcome {
        let (label, verdict) = match self {
            Rule::Ids(map, want) => (
                format!("{}: exactly the {} expected ids", at(l, *map), want.len()),
                figs.map(l, *map).map(|got| {
                    let missing: Vec<&String> =
                        want.iter().filter(|id| !got.contains_key(*id)).collect();
                    let extra: Vec<&String> = got.keys().filter(|id| !want.contains(id)).collect();
                    match missing.is_empty() && extra.is_empty() {
                        true => (true, format!("{} ids", got.len())),
                        false => (false, format!("missing {missing:?}, unexpected {extra:?}")),
                    }
                }),
            ),
            Rule::Routers(map) => (
                format!("{}: every router name is in the registry", at(l, *map)),
                figs.map(l, *map).map(|got| {
                    let names = cst_engine::names();
                    let known =
                        |id: &&String| id.split('/').nth(1).is_some_and(|n| names.contains(&n));
                    let unknown: Vec<&String> = got.keys().filter(|id| !known(id)).collect();
                    (
                        unknown.is_empty(),
                        format!("{} ids, unknown {unknown:?}", got.len()),
                    )
                }),
            ),
            Rule::Ratio(lhs, limit, rhs) => {
                let label = if (l, lhs.map) == (r, rhs.map) {
                    format!("{}: {} <= {}", at(l, lhs.map), lhs.id, limit.show(&rhs.id))
                } else {
                    let rhs = format!("{} {}", at(r, rhs.map), rhs.id);
                    format!("{} {} <= {}", at(l, lhs.map), lhs.id, limit.show(&rhs))
                };
                let verdict = figs.figure(l, lhs).and_then(|a| {
                    let (ok, max) = limit.judge(a, figs.figure(r, rhs)?);
                    Ok((ok, format!("{a:.0} ns, limit {max:.0} ns")))
                });
                (label, verdict)
            }
            Rule::Exact(f, want) => (
                format!("{}: {} == {want}", at(l, f.map), f.id),
                figs.figure(l, f).map(|got| (got == *want, got.to_string())),
            ),
        };
        let (ok, detail) = verdict.unwrap_or_else(|e| (false, e));
        Outcome { ok, label, detail }
    }
}

/// Every map of [`MAPS`] on each loaded side, read once.
struct Figures {
    sides: Vec<Side>,
    maps: BTreeMap<(Side, Map), Result<BTreeMap<String, f64>, String>>,
}

impl Figures {
    /// Read every map on `sides`; `read` returns a file's text. A file
    /// that cannot be read or parsed fails every check that needs it.
    fn load(sides: &[Side], read: impl Fn(Side, &str) -> Result<String, String>) -> Figures {
        let mut maps = BTreeMap::new();
        for &side in sides {
            for map in MAPS {
                let path = if side == Side::CheckedIn {
                    map.path
                } else {
                    &[]
                };
                let figures = read(side, map.file)
                    .and_then(|text| extract(&text, path))
                    .map_err(|e| format!("{}: {e}", at(side, map)));
                maps.insert((side, map), figures);
            }
        }
        Figures {
            sides: sides.to_vec(),
            maps,
        }
    }

    fn map(&self, side: Side, map: Map) -> Result<&BTreeMap<String, f64>, String> {
        self.maps[&(side, map)].as_ref().map_err(String::clone)
    }

    fn figure(&self, side: Side, f: &Figure) -> Result<f64, String> {
        let found = self.map(side, f.map)?.get(&f.id).copied();
        found.ok_or_else(|| format!("{} has no {}", at(side, f.map), f.id))
    }
}

/// The `id -> ns` map at `path` in a JSON document.
fn extract(text: &str, path: &[&str]) -> Result<BTreeMap<String, f64>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let mut node = &doc;
    for key in path {
        node = node.get(key).ok_or(format!("no \"{key}\" object"))?;
    }
    BTreeMap::from_value(node).map_err(|e| e.0)
}

/// Judge every check on each pair of loaded sides its scope names.
fn evaluate(table: &[Check], figs: &Figures) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    for check in table {
        for &(l, r) in check.scope.sides() {
            if figs.sides.contains(&l) && figs.sides.contains(&r) {
                outcomes.push(check.rule.judge((l, r), figs));
            }
        }
    }
    outcomes
}

/// One cold smoke pass against a warm median: a catastrophic-regression
/// guard, not a measurement.
const SMOKE_FACTOR: f64 = 20.0;
const SIZES: [u32; 3] = [256, 1024, 4096];

/// `<name>/<n>` for every name and size.
fn ids(names: &[&str], sizes: &[u32]) -> Vec<String> {
    let id = |name| sizes.iter().map(move |n| format!("{name}/{n}"));
    names.iter().flat_map(id).collect()
}

/// Every check, in the order they run.
#[rustfmt::skip]
fn table() -> Vec<Check> {
    use Limit::{Over, Times};
    use Scope::{Baseline, Both, CheckedIn, Fresh};
    let routers = ["csa", "csa-no-prune", "greedy", "layered", "roy", "universal"];
    let schedulers = ids(&routers, &SIZES).iter().map(|id| format!("e5_schedulers/{id}")).collect();
    let e5_ids: Vec<String> = [schedulers, ids(&["e5_masked/csa"], &SIZES)].concat();
    let e13_ids = [
        ids(&["compile", "compiled", "interpreter"], &SIZES),
        ids(&["stream-compiled", "stream-interpreter"], &[1024]),
    ];
    let id_sets = [
        (E5, e5_ids.clone()),
        (E6, ids(&["cached", "cold", "cold-baseline", "uncached"], &[1024])),
        (E13, e13_ids.concat()),
        (E14, ids(&["certificate", "decompose", "pack", "route-layers", "warm-cached"], &SIZES)),
        (E15, ids(&["cached", "floor", "soak-p50", "soak-p99", "uncached"], &[1024])),
        (E16, ids(&["computations-per-key", "contended-hit-p50", "contended-hit-p99"], &[1024])),
    ];
    // Each row is `lhs <= limit(rhs)`: (scope, lhs map, lhs, limit, rhs map, rhs).
    // Every e5 router and size, fault-free or masked, against its baseline.
    let e5_timings = e5_ids.iter().map(|id| (Baseline, E5, &id[..], Times(SMOKE_FACTOR), E5, &id[..]));
    let ratios = [
        // On a well-nested set `layered` and `universal` cost one CSA run
        // plus a linear layering pass and a copy of each round (1.0-1.4x
        // csa measured); the pairwise layering pass they replaced put them
        // at 3.7-3.9x csa at n=4096. Each is held to csa/4096 timed in the
        // same run: 1.5x in the checked-in measured run, 2.5x in the fresh
        // smoke run, where one cold pass puts the ratio anywhere from 0.6x
        // to 1.9x.
        (CheckedIn, E5_SAME_RUN, "layered/4096", Times(1.5), E5_SAME_RUN, "csa/4096"),
        (CheckedIn, E5_SAME_RUN, "universal/4096", Times(1.5), E5_SAME_RUN, "csa/4096"),
        (Fresh, E5, "e5_schedulers/layered/4096", Times(2.5), E5, "e5_schedulers/csa/4096"),
        (Fresh, E5, "e5_schedulers/universal/4096", Times(2.5), E5, "e5_schedulers/csa/4096"),
        // The cache's miss path stays within 3x of the same run's
        // alternating uncached stream (insert overhead, apples to apples),
        // and the fixed-request uncached id, the same workload shape as e5
        // csa/1024, anchors the e6 run against the checked-in e5 baseline.
        (Fresh, E6, "cold/1024", Times(3.0), E6, "cold-baseline/1024"),
        (Baseline, E6, "uncached/1024", Times(SMOKE_FACTOR), E5, "e5_schedulers/csa/1024"),
        // Replay of a pre-lowered program never loses to the event-driven
        // interpreter: the real gap is ~10x, so not even one cold pass can
        // invert it.
        (Both, E13, "compiled/256", Times(1.0), E13, "interpreter/256"),
        (Both, E13, "compiled/1024", Times(1.0), E13, "interpreter/1024"),
        (Both, E13, "compiled/4096", Times(1.0), E13, "interpreter/4096"),
        (Both, E13, "stream-compiled/1024", Times(1.0), E13, "stream-interpreter/1024"),
        // A warm cached general route (memo plus per-layer cache hits)
        // never loses to routing every layer again: the real gap is ~8x.
        // One cold smoke pass is too noisy to order figures within 2x of
        // each other, so the rest hold the checked-in medians only. The
        // certificate was over half of decomposition before the
        // bound-pruned crossing-clique sweep.
        (Both, E14, "warm-cached/256", Times(1.0), E14, "route-layers/256"),
        (Both, E14, "warm-cached/1024", Times(1.0), E14, "route-layers/1024"),
        (Both, E14, "warm-cached/4096", Times(1.0), E14, "route-layers/4096"),
        (CheckedIn, E14, "decompose/4096", Times(1.0), E14, "route-layers/4096"),
        (CheckedIn, E14, "certificate/1024", Over(3.0), E14, "decompose/1024"),
        (CheckedIn, E14, "pack/1024", Over(10.0), E14, "route-layers/1024"),
        // A cache hit is a fingerprint probe plus an Arc clone, a miss a
        // full route plus serialization: the checked-in run holds the 5x
        // acceptance floor, a fresh run keeps cached at or under uncached.
        (CheckedIn, E15, "cached/1024", Over(5.0), E15, "uncached/1024"),
        (Fresh, E15, "cached/1024", Times(1.0), E15, "uncached/1024"),
        // The contended hit p50 stays under the same environment's e15
        // uncached route: 5x for the checked-in pair, 1x for a fresh run,
        // the minimum bar everywhere, single-core runners where the herd
        // serializes included.
        (CheckedIn, E16, "contended-hit-p50/1024", Over(5.0), E15, "uncached/1024"),
        (Fresh, E16, "contended-hit-p50/1024", Times(1.0), E15, "uncached/1024"),
    ];

    let mut t = vec![Check { scope: Fresh, rule: Rule::Routers(E5) }];
    for (map, ids) in id_sets {
        let ids = ids.iter().map(|id| map.id(id)).collect();
        t.push(Check { scope: Both, rule: Rule::Ids(map, ids) });
    }
    for (scope, lmap, lhs, limit, rmap, rhs) in e5_timings.chain(ratios) {
        t.push(Check { scope, rule: Rule::Ratio(fig(lmap, lhs), limit, fig(rmap, rhs)) });
    }
    // Single-flight coalescing costs exactly one engine computation per
    // herd key, however the herd interleaves.
    let herd = fig(E16, "computations-per-key/1024");
    t.push(Check { scope: Both, rule: Rule::Exact(herd, 1.0) });
    t
}

/// `cst-tools bench-gate <fresh-dir>`: check the smoke run in
/// `<fresh-dir>` and the checked-in `BENCH_*.json` in the current
/// directory. Exit 0 iff every check passes, 1 otherwise, 2 usage.
pub fn run_bench_gate(args: &[String]) {
    let Some(fresh) = args.get(1).map(Path::new) else {
        eprintln!("usage: cst-tools bench-gate <fresh-dir>");
        std::process::exit(2);
    };
    let figs = Figures::load(&[Side::CheckedIn, Side::Fresh], |side, file| {
        let path = match side {
            Side::CheckedIn => Path::new(file).to_path_buf(),
            Side::Fresh => fresh.join(file),
        };
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    });
    let outcomes = evaluate(&table(), &figs);
    for o in &outcomes {
        let verdict = if o.ok { "ok  " } else { "FAIL" };
        println!("{verdict} {}: {}", o.label, o.detail);
    }
    let failed: Vec<&Outcome> = outcomes.iter().filter(|o| !o.ok).collect();
    if failed.is_empty() {
        println!("bench-gate: all {} checks pass", outcomes.len());
        return;
    }
    eprintln!(
        "bench-gate: {} of {} checks failed:",
        failed.len(),
        outcomes.len()
    );
    for o in failed {
        eprintln!("  {}", o.label);
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    type Data = BTreeMap<(Side, Map), BTreeMap<String, f64>>;
    const SIDES: [Side; 2] = [Side::CheckedIn, Side::Fresh];

    /// Every expected id at 100 ns on both sides, except the figures that
    /// right-hand sides divide: 3,000 ns, so every `rhs / d` is exact.
    fn passing() -> Data {
        let mut data = Data::new();
        for c in table() {
            if let Rule::Ids(map, ids) = c.rule {
                for side in SIDES {
                    let entry = data.entry((side, map)).or_default();
                    entry.extend(ids.iter().map(|id| (id.clone(), 100.0)));
                }
            }
        }
        let same_run = data.entry((Side::CheckedIn, E5_SAME_RUN)).or_default();
        for r in ["csa", "layered", "universal"] {
            same_run.insert(format!("{r}/4096"), 100.0);
        }
        for side in SIDES {
            for (map, id, v) in [
                (E14, "e14_decomp/decompose/1024", 3000.0),
                (E14, "e14_decomp/route-layers/256", 3000.0),
                (E14, "e14_decomp/route-layers/1024", 3000.0),
                (E14, "e14_decomp/route-layers/4096", 3000.0),
                (E15, "e15_serve/uncached/1024", 3000.0),
                (E16, "e16_herd/computations-per-key/1024", 1.0),
            ] {
                set(&mut data, side, map, id, v);
            }
        }
        data
    }

    fn set(data: &mut Data, side: Side, map: Map, id: &str, v: f64) {
        data.entry((side, map))
            .or_default()
            .insert(id.to_string(), v);
    }

    /// Render `data` as BENCH files: fresh files flat, checked-in maps
    /// nested under their paths.
    fn reader(data: &Data) -> impl Fn(Side, &str) -> Result<String, String> + '_ {
        move |side, file| {
            let mut doc = Value::Map(Vec::new());
            for ((_, map), ids) in data
                .iter()
                .filter(|((s, m), _)| *s == side && m.file == file)
            {
                let path = if side == Side::CheckedIn {
                    map.path
                } else {
                    &[]
                };
                insert(&mut doc, path, ids);
            }
            serde_json::to_string(&doc).map_err(|e| e.to_string())
        }
    }

    fn insert(node: &mut Value, path: &[&str], ids: &BTreeMap<String, f64>) {
        let Value::Map(entries) = node else {
            panic!("{path:?} is not under an object")
        };
        match path.split_first() {
            None => entries.extend(ids.iter().map(|(id, v)| (id.clone(), Value::Float(*v)))),
            Some((key, rest)) => {
                let i = match entries.iter().position(|(k, _)| k == key) {
                    Some(i) => i,
                    None => {
                        entries.push((key.to_string(), Value::Map(Vec::new())));
                        entries.len() - 1
                    }
                };
                insert(&mut entries[i].1, rest, ids);
            }
        }
    }

    fn failures(data: &Data) -> Vec<String> {
        let figs = Figures::load(&SIDES, reader(data));
        evaluate(&table(), &figs)
            .into_iter()
            .filter(|o| !o.ok)
            .map(|o| o.label)
            .collect()
    }

    #[test]
    fn consistent_figures_pass_every_check() {
        let outcomes = evaluate(&table(), &Figures::load(&SIDES, reader(&passing())));
        let failed: Vec<String> = outcomes
            .iter()
            .filter(|o| !o.ok)
            .map(|o| o.label.clone())
            .collect();
        assert!(failed.is_empty(), "{failed:#?}");
        assert_eq!(outcomes.len(), 63);
    }

    #[test]
    fn each_ratio_and_exact_check_passes_at_its_limit_and_fails_just_past_it() {
        let mut judged = 0;
        for c in table() {
            for &(l, r) in c.scope.sides() {
                let (lhs, at_limit, past_it) = match &c.rule {
                    Rule::Ratio(lhs, limit, rhs) => {
                        let (_, max) = limit.judge(0.0, passing()[&(r, rhs.map)][&rhs.id]);
                        (lhs, max, max * (1.0 + 1e-9))
                    }
                    Rule::Exact(f, want) => (f, *want, want + 1.0),
                    _ => continue,
                };
                for (v, ok) in [(at_limit, true), (past_it, false)] {
                    let mut data = passing();
                    set(&mut data, l, lhs.map, &lhs.id, v);
                    let outcome = c.rule.judge((l, r), &Figures::load(&SIDES, reader(&data)));
                    assert_eq!(outcome.ok, ok, "{}: {}", outcome.label, outcome.detail);
                }
                judged += 1;
            }
        }
        assert_eq!(judged, 50);
    }

    #[test]
    fn missing_extra_and_unknown_ids_fail_their_id_sets() {
        let mut data = passing();
        data.get_mut(&(Side::Fresh, E13))
            .unwrap()
            .remove("e13_compiled_replay/compiled/256");
        assert_eq!(
            failures(&data),
            [
                "fresh BENCH_e13.json: exactly the 11 expected ids",
                "fresh BENCH_e13.json: e13_compiled_replay/compiled/256 <= 1 x \
                 e13_compiled_replay/interpreter/256",
            ]
        );

        let mut data = passing();
        set(&mut data, Side::CheckedIn, E14, "e14_decomp/pack/8192", 1.0);
        assert_eq!(
            failures(&data),
            ["checked-in BENCH_e14.json: exactly the 15 expected ids"]
        );

        // A new e5 id must come with a checked-in baseline.
        let mut data = passing();
        set(&mut data, Side::Fresh, E5, "e5_schedulers/csa/8192", 1.0);
        assert_eq!(
            failures(&data),
            ["fresh BENCH_e5.json: exactly the 21 expected ids"]
        );

        let mut data = passing();
        set(
            &mut data,
            Side::Fresh,
            E5,
            "e5_schedulers/no-such-router/256",
            1.0,
        );
        assert_eq!(
            failures(&data),
            [
                "fresh BENCH_e5.json: every router name is in the registry",
                "fresh BENCH_e5.json: exactly the 21 expected ids",
            ]
        );
    }

    #[test]
    fn a_herd_that_computes_twice_fails() {
        let mut data = passing();
        set(
            &mut data,
            Side::Fresh,
            E16,
            "e16_herd/computations-per-key/1024",
            2.0,
        );
        assert_eq!(
            failures(&data),
            ["fresh BENCH_e16.json: e16_herd/computations-per-key/1024 == 1"]
        );
    }

    #[test]
    fn checked_in_e5_and_e6_figures_come_from_current_and_same_run_ns() {
        // Sections the gate must not read: a seed baseline that every fresh
        // e5 figure exceeds 20-fold, a front-end run far above csa, and a
        // headline id outside e6's expected set.
        let mut data = passing();
        let seed = map("BENCH_e5.json", &["seed"], "");
        let before = map("BENCH_e5.json", &["front_ends", "before_ns"], "");
        let headline = map("BENCH_e6.json", &["headline"], "");
        set(
            &mut data,
            Side::CheckedIn,
            seed,
            "e5_schedulers/csa/256",
            1.0,
        );
        set(&mut data, Side::CheckedIn, before, "layered/4096", 1e9);
        set(
            &mut data,
            Side::CheckedIn,
            headline,
            "e6_stream/extra/1024",
            1.0,
        );
        assert_eq!(failures(&data), Vec::<String>::new());

        set(&mut data, Side::CheckedIn, E5, "e5_schedulers/csa/256", 4.9);
        set(
            &mut data,
            Side::CheckedIn,
            E5_SAME_RUN,
            "layered/4096",
            151.0,
        );
        assert_eq!(
            failures(&data),
            [
                "fresh BENCH_e5.json e5_schedulers/csa/256 <= 20 x \
                 checked-in BENCH_e5.json current e5_schedulers/csa/256",
                "checked-in BENCH_e5.json front_ends.same_run_ns: layered/4096 <= 1.5 x csa/4096",
            ]
        );
    }

    #[test]
    fn an_unreadable_file_fails_every_check_that_needs_it() {
        let data = passing();
        let read = reader(&data);
        let figs = Figures::load(&SIDES, |side, file| match (side, file) {
            (Side::Fresh, "BENCH_e15.json") => Err("cannot read".into()),
            _ => read(side, file),
        });
        let failed: Vec<String> = evaluate(&table(), &figs)
            .into_iter()
            .filter(|o| !o.ok)
            .map(|o| o.label)
            .collect();
        assert_eq!(
            failed,
            [
                "fresh BENCH_e15.json: exactly the 5 expected ids",
                "fresh BENCH_e15.json: e15_serve/cached/1024 <= 1 x e15_serve/uncached/1024",
                "fresh BENCH_e16.json e16_herd/contended-hit-p50/1024 <= 1 x \
                 fresh BENCH_e15.json e15_serve/uncached/1024",
            ]
        );
    }

    /// The checked-in medians miss two e14 limits. Whoever mends either
    /// one updates this test.
    #[test]
    fn checked_in_files_fail_only_the_two_known_e14_checks() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let figs = Figures::load(&[Side::CheckedIn], |_, file| {
            std::fs::read_to_string(root.join(file)).map_err(|e| e.to_string())
        });
        let failed: Vec<(String, String)> = evaluate(&table(), &figs)
            .into_iter()
            .filter(|o| !o.ok)
            .map(|o| (o.label, o.detail))
            .collect();
        let expect = |label: &str, detail: &str| (label.to_string(), detail.to_string());
        assert_eq!(
            failed,
            [
                expect(
                    "checked-in BENCH_e14.json: e14_decomp/certificate/1024 <= \
                     e14_decomp/decompose/1024 / 3",
                    "371722 ns, limit 200414 ns",
                ),
                expect(
                    "checked-in BENCH_e14.json: e14_decomp/pack/1024 <= \
                     e14_decomp/route-layers/1024 / 10",
                    "173173 ns, limit 156644 ns",
                ),
            ]
        );
    }
}
