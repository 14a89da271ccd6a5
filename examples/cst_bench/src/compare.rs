//! `cst_bench compare <dirA> <dirB>`: parent (A) against change (B).
//!
//! Applies the gain and no-regression rules with the bounds in
//! `BENCHMARK.json`, per (workload, end-to-end metric):
//!
//! * runs must alternate A/B in time, and the i-th A run and the i-th B
//!   run of a workload must have measured the same inputs (equal
//!   `workload_digest`); smoke runs are refused outright;
//! * `improved` needs B to win at least 9 of 10 pairs (ties count for
//!   neither) and the medians to differ by more than A's interquartile
//!   range;
//! * `worse` means B's median is worse than A's by more than the bound;
//! * `unresolved` means either side's spread (IQR over median) exceeds
//!   the bound, unless every B run reads better than every A run;
//! * otherwise `unchanged`.
//!
//! `rounds_per_route` and `power_units_per_route` are exact: a seed fixes
//! them, so paired runs (same inputs) must agree to the last digit. Their
//! bounds only cover seed-to-seed spread; here any pair in which B reads
//! worse makes the metric `worse`, and B reading better in some pairs and
//! worse in none makes it `improved`.
//!
//! Exit status: 0 when nothing is worse or unresolved, 1 otherwise, 2
//! when the inputs are refused.

use crate::report::ResultFile;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::path::Path;

/// Metrics a seed determines exactly (see the module docs).
const EXACT: [&str; 2] = ["rounds_per_route", "power_units_per_route"];

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn refuse(msg: &str) -> i32 {
    eprintln!("compare: refused: {msg}");
    2
}

fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(serde::Value::Seq(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(serde::Value::Str(s)) => s.clone(),
                _ => return Err("an end_to_end metric has no name".to_string()),
            };
            let lower_is_better =
                matches!(m.get("better"), Some(serde::Value::Str(s)) if s == "lower");
            let bound = match m.get("bound") {
                Some(serde::Value::Float(f)) => *f,
                Some(serde::Value::UInt(u)) => *u as f64,
                Some(serde::Value::Int(i)) => *i as f64,
                _ => return Err(format!("{name} has no numeric bound")),
            };
            Ok(Bound {
                name,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

fn load_runs(dir: &Path) -> Result<Vec<ResultFile>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run: ResultFile =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if run.mode != "measured" {
            return Err(format!(
                "{} is a {} run, not a measured one",
                path.display(),
                run.mode
            ));
        }
        if !run.trace {
            runs.push(run);
        }
    }
    Ok(runs)
}

fn value(run: &ResultFile, metric: &str) -> Option<f64> {
    run.metrics
        .iter()
        .find(|m| m.name == metric)
        .map(|m| m.value)
}

pub fn main(args: &[String]) -> i32 {
    let mut dirs = Vec::new();
    let mut bench_json = "BENCHMARK.json".to_string();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--bench-json" && i + 1 < args.len() {
            bench_json = args[i + 1].clone();
            i += 1;
        } else {
            dirs.push(args[i].clone());
        }
        i += 1;
    }
    let [dir_a, dir_b] = dirs.as_slice() else {
        eprintln!("usage: cst_bench compare <dirA> <dirB> [--bench-json <path>]");
        return 2;
    };
    let bounds = match load_bounds(Path::new(&bench_json)) {
        Ok(b) => b,
        Err(e) => return refuse(&e),
    };
    let (runs_a, runs_b) = match (load_runs(Path::new(dir_a)), load_runs(Path::new(dir_b))) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return refuse(&e),
    };

    // Per workload: the runs of both sides in time order.
    let mut by_workload: BTreeMap<String, Vec<(bool, ResultFile)>> = BTreeMap::new();
    for (is_b, run) in runs_a
        .into_iter()
        .map(|r| (false, r))
        .chain(runs_b.into_iter().map(|r| (true, r)))
    {
        by_workload
            .entry(run.workload.clone())
            .or_default()
            .push((is_b, run));
    }
    let mut flagged = 0;
    println!(
        "{:<16} {:<22} {:>12} {:>23} {:>12} {:>23} {:>6}  verdict",
        "workload", "metric", "A median", "A [p25, p75]", "B median", "B [p25, p75]", "wins"
    );
    for (workload, mut runs) in by_workload {
        runs.sort_by_key(|(_, r)| r.started_unix_ms);
        if runs.windows(2).any(|w| w[0].0 == w[1].0) {
            return refuse(&format!("{workload}: A and B runs do not alternate"));
        }
        let a: Vec<&ResultFile> = runs.iter().filter(|(b, _)| !b).map(|(_, r)| r).collect();
        let b: Vec<&ResultFile> = runs.iter().filter(|(b, _)| *b).map(|(_, r)| r).collect();
        if a.is_empty() || b.is_empty() {
            return refuse(&format!("{workload}: one side has no runs"));
        }
        if let Some((x, y)) = a
            .iter()
            .zip(&b)
            .find(|(x, y)| x.workload_digest != y.workload_digest)
        {
            return refuse(&format!(
                "{workload}: paired runs measured different inputs (digest {} seed {} vs {} seed {})",
                x.workload_digest, x.seed, y.workload_digest, y.seed
            ));
        }
        for bound in &bounds {
            let va: Vec<f64> = a.iter().filter_map(|r| value(r, &bound.name)).collect();
            let vb: Vec<f64> = b.iter().filter_map(|r| value(r, &bound.name)).collect();
            let verdict = judge(&va, &vb, bound);
            if matches!(verdict.0, "worse" | "unresolved") {
                flagged += 1;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            println!(
                "{:<16} {:<22} {:>12.4} [{:>10.4}, {:>10.4}] {:>12.4} [{:>10.4}, {:>10.4}] {:>6}  {}",
                workload,
                bound.name,
                qa.1,
                qa.0,
                qa.2,
                qb.1,
                qb.0,
                qb.2,
                verdict.1,
                verdict.0
            );
        }
    }
    i32::from(flagged > 0)
}

/// Verdict for one (workload, metric) and the win count `wins/pairs`.
fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (&'static str, String) {
    let better = |x: f64, y: f64| if bound.lower_is_better { x < y } else { x > y };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| better(**y, **x)).count();
    let win_label = format!("{wins}/{pairs}");
    if EXACT.contains(&bound.name.as_str()) {
        let losses = a.iter().zip(b).filter(|(x, y)| better(**x, **y)).count();
        let verdict = match (losses, wins) {
            (0, 0) => "unchanged",
            (0, _) => "improved",
            _ => "worse",
        };
        return (verdict, win_label);
    }
    let (qa, qb) = (quartiles(a), quartiles(b));
    let spread = |q: (f64, f64, f64)| {
        if q.1 == 0.0 {
            0.0
        } else {
            (q.2 - q.0) / q.1.abs()
        }
    };
    let every_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let worse_by = if qa.1 == 0.0 {
        0.0
    } else if bound.lower_is_better {
        (qb.1 - qa.1) / qa.1.abs()
    } else {
        (qa.1 - qb.1) / qa.1.abs()
    };
    let verdict = if (spread(qa) > bound.bound || spread(qb) > bound.bound) && !every_b_better {
        "unresolved"
    } else if pairs > 0
        && wins as f64 >= 0.9 * pairs as f64
        && better(qb.1, qa.1)
        && (qb.1 - qa.1).abs() > qa.2 - qa.0
    {
        "improved"
    } else if worse_by > bound.bound {
        "worse"
    } else {
        "unchanged"
    };
    (verdict, win_label)
}
