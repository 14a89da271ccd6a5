//! Metric names and units, the stamped result file, and the one-line
//! JSON summary.

use crate::stats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// End-to-end metrics: reported by every untraced run, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("routes_per_s", "routes/s"),
    ("success_ratio", "ratio"),
    ("rounds_per_route", "rounds"),
    ("power_units_per_route", "units"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: reported by every traced run. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.encode_us", "us"),
    ("client.write_us", "us"),
    ("client.wait_us", "us"),
    ("client.decode_us", "us"),
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("transport.gap_us", "us"),
    ("server.handle_frame_hit_p50_us", "us"),
    ("server.handle_frame_hit_p99_us", "us"),
    ("server.handle_frame_miss_p50_us", "us"),
    ("server.handle_frame_miss_p99_us", "us"),
    ("server.handle_frame_batch_p50_us", "us"),
    ("server.handle_frame_batch_p99_us", "us"),
    ("wire.decode_request_us", "us"),
    ("encode.payload_us", "us"),
    ("encode.response_us", "us"),
    ("engine.fingerprint_us", "us"),
    ("shard.tier_probe_us", "us"),
    ("shard.locked_probe_us", "us"),
    ("shard.insert_us", "us"),
    ("flight.join_us", "us"),
    ("registry.find_us", "us"),
    ("shard.hit_ratio", "ratio"),
    ("shard.tier_hit_ratio", "ratio"),
    ("shard.evictions_per_route", "ratio"),
    ("shard.collisions", "count"),
    ("flight.coalesced_ratio", "ratio"),
    ("flight.computations_per_route", "ratio"),
    ("batch.coalesced_ratio", "ratio"),
    ("engine.route_us", "us"),
    ("csa.validate_us", "us"),
    ("csa.phase1_us", "us"),
    ("csa.rounds_us", "us"),
    ("degrade.route_masked_us", "us"),
    ("encode.schedule_json_us", "us"),
    ("decomp.decompose_ms", "ms"),
    ("decomp.certificate_ms", "ms"),
    ("decomp.coloring_ms", "ms"),
    ("general.route_layers_ms", "ms"),
    ("decomp.layers_over_bound", "layers"),
    ("decomp.proven_optimal_ratio", "ratio"),
    ("decomp.share_of_latency", "ratio"),
    ("server.span_coverage_hit", "ratio"),
    ("server.span_coverage_miss", "ratio"),
    ("server.span_coverage_batch", "ratio"),
    ("replay.payload_mismatches", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
];

/// One measured metric with the distribution it was drawn from.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricRecord {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub samples: u64,
}

/// The metrics of one run, by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, MetricRecord>);

fn unit_of(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .copied()
        .unwrap_or_else(|| panic!("metric {name} is not defined"))
}

impl Metrics {
    /// A scalar metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_from(name, value, &[value]);
    }

    /// A metric with the samples it summarizes (quartiles are recorded).
    pub fn set_from(&mut self, name: &str, value: f64, samples: &[f64]) {
        let (name, unit) = unit_of(name);
        let (p25, median, p75) = stats::quartiles(samples);
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(
            name,
            MetricRecord {
                name: name.into(),
                unit: unit.into(),
                value,
                p25,
                median,
                p75,
                samples: samples.len() as u64,
            },
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |m| m.value)
    }

    /// Records for `defs`, in order; undefined ones read 0.
    pub fn records(&self, defs: &[(&str, &str)]) -> Vec<MetricRecord> {
        defs.iter()
            .map(|(name, unit)| {
                self.0.get(name).cloned().unwrap_or(MetricRecord {
                    name: name.to_string(),
                    unit: unit.to_string(),
                    value: 0.0,
                    p25: 0.0,
                    median: 0.0,
                    p75: 0.0,
                    samples: 0,
                })
            })
            .collect()
    }
}

/// One run's stamped result file.
#[derive(Debug, Serialize, Deserialize)]
pub struct ResultFile {
    pub schema: String,
    /// `measured`, or `smoke` for 1 s windows that `compare` refuses.
    pub mode: String,
    pub trace: bool,
    pub workload: String,
    pub seed: u64,
    pub window_s: f64,
    pub available_parallelism: u64,
    pub git_rev: String,
    /// `Fp64` over the generated request stream, hex.
    pub workload_digest: String,
    pub started_unix_ms: u64,
    /// Latency samples (round trips timed in the window).
    pub samples: u64,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub failures: Vec<String>,
    pub metrics: Vec<MetricRecord>,
}

pub const SCHEMA: &str = "cst_bench/1";

/// The summary line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[MetricRecord]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
