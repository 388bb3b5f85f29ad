//! What one run reports: end-to-end and per-layer metrics, correctness
//! gates, and the host/run fingerprint — plus the result line the
//! benchmark contract reads.

use crate::stats;
use std::collections::BTreeMap;

/// End-to-end metrics of the result line of an untraced run (the
/// `end_to_end` list of BENCHMARK.json), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the result line of a traced run (the
/// `per_layer` list of BENCHMARK.json), with units. A layer a workload
/// never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("features.build_s", "s"),
    ("features.pair_table_s", "s"),
    ("features.pair_table_entries", "count"),
    ("features.pair_table_hits", "count"),
    ("features.string_cache_hits", "count"),
    ("features.string_cache_misses", "count"),
    ("features.memo_hit_ratio", "ratio"),
    ("core.feature_cache.save_s", "s"),
    ("core.feature_cache.load_s", "s"),
    ("core.pipeline.fit_s", "s"),
    ("core.pipeline.predict_s", "s"),
    ("core.pipeline.predict_us_per_pair", "us"),
    ("core.pipeline.train_pairs", "count"),
    ("core.pipeline.pairs_scored", "count"),
    ("core.pipeline.score_ms", "ms"),
    ("core.sampling.training_pairs_s", "s"),
    ("core.sampling.test_pairs_s", "s"),
    ("nn.model_save_s", "s"),
    ("nn.model_open_s", "s"),
    ("data.graph_write_s", "s"),
    ("core.index.vectorize_s", "s"),
    ("core.index.hnsw_build_s", "s"),
    ("core.index.lsh_build_s", "s"),
    ("core.index.hnsw_query_s", "s"),
    ("core.index.lsh_query_s", "s"),
    ("core.blocking.retrieval_s", "s"),
    ("core.blocking.evaluate_s", "s"),
    ("core.blocking.candidates", "count"),
    ("core.blocking.full_space", "count"),
    ("core.blocking.scored_ratio", "ratio"),
    ("core.blocking.oracle_completeness", "ratio"),
    ("core.blocking.gt_completeness", "ratio"),
    ("serve.client.connect_ms", "ms"),
    ("serve.client.ttfb_ms", "ms"),
    ("serve.client.body_ms", "ms"),
    ("serve.client.reconnects", "count"),
    ("serve.handlers.handle_ms", "ms"),
    ("serve.handlers.us_per_pair", "us"),
    ("serve.wait_ms", "ms"),
    ("serve.admitted", "count"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.client_errors", "count"),
    ("serve.disconnects", "count"),
    ("serve.worker_panics", "count"),
    ("trace.coverage", "ratio"),
];

/// A correctness gate's outcome.
pub struct Gate {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Report {
    /// Wall time of each set-up the run made.
    pub setup_s: Vec<f64>,
    /// Wall time of each unit of work (iteration or request), in ms.
    pub op_ms: Vec<f64>,
    /// Units of work completed per second over the measured window.
    pub ops_per_s: f64,
    /// Operations attempted and failed (non-2xx, connect/read failure,
    /// failed call).
    pub attempted: u64,
    pub failed: u64,
    /// The workload's own end-to-end metrics: `(name, value, unit)`.
    pub e2e: Vec<(String, f64, &'static str)>,
    /// Per-layer values by name (traced run; see [`PER_LAYER`]).
    pub layers: BTreeMap<&'static str, f64>,
    pub gates: Vec<Gate>,
    /// Descriptive facts: fingerprint, input digest, sizes.
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn gate(&mut self, name: &'static str, passed: bool, detail: String) {
        self.gates.push(Gate {
            name,
            passed,
            detail,
        });
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push((name.to_string(), value, unit));
    }

    /// Median and tail of a timing sample: `name` (for example
    /// `score_p50_ms` or `train_match_s`) is the median, the same name
    /// with `_p<N>` in place of `_p50` (or before the unit) the highest
    /// percentile with at least ten samples beyond it (absent when there
    /// are too few), and `<name>_samples` the sample count.
    pub fn timing(&mut self, name: &str, values: &[f64], unit: &'static str) {
        if let Some(m) = stats::median(values) {
            self.e2e(name, m, unit);
        }
        if let Some((p, v)) = stats::tail(values) {
            let (stem, suffix) = name.rsplit_once('_').unwrap_or((name, ""));
            let stem = stem.strip_suffix("_p50").unwrap_or(stem);
            self.e2e(&format!("{stem}_p{p}_{suffix}"), v, unit);
        }
        self.info(&format!("{name}_samples"), values.len());
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Median of `values` as a layer metric (0 when empty).
    pub fn layer_median(&mut self, name: &'static str, values: &[f64]) {
        self.layer(name, stats::median(values).unwrap_or(0.0));
    }

    /// The name-distance memo counters as layer metrics.
    pub fn memo_layers(
        &mut self,
        table_entries: usize,
        table_hits: u64,
        cache_hits: u64,
        cache_misses: u64,
    ) {
        self.layer("features.pair_table_entries", table_entries as f64);
        self.layer("features.pair_table_hits", table_hits as f64);
        self.layer("features.string_cache_hits", cache_hits as f64);
        self.layer("features.string_cache_misses", cache_misses as f64);
        let served = table_hits + cache_hits;
        let lookups = served + cache_misses;
        self.layer(
            "features.memo_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                served as f64 / lookups as f64
            },
        );
    }

    pub fn failed_gates(&self) -> Vec<&Gate> {
        self.gates.iter().filter(|g| !g.passed).collect()
    }
}

/// Format a metric value with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The contract result line.
pub fn result_line(metrics: &[(&str, f64, &str)], attempted: u64, failed: u64) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Human-readable, tab-separated lines that precede the result line:
/// `metric`, `layer`, `gate` and `info` records.
pub fn detail_lines(report: &Report, traced: bool) -> Vec<String> {
    let mut out = Vec::new();
    for (k, v) in &report.info {
        out.push(format!("info\t{k}\t{v}"));
    }
    for g in &report.gates {
        out.push(format!("gate\t{}\tpass\t{}", g.name, g.detail));
    }
    for (name, value, unit) in &report.e2e {
        out.push(format!("metric\t{name}\t{}\t{unit}", num(*value)));
    }
    if traced {
        for (name, unit) in PER_LAYER {
            let v = report.layers.get(name).copied().unwrap_or(0.0);
            out.push(format!("layer\t{name}\t{}\t{unit}", num(v)));
        }
    }
    out
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
