//! Smoke test of the benchmark itself, at tiny input sizes: every
//! workload emits each metric with its unit, each correctness gate
//! fails on a deliberately corrupted expectation, and the workload seed
//! changes the generated inputs but not the metric names.

use leapme_perfbench::report::{END_TO_END, PER_LAYER};
use leapme_perfbench::WORKLOADS;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

struct Run {
    success: bool,
    stdout: String,
    stderr: String,
}

impl Run {
    fn result_line(&self) -> &str {
        self.stdout.lines().last().unwrap_or("")
    }

    /// `(name, value, unit)` of every tab-separated record of `kind`.
    fn records(&self, kind: &str) -> Vec<(String, String, String)> {
        self.stdout
            .lines()
            .filter_map(|l| {
                let f: Vec<&str> = l.split('\t').collect();
                (f.len() == 4 && f[0] == kind)
                    .then(|| (f[1].to_string(), f[2].to_string(), f[3].to_string()))
            })
            .collect()
    }

    fn info(&self, key: &str) -> Option<String> {
        self.stdout.lines().find_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            (f.len() == 3 && f[0] == "info" && f[1] == key).then(|| f[2].to_string())
        })
    }
}

fn bench(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--scale", "tiny", "--seconds", "0.3"])
        .args(args)
        .output()
        .expect("run perfbench");
    Run {
        success: out.status.success(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

fn run(workload: &str, seed: u64, trace: bool, corrupt: Option<&str>) -> Run {
    let seed = seed.to_string();
    let mut args = vec!["--workload", workload, "--seed", &seed, "--trace"];
    args.push(if trace { "1" } else { "0" });
    if let Some(gate) = corrupt {
        args.extend(["--corrupt", gate]);
    }
    bench(&args)
}

/// The value of `name` in a result line, checking its unit.
fn result_value(line: &str, name: &str, unit: &str) -> f64 {
    let tag = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&tag)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + tag.len();
    let rest = &line[at..];
    let (value, rest) = rest.split_once(", \"unit\": \"").expect("value then unit");
    assert!(
        rest.starts_with(&format!("{unit}\"}}")),
        "{name}: unit is not {unit}: {rest}"
    );
    value
        .parse()
        .unwrap_or_else(|_| panic!("{name}: {value} is not a number"))
}

fn assert_result(run: &Run, metrics: &[(&str, &str)]) {
    assert!(run.success, "run failed: {}", run.stderr);
    let line = run.result_line();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0,"), "{line}");
    for (name, unit) in metrics {
        result_value(line, name, unit);
    }
    let emitted = line.matches("\"unit\": ").count();
    assert_eq!(emitted, metrics.len(), "exactly the listed metrics: {line}");
}

/// The end-to-end metrics each workload prints by name beside the
/// result line.
fn workload_metrics(workload: &str) -> Vec<(&'static str, &'static str)> {
    let mut m = match workload {
        "batch-match" => vec![("train_match_s", "s"), ("rescore_s", "s")],
        "serve-fresh" | "serve-keepalive" => vec![("score_p50_ms", "ms"), ("score_rps", "1/s")],
        "stress-retrieval" => vec![("retrieval_match_s", "s")],
        other => panic!("unknown workload {other}"),
    };
    m.extend([
        ("setup_s", "s"),
        ("peak_rss_mb", "MiB"),
        ("error_rate", "ratio"),
    ]);
    m
}

/// Layers each workload must show non-zero work on in a traced run.
fn exercised_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "batch-match" => &[
            "features.build_s",
            "core.feature_cache.save_s",
            "core.pipeline.fit_s",
            "core.pipeline.predict_s",
            "nn.model_open_s",
            "data.graph_write_s",
            "trace.coverage",
        ],
        "serve-fresh" | "serve-keepalive" => &[
            "serve.client.ttfb_ms",
            "serve.handlers.handle_ms",
            "core.pipeline.score_ms",
            "serve.completed",
        ],
        "stress-retrieval" => &[
            "core.index.hnsw_build_s",
            "core.index.lsh_query_s",
            "core.blocking.retrieval_s",
            "core.blocking.oracle_completeness",
            "trace.coverage",
        ],
        other => panic!("unknown workload {other}"),
    }
}

/// Gates a workload checks, with whether the gate needs a traced run.
fn gates(workload: &str) -> &'static [(&'static str, bool)] {
    match workload {
        "batch-match" => &[
            ("held_out_bitwise", false),
            ("f1_floor", false),
            ("faults_enabled", false),
        ],
        "serve-fresh" => &[("serve_bitwise", false), ("replay_bitwise", true)],
        "serve-keepalive" => &[("serve_bitwise", false)],
        "stress-retrieval" => &[
            ("oracle_completeness", false),
            ("scored_ratio", false),
            ("decomposed_candidates", true),
        ],
        other => panic!("unknown workload {other}"),
    }
}

fn check_workload(workload: &str) {
    let end_to_end: Vec<(&str, &str)> = END_TO_END.to_vec();
    let plain = run(workload, 1, false, None);
    assert_result(&plain, &end_to_end);
    let metrics = plain.records("metric");
    for (name, unit) in workload_metrics(workload) {
        assert!(
            metrics.iter().any(|(n, _, u)| n == name && u == unit),
            "{workload}: metric {name} [{unit}] missing: {:?}",
            metrics
        );
    }
    for key in [
        "nproc",
        "nn_threads",
        "simd",
        "commit",
        "seed",
        "traced",
        "faults_enabled",
    ] {
        assert!(
            plain.info(key).is_some(),
            "{workload}: fingerprint lacks {key}"
        );
    }

    // Another seed: other inputs, the same metric names.
    let other = run(workload, 2, false, None);
    assert_result(&other, &end_to_end);
    assert_ne!(
        plain.info("inputs_digest"),
        other.info("inputs_digest"),
        "{workload}: the seed must change the generated inputs"
    );
    let names =
        |r: &Run| -> BTreeSet<String> { r.records("metric").into_iter().map(|m| m.0).collect() };
    assert_eq!(
        names(&plain),
        names(&other),
        "{workload}: metric names depend on the seed"
    );

    let traced = run(workload, 1, true, None);
    let per_layer: Vec<(&str, &str)> = PER_LAYER.to_vec();
    assert_result(&traced, &per_layer);
    for layer in exercised_layers(workload) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| n == layer)
            .expect("listed layer")
            .1;
        let v = result_value(traced.result_line(), layer, unit);
        assert!(v > 0.0, "{workload}: layer {layer} reads {v}");
    }
    assert_eq!(traced.info("traced").as_deref(), Some("true"));

    for (gate, needs_trace) in gates(workload) {
        let r = run(workload, 1, *needs_trace, Some(gate));
        assert!(!r.success, "{workload}: corrupted {gate} must fail the run");
        assert!(
            r.stderr.contains(&format!("gate {gate} failed")),
            "{workload}: {gate}: {}",
            r.stderr
        );
        assert!(
            !r.stdout.contains("\"correct\"") && r.records("metric").is_empty(),
            "{workload}: a failed gate must record no numbers: {}",
            r.stdout
        );
    }
}

#[test]
fn batch_match() {
    check_workload("batch-match");
}

#[test]
fn serve_fresh() {
    check_workload("serve-fresh");
}

#[test]
fn serve_keepalive() {
    check_workload("serve-keepalive");
}

#[test]
fn stress_retrieval() {
    check_workload("stress-retrieval");
}

#[test]
fn all_runs_every_workload_and_reports_trace_overhead() {
    let r = bench(&["--workload", "all", "--seed", "3"]);
    assert!(r.success, "{}", r.stderr);
    for workload in WORKLOADS {
        assert!(r.stdout.contains(&format!("== {workload}")), "{}", r.stdout);
    }
    for overhead in [
        "trace_overhead.train_match_s",
        "trace_overhead.rescore_s",
        "trace_overhead.score_p50_ms",
        "trace_overhead.retrieval_match_s",
    ] {
        assert!(
            r.stdout.contains(overhead),
            "{overhead} missing: {}",
            r.stdout
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "batch-match", "--trace", "2"],
        vec!["--workload", "batch-match", "--corrupt", "nope"],
    ] {
        let r = bench(&args);
        assert!(!r.success, "{args:?} must fail");
        assert!(r.stdout.is_empty(), "{args:?} printed {}", r.stdout);
    }
}

/// The names in one list of BENCHMARK.json, in order.
fn benchmark_names(json: &str, list: &str) -> Vec<String> {
    let start = json.find(&format!("\"{list}\"")).expect("list present");
    let section = &json[start..];
    let end = section.find(']').expect("list closes");
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("name closes").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_runs_emit() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let strings = |v: &[(&str, &str)]| v.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(benchmark_names(&json, "end_to_end"), strings(END_TO_END));
    assert_eq!(benchmark_names(&json, "per_layer"), strings(PER_LAYER));
    assert_eq!(
        benchmark_names(&json, "workloads"),
        WORKLOADS.iter().map(|w| w.to_string()).collect::<Vec<_>>()
    );
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}] not in BENCHMARK.json"
        );
    }
}
