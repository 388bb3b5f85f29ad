//! LEAPME benchmark: one command, four workloads, end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-match|serve-fresh|serve-keepalive|stress-retrieval|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny] [--corrupt <gate>]
//! ```
//!
//! Run it from the repository root: scratch artifacts go to
//! `.bench_work/` there, traces to `.bench_work/traces/`. Every call it
//! times is a public function of the pipeline crates, called in the
//! order `leapme match`, `leapme match --model` and `leapme serve` call
//! them. A run whose correctness gates fail exits non-zero and prints no
//! numbers. Otherwise stdout ends with tab-separated `info`, `gate`,
//! `metric` and (traced) `layer` lines, then the one-line JSON result.
//! `--corrupt <gate>` corrupts one gate's expectation so the smoke test
//! can prove the gate fires.

pub mod batch;
pub mod fixture;
pub mod report;
pub mod service;
pub mod stats;
pub mod stress;
pub mod trace;

use fixture::Scale;
use report::Report;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = [
    "batch-match",
    "serve-fresh",
    "serve-keepalive",
    "stress-retrieval",
];

/// Gates `--corrupt` accepts.
pub const GATES: [&str; 8] = [
    "held_out_bitwise",
    "f1_floor",
    "serve_bitwise",
    "oracle_completeness",
    "scored_ratio",
    "decomposed_candidates",
    "faults_enabled",
    "replay_bitwise",
];

/// One run's settings, shared by every workload.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub tracer: Tracer,
    corrupt: Option<String>,
}

impl Ctx {
    /// Whether this run deliberately corrupts `gate`'s expectation.
    pub fn corrupts(&self, gate: &str) -> bool {
        self.corrupt.as_deref() == Some(gate)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    corrupt: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?} or all"
        ));
    }
    let seed = get("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let scale = match get("--scale").unwrap_or("full") {
        "full" => Scale::Full,
        "tiny" => Scale::Tiny,
        other => return Err(format!("--scale must be full or tiny, got {other:?}")),
    };
    let corrupt = get("--corrupt").map(str::to_string);
    if let Some(g) = &corrupt {
        if !GATES.contains(&g.as_str()) {
            return Err(format!("--corrupt: unknown gate {g:?}; one of {GATES:?}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scale,
        corrupt,
    })
}

/// Parse the command line, run, and report; the binary's `main`.
pub fn cli_main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        tracer: Tracer::new(args.trace),
        corrupt: args.corrupt,
    };
    let mut report = Report::default();
    fingerprint(&ctx, &mut report);
    let faults = cfg!(feature = "faults") || ctx.corrupts("faults_enabled");
    report.gate(
        "faults_enabled",
        !faults,
        format!("faults_enabled={faults}"),
    );

    let outcome = match ctx.workload.as_str() {
        "batch-match" => batch::run(&ctx, &mut report),
        "serve-fresh" => service::run(&ctx, &mut report, false),
        "serve-keepalive" => service::run(&ctx, &mut report, true),
        "stress-retrieval" => stress::run(&ctx, &mut report),
        _ => unreachable!("validated workload"),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", ctx.workload);
        return ExitCode::FAILURE;
    }
    let failed = report.failed_gates();
    if !failed.is_empty() {
        for g in failed {
            eprintln!("perfbench: gate {} failed: {}", g.name, g.detail);
        }
        return ExitCode::FAILURE;
    }

    let peak_rss = report::peak_rss_mb();
    let setup_s = stats::median(&report.setup_s).unwrap_or(f64::NAN);
    let op_p50 = stats::median(&report.op_ms).unwrap_or(f64::NAN);
    report.e2e("setup_s", setup_s, "s");
    report.e2e("peak_rss_mb", peak_rss, "MiB");
    report.e2e(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.info("setup_runs", report.setup_s.len());
    for line in report::detail_lines(&report, args.trace) {
        println!("{line}");
    }
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        report::PER_LAYER
            .iter()
            .map(|(name, unit)| {
                (
                    *name,
                    report.layers.get(name).copied().unwrap_or(0.0),
                    *unit,
                )
            })
            .collect()
    } else {
        let value = |name: &str| match name {
            "setup_s" => setup_s,
            "op_p50_ms" => op_p50,
            "ops_per_s" => report.ops_per_s,
            "peak_rss_mb" => peak_rss,
            _ => unreachable!("end-to-end metric {name}"),
        };
        report::END_TO_END
            .iter()
            .map(|(name, unit)| (*name, value(name), *unit))
            .collect()
    };
    println!(
        "{}",
        report::result_line(&metrics, report.attempted, report.failed)
    );
    ExitCode::SUCCESS
}

/// Host and run fingerprint recorded on every result.
fn fingerprint(ctx: &Ctx, report: &mut Report) {
    report.info("workload", &ctx.workload);
    report.info("seed", ctx.seed);
    report.info("traced", ctx.tracer.enabled());
    report.info("scale", format!("{:?}", ctx.scale).to_lowercase());
    report.info(
        "nproc",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    report.info("nn_threads", leapme::nn::threads::thread_count());
    report.info("simd", simd());
    report.info("commit", commit().unwrap_or_else(|| "unknown".to_string()));
    report.info("source_digest", source_digest());
    report.info("faults_enabled", cfg!(feature = "faults"));
}

fn simd() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut found = Vec::new();
        if std::arch::is_x86_feature_detected!("sse2") {
            found.push("sse2");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push("avx2");
        }
        if found.is_empty() {
            "none".to_string()
        } else {
            found.join(",")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "none".to_string()
    }
}

/// The checked-out commit, read from `.git` when the working directory
/// is a git checkout.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Digest of the program's sources (`src/`, `crates/`, `vendor/`,
/// manifests): identifies the code under test where `.git` is absent.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    for d in ["src", "crates", "vendor"] {
        walk(std::path::Path::new(d), &mut files);
    }
    files.sort();
    let mut h = fixture::Fnv::default();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.str(&f.to_string_lossy());
            h.bytes(&bytes);
        }
    }
    format!("{:016x}", h.0)
}

/// Write the traced run's spans to `.bench_work/traces/`.
pub fn write_trace(ctx: &Ctx, view: &trace::TraceView) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_work").join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", ctx.workload, ctx.seed));
    std::fs::write(&path, view.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}

/// One parsed child run: its `metric`/`layer` values.
struct ChildRun {
    values: std::collections::BTreeMap<String, (f64, String)>,
}

fn run_child(args: &Args, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args([
            "--scale",
            if args.scale == Scale::Tiny {
                "tiny"
            } else {
                "full"
            },
        ]);
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) failed: {}",
            u8::from(trace),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let mut values = std::collections::BTreeMap::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() == 4 && (f[0] == "metric" || f[0] == "layer") {
            if let Ok(v) = f[2].parse::<f64>() {
                values.insert(f[1].to_string(), (v, f[3].to_string()));
            }
        }
    }
    Ok(ChildRun { values })
}

/// `--workload all`: every workload untraced then traced, each in its
/// own process so peak RSS stays per workload; prints every end-to-end
/// metric, the tracing overhead, and the per-layer coverage.
fn run_all(args: &Args) -> ExitCode {
    let started = Instant::now();
    let mut ok = true;
    for workload in WORKLOADS {
        let (plain, traced) = match (
            run_child(args, workload, false),
            run_child(args, workload, true),
        ) {
            (Ok(p), Ok(t)) => (p, t),
            (p, t) => {
                for e in [p.err(), t.err()].into_iter().flatten() {
                    eprintln!("perfbench: {e}");
                }
                ok = false;
                continue;
            }
        };
        println!("== {workload}");
        for (name, (value, unit)) in &plain.values {
            println!("{workload}\t{name}\t{value}\t{unit}");
        }
        for name in [
            "train_match_s",
            "rescore_s",
            "score_p50_ms",
            "retrieval_match_s",
        ] {
            if let (Some((u, unit)), Some((t, _))) =
                (plain.values.get(name), traced.values.get(name))
            {
                println!("{workload}\ttrace_overhead.{name}\t{}\t{unit}", t - u);
            }
        }
        if let Some((c, _)) = traced.values.get("trace.coverage") {
            println!("{workload}\ttrace.coverage\t{c}\tratio");
        }
    }
    eprintln!(
        "perfbench: all workloads in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
