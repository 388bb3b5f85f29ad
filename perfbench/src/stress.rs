//! `stress-retrieval`: `match --stress <N> --blocking combined --model`
//! over a `data::stress` dataset, the only workload where the HNSW and
//! name-LSH indexes of `core::index` run.

use crate::fixture::{self, Fnv, Scale, WorkDir};
use crate::report::Report;
use crate::trace::TraceView;
use crate::{stats, Ctx};
use leapme::core::blocking::{self, AnnBlocker, LshBlocker, RetrievalMode};
use leapme::core::cancel::CancelToken;
use leapme::core::feature_cache;
use leapme::core::index::hnsw::{HnswIndex, VisitedSet};
use leapme::core::index::lsh::NameLshIndex;
use leapme::core::index::PropertyVectors;
use leapme::core::pipeline::{DurableFitOptions, Leapme, LeapmeModel};
use leapme::core::sampling;
use leapme::data::model::{Dataset, PropertyPair, SourceId};
use leapme::data::stress::{generate_stress_dataset, StressConfig};
use leapme::embedding::store::EmbeddingStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Embedding dimension of `match --stress` (`--stress-dim` default).
const STRESS_DIM: usize = 24;
/// Sources the fixture model trains on. Each source holds 50 of ~1.25k
/// reference properties at 10k, so a handful of sources share too few
/// aligned pairs to train on (the 16 the stress drill of verify.sh uses).
const TRAIN_SOURCES: u16 = 16;
/// Queries in the seeded oracle slice.
const ORACLE_QUERIES: usize = 512;
/// Gate bounds, as scripts/verify.sh checks them.
const MIN_ORACLE_COMPLETENESS: f64 = 0.98;
const MAX_SCORED_RATIO: f64 = 0.05;
const SETUPS: usize = 5;

/// Properties in the stress dataset. 10k keeps one `match` iteration
/// near 5 s on a 2-core host, so a run holds several iterations and
/// reports their median; the full pair space (5 × 10⁷) is still far
/// past what the candidate set scores, and the name-pair table stays
/// gated off, so every name distance goes through the string cache.
fn properties(scale: Scale) -> usize {
    match scale {
        Scale::Full => 10_000,
        Scale::Tiny => 2_000,
    }
}

struct Fixture {
    dataset: Dataset,
    embeddings: EmbeddingStore,
}

/// Generate the dataset and embedding store as `match --stress` does,
/// then pretrain and save the model the iterations open.
fn setup(ctx: &Ctx, model_path: &std::path::Path) -> Result<Fixture, String> {
    let cfg = StressConfig::new(properties(ctx.scale), ctx.seed);
    let dataset = generate_stress_dataset(&cfg);
    let mut embeddings = leapme::stress_embedding_store(&cfg, STRESS_DIM, ctx.seed ^ 0xE5);
    embeddings.set_fuzzy_oov(true);
    let token = CancelToken::new();
    let check = token.checker();
    let (store, _) = feature_cache::load_or_build(
        None,
        &dataset,
        &embeddings,
        leapme::features::worker_threads(),
        Some(&check),
    )
    .map_err(|e| e.to_string())?;
    let sources: Vec<SourceId> = (0..TRAIN_SOURCES).map(SourceId).collect();
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let train = sampling::training_pairs(&dataset, &sources, 2, &mut rng);
    let opts = DurableFitOptions {
        cancel: Some(&check),
        ..Default::default()
    };
    let model = Leapme::fit_durable(&store, &train, &fixture::leapme_config(ctx.seed), &opts)
        .map_err(|e| e.to_string())?;
    model.save(model_path).map_err(|e| e.to_string())?;
    Ok(Fixture {
        dataset,
        embeddings,
    })
}

struct Iteration {
    candidates: Vec<PropertyPair>,
    stats: blocking::BlockingStats,
    cache_hits: u64,
    cache_misses: u64,
    table: Option<(usize, usize, u64)>,
    digest: u64,
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let work = WorkDir::create("stress").map_err(|e| format!("work dir: {e}"))?;
    let model_path = work.path("model.lmp");
    let mut fixture = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let f = setup(ctx, &model_path)?;
        report.setup_s.push(t.elapsed().as_secs_f64());
        fixture = Some(f);
    }
    let fx = fixture.expect("at least one set-up");

    // One untimed iteration first, so the measured ones start warm.
    iteration(ctx, &fx, &model_path, &work)?;
    ctx.tracer.clear();

    let started = Instant::now();
    let mut times = Vec::new();
    let it = loop {
        let t = Instant::now();
        let it = {
            let _span = ctx.tracer.span("workload.iteration");
            iteration(ctx, &fx, &model_path, &work)?
        };
        times.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        if started.elapsed().as_secs_f64() >= ctx.seconds {
            break it;
        }
    };
    let window = started.elapsed().as_secs_f64();

    // -- gates -------------------------------------------------------------
    let vectors = PropertyVectors::build(&fx.dataset, &fx.embeddings);
    let oracle = oracle_completeness(ctx, &vectors, &it.candidates);
    report.gate(
        "oracle_completeness",
        oracle >= MIN_ORACLE_COMPLETENESS,
        format!(
            "{oracle:.4} of the exact top-k pairs retrieved (bound ≥ {MIN_ORACLE_COMPLETENESS})"
        ),
    );
    let full_space = if ctx.corrupts("scored_ratio") {
        it.stats.full_space / 1000
    } else {
        it.stats.full_space
    };
    let scored_ratio = it.candidates.len() as f64 / full_space.max(1) as f64;
    report.gate(
        "scored_ratio",
        scored_ratio <= MAX_SCORED_RATIO,
        format!(
            "{} of {full_space} pairs scored = {scored_ratio:.6} (bound ≤ {MAX_SCORED_RATIO})",
            it.candidates.len()
        ),
    );

    // -- end-to-end ----------------------------------------------------------
    report.op_ms = times.iter().map(|s| s * 1e3).collect();
    report.ops_per_s = times.len() as f64 / window;
    report.timing("retrieval_match_s", &times, "s");
    report.info("properties", fx.dataset.properties().len());
    report.info("candidates", it.candidates.len());
    report.info("oracle_completeness", oracle);
    let mut inputs = Fnv::default();
    inputs.u64(it.digest);
    inputs.u64(it.candidates.len() as u64);
    report.info("inputs_digest", format!("{:016x}", inputs.0));

    // -- per layer -----------------------------------------------------------
    if ctx.tracer.enabled() {
        decomposed_retrieval(ctx, &fx, &vectors, &it.candidates, report)?;
        let view = TraceView::new(ctx.tracer.records());
        let per_iter = |name: &str| view.per_outer_sums("workload.iteration", name);
        for (metric, span) in [
            ("features.build_s", "features.build"),
            ("features.pair_table_s", "features.pair_table"),
            ("core.pipeline.predict_s", "core.pipeline.predict"),
            ("nn.model_open_s", "nn.model_open"),
            ("data.graph_write_s", "data.graph_write"),
            ("core.blocking.retrieval_s", "core.blocking.retrieval"),
            ("core.blocking.evaluate_s", "core.blocking.evaluate"),
        ] {
            report.layer_median(metric, &per_iter(span));
        }
        for (metric, span) in [
            ("core.index.vectorize_s", "core.index.vectorize"),
            ("core.index.hnsw_build_s", "core.index.hnsw_build"),
            ("core.index.lsh_build_s", "core.index.lsh_build"),
            ("core.index.hnsw_query_s", "core.index.hnsw_query"),
            ("core.index.lsh_query_s", "core.index.lsh_query"),
        ] {
            report.layer_median(metric, &view.durations(span));
        }
        let scored = it.candidates.len();
        let predict_s = stats::median(&per_iter("core.pipeline.predict")).unwrap_or(0.0);
        report.layer(
            "core.pipeline.predict_us_per_pair",
            predict_s * 1e6 / scored.max(1) as f64,
        );
        report.layer("core.pipeline.pairs_scored", scored as f64);
        report.layer("core.blocking.candidates", scored as f64);
        report.layer("core.blocking.full_space", it.stats.full_space as f64);
        report.layer("core.blocking.scored_ratio", scored_ratio);
        report.layer("core.blocking.oracle_completeness", oracle);
        report.layer("core.blocking.gt_completeness", it.stats.pair_completeness);
        let (entries, table_hits) = it.table.map_or((0, 0), |(_, e, h)| (e, h));
        report.memo_layers(entries, table_hits, it.cache_hits, it.cache_misses);
        report.layer_median("trace.coverage", &view.coverage("workload.iteration"));
        crate::write_trace(ctx, &view)?;
    }
    Ok(())
}

fn iteration(
    ctx: &Ctx,
    fx: &Fixture,
    model_path: &std::path::Path,
    work: &WorkDir,
) -> Result<Iteration, String> {
    let t = &ctx.tracer;
    let token = CancelToken::new();
    let check = token.checker();
    let (model, _) = t
        .time("nn.model_open", || {
            LeapmeModel::load_with_report(model_path)
        })
        .map_err(|e| e.to_string())?;
    let (store, _) = t
        .time("features.build", || {
            feature_cache::load_or_build(
                None,
                &fx.dataset,
                &fx.embeddings,
                leapme::features::worker_threads(),
                Some(&check),
            )
        })
        .map_err(|e| e.to_string())?;
    let candidates = t
        .time("core.blocking.retrieval", || {
            blocking::retrieval_candidates(
                &fx.dataset,
                &fx.embeddings,
                RetrievalMode::Both,
                &AnnBlocker::default(),
                &LshBlocker::default(),
                Some(&check),
            )
        })
        .map_err(|e| e.to_string())?;
    let stats = t.time("core.blocking.evaluate", || {
        blocking::evaluate_blocking_sorted(&fx.dataset, &candidates)
    });
    if t.enabled() {
        t.time("features.pair_table", || {
            store.ensure_pair_table_for(model.features(), candidates.len())
        });
    }
    let graph = t
        .time("core.pipeline.predict", || {
            model.predict_graph_cancellable(&store, &candidates, Some(&check))
        })
        .map_err(|e| e.to_string())?;
    let path = work.path("stress_graph.json");
    t.time("data.graph_write", || fixture::write_graph(&graph, &path))?;
    let mut digest = Fnv::default();
    for (pair, score) in graph.iter() {
        digest.str(&pair.0.name);
        digest.u64(u64::from(pair.1.source.0));
        digest.bytes(&score.to_bits().to_le_bytes());
    }
    let (cache_hits, cache_misses) = store.string_cache_stats();
    Ok(Iteration {
        stats,
        cache_hits,
        cache_misses,
        table: store.pair_table_stats(),
        digest: digest.0,
        candidates,
    })
}

/// Share of the exact top-k cross-source pairs (`PropertyVectors::top_k`
/// over a seeded query slice) present in the retrieved candidate set.
fn oracle_completeness(ctx: &Ctx, vectors: &PropertyVectors, candidates: &[PropertyPair]) -> f64 {
    let k = AnnBlocker::default().k;
    let n = vectors.len();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0AC1E);
    let (mut hit, mut total) = (0usize, 0usize);
    for _ in 0..ORACLE_QUERIES.min(n) {
        let i = rng.gen_range(0..n);
        for nb in vectors.top_k(i, k) {
            let mut j = nb.id as usize;
            if ctx.corrupts("oracle_completeness") {
                // Expect a far-away property of another source instead.
                j = (j + n / 2) % n;
                while vectors.properties[j].source == vectors.properties[i].source {
                    j = (j + 1) % n;
                }
            }
            let pair =
                PropertyPair::new(vectors.properties[i].clone(), vectors.properties[j].clone());
            total += 1;
            if candidates.binary_search(&pair).is_ok() {
                hit += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        hit as f64 / total as f64
    }
}

/// The traced run's index split: the public calls `retrieval_candidates`
/// makes, one span each, with the default `AnnBlocker`/`LshBlocker`
/// configs. Their union must be the production candidate set.
fn decomposed_retrieval(
    ctx: &Ctx,
    fx: &Fixture,
    vectors_for_oracle: &PropertyVectors,
    candidates: &[PropertyPair],
    report: &mut Report,
) -> Result<(), String> {
    let t = &ctx.tracer;
    let (ann, lsh) = (AnnBlocker::default(), LshBlocker::default());
    let vectors = t.time("core.index.vectorize", || {
        PropertyVectors::build(&fx.dataset, &fx.embeddings)
    });
    debug_assert_eq!(vectors.len(), vectors_for_oracle.len());
    let index = t
        .time("core.index.hnsw_build", || {
            HnswIndex::build(&vectors, ann.config, None)
        })
        .map_err(|e| e.to_string())?;
    let n = vectors.len();
    let mut visited = VisitedSet::new(n);
    let mut pairs = Vec::new();
    t.time("core.index.hnsw_query", || {
        for i in 0..n {
            for nb in index.search_node(&vectors, i, ann.k, &mut visited) {
                pairs.push(pair_of(&vectors.properties, i, nb.id as usize));
            }
        }
    });
    drop(index);
    let properties = fx.dataset.properties();
    let lsh_index = t
        .time("core.index.lsh_build", || {
            NameLshIndex::build(&properties, lsh.config, None)
        })
        .map_err(|e| e.to_string())?;
    t.time("core.index.lsh_query", || {
        for i in 0..properties.len() {
            for nb in lsh_index.search_node(i, lsh.k, &mut visited) {
                pairs.push(pair_of(&properties, i, nb.id as usize));
            }
        }
    });
    let mut union = blocking::sort_dedup_pairs(pairs);
    if ctx.corrupts("decomposed_candidates") {
        union.pop();
    }
    let equal = union.as_slice() == candidates;
    report.gate(
        "decomposed_candidates",
        equal,
        format!(
            "per-node HNSW + LSH queries gave {} candidates, retrieval_candidates {}",
            union.len(),
            candidates.len()
        ),
    );
    Ok(())
}

fn pair_of(properties: &[leapme::data::model::PropertyKey], i: usize, j: usize) -> PropertyPair {
    PropertyPair::new(properties[i].clone(), properties[j].clone())
}
