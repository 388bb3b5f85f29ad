//! Inputs shared by the workloads: the 12-source corpus, its
//! embeddings, the trained fixture model, and the run's scratch
//! directory inside the checkout.

use leapme::core::cancel::CancelToken;
use leapme::core::feature_cache;
use leapme::core::pipeline::{DurableFitOptions, Leapme, LeapmeConfig, LeapmeModel};
use leapme::core::retry::RetryPolicy;
use leapme::core::sampling;
use leapme::core::simgraph::SimilarityGraph;
use leapme::data::domains::Domain;
use leapme::data::io::atomic_write;
use leapme::data::model::{Dataset, SourceId};
use leapme::data::spec::{generate_dataset, EntityCount};
use leapme::embedding::glove::GloVeConfig;
use leapme::embedding::store::EmbeddingStore;
use leapme::EmbeddingTrainingConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Generator seed of the corpus `bench --sources 12` builds (319
/// properties, 46,602 cross-source pairs). The corpus shape stays fixed
/// so every run scores the same pair space; the workload seed drives
/// every draw made on it (split, sampling, weight init, requests).
pub const CORPUS_SEED: u64 = 42;

/// `match` / `train` defaults.
pub const TRAIN_FRACTION: f64 = 0.8;
pub const THRESHOLD: f32 = 0.5;

/// Input size: `Full` is the measured benchmark, `Tiny` the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

pub struct Corpus {
    pub dataset: Dataset,
    pub embeddings: EmbeddingStore,
}

/// The Cameras corpus of `bench --sources 12` and its GloVe space.
pub fn corpus(scale: Scale) -> Corpus {
    let spec = Domain::Cameras.spec();
    let mut cfg = Domain::Cameras.generator_config();
    let dim = match scale {
        Scale::Full => {
            cfg.n_sources = 12;
            cfg.entities = EntityCount::Balanced(40);
            50
        }
        Scale::Tiny => {
            cfg.n_sources = 5;
            cfg.entities = EntityCount::Balanced(8);
            8
        }
    };
    let dataset = generate_dataset(&spec, &cfg, CORPUS_SEED);
    let ecfg = EmbeddingTrainingConfig {
        glove: GloVeConfig {
            dim,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut embeddings = leapme::train_domain_embeddings(&[Domain::Cameras], &ecfg, CORPUS_SEED)
        .expect("embedding training");
    embeddings.set_fuzzy_oov(true);
    Corpus {
        dataset,
        embeddings,
    }
}

/// Training sources, as `--train-sources 0,1,…` passes them: the first
/// `TRAIN_FRACTION` of the sources. A fixed split keeps the amount of
/// work the same for every workload seed; the seed still draws the
/// negative pairs, the initial weights and the requests.
pub fn train_sources(dataset: &Dataset) -> Vec<SourceId> {
    let n = dataset.sources().len();
    let k = ((n as f64 * TRAIN_FRACTION).round() as usize).clamp(2, n);
    (0..k).map(|i| SourceId(i as u16)).collect()
}

/// `LeapmeConfig` as `match`/`train` build it from `--seed`.
pub fn leapme_config(seed: u64) -> LeapmeConfig {
    LeapmeConfig {
        threshold: THRESHOLD,
        seed,
        ..LeapmeConfig::default()
    }
}

/// `leapme train --train-sources <train_sources> --seed <seed>
/// --feature-cache <cache> --save <model>` over an in-memory dataset
/// and embedding store.
pub fn train_and_save(
    dataset: &Dataset,
    embeddings: &EmbeddingStore,
    seed: u64,
    cache: &Path,
    model_path: &Path,
) -> Result<LeapmeModel, String> {
    let token = CancelToken::new();
    let check = token.checker();
    let mut rng = StdRng::seed_from_u64(seed);
    let train_sources = train_sources(dataset);
    let (store, _) = feature_cache::load_or_build(
        Some(cache),
        dataset,
        embeddings,
        leapme::features::worker_threads(),
        Some(&check),
    )
    .map_err(|e| e.to_string())?;
    let train = sampling::training_pairs(dataset, &train_sources, 2, &mut rng);
    let opts = DurableFitOptions {
        cancel: Some(&check),
        ..Default::default()
    };
    let model = Leapme::fit_durable(&store, &train, &leapme_config(seed), &opts)
        .map_err(|e| e.to_string())?;
    model
        .save_with_retry(model_path, &RetryPolicy::default())
        .map_err(|e| e.to_string())?;
    Ok(model)
}

/// The similarity graph as `match` writes it: pretty JSON, atomically.
pub fn write_graph(graph: &SimilarityGraph, path: &Path) -> Result<(), String> {
    let json = serde_json::to_string_pretty(graph).map_err(|e| e.to_string())?;
    atomic_write(path, json.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))
}

/// A scratch directory under `.bench_work/` in the working directory,
/// removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let dir =
            PathBuf::from(".bench_work").join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// FNV-1a over a byte stream — fingerprints generated inputs so a test
/// can tell that a seed changed them.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}
