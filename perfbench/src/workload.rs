//! The four named workloads and the seeded inputs each run replays.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ripple_gnn::layer_wise::full_inference;
use ripple_gnn::{EmbeddingStore, GnnModel, Workload as ModelKind};
use ripple_graph::stream::{build_stream, StreamConfig, StreamPlan};
use ripple_graph::synth::DatasetSpec;
use ripple_graph::{DynamicGraph, VertexId};
use ripple_serve::{TopKRequest, DEFAULT_NPROBE};
use std::time::Duration;

/// Which reads the reader thread issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMix {
    /// 60% label, 30% embedding, 10% approximate top-k.
    Serve,
    /// Two thirds label, one third embedding.
    Point,
}

/// One kind of read the reader issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// `QueryService::read_label`.
    Label,
    /// `QueryService::read_embedding`.
    Embedding,
    /// `QueryService::top_k` through the IVF index.
    TopK,
}

impl ReadKind {
    /// The name used in spans and metric names.
    pub fn name(self) -> &'static str {
        match self {
            ReadKind::Label => "label",
            ReadKind::Embedding => "embedding",
            ReadKind::TopK => "topk",
        }
    }
}

/// One pre-generated read: its kind, the vertex of a point read and the
/// query vector index of a top-k read.
#[derive(Debug, Clone, Copy)]
pub struct ReadOp {
    /// What to read.
    pub kind: ReadKind,
    /// The vertex of a point read.
    pub vertex: VertexId,
    /// Index into [`Inputs::queries`] for a top-k read.
    pub query: usize,
}

/// Everything that defines a workload. The fields are public so tests can
/// shrink a workload; the named ones come from [`WorkloadSpec::named`].
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// The workload's name on the command line.
    pub name: String,
    /// The synthetic graph.
    pub dataset: DatasetSpec,
    /// Size window of the scheduler (raw updates per window).
    pub max_batch: usize,
    /// Whether the session maintains the IVF top-k index.
    pub index: bool,
    /// Whether the session runs with WAL and checkpoints (fsync `Always`).
    pub durable: bool,
    /// In-flight depth of footprint admission; `None` = serial commits.
    pub admission: Option<usize>,
    /// 1 = one engine behind `spawn`; more = `spawn_sharded` hash shards.
    pub shards: usize,
    /// The reader's read mix.
    pub mix: ReadMix,
    /// Constant offered update rate of the rate phase (updates/s).
    pub offered_ups: f64,
    /// Saturation updates per measured second. Sizes the passes only; each
    /// runs as fast as the pipeline admits.
    pub saturation_ups: f64,
}

/// GcS layers of every workload's model.
pub const LAYERS: usize = 2;
/// Hidden width of every workload's model.
pub const HIDDEN: usize = 32;
/// Checkpoint cadence, in windows, of durable workloads.
pub const CHECKPOINT_EVERY: u64 = 64;
/// `k` of top-k reads.
pub const TOP_K: usize = 10;
/// Constant read rate of the reader in both phases (reads/s). It is chosen
/// so the read period does not divide the write periods: otherwise due
/// times of updates and reads keep a fixed phase and visibility lags take
/// only a few distinct values.
pub const READ_HZ: f64 = 1009.0;

/// Share of `--seconds` given to the rate phase; the saturation passes are
/// sized to take roughly the rest.
const RATE_SHARE: f64 = 0.4;

/// Saturation passes of an untraced run, each on a freshly set-up session
/// replaying the same stream prefix from the bootstrap state. The host's
/// speed drifts over tens of seconds; passes spread over the run average
/// more of that drift than one phase could, and repeating the prefix keeps
/// the stream, and with it the held-out share of the graph, short.
pub const SATURATION_PASSES: usize = 3;

impl WorkloadSpec {
    /// The names [`WorkloadSpec::named`] accepts.
    pub const NAMES: [&'static str; 4] = [
        "arxiv-serve",
        "products-engine",
        "arxiv-durable",
        "arxiv-sharded",
    ];

    /// The named workload, or `None` for an unknown name.
    ///
    /// Offered rates sit well below each pipeline's capacity, where queueing
    /// does not amplify run-to-run noise. `arxiv-durable` runs slowest: a
    /// checkpoint every 64 windows stalls publication for about 0.4 s, and
    /// at 25 updates/s about one update in six arrives during a stall, so
    /// the median stays clear of the stalls. `saturation_ups` is each
    /// pipeline's measured capacity, sizing the saturation passes to about
    /// 60% of the measured time.
    ///
    /// `BENCHMARK.json` does not list `products-engine`; it stays runnable
    /// by name for engine work. Its windows touch most of a graph larger
    /// than a core's own cache, so its ingest rate follows how busy other
    /// tenants keep the host's shared cache and memory. On a shared 2-vCPU
    /// host that speed drifts over tens of seconds, and between runs the
    /// rate spread 0.15-0.18 (IQR over median, ten seeds) with saturation
    /// phases of 10 to 24 seconds, too close to the largest bound a metric
    /// may have (0.25) to gate.
    pub fn named(name: &str) -> Option<WorkloadSpec> {
        let serve = WorkloadSpec {
            name: name.to_string(),
            dataset: DatasetSpec::arxiv_like(),
            max_batch: 64,
            index: true,
            durable: false,
            admission: None,
            shards: 1,
            mix: ReadMix::Serve,
            offered_ups: 200.0,
            saturation_ups: 6800.0,
        };
        let spec = match name {
            "arxiv-serve" => serve,
            "products-engine" => WorkloadSpec {
                dataset: DatasetSpec::products_like(),
                index: false,
                mix: ReadMix::Point,
                offered_ups: 150.0,
                saturation_ups: 4200.0,
                ..serve
            },
            "arxiv-durable" => WorkloadSpec {
                max_batch: 16,
                index: false,
                durable: true,
                admission: Some(4),
                mix: ReadMix::Point,
                offered_ups: 25.0,
                saturation_ups: 1800.0,
                ..serve
            },
            "arxiv-sharded" => WorkloadSpec {
                shards: 2,
                saturation_ups: 8800.0,
                ..serve
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Phase lengths for a run measuring `seconds`: `(saturation, rate)`
    /// update counts, the first per saturation pass. The saturation count
    /// is a whole number of windows, so every saturation window closes on
    /// size.
    pub fn phase_updates(&self, seconds: f64) -> (usize, usize) {
        let windows = (self.saturation_ups * seconds * (1.0 - RATE_SHARE)
            / (SATURATION_PASSES * self.max_batch) as f64)
            .round()
            .max(1.0) as usize;
        let rate = (self.offered_ups * seconds * RATE_SHARE).round().max(1.0) as usize;
        (windows * self.max_batch, rate)
    }

    /// The scheduled gap between two rate-phase submits.
    pub fn write_period(&self) -> Duration {
        Duration::from_secs_f64(1.0 / self.offered_ups)
    }

    /// The scheduled gap between two reads.
    pub fn read_period() -> Duration {
        Duration::from_secs_f64(1.0 / READ_HZ)
    }

    /// One line of `key=value` parameters for the provenance record.
    pub fn describe(&self, seconds: f64) -> String {
        let (sat, rate) = self.phase_updates(seconds);
        format!(
            "{{\"dataset\": \"{}\", \"vertices\": {}, \"avg_in_degree\": {}, \"features\": {}, \
             \"classes\": {}, \"model\": \"GcS\", \"layers\": {}, \"hidden\": {}, \
             \"max_batch\": {}, \"index\": {}, \"durable\": {}, \"checkpoint_every\": {}, \
             \"admission\": {}, \"shards\": {}, \"read_mix\": \"{:?}\", \"offered_ups\": {}, \
             \"read_hz\": {}, \"saturation_passes\": {}, \"saturation_updates\": {}, \
             \"rate_updates\": {}, \"top_k\": {}, \"nprobe\": {}}}",
            self.dataset.name,
            self.dataset.num_vertices,
            self.dataset.avg_in_degree,
            self.dataset.feature_dim,
            self.dataset.num_classes,
            LAYERS,
            HIDDEN,
            self.max_batch,
            self.index,
            self.durable,
            CHECKPOINT_EVERY,
            self.admission.map_or("null".to_string(), |d| d.to_string()),
            self.shards,
            self.mix,
            self.offered_ups,
            READ_HZ,
            SATURATION_PASSES,
            sat,
            rate,
            TOP_K,
            DEFAULT_NPROBE
        )
    }
}

/// The seeded inputs of one run: the bootstrap snapshot, the update stream
/// split into the two phases, the model and its bootstrap store, and the
/// reader's op sequence.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Initial snapshot and the full update stream.
    pub plan: StreamPlan,
    /// Updates of one saturation pass (the stream's first part).
    pub saturation: usize,
    /// Rate-phase updates (the part right after the saturation prefix).
    pub rate: usize,
    /// The GcS model every engine evaluates.
    pub model: GnnModel,
    /// `full_inference` over the snapshot.
    pub store: EmbeddingStore,
    /// The reader's op cycle.
    pub reads: Vec<ReadOp>,
    /// Query vectors of top-k reads.
    pub queries: Vec<Vec<f32>>,
}

/// Seed of each workload's graph and model. Like the paper's datasets they
/// are fixed; the run's seed drives everything that flows through them:
/// which edges are held out, the update stream and the reads. Graphs drawn
/// from different seeds differ in their hubs, which moves ingest by a
/// third between seeds and would hide any change smaller than that.
pub const DATASET_SEED: u64 = 1;

/// Read ops generated per run; the reader cycles through them.
const READ_OPS: usize = 16_384;
/// Distinct top-k query vectors.
const QUERIES: usize = 64;

impl Inputs {
    /// Generates the dataset, builds the stream from `seed` and bootstraps
    /// the store.
    ///
    /// # Errors
    ///
    /// Fails when generation or inference fails, or when the stream is
    /// shorter than the two phases need (`build_stream` caps additions at
    /// the held-out edge count).
    pub fn build(spec: &WorkloadSpec, seed: u64, seconds: f64) -> Result<Inputs, String> {
        let (saturation, rate) = spec.phase_updates(seconds);
        let needed = saturation + rate;
        let full = spec
            .dataset
            .generate(DATASET_SEED)
            .map_err(|e| format!("dataset generation: {e}"))?;
        // Additions are a third of the stream and come from held-out edges;
        // hold out a quarter more than they need, and never less than the
        // paper's 10%. Every held-out edge is missing from the snapshot, so a
        // larger margin would thin the graph the run measures.
        let holdout = (1.25 * (needed / 3 + 1) as f64 / full.num_edges() as f64).max(0.10);
        if holdout >= 0.5 {
            return Err(format!(
                "{needed} updates need {holdout:.2} of the {} edges held out",
                full.num_edges()
            ));
        }
        let plan = build_stream(
            &full,
            &StreamConfig {
                holdout_fraction: holdout,
                total_updates: needed + 3,
                seed: seed ^ 0x5eed,
            },
        )
        .map_err(|e| format!("stream build: {e}"))?;
        if plan.updates.len() < needed {
            return Err(format!(
                "stream holds {} updates but the phases need {needed}",
                plan.updates.len()
            ));
        }
        let model = ModelKind::GcS
            .build_model(
                spec.dataset.feature_dim,
                HIDDEN,
                spec.dataset.num_classes,
                LAYERS,
                DATASET_SEED ^ 0x77,
            )
            .map_err(|e| format!("model: {e}"))?;
        let store =
            full_inference(&plan.snapshot, &model).map_err(|e| format!("bootstrap: {e}"))?;
        let (reads, queries) = read_ops(spec, seed);
        Ok(Inputs {
            plan,
            saturation,
            rate,
            model,
            store,
            reads,
            queries,
        })
    }

    /// The top-k requests of the reader, indexed by [`ReadOp::query`].
    pub fn requests(&self) -> Vec<TopKRequest> {
        self.queries
            .iter()
            .map(|q| TopKRequest::new(q.clone(), TOP_K).approx(DEFAULT_NPROBE))
            .collect()
    }

    /// The graph after every update of both phases, for the exactness gate.
    ///
    /// # Errors
    ///
    /// Fails if an update does not apply (the stream would be invalid).
    pub fn final_graph(&self) -> Result<DynamicGraph, String> {
        let mut graph = self.plan.snapshot.clone();
        for update in &self.plan.updates[..self.saturation + self.rate] {
            graph
                .apply(update)
                .map_err(|e| format!("reference replay: {e}"))?;
        }
        Ok(graph)
    }
}

fn read_ops(spec: &WorkloadSpec, seed: u64) -> (Vec<ReadOp>, Vec<Vec<f32>>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let n = spec.dataset.num_vertices as u32;
    let reads = (0..READ_OPS)
        .map(|_| {
            let roll: f64 = rng.gen();
            let kind = match spec.mix {
                ReadMix::Serve if roll < 0.6 => ReadKind::Label,
                ReadMix::Serve if roll < 0.9 => ReadKind::Embedding,
                ReadMix::Serve => ReadKind::TopK,
                ReadMix::Point if roll < 2.0 / 3.0 => ReadKind::Label,
                ReadMix::Point => ReadKind::Embedding,
            };
            ReadOp {
                kind,
                vertex: VertexId(rng.gen_range(0..n)),
                query: rng.gen_range(0..QUERIES),
            }
        })
        .collect();
    let queries = (0..QUERIES)
        .map(|_| {
            (0..spec.dataset.num_classes)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect()
        })
        .collect();
    (reads, queries)
}
