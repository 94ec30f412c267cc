//! Spawning a serving session for a workload, and the few calls the
//! benchmark makes on it, over both topologies.

use crate::trace::{EngineSink, TimedEngine};
use crate::workload::{Inputs, WorkloadSpec, CHECKPOINT_EVERY};
use ripple_core::{RippleConfig, RippleEngine, StreamingEngine};
use ripple_gnn::EmbeddingStore;
use ripple_graph::partition::Partitioning;
use ripple_graph::GraphUpdate;
use ripple_serve::{
    spawn, spawn_sharded, DurabilityConfig, FsyncPolicy, IndexStats, MetricsReport, QueryService,
    ServeClient, ServeConfig, ServeFrontend, ServeHandle, ShardedServeHandle,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A running session of either topology.
pub enum Session {
    /// One engine behind `spawn`.
    Single(ServeHandle<Box<dyn StreamingEngine + Send>>),
    /// Hash shards behind `spawn_sharded`.
    Sharded(Box<ShardedServeHandle>),
}

/// A spawned session with what the benchmark keeps beside it.
pub struct Spawned {
    /// The session.
    pub session: Session,
    /// The session's durability directory, when durable.
    pub durable_dir: Option<PathBuf>,
    /// Engine spans, when the engine is wrapped in a [`TimedEngine`].
    pub engine_spans: Option<EngineSink>,
}

/// Spawns a session over `inputs`. With `traced`, the single engine is
/// wrapped in a [`TimedEngine`]; sharded engines are built inside
/// `spawn_sharded` and cannot be wrapped. A durable session gets a fresh,
/// empty directory under `scratch`.
///
/// # Errors
///
/// Fails when the configuration, the engine or the session cannot be built.
pub fn spawn_session(
    spec: &WorkloadSpec,
    inputs: &Inputs,
    traced: bool,
    scratch: &Path,
) -> Result<Spawned, String> {
    let mut builder = ServeConfig::builder().max_batch(spec.max_batch);
    if !spec.index {
        builder = builder.no_index();
    }
    if let Some(depth) = spec.admission {
        builder = builder.concurrent_admission(depth);
    }
    let durable_dir = if spec.durable {
        let dir = fresh_dir(scratch)?;
        builder = builder.durability(
            DurabilityConfig::new(&dir)
                .checkpoint_every(CHECKPOINT_EVERY)
                .fsync(FsyncPolicy::Always),
        );
        Some(dir)
    } else {
        None
    };
    let config = builder.build().map_err(|e| format!("serve config: {e}"))?;
    let mut engine_spans = None;
    let session = if spec.shards > 1 {
        let handle = spawn_sharded(
            &inputs.plan.snapshot,
            &inputs.model,
            &inputs.store,
            RippleConfig::default(),
            config,
            spec.shards,
        )
        .map_err(|e| format!("spawn_sharded: {e}"))?;
        Session::Sharded(Box::new(handle))
    } else {
        let engine = RippleEngine::new(
            inputs.plan.snapshot.clone(),
            inputs.model.clone(),
            inputs.store.clone(),
            RippleConfig::default(),
        )
        .map_err(|e| format!("engine: {e}"))?;
        let engine: Box<dyn StreamingEngine + Send> = if traced {
            let sink: EngineSink = Arc::new(Mutex::new(Vec::new()));
            engine_spans = Some(Arc::clone(&sink));
            Box::new(TimedEngine::new(engine, sink))
        } else {
            Box::new(engine)
        };
        Session::Single(spawn(engine, config).map_err(|e| format!("spawn: {e}"))?)
    };
    Ok(Spawned {
        session,
        durable_dir,
        engine_spans,
    })
}

fn fresh_dir(scratch: &Path) -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch.join(format!("durable-{}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

impl Session {
    /// A producer handle.
    pub fn client(&self) -> ServeClient {
        match self {
            Session::Single(h) => ServeFrontend::client(h),
            Session::Sharded(h) => ServeFrontend::client(&**h),
        }
    }

    /// A query handle.
    pub fn query_service(&self) -> QueryService {
        match self {
            Session::Single(h) => h.query_service(),
            Session::Sharded(h) => h.query_service(),
        }
    }

    /// A copy of the session's counters.
    pub fn metrics(&self) -> MetricsReport {
        match self {
            Session::Single(h) => h.metrics().report(),
            Session::Sharded(h) => h.metrics().report(),
        }
    }

    /// Index maintenance counters (zeros without an index).
    pub fn index_stats(&self) -> IndexStats {
        match self {
            Session::Single(h) => h.index_stats(),
            Session::Sharded(h) => h.index_stats(),
        }
        .unwrap_or_default()
    }

    /// Shards serving the session (1 when unsharded).
    pub fn num_shards(&self) -> usize {
        match self {
            Session::Single(_) => 1,
            Session::Sharded(h) => h.num_shards(),
        }
    }

    /// Halo replicas of the sharded partitioning (0 when unsharded).
    pub fn halo_replicas(&self) -> usize {
        match self {
            Session::Single(_) => 0,
            Session::Sharded(h) => h.halo_replicas(),
        }
    }

    /// Drains every accepted update (and, sharded, every halo delta).
    ///
    /// # Errors
    ///
    /// The session's failure, if it stopped.
    pub fn quiesce(&self) -> Result<u64, String> {
        match self {
            Session::Single(h) => ServeFrontend::quiesce(h),
            Session::Sharded(h) => h.quiesce(),
        }
        .map_err(|e| format!("quiesce: {e}"))
    }

    /// Stops the session and returns the authoritative final store.
    ///
    /// # Errors
    ///
    /// The error that poisoned the session.
    pub fn finish(self) -> Result<EmbeddingStore, String> {
        match self {
            Session::Single(h) => h
                .shutdown()
                .map(|engine| engine.current_store().clone())
                .map_err(|e| format!("shutdown: {e}")),
            Session::Sharded(h) => h
                .shutdown()
                .map(|engines| engines.gather_store())
                .map_err(|e| format!("shutdown: {e}")),
        }
    }

    fn partitioning(&self) -> Option<&Arc<Partitioning>> {
        match self {
            Session::Single(_) => None,
            Session::Sharded(h) => Some(h.partitioning()),
        }
    }
}

/// Visibility slot and per-slot sequence number one update must reach.
pub type Requirement = (usize, u64);

/// Tracks, per visibility slot, how many updates the writer has delivered,
/// so each update knows which `Stamped::applied_seq` covers it.
///
/// A single engine has one slot and one FIFO queue, so update `i` is
/// visible once a stamp reports `applied_seq >= i`. A sharded session has
/// one slot per shard: an update is delivered to the owner of a rewritten
/// vertex, or to the owners of both endpoints of an edge, exactly as the
/// router routes it, and it is visible once every owner's stamp covers its
/// position in that owner's queue. Halo deltas the update later causes on
/// other shards are not part of its visibility.
pub struct Sequencer {
    partitioning: Option<Arc<Partitioning>>,
    delivered: Vec<u64>,
}

impl Sequencer {
    /// A sequencer for `session`, starting from zero deliveries.
    pub fn new(session: &Session) -> Self {
        Sequencer {
            partitioning: session.partitioning().cloned(),
            delivered: vec![0; session.num_shards()],
        }
    }

    /// Requirements of each of `updates`, delivered in order after every
    /// update sequenced so far.
    pub fn sequence(&mut self, updates: &[GraphUpdate]) -> Vec<Vec<Requirement>> {
        updates
            .iter()
            .map(|update| {
                let mut slots = self.owners(update);
                slots.dedup();
                slots
                    .into_iter()
                    .map(|slot| {
                        self.delivered[slot] += 1;
                        (slot, self.delivered[slot])
                    })
                    .collect()
            })
            .collect()
    }

    /// Deliveries per slot so far: the `applied_seq` each slot reaches once
    /// everything sequenced is visible.
    pub fn targets(&self) -> Vec<u64> {
        self.delivered.clone()
    }

    fn owners(&self, update: &GraphUpdate) -> Vec<usize> {
        let Some(parts) = &self.partitioning else {
            return vec![0];
        };
        let num = self.delivered.len();
        let owner = |v: ripple_graph::VertexId| {
            parts
                .assignment()
                .get(v.index())
                .map_or(v.index() % num, |p| p.index())
        };
        match update {
            GraphUpdate::UpdateFeature { vertex, .. } => vec![owner(*vertex)],
            GraphUpdate::AddEdge { src, dst, .. } | GraphUpdate::DeleteEdge { src, dst } => {
                vec![owner(*src), owner(*dst)]
            }
        }
    }
}
