//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, and the timing engine wrapper that records the engine's spans.
//!
//! Spans stay in memory while a run measures and are written out as JSON
//! lines when it ends ([`write_spans`]).

use ripple_core::{BatchStats, RippleError, StreamingEngine};
use ripple_gnn::{EmbeddingStore, GnnModel};
use ripple_graph::{DynamicGraph, UpdateBatch, VertexId};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: one time base for
/// every span and schedule.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Module the call enters (`serve::scheduler`, `core::engine`, ...).
    pub layer: &'static str,
    /// The call (`submit`, `process_batch`, `label`, ...).
    pub op: &'static str,
    /// Span id: the update sequence number of a submit, the call number of
    /// an engine call, the read number of a read.
    pub id: u64,
    /// Start, in [`now_ns`] time.
    pub start_ns: u64,
    /// End, in [`now_ns`] time.
    pub end_ns: u64,
    /// When the call was due, for calls made on a schedule.
    pub due_ns: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One engine call with the counts the engine reported for it.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpan {
    /// The call's timing; `op` is `process_batch` or `process_windows`.
    pub span: Span,
    /// Windows the call applied (1 for `process_batch`).
    pub windows: usize,
    /// Store rows the call dirtied, when the engine tracks them.
    pub dirty_rows: usize,
    /// The engine's own statistics (`process_batch` only: the merged
    /// `process_windows` pass reports none).
    pub stats: Option<BatchStats>,
}

/// Shared sink the wrapper pushes engine spans into.
pub type EngineSink = Arc<Mutex<Vec<EngineSpan>>>;

/// A [`StreamingEngine`] that times every call into the wrapped engine.
///
/// It forwards **every** trait method, the defaulted ones included: the
/// scheduler enables admission only when `model()` and `dirty_rows()`
/// return `Some`, and the default `process_windows` replays windows one at
/// a time, so a wrapper that relied on a default would measure another
/// pipeline.
#[derive(Debug)]
pub struct TimedEngine<E> {
    inner: E,
    sink: EngineSink,
    calls: u64,
}

impl<E> TimedEngine<E> {
    /// Wraps `inner`, pushing one [`EngineSpan`] per engine call into `sink`.
    pub fn new(inner: E, sink: EngineSink) -> Self {
        TimedEngine {
            inner,
            sink,
            calls: 0,
        }
    }

    fn record(
        &mut self,
        op: &'static str,
        start_ns: u64,
        windows: usize,
        dirty_rows: usize,
        stats: Option<BatchStats>,
    ) {
        self.calls += 1;
        let span = Span {
            layer: "core::engine",
            op,
            id: self.calls,
            start_ns,
            end_ns: now_ns(),
            due_ns: None,
        };
        self.sink
            .lock()
            .expect("engine span sink poisoned by a panicking reader")
            .push(EngineSpan {
                span,
                windows,
                dirty_rows,
                stats,
            });
    }
}

impl<E: StreamingEngine> StreamingEngine for TimedEngine<E> {
    fn process_batch(&mut self, batch: &UpdateBatch) -> ripple_core::Result<BatchStats> {
        let start = now_ns();
        let stats = self.inner.process_batch(batch)?;
        let dirty = self.inner.dirty_rows().map_or(0, <[VertexId]>::len);
        self.record("process_batch", start, 1, dirty, Some(stats.clone()));
        Ok(stats)
    }

    fn strategy_name(&self) -> &'static str {
        self.inner.strategy_name()
    }

    fn current_store(&self) -> &EmbeddingStore {
        self.inner.current_store()
    }

    fn current_graph(&self) -> &DynamicGraph {
        self.inner.current_graph()
    }

    fn topology_epoch(&self) -> u64 {
        self.inner.topology_epoch()
    }

    fn dirty_rows(&self) -> Option<&[VertexId]> {
        self.inner.dirty_rows()
    }

    fn restore_state(
        &mut self,
        graph: DynamicGraph,
        store: EmbeddingStore,
        topology_epoch: u64,
    ) -> ripple_core::Result<()> {
        self.inner.restore_state(graph, store, topology_epoch)
    }

    fn model(&self) -> Option<&GnnModel> {
        self.inner.model()
    }

    fn process_windows(
        &mut self,
        windows: &[UpdateBatch],
    ) -> Result<Option<Vec<VertexId>>, RippleError> {
        let start = now_ns();
        let dirty = self.inner.process_windows(windows)?;
        let rows = dirty.as_ref().map_or(0, Vec::len);
        let applied = windows.iter().filter(|w| !w.is_empty()).count();
        self.record("process_windows", start, applied, rows, None);
        Ok(dirty)
    }
}

/// Writes every span as one JSON object per line.
///
/// # Errors
///
/// Returns the I/O error of creating or writing the file.
pub fn write_spans(path: &Path, spans: &[Span], engine: &[EngineSpan]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        write!(
            out,
            "{{\"layer\": \"{}\", \"op\": \"{}\", \"id\": {}, \"start_ns\": {}, \"end_ns\": {}",
            s.layer, s.op, s.id, s.start_ns, s.end_ns
        )?;
        if let Some(due) = s.due_ns {
            write!(out, ", \"due_ns\": {due}")?;
        }
        writeln!(out, "}}")?;
    }
    for e in engine {
        let s = &e.span;
        write!(
            out,
            "{{\"layer\": \"{}\", \"op\": \"{}\", \"id\": {}, \"start_ns\": {}, \"end_ns\": {}, \
             \"windows\": {}, \"dirty_rows\": {}",
            s.layer, s.op, s.id, s.start_ns, s.end_ns, e.windows, e.dirty_rows
        )?;
        if let Some(st) = &e.stats {
            write!(
                out,
                ", \"update_ns\": {}, \"propagate_ns\": {}, \"affected_per_hop\": {:?}, \
                 \"tree_size\": {}, \"aggregate_ops\": {}, \"batch_size\": {}",
                st.update_time.as_nanos(),
                st.propagate_time.as_nanos(),
                st.affected_per_hop,
                st.propagation_tree_size,
                st.aggregate_ops,
                st.batch_size
            )?;
        }
        writeln!(out, "}}")?;
    }
    out.flush()
}
