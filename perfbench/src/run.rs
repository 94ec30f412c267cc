//! One run of one workload: set-up, the saturation phase, the rate phase,
//! the correctness gate and the metrics.
//!
//! The saturation phase comes first, from the bootstrap state: its windows
//! all close on size, so its counts repeat exactly for a seed and a traced
//! and an untraced session can be compared bit for bit. An untraced run
//! makes several such passes, each on a freshly set-up session; the rate
//! phase then replays the next part of the same stream on the last one.

use crate::drive::{run_phase, PhaseOutcome, PhasePlan};
use crate::report::{chunked_percentile, mean, median, ms, percentile, ratio, us, Metrics};
use crate::session::{spawn_session, Sequencer, Session, Spawned};
use crate::trace::{write_spans, EngineSpan, Span};
use crate::workload::{Inputs, WorkloadSpec, CHECKPOINT_EVERY, SATURATION_PASSES};
use ripple_gnn::layer_wise::full_inference;
use ripple_gnn::EmbeddingStore;
use ripple_graph::VertexId;
use ripple_serve::{IndexStats, MetricsReport, TopKRequest};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Consecutive parts the rate phase's samples are cut into; a latency is
/// the median over the parts of each part's percentile.
pub const PARTS: usize = 3;
/// The repository's absolute exactness tolerance against `full_inference`.
pub const EXACTNESS_TOLERANCE: f32 = 2e-3;
/// Tolerance relative to a layer's largest magnitude (about 84 f32
/// epsilons), used where it exceeds [`EXACTNESS_TOLERANCE`].
pub const RELATIVE_TOLERANCE: f32 = 1e-5;

/// Saturation-phase counts that repeat exactly for a seed on a
/// single-engine workload when every window closes on size (the provenance
/// field `saturation_closed_on_size`): window composition, and with it the
/// engine's and the index's work, is then a function of the seed alone. A
/// writer descheduled long enough for the scheduler to drain its queue
/// breaks the condition. Counts that depend on embedding values
/// (`index.rows_moved`, splits, merges) or on timing are not listed.
pub const EXACT_COUNTS: [&str; 12] = [
    "scheduler.epochs",
    "scheduler.window_updates",
    "scheduler.coalesced",
    "engine.aggregate_ops",
    "engine.dirty_rows",
    "engine.affected_hop1",
    "engine.affected_hop2",
    "engine.tree_size",
    "index.repairs",
    "index.rows_repaired",
    "admission.merged",
    "admission.conflicts",
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub spec: WorkloadSpec,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds (sizes both phases).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where durability directories, spans and result files go.
    pub out_dir: PathBuf,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether the correctness gate passed.
    pub correct: bool,
    /// Operations attempted: submits and reads.
    pub attempted: u64,
    /// Operations failed: refused or closed submits, failed reads, updates
    /// never made visible, engine errors.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced); empty
    /// when the gate failed.
    pub metrics: Metrics,
    /// Gate failures, one line each.
    pub problems: Vec<String>,
    /// Provenance: environment, seed, parameters and exact counts (JSON).
    pub provenance: String,
    /// End-to-end timings recorded without a bound (untraced runs).
    pub ungated: Metrics,
}

/// Failure accounting shared by both phases.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    regressions: u64,
}

impl Ledger {
    fn absorb(&mut self, phase: &PhaseOutcome) {
        self.attempted += phase.submitted + phase.reads.len() as u64 + phase.read_failures;
        self.failed += phase.submit_failures + phase.read_failures + phase.invisible();
        self.regressions += phase.epoch_regressions;
    }
}

/// The saturation phase with the session's counters around it.
pub struct Saturation {
    /// What the generators measured.
    pub phase: PhaseOutcome,
    /// Session counters before the phase.
    pub before: MetricsReport,
    /// Session counters once the reader saw the last update.
    pub after: MetricsReport,
    /// Index counters before the phase.
    pub index_before: IndexStats,
    /// Index counters once the reader saw the last update.
    pub index_after: IndexStats,
}

impl Saturation {
    /// Updates applied in the phase over the time from its first submit
    /// until the reader saw the last one.
    pub fn ingest_ups(&self) -> f64 {
        pooled_ingest_ups(std::slice::from_ref(self))
    }

    /// Epochs published during the phase.
    pub fn epochs(&self) -> u64 {
        self.after.epochs - self.before.epochs
    }
}

/// Updates applied over time taken, summed across saturation passes; 0 if
/// the reader never saw some update.
pub fn pooled_ingest_ups(passes: &[Saturation]) -> f64 {
    let mut updates = 0usize;
    let mut ns = 0u64;
    for pass in passes {
        let Some(end) = pass.phase.all_visible_ns() else {
            return 0.0;
        };
        updates += pass.phase.visible_ns.len();
        ns += end.saturating_sub(pass.phase.start_ns);
    }
    ratio(updates as f64, ns as f64 / 1e9)
}

/// Runs one workload and reports it.
///
/// # Errors
///
/// Fails on a set-up error (inputs, session, output directory); gate
/// failures are reported in the [`Outcome`] instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    let spec = &opts.spec;
    let mut ledger = Ledger::default();
    let mut metrics = Metrics::default();
    let mut problems = Vec::new();

    // Set-up, several times over, each followed by a saturation pass on its
    // session; the last session goes on to the rate phase. A traced run
    // sets up once and makes one untraced and one traced pass.
    let mut passes = Vec::new();
    let (inputs, mut spawned, setup_times) = if opts.trace {
        let inputs = Inputs::build(spec, opts.seed, opts.seconds)?;
        let spawned = spawn_session(spec, &inputs, false, &opts.out_dir)?;
        (inputs, spawned, Vec::new())
    } else {
        let mut times = Vec::with_capacity(SATURATION_PASSES);
        let mut kept = None;
        for _ in 0..SATURATION_PASSES {
            // Retire the previous set-up first, so only one session is alive.
            if let Some((_, old)) = kept.take() {
                retire_checked(old, &mut ledger, &mut problems)?;
            }
            let t = Instant::now();
            let inputs = Inputs::build(spec, opts.seed, opts.seconds)?;
            let spawned = spawn_session(spec, &inputs, false, &opts.out_dir)?;
            times.push(t.elapsed().as_secs_f64());
            let pass = run_saturation(&spawned.session, spec, &inputs, &inputs.requests(), false);
            ledger.absorb(&pass.phase);
            passes.push(pass);
            kept = Some((inputs, spawned));
        }
        let (inputs, spawned) = kept.expect("at least one set-up");
        (inputs, spawned, times)
    };
    let requests = inputs.requests();

    // Traced runs first run the saturation phase untraced on its own
    // session: the reference for tracing overhead and for parity.
    let mut untraced = None;
    if opts.trace {
        let sat = run_saturation(&spawned.session, spec, &inputs, &requests, false);
        ledger.absorb(&sat.phase);
        let store = retire(spawned)?;
        untraced = Some((sat, store));
        spawned = spawn_session(spec, &inputs, true, &opts.out_dir)?;
        let sat = run_saturation(&spawned.session, spec, &inputs, &requests, true);
        ledger.absorb(&sat.phase);
        passes.push(sat);
    }

    let sat = passes.last().expect("at least one saturation pass");
    let parity = untraced
        .as_ref()
        .map(|(reference, store)| parity_mismatches(reference, store, sat, &spawned.session));
    spawned.session.quiesce()?;

    let rate = {
        let mut sequencer = Sequencer::new(&spawned.session);
        sequencer.sequence(&inputs.plan.updates[..inputs.saturation]);
        let updates = inputs.plan.updates[inputs.saturation..][..inputs.rate].to_vec();
        let requirements = sequencer.sequence(&updates);
        run_phase(
            &spawned.session,
            PhasePlan {
                updates,
                requirements,
                targets: sequencer.targets(),
                write_period: Some(spec.write_period()),
                read_period: WorkloadSpec::read_period(),
                precise_reads: true,
                reads: &inputs.reads,
                queries: &requests,
                classes: spec.dataset.num_classes,
                traced: opts.trace,
            },
        )
    };
    ledger.absorb(&rate);
    let final_counters = spawned.session.metrics();
    let halo_replicas = spawned.session.halo_replicas();
    let engine_spans: Vec<EngineSpan> = spawned
        .engine_spans
        .as_ref()
        .map(|sink| sink.lock().expect("engine span sink poisoned").clone())
        .unwrap_or_default();
    let durable_dir = spawned.durable_dir.clone();
    let store = spawned.session.finish()?;
    // Before the gate, whose reference inference is not the program's.
    let peak_rss = peak_rss_mb();
    let durability = durable_dir.as_deref().map(list_durability).transpose()?;
    if let Some(dir) = &durable_dir {
        remove_dir(dir)?;
    }

    // The correctness gate.
    check_counters(&final_counters, &mut ledger, &mut problems);
    let expected = (passes.len() * inputs.saturation + inputs.rate) as u64;
    let accepted = passes
        .iter()
        .map(|p| &p.phase)
        .chain([&rate])
        .map(|p| p.submitted - p.submit_failures)
        .sum::<u64>();
    if accepted != expected {
        problems.push(format!("{accepted} of {expected} updates accepted"));
    }
    if ledger.regressions > 0 {
        problems.push(format!("{} epoch regressions", ledger.regressions));
    }
    if ledger.failed > 0 {
        problems.push(format!(
            "{} of {} operations failed",
            ledger.failed, ledger.attempted
        ));
    }
    let exact = exactness(&inputs, &store)?;
    if exact.worst_ratio.is_nan() || exact.worst_ratio > 1.0 {
        problems.push(format!(
            "final store differs from full_inference by {} ({}x the tolerance)",
            exact.max_diff, exact.worst_ratio
        ));
    }
    let correct = problems.is_empty();

    let mut ungated = Metrics::default();
    if correct && !opts.trace {
        metrics.add("setup_s", median(&setup_times), "s");
        metrics.add("ingest_ups", pooled_ingest_ups(&passes), "updates/s");
        let vis = rate.visibility_ns();
        metrics.add(
            "vis_p50_ms",
            chunked_percentile(&vis, PARTS, 50.0) / 1e6,
            "ms",
        );
        metrics.add("peak_rss_mb", peak_rss, "MiB");
        // Recorded without a bound: on a shared 2-CPU virtual machine their
        // spread between runs exceeds the largest bound a metric may have.
        let reads = rate.read_latencies_ns();
        ungated.add(
            "vis_p99_ms",
            chunked_percentile(&vis, PARTS, 99.0) / 1e6,
            "ms",
        );
        ungated.add(
            "read_p50_us",
            chunked_percentile(&reads, PARTS, 50.0) / 1e3,
            "us",
        );
        ungated.add(
            "read_p99_us",
            chunked_percentile(&reads, PARTS, 99.0) / 1e3,
            "us",
        );
    }
    if correct && opts.trace {
        let (reference, _) = untraced.as_ref().expect("traced runs keep the reference");
        layer_metrics(
            &mut metrics,
            sat,
            &rate,
            &engine_spans,
            durability,
            halo_replicas,
        );
        metrics.add(
            "trace.overhead_pct",
            100.0 * (1.0 - ratio(sat.ingest_ups(), reference.ingest_ups())),
            "%",
        );
        metrics.add(
            "trace.parity_mismatches",
            parity.unwrap_or(0) as f64,
            "count",
        );
        let mut spans: Vec<Span> = sat.phase.submits.clone();
        spans.extend(rate.submits.iter().cloned());
        spans.extend(sat.phase.reads.iter().map(|r| r.span.clone()));
        spans.extend(rate.reads.iter().map(|r| r.span.clone()));
        let path = opts
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", spec.name, opts.seed));
        write_spans(&path, &spans, &engine_spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let closed_on_size = spec.shards == 1
        && passes
            .iter()
            .all(|p| p.epochs() == (inputs.saturation / spec.max_batch) as u64);
    let provenance = provenance(opts, &ledger, &problems, exact, closed_on_size);
    Ok(Outcome {
        correct,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        problems,
        provenance,
        ungated,
    })
}

/// Runs the saturation phase, the first `inputs.saturation` updates of the
/// stream, on a session that has applied nothing yet.
pub fn run_saturation(
    session: &Session,
    spec: &WorkloadSpec,
    inputs: &Inputs,
    requests: &[TopKRequest],
    traced: bool,
) -> Saturation {
    let mut sequencer = Sequencer::new(session);
    let updates = inputs.plan.updates[..inputs.saturation].to_vec();
    let requirements = sequencer.sequence(&updates);
    let before = session.metrics();
    let index_before = session.index_stats();
    let phase = run_phase(
        session,
        PhasePlan {
            updates,
            requirements,
            targets: sequencer.targets(),
            write_period: None,
            read_period: WorkloadSpec::read_period(),
            precise_reads: false,
            reads: &inputs.reads,
            queries: requests,
            classes: spec.dataset.num_classes,
            traced,
        },
    );
    Saturation {
        phase,
        before,
        after: session.metrics(),
        index_before,
        index_after: session.index_stats(),
    }
}

/// Compares a traced saturation phase with the untraced reference:
/// epochs, admission counters and every final-layer row as published.
/// Zero on single-engine workloads; a sharded session's rows also depend on
/// the order in which halo deltas arrive, so they differ between any two
/// sessions.
fn parity_mismatches(
    reference: &Saturation,
    store: &EmbeddingStore,
    traced: &Saturation,
    session: &Session,
) -> u64 {
    let counts = |s: &Saturation| {
        [
            s.epochs(),
            s.after.admitted_concurrent - s.before.admitted_concurrent,
            s.after.merged - s.before.merged,
            s.after.conflicts - s.before.conflicts,
            s.after.serialized - s.before.serialized,
        ]
    };
    let mut mismatches = counts(reference)
        .iter()
        .zip(counts(traced))
        .filter(|(a, b)| **a != *b)
        .count() as u64;
    if session.quiesce().is_err() {
        return mismatches + 1;
    }
    let mut queries = session.query_service();
    let last = store.num_layers();
    for v in 0..store.num_vertices() {
        let v = VertexId(v as u32);
        let same = queries.read_embedding(v).is_ok_and(|s| {
            s.value
                .iter()
                .map(|x| x.to_bits())
                .eq(store.embedding(last, v).iter().map(|x| x.to_bits()))
        });
        mismatches += u64::from(!same);
    }
    mismatches
}

/// The gate's checks on a session's counters: no engine errors, and every
/// offered update applied.
fn check_counters(counters: &MetricsReport, ledger: &mut Ledger, problems: &mut Vec<String>) {
    ledger.failed += counters.engine_errors;
    if counters.engine_errors > 0 {
        problems.push(format!("{} engine errors", counters.engine_errors));
    }
    if counters.applied != counters.enqueued {
        problems.push(format!(
            "applied {} != offered {}",
            counters.applied, counters.enqueued
        ));
    }
}

/// Retires a saturation pass's session after checking its counters.
fn retire_checked(
    spawned: Spawned,
    ledger: &mut Ledger,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    spawned.session.quiesce()?;
    check_counters(&spawned.session.metrics(), ledger, problems);
    retire(spawned).map(drop)
}

/// Stops a session, removes its durability directory and returns its store.
fn retire(spawned: Spawned) -> Result<EmbeddingStore, String> {
    let store = spawned.session.finish()?;
    if let Some(dir) = &spawned.durable_dir {
        remove_dir(dir)?;
    }
    Ok(store)
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))
}

/// How far the served store is from `full_inference` over the final graph.
#[derive(Debug, Clone, Copy)]
struct Exactness {
    /// Largest absolute difference over every layer.
    max_diff: f32,
    /// Largest per-layer `difference / tolerance`; the gate passes at <= 1.
    worst_ratio: f32,
}

/// Compares every layer of `store` with `full_inference` over the final
/// graph. A layer's tolerance is the repository's absolute 2e-3, widened to
/// `RELATIVE_TOLERANCE` times the layer's largest reference magnitude when
/// that is larger: GcS logits on these graphs reach 10^3 to 10^4, where
/// one f32 rounding step alone is 10^-4 to 2·10^-3.
fn exactness(inputs: &Inputs, store: &EmbeddingStore) -> Result<Exactness, String> {
    let graph = inputs.final_graph()?;
    let reference =
        full_inference(&graph, &inputs.model).map_err(|e| format!("reference inference: {e}"))?;
    if store.num_layers() != reference.num_layers()
        || store.num_vertices() != reference.num_vertices()
    {
        return Err("served store and reference differ in shape".to_string());
    }
    let mut out = Exactness {
        max_diff: 0.0,
        worst_ratio: 0.0,
    };
    for l in 0..=store.num_layers() {
        let expected = reference.embeddings(l);
        let diff = store
            .embeddings(l)
            .max_abs_diff(expected)
            .map_err(|e| format!("layer {l} shapes differ: {e}"))?;
        let scale = expected
            .as_slice()
            .iter()
            .fold(0.0f32, |m, x| m.max(x.abs()));
        let tolerance = EXACTNESS_TOLERANCE.max(RELATIVE_TOLERANCE * scale);
        out.max_diff = out.max_diff.max(diff);
        out.worst_ratio = out.worst_ratio.max(diff / tolerance);
    }
    Ok(out)
}

/// What the durability directory holds after the run.
struct Durability {
    wal_bytes: u64,
    checkpoints: u64,
    ckpt_bytes: u64,
}

/// Lists WAL segments and checkpoints. The directory keeps the newest two
/// checkpoints; a checkpoint file is named after the window it was cut at,
/// and one is cut per [`CHECKPOINT_EVERY`] windows, so the newest name gives
/// how many were written.
fn list_durability(dir: &Path) -> Result<Durability, String> {
    let mut out = Durability {
        wal_bytes: 0,
        checkpoints: 0,
        ckpt_bytes: 0,
    };
    let mut newest = 0u64;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("listing {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let len = entry
            .metadata()
            .map_err(|e| format!("stat {name}: {e}"))?
            .len();
        if name.starts_with("wal-") && name.ends_with(".log") {
            out.wal_bytes += len;
        } else if let Some(seq) = name
            .strip_prefix("ckpt-")
            .and_then(|rest| rest.strip_suffix(".bin"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            if seq > newest {
                newest = seq;
                out.ckpt_bytes = len;
            }
        }
    }
    out.checkpoints = newest;
    Ok(out)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn durations(spans: &[Span]) -> Vec<u64> {
    spans.iter().map(Span::nanos).collect()
}

fn layer_metrics(
    m: &mut Metrics,
    sat: &Saturation,
    rate: &PhaseOutcome,
    engine: &[EngineSpan],
    durability: Option<Durability>,
    halo_replicas: usize,
) {
    let (before, after) = (&sat.before, &sat.after);
    let epochs = sat.epochs() as f64;
    let end = sat
        .phase
        .all_visible_ns()
        .expect("the gate passed, so the reader saw every update");
    let engine: Vec<&EngineSpan> = engine
        .iter()
        .filter(|e| e.span.start_ns >= sat.phase.start_ns && e.span.end_ns <= end)
        .collect();
    let gaps: Vec<u64> = engine
        .windows(2)
        .map(|w| w[1].span.start_ns.saturating_sub(w[0].span.end_ns))
        .collect();
    let sharded = halo_replicas > 0;
    let submits = durations(&sat.phase.submits);
    let (sched_submits, router_submits) = if sharded {
        (Vec::new(), submits)
    } else {
        (submits, Vec::new())
    };

    m.add(
        "scheduler.submit_p50_us",
        us(percentile(&sched_submits, 50.0)),
        "us",
    );
    m.add(
        "scheduler.submit_p99_us",
        us(percentile(&sched_submits, 99.0)),
        "us",
    );
    m.add("scheduler.epochs", epochs, "count");
    m.add(
        "scheduler.window_updates",
        ratio((after.applied - before.applied) as f64, epochs),
        "count/epoch",
    );
    m.add(
        "scheduler.coalesced",
        (after.coalesced - before.coalesced) as f64,
        "count",
    );
    m.add("scheduler.self_p50_ms", ms(percentile(&gaps, 50.0)), "ms");
    m.add("scheduler.self_p99_ms", ms(percentile(&gaps, 99.0)), "ms");
    m.add(
        "scheduler.self_max_ms",
        ms(gaps.iter().copied().max().unwrap_or(0)),
        "ms",
    );
    let vis = rate.visibility_ns();
    m.add(
        "scheduler.vis_p99_ms",
        chunked_percentile(&vis, PARTS, 99.0) / 1e6,
        "ms",
    );

    let calls: Vec<u64> = engine.iter().map(|e| e.span.nanos()).collect();
    let stats: Vec<_> = engine.iter().filter_map(|e| e.stats.as_ref()).collect();
    let per_call = |f: &dyn Fn(&ripple_core::BatchStats) -> f64| mean(stats.iter().map(|s| f(s)));
    let hop = |s: &ripple_core::BatchStats, h: usize| {
        s.affected_per_hop.get(h).copied().unwrap_or(0) as f64
    };
    m.add("engine.window_p50_ms", ms(percentile(&calls, 50.0)), "ms");
    m.add("engine.window_p99_ms", ms(percentile(&calls, 99.0)), "ms");
    m.add(
        "engine.update_ms",
        per_call(&|s| s.update_time.as_secs_f64() * 1e3),
        "ms",
    );
    m.add(
        "engine.propagate_ms",
        per_call(&|s| s.propagate_time.as_secs_f64() * 1e3),
        "ms",
    );
    m.add(
        "engine.affected_hop1",
        per_call(&|s| hop(s, 0)),
        "count/call",
    );
    m.add(
        "engine.affected_hop2",
        per_call(&|s| hop(s, 1)),
        "count/call",
    );
    m.add(
        "engine.tree_size",
        per_call(&|s| s.propagation_tree_size as f64),
        "count/call",
    );
    m.add(
        "engine.aggregate_ops",
        stats.iter().map(|s| s.aggregate_ops).sum::<usize>() as f64,
        "count",
    );
    m.add(
        "engine.dirty_rows",
        mean(engine.iter().map(|e| e.dirty_rows as f64)),
        "count/call",
    );
    let busy: u64 = calls.iter().sum();
    m.add(
        "engine.share",
        ratio(busy as f64, (busy + gaps.iter().sum::<u64>()) as f64),
        "ratio",
    );

    let (ib, ia) = (&sat.index_before, &sat.index_after);
    m.add("index.repairs", (ia.repairs - ib.repairs) as f64, "count");
    m.add(
        "index.rows_repaired",
        (ia.rows_repaired - ib.rows_repaired) as f64,
        "count",
    );
    m.add(
        "index.rows_moved",
        (ia.rows_moved - ib.rows_moved) as f64,
        "count",
    );
    m.add("index.splits", (ia.splits - ib.splits) as f64, "count");
    m.add("index.merges", (ia.merges - ib.merges) as f64, "count");
    let reuses = (ia.buffer_reuses - ib.buffer_reuses) as f64;
    m.add("index.buffer_reuses", reuses, "count");
    m.add(
        "index.clone_fallbacks",
        (ia.clone_fallbacks - ib.clone_fallbacks) as f64,
        "count",
    );
    m.add("index.reuse_ratio", ratio(reuses, epochs), "ratio");

    let d = durability.unwrap_or(Durability {
        wal_bytes: 0,
        checkpoints: 0,
        ckpt_bytes: 0,
    });
    m.add("durability.wal_bytes", d.wal_bytes as f64, "B");
    m.add(
        "durability.checkpoints",
        (d.checkpoints / CHECKPOINT_EVERY) as f64,
        "count",
    );
    m.add("durability.ckpt_bytes", d.ckpt_bytes as f64, "B");

    let merged = (after.merged - before.merged) as f64;
    m.add(
        "admission.admitted_concurrent",
        (after.admitted_concurrent - before.admitted_concurrent) as f64,
        "count",
    );
    m.add(
        "admission.conflicts",
        (after.conflicts - before.conflicts) as f64,
        "count",
    );
    m.add("admission.merged", merged, "count");
    m.add(
        "admission.serialized",
        (after.serialized - before.serialized) as f64,
        "count",
    );
    m.add("admission.merge_ratio", ratio(merged, epochs), "ratio");

    for (kind, p50, p99) in [
        ("label", "query.label_p50_us", "query.label_p99_us"),
        (
            "embedding",
            "query.embedding_p50_us",
            "query.embedding_p99_us",
        ),
        ("topk", "query.topk_p50_us", "query.topk_p99_us"),
    ] {
        let d: Vec<u64> = rate
            .reads
            .iter()
            .filter(|r| r.span.op == kind)
            .map(|r| r.span.nanos())
            .collect();
        m.add(p50, us(percentile(&d, 50.0)), "us");
        m.add(p99, us(percentile(&d, 99.0)), "us");
    }
    m.add(
        "query.staleness_mean",
        mean(rate.reads.iter().map(|r| r.staleness as f64)),
        "count",
    );
    let reads = rate.read_latencies_ns();
    m.add(
        "query.read_p50_us",
        chunked_percentile(&reads, PARTS, 50.0) / 1e3,
        "us",
    );
    m.add(
        "query.read_p99_us",
        chunked_percentile(&reads, PARTS, 99.0) / 1e3,
        "us",
    );

    m.add(
        "router.submit_p50_us",
        us(percentile(&router_submits, 50.0)),
        "us",
    );
    m.add(
        "router.submit_p99_us",
        us(percentile(&router_submits, 99.0)),
        "us",
    );
    m.add("shard.halo_replicas", halo_replicas as f64, "count");
    m.add(
        "shard.epoch_skew",
        mean(rate.epoch_skews.iter().map(|&s| s as f64)),
        "epochs",
    );

    m.add("gen.write_late_max_ms", ms(rate.write_late_max_ns), "ms");
    m.add("gen.read_late_max_ms", ms(rate.read_late_max_ns), "ms");
}

fn provenance(
    opts: &Options,
    ledger: &Ledger,
    problems: &[String],
    exact: Exactness,
    closed_on_size: bool,
) -> String {
    let counts: Vec<String> = EXACT_COUNTS.iter().map(|c| format!("\"{c}\"")).collect();
    let problems: Vec<String> = problems
        .iter()
        .map(|p| format!("\"{}\"", p.replace('"', "'")))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, {}, \
         \"params\": {}, \"setup_reps\": {}, \"exact_counts\": [{}], \
         \"saturation_closed_on_size\": {}, \
         \"visibility\": \"{}\", \"max_diff\": {}, \"tolerance_used\": {}, \
         \"attempted\": {}, \"failed\": {}, \"problems\": [{}]}}",
        opts.spec.name,
        opts.seed,
        opts.seconds,
        opts.trace,
        ripple_tensor::simd::env_json_fields(),
        opts.spec.describe(opts.seconds),
        if opts.trace { 1 } else { SATURATION_PASSES },
        if opts.spec.shards > 1 {
            String::new()
        } else {
            counts.join(", ")
        },
        closed_on_size,
        if opts.spec.shards > 1 {
            "due time to the first stamp of every owning shard covering the update"
        } else {
            "due time to the first stamp whose applied_seq covers the update"
        },
        exact.max_diff,
        exact.worst_ratio,
        ledger.attempted,
        ledger.failed,
        problems.join(", ")
    )
}
