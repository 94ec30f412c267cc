//! The two generator threads of a phase: one writer submitting updates and
//! one reader reading on its own fixed schedule.
//!
//! In the rate phase both loops are open: each operation has a due time on
//! a fixed schedule, waits for it, and is timed from it, so a stall in the
//! program shows as latency of every operation it delays. In the saturation
//! phase the writer submits back to back and only the queue's
//! `BackpressurePolicy::Block` slows it (a closed loop).

use crate::session::{Requirement, Session};
use crate::trace::{now_ns, Span};
use crate::workload::{ReadKind, ReadOp};
use ripple_graph::GraphUpdate;
use ripple_serve::{QueryService, Stamped, Submission, TopKRequest};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Below this much time to the due time the writer spins instead of
/// sleeping: a sleep overshoots by the timer slack, 50 us by default.
const SPIN_NS: u64 = 100_000;
/// Gap between arming the phase and the first due time.
const LEAD_NS: u64 = 2_000_000;
/// How long the reader keeps looking for updates not yet visible after the
/// writer is done; updates still invisible then count as failed.
const VISIBILITY_TIMEOUT_NS: u64 = 30_000_000_000;

/// What the phase submits and what it must observe.
pub struct PhasePlan<'a> {
    /// The updates, in stream order.
    pub updates: Vec<GraphUpdate>,
    /// Per update, the slot sequence numbers that make it visible.
    pub requirements: Vec<Vec<Requirement>>,
    /// Per slot, the `applied_seq` that covers the whole phase.
    pub targets: Vec<u64>,
    /// Scheduled gap between submits; `None` submits back to back.
    pub write_period: Option<Duration>,
    /// Scheduled gap between reads.
    pub read_period: Duration,
    /// Whether the reader yields between reads instead of sleeping, for
    /// read latencies that are not the reader's own wake-up delay. The
    /// saturation phase only sleeps, never spins, to leave the processors
    /// to the pipeline.
    pub precise_reads: bool,
    /// The reader's op cycle.
    pub reads: &'a [ReadOp],
    /// Top-k requests, indexed by [`ReadOp::query`].
    pub queries: &'a [TopKRequest],
    /// Output classes, for checking read results.
    pub classes: usize,
    /// Whether to record submit spans.
    pub traced: bool,
}

/// One read, timed from its due time.
#[derive(Debug, Clone)]
pub struct ReadRecord {
    /// Its timing (`op` is the read kind); `id` is the read number.
    pub span: Span,
    /// The staleness its stamp reported.
    pub staleness: u64,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    /// First due time (rate phase) or first submit (saturation phase).
    pub start_ns: u64,
    /// Per update: its due time (rate phase) or submit start (saturation).
    pub due_ns: Vec<u64>,
    /// Per update: when the reader first got a stamp covering it, if ever.
    pub visible_ns: Vec<Option<u64>>,
    /// Submit spans (traced runs only; `id` = update sequence number).
    pub submits: Vec<Span>,
    /// Largest delay between a submit's due time and its start.
    pub write_late_max_ns: u64,
    /// Submits made.
    pub submitted: u64,
    /// Submits refused or closed.
    pub submit_failures: u64,
    /// Every read of the phase.
    pub reads: Vec<ReadRecord>,
    /// Largest delay between a read's due time and its start.
    pub read_late_max_ns: u64,
    /// Reads that returned `Err` or a malformed result.
    pub read_failures: u64,
    /// Epochs that went backwards within one reader slot.
    pub epoch_regressions: u64,
    /// `max - min` of the epoch vector of each sharded whole-graph read.
    /// Taken from the reads' own stamps: refreshing every shard's reader
    /// after each read would release pinned snapshots sooner and speed up
    /// publication, so the trace would measure another pipeline.
    pub epoch_skews: Vec<u64>,
}

/// Yields the processor until shortly before `due_ns`, then spins, without
/// ever sleeping. A sleeping thread on an idle virtual CPU can wake
/// milliseconds late, which would show as read latency; a yielding one runs
/// again as soon as no other thread wants its CPU, and the final spin
/// avoids the system call's own delay.
fn yield_until(due_ns: u64) {
    const FINAL_SPIN_NS: u64 = 20_000;
    loop {
        let now = now_ns();
        if now >= due_ns {
            return;
        }
        if due_ns - now > FINAL_SPIN_NS {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sleeps, then spins, until `due_ns`.
fn wait_until(due_ns: u64) {
    loop {
        let now = now_ns();
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sleeps until `due_ns`, without a final spin: for a loop whose timing
/// only needs the resolution of its own period.
fn sleep_until(due_ns: u64) {
    let now = now_ns();
    if due_ns > now {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// Runs one phase on `session` and returns what it measured.
pub fn run_phase(session: &Session, plan: PhasePlan<'_>) -> PhaseOutcome {
    let client = session.client();
    let queries = session.query_service();
    let num_shards = session.num_shards();
    let writer_done = AtomicBool::new(false);
    let origin = now_ns() + LEAD_NS;
    let PhasePlan {
        updates,
        requirements,
        targets,
        write_period,
        read_period,
        precise_reads,
        reads,
        queries: requests,
        classes,
        traced,
    } = plan;
    let reader_plan = ReaderPlan {
        origin,
        period: read_period.as_nanos() as u64,
        precise: precise_reads,
        reads,
        requests,
        classes,
        targets,
        num_shards,
    };
    let (writer, reader) = std::thread::scope(|scope| {
        let reader = std::thread::Builder::new()
            .name("perfbench-reader".to_string())
            .spawn_scoped(scope, || read_loop(queries, &reader_plan, &writer_done))
            .expect("spawning the reader thread");
        let writer = std::thread::Builder::new()
            .name("perfbench-writer".to_string())
            .spawn_scoped(scope, || {
                let out = write_loop(&client, updates, origin, write_period, traced);
                writer_done.store(true, Ordering::Release);
                out
            })
            .expect("spawning the writer thread");
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let mut outcome = PhaseOutcome {
        submits: writer.spans,
        write_late_max_ns: writer.late_max_ns,
        submitted: writer.starts.len() as u64,
        submit_failures: writer.failures,
        reads: reader.reads,
        read_late_max_ns: reader.late_max_ns,
        read_failures: reader.failures,
        epoch_regressions: reader.regressions,
        epoch_skews: reader.skews,
        ..PhaseOutcome::default()
    };
    // Due time of update k: its schedule slot, or its actual submit start
    // in the saturation phase (whose writer has no schedule).
    outcome.due_ns = match write_period {
        Some(period) => (0..requirements.len() as u64)
            .map(|k| origin + k * period.as_nanos() as u64)
            .collect(),
        None => writer.starts,
    };
    outcome.start_ns = outcome.due_ns.first().copied().unwrap_or(origin);
    let first_cover = |slot: usize, seq: u64| -> Option<u64> {
        let seen = &reader.observations[slot];
        let i = seen.partition_point(|&(_, applied)| applied < seq);
        seen.get(i).map(|&(t, _)| t)
    };
    outcome.visible_ns = requirements
        .iter()
        .map(|reqs| {
            reqs.iter()
                .try_fold(0u64, |t, &(slot, seq)| Some(t.max(first_cover(slot, seq)?)))
        })
        .collect();
    outcome
}

impl PhaseOutcome {
    /// When the reader had seen every update of the phase, if it did.
    pub fn all_visible_ns(&self) -> Option<u64> {
        self.visible_ns
            .iter()
            .try_fold(0u64, |t, v| Some(t.max((*v)?)))
    }

    /// Per visible update, due time to first covering stamp.
    pub fn visibility_ns(&self) -> Vec<u64> {
        self.visible_ns
            .iter()
            .zip(&self.due_ns)
            .filter_map(|(v, due)| v.map(|v| v.saturating_sub(*due)))
            .collect()
    }

    /// Per read, due time to end.
    pub fn read_latencies_ns(&self) -> Vec<u64> {
        self.reads
            .iter()
            .map(|r| r.span.end_ns - r.span.due_ns.unwrap_or(r.span.start_ns))
            .collect()
    }

    /// Updates never seen by the reader.
    pub fn invisible(&self) -> u64 {
        self.visible_ns.iter().filter(|v| v.is_none()).count() as u64
    }
}

struct WriterLog {
    starts: Vec<u64>,
    spans: Vec<Span>,
    late_max_ns: u64,
    failures: u64,
}

fn write_loop(
    client: &ripple_serve::ServeClient,
    updates: Vec<GraphUpdate>,
    origin: u64,
    period: Option<Duration>,
    traced: bool,
) -> WriterLog {
    let period_ns = period.map(|p| p.as_nanos() as u64);
    let mut log = WriterLog {
        starts: Vec::with_capacity(updates.len()),
        spans: Vec::new(),
        late_max_ns: 0,
        failures: 0,
    };
    wait_until(origin);
    for (k, update) in updates.into_iter().enumerate() {
        let due = period_ns.map(|p| origin + k as u64 * p);
        if let Some(due) = due {
            wait_until(due);
            log.late_max_ns = log.late_max_ns.max(now_ns() - due);
        }
        let start = now_ns();
        let outcome = client.submit(update);
        let end = now_ns();
        log.starts.push(start);
        match outcome {
            Submission::Enqueued { seq } => {
                if traced {
                    log.spans.push(Span {
                        layer: "serve::scheduler",
                        op: "submit",
                        id: seq,
                        start_ns: start,
                        end_ns: end,
                        due_ns: due,
                    });
                }
            }
            Submission::Shed | Submission::Closed => log.failures += 1,
        }
    }
    log
}

struct ReaderPlan<'a> {
    origin: u64,
    period: u64,
    precise: bool,
    reads: &'a [ReadOp],
    requests: &'a [TopKRequest],
    classes: usize,
    targets: Vec<u64>,
    num_shards: usize,
}

struct ReaderLog {
    reads: Vec<ReadRecord>,
    /// Per slot, `(time, applied_seq)` each time the slot's stamp advanced.
    observations: Vec<Vec<(u64, u64)>>,
    late_max_ns: u64,
    failures: u64,
    regressions: u64,
    skews: Vec<u64>,
}

/// The stamp fields the reader checks, whatever the payload.
struct Stamp {
    epoch: u64,
    applied_seq: u64,
    staleness: u64,
    slot: usize,
    /// Whether `applied_seq` belongs to one slot (a whole-graph read of a
    /// sharded session sums it across shards).
    per_slot: bool,
    /// `max - min` of the per-shard epochs a sharded whole-graph read saw.
    skew: Option<u64>,
}

fn stamp_of<T>(s: &Stamped<T>, num_shards: usize) -> Stamp {
    let whole_graph = s.epochs.is_some();
    Stamp {
        epoch: s.epoch,
        applied_seq: s.applied_seq,
        staleness: s.staleness,
        slot: match (whole_graph, s.shard) {
            (true, _) => num_shards,
            (false, Some(p)) => p.index(),
            (false, None) => 0,
        },
        per_slot: !whole_graph,
        skew: s.epochs.as_ref().map(|epochs| {
            let (lo, hi) = epochs
                .iter()
                .fold((u64::MAX, 0), |(lo, hi), &e| (lo.min(e), hi.max(e)));
            hi.saturating_sub(lo)
        }),
    }
}

fn read_loop(
    mut queries: QueryService,
    plan: &ReaderPlan<'_>,
    writer_done: &AtomicBool,
) -> ReaderLog {
    let slots = plan.num_shards;
    let mut log = ReaderLog {
        reads: Vec::new(),
        observations: vec![Vec::new(); slots],
        late_max_ns: 0,
        failures: 0,
        regressions: 0,
        skews: Vec::new(),
    };
    let mut seen = vec![0u64; slots];
    // One epoch slot per shard plus one for sharded whole-graph reads.
    let mut last_epoch = vec![0u64; slots + 1];
    let mut done_at: Option<u64> = None;
    for j in 0u64.. {
        let due = plan.origin + j * plan.period;
        if plan.precise {
            yield_until(due);
        } else {
            sleep_until(due);
        }
        let op = plan.reads[j as usize % plan.reads.len()];
        let start = now_ns();
        let stamp = match op.kind {
            ReadKind::Label => queries
                .read_label(op.vertex)
                .ok()
                .filter(|s| s.value < plan.classes)
                .map(|s| stamp_of(&s, slots)),
            ReadKind::Embedding => queries
                .read_embedding(op.vertex)
                .ok()
                .filter(|s| s.value.len() == plan.classes)
                .map(|s| stamp_of(&s, slots)),
            ReadKind::TopK => {
                let request = &plan.requests[op.query];
                queries
                    .top_k(request)
                    .ok()
                    .filter(|s| {
                        !s.value.is_empty()
                            && s.value.len() <= request.k
                            && s.value.windows(2).all(|w| w[0].1 >= w[1].1)
                    })
                    .map(|s| stamp_of(&s, slots))
            }
        };
        let end = now_ns();
        log.late_max_ns = log.late_max_ns.max(start - due);
        match stamp {
            None => log.failures += 1,
            Some(stamp) => {
                if stamp.epoch < last_epoch[stamp.slot] {
                    log.regressions += 1;
                }
                last_epoch[stamp.slot] = last_epoch[stamp.slot].max(stamp.epoch);
                if stamp.per_slot && stamp.applied_seq > seen[stamp.slot] {
                    seen[stamp.slot] = stamp.applied_seq;
                    log.observations[stamp.slot].push((end, stamp.applied_seq));
                }
                log.reads.push(ReadRecord {
                    span: Span {
                        layer: "serve::query",
                        op: op.kind.name(),
                        id: j,
                        start_ns: start,
                        end_ns: end,
                        due_ns: Some(due),
                    },
                    staleness: stamp.staleness,
                });
                log.skews.extend(stamp.skew);
            }
        }
        if writer_done.load(Ordering::Acquire) {
            if seen.iter().zip(&plan.targets).all(|(s, t)| s >= t) {
                break;
            }
            let since = *done_at.get_or_insert(end);
            if end - since > VISIBILITY_TIMEOUT_NS {
                break;
            }
        }
    }
    log
}
