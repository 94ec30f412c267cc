//! The benchmark's own checks: the timing wrapper measures the same
//! pipeline as the bare engine, saturation counts repeat for a seed, and a
//! whole run prints every metric `BENCHMARK.json` lists.

use ripple_core::{RippleConfig, RippleEngine, StreamingEngine};
use ripple_graph::stream::into_batches;
use ripple_graph::synth::DatasetSpec;
use ripple_perfbench::run::{run, run_saturation, Options, Saturation};
use ripple_perfbench::session::spawn_session;
use ripple_perfbench::trace::{EngineSink, EngineSpan, TimedEngine};
use ripple_perfbench::workload::{Inputs, WorkloadSpec};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const SECONDS: f64 = 1.0;

/// Saturation windows close on size only while the writer outpaces the
/// scheduler; tests running side by side on a small machine can stall the
/// writer for longer than a time window, so these tests run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small variant of a named workload: same layers, much smaller graph.
fn small(name: &str) -> WorkloadSpec {
    WorkloadSpec {
        dataset: DatasetSpec::custom(1_500, 6.0, 16, 8),
        saturation_ups: 2_000.0,
        offered_ups: 200.0,
        ..WorkloadSpec::named(name).unwrap()
    }
}

/// Runs the saturation phase on a fresh session and returns it with the
/// final store and the engine spans.
fn saturate(
    spec: &WorkloadSpec,
    inputs: &Inputs,
    traced: bool,
    dir: &str,
) -> (Saturation, ripple_gnn::EmbeddingStore, Vec<EngineSpan>) {
    let spawned = spawn_session(spec, inputs, traced, &scratch(dir)).unwrap();
    let sat = run_saturation(&spawned.session, spec, inputs, &inputs.requests(), traced);
    let spans = spawned
        .engine_spans
        .map(|s| s.lock().unwrap().clone())
        .unwrap_or_default();
    let store = spawned.session.finish().unwrap();
    if let Some(dir) = spawned.durable_dir {
        std::fs::remove_dir_all(dir).unwrap();
    }
    (sat, store, spans)
}

fn admission_counts(s: &Saturation) -> [u64; 4] {
    [
        s.after.admitted_concurrent - s.before.admitted_concurrent,
        s.after.merged - s.before.merged,
        s.after.conflicts - s.before.conflicts,
        s.after.serialized - s.before.serialized,
    ]
}

fn bits(store: &ripple_gnn::EmbeddingStore) -> Vec<u32> {
    (0..=store.num_layers())
        .flat_map(|l| store.embeddings(l).as_slice().to_vec())
        .map(f32::to_bits)
        .collect()
}

#[test]
fn timed_engine_forwards_every_method() {
    let _serial = serial();
    let spec = small("arxiv-serve");
    let inputs = Inputs::build(&spec, 3, SECONDS).unwrap();
    let bare = || {
        RippleEngine::new(
            inputs.plan.snapshot.clone(),
            inputs.model.clone(),
            inputs.store.clone(),
            RippleConfig::default(),
        )
        .unwrap()
    };
    let sink: EngineSink = Arc::new(Mutex::new(Vec::new()));
    let mut timed = TimedEngine::new(bare(), Arc::clone(&sink));
    let mut plain = bare();
    assert_eq!(timed.strategy_name(), plain.strategy_name());
    assert!(timed.model().is_some(), "admission needs model()");

    let batches = into_batches(&inputs.plan.updates[..64], 16);
    timed.process_batch(&batches[0]).unwrap();
    plain.process_batch(&batches[0]).unwrap();
    assert!(timed.dirty_rows().is_some(), "admission needs dirty_rows()");
    assert_eq!(timed.dirty_rows(), StreamingEngine::dirty_rows(&plain));
    assert_eq!(
        timed.topology_epoch(),
        StreamingEngine::topology_epoch(&plain)
    );

    let merged_timed = timed.process_windows(&batches[1..]).unwrap();
    let merged_plain = StreamingEngine::process_windows(&mut plain, &batches[1..]).unwrap();
    assert_eq!(merged_timed, merged_plain);
    assert_eq!(
        timed.topology_epoch(),
        StreamingEngine::topology_epoch(&plain)
    );
    assert_eq!(bits(timed.current_store()), bits(plain.current_store()));
    {
        let spans = sink.lock().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].span.op, "process_windows");
        assert_eq!(spans[1].windows, 3);
        assert!(spans[0].stats.is_some() && spans[1].stats.is_none());
    }

    let graph = plain.current_graph().clone();
    let store = plain.current_store().clone();
    timed.restore_state(graph, store, 42).unwrap();
    assert_eq!(timed.topology_epoch(), 42);
}

#[test]
fn traced_and_untraced_saturation_agree() {
    let _serial = serial();
    // Admission on, so a wrapper that hid model() or dirty_rows() would
    // change the admission counters.
    // A sparse graph, so some 16-update windows have disjoint footprints.
    let spec = WorkloadSpec {
        dataset: DatasetSpec::custom(20_000, 2.0, 16, 8),
        durable: false,
        index: true,
        ..small("arxiv-durable")
    };
    let inputs = Inputs::build(&spec, 5, SECONDS).unwrap();
    let (plain, plain_store, _) = saturate(&spec, &inputs, false, "parity-plain");
    let (traced, traced_store, spans) = saturate(&spec, &inputs, true, "parity-traced");
    assert_eq!(plain.phase.invisible(), 0);
    assert_eq!(plain.epochs(), traced.epochs());
    assert_eq!(
        plain.epochs(),
        (inputs.saturation / spec.max_batch) as u64,
        "every saturation window closes on size"
    );
    assert_eq!(admission_counts(&plain), admission_counts(&traced));
    assert!(
        admission_counts(&traced)[0] > 0,
        "no windows were admitted together: {:?}",
        admission_counts(&traced)
    );
    assert!(bits(&plain_store) == bits(&traced_store), "stores differ");
    assert!(spans.iter().any(|s| s.span.op == "process_windows"));
}

#[test]
fn listed_saturation_counts_repeat_for_a_seed() {
    let _serial = serial();
    let spec = small("arxiv-serve");
    let inputs = Inputs::build(&spec, 9, SECONDS).unwrap();
    let counts = |(sat, _, spans): (Saturation, _, Vec<EngineSpan>)| {
        let stats: Vec<_> = spans.iter().filter_map(|s| s.stats.clone()).collect();
        (
            sat.epochs(),
            sat.after.coalesced - sat.before.coalesced,
            sat.index_after.repairs - sat.index_before.repairs,
            sat.index_after.rows_repaired - sat.index_before.rows_repaired,
            spans.iter().map(|s| s.dirty_rows).sum::<usize>(),
            stats.iter().map(|s| s.aggregate_ops).sum::<usize>(),
            stats.iter().map(|s| s.propagation_tree_size).sum::<usize>(),
            stats
                .iter()
                .map(|s| s.affected_per_hop.clone())
                .collect::<Vec<_>>(),
        )
    };
    let first = counts(saturate(&spec, &inputs, true, "repeat-a"));
    let second = counts(saturate(&spec, &inputs, true, "repeat-b"));
    assert_eq!(first, second);
}

/// Metric names listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let start = text.find(&format!("\"{key}\"")).unwrap();
    let section = &text[start..];
    let section = &section[..section.find(']').unwrap()];
    section
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).unwrap().to_string())
        .collect()
}

#[test]
fn every_workload_passes_the_gate_and_reports_every_listed_metric() {
    let _serial = serial();
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for name in WorkloadSpec::NAMES {
        for trace in [false, true] {
            let outcome = run(&Options {
                spec: small(name),
                seed: 11,
                seconds: SECONDS,
                trace,
                out_dir: scratch(&format!("run-{name}")),
            })
            .unwrap();
            assert!(outcome.correct, "{name}: {:?}", outcome.problems);
            assert_eq!(outcome.failed, 0);
            let names: Vec<&str> = outcome.metrics.0.iter().map(|m| m.name).collect();
            let expected = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&names, expected, "{name} trace={trace}");
            if !trace {
                for m in &outcome.metrics.0 {
                    assert!(m.value > 0.0, "{name}: {} is {}", m.name, m.value);
                }
            }
        }
    }
}
