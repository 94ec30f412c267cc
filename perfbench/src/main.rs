//! Command line of the serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload arxiv-serve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `arxiv-serve`, `products-engine`, `arxiv-durable`,
//! `arxiv-sharded`. `--trace 0` prints the end-to-end metrics, `--trace 1`
//! the per-layer metrics of a traced run. The last line of standard output
//! is one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`; the line before it is the run's provenance. Both are also
//! written to `perfbench/out/`, next to the spans of traced runs and the
//! durability directories of `arxiv-durable` (removed after each run).

use ripple_perfbench::run::{run, Options};
use ripple_perfbench::workload::WorkloadSpec;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WorkloadSpec::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = WorkloadSpec::named(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(spec), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let name = spec.name.clone();
    let opts = Options {
        spec,
        seed,
        seconds,
        trace,
        out_dir: out_dir.clone(),
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: gate failed: {problem}");
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    let file = out_dir.join(format!(
        "result-{name}-seed{seed}-trace{}.json",
        u8::from(trace)
    ));
    let record = format!(
        "{{\"provenance\": {}, \"ungated\": {}, \"result\": {result}}}\n",
        outcome.provenance,
        outcome.ungated.to_json()
    );
    if let Err(e) = std::fs::write(&file, record) {
        eprintln!("perfbench: writing {}: {e}", file.display());
    }
    println!(
        "{{\"provenance\": {}, \"ungated\": {}}}",
        outcome.provenance,
        outcome.ungated.to_json()
    );
    println!("{result}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
