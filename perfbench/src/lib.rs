//! Open-loop serving benchmark for the Ripple serving stack.
//!
//! Each run replays one seeded `build_stream` plan against a serving
//! session in two phases — a saturation phase (closed loop, as fast as
//! backpressure admits) and a rate phase (open loop, constant offered rate,
//! every operation timed from its due time) — checks the final store
//! against `full_inference`, and reports either the end-to-end metrics or,
//! in a traced run, the per-layer metrics. See `main.rs` for the command
//! line and `BENCHMARK.json` at the repository root for the metric list.

#![warn(missing_docs)]

pub mod drive;
pub mod report;
pub mod run;
pub mod session;
pub mod trace;
pub mod workload;
