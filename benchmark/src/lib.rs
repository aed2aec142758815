//! # gcr-benchmark — the repository benchmark
//!
//! Five workloads ([`def::WORKLOADS`]), each measured for a number of
//! seconds with tracing off for the end-to-end metrics
//! ([`def::END_TO_END`]), and with probes installed from outside every
//! layer for the per-layer metrics ([`def::PER_LAYER`]). Every sample's
//! outcome digest must reproduce, traced or not, so the probes are shown
//! to only observe. See `BENCHMARK.md` for how to run, trace and compare.

#![warn(missing_docs)]

pub mod campaign;
pub mod crash;
pub mod def;
pub mod lint;
pub mod pace;
pub mod paper;
pub mod probes;
pub mod report;
pub mod run;
pub mod sample;
pub mod spans;
pub mod stats;

use std::path::PathBuf;

/// The repository checkout this benchmark was built from (the parent of
/// the benchmark's own directory).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}
