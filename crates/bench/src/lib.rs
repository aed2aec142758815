//! # gcr-bench — the experiment harness
//!
//! The `experiments` binary regenerates every table, figure and ablation
//! of the paper's evaluation from one table of entries, [`experiments`],
//! built on:
//! * [`spec`] — experiment descriptions (workload × protocol × schedule),
//! * [`runner`] — run one experiment in a fresh deterministic simulation,
//! * [`sweep`] — parallel sweeps across independent simulations,
//! * [`mod@table`] — plain-text output matching the paper's rows/series.
//!
//! `protocol_crossover` and `recovery_latency` write the committed
//! `BENCH_protocols.json` and `BENCH_recovery.json`.

#![warn(missing_docs)]

pub mod experiments;
pub mod runner;
pub mod spec;
pub mod sweep;
pub mod table;

pub use gcr_chaos::{profile_trace, Proto, WorkloadSpec};
pub use runner::{resolve_groups, run_one, run_traced, TracedRun};
pub use spec::{average, hpl_grid_for, with_trials, RunResult, RunSpec, Schedule};
pub use sweep::{run_all, run_all_with, run_averaged};
pub use table::table;

/// The value that follows `name` on the command line, if any.
pub fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).cloned()
}
