//! # gcr-bench — the experiment harness
//!
//! One binary per paper table/figure (see `src/bin/`), built on:
//! * [`kernel`] — sharded-executor throughput grid (`BENCH_kernel.json`),
//! * [`spec`] — experiment descriptions (workload × protocol × schedule),
//! * [`runner`] — run one experiment in a fresh deterministic simulation,
//! * [`sweep`] — parallel sweeps across independent simulations,
//! * [`table`] — plain-text output matching the paper's rows/series.

#![warn(missing_docs)]

pub mod hpl_paper;
pub mod kernel;
pub mod runner;
pub mod spec;
pub mod sweep;
pub mod table;

pub use gcr_chaos::{profile_trace, Proto, WorkloadSpec};
pub use hpl_paper::{hpl_paper_sweep, HplSweep};
pub use kernel::{run_kernel, KernelPoint, KernelSpec};
pub use runner::{resolve_groups, run_one, run_traced, TracedRun};
pub use spec::{average, hpl_grid_for, with_trials, RunResult, RunSpec, Schedule};
pub use sweep::{run_all, run_all_with, run_averaged};
pub use table::Table;
