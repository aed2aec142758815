//! Parallel parameter sweeps.
//!
//! Each simulation is single-threaded and deterministic; a sweep runs many
//! independent simulations, so it parallelizes across OS threads with a
//! shared work queue (`std::thread::scope` — specs and results are `Send`,
//! simulations never are).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::runner::run_one;
use crate::spec::{average, with_trials, RunResult, RunSpec};

/// Run every spec, in parallel, returning results in input order.
pub fn run_all(specs: &[RunSpec]) -> Vec<RunResult> {
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    run_all_with(specs, workers.min(specs.len().max(1)))
}

/// Run with an explicit worker count.
pub fn run_all_with(specs: &[RunSpec], workers: usize) -> Vec<RunResult> {
    if specs.is_empty() {
        return Vec::new();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<RunResult>>> = Mutex::new(vec![None; specs.len()]);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let r = run_one(&specs[i]);
                results.lock().expect("poisoned")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("poisoned")
        .into_iter()
        .map(|r| r.expect("missing result"))
        .collect()
}

/// Seeded trials averaged per spec (the paper averaged 5 physical runs).
pub const TRIALS: u64 = 3;

/// Run [`TRIALS`] seed-varied copies of every spec, all rows in one
/// parallel batch, and return the per-spec averages in the rows' shape.
pub fn run_averaged(rows: impl IntoIterator<Item = Vec<RunSpec>>) -> Vec<Vec<RunResult>> {
    let rows: Vec<Vec<RunSpec>> = rows.into_iter().collect();
    let expanded: Vec<RunSpec> = rows
        .iter()
        .flatten()
        .flat_map(|s| with_trials(s, TRIALS))
        .collect();
    let results = run_all(&expanded);
    let mut averages = results.chunks(TRIALS as usize).map(average);
    rows.iter()
        .map(|r| averages.by_ref().take(r.len()).collect())
        .collect()
}
