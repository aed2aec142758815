//! Schedule shrinking: minimize a failing chaos scenario.
//!
//! Greedy, bounded minimization with two moves, applied to fixpoint:
//!
//! 1. **drop an event** — fewer failures is always simpler;
//! 2. **delay an event** — a failure that still reproduces with a later
//!    injection instant perturbs a shorter prefix of the run.
//!
//! Every candidate is re-executed with [`run_chaos`]; a move is kept only
//! if the oracles still fail. The result carries a one-line repro command
//! (`gcrsim chaos --seed N --schedule ...`).

use crate::engine::run_chaos;
use crate::spec::{repro_command, ChaosSpec};

/// Hard cap on shrink re-executions.
const MAX_RUNS: usize = 150;

/// Delay increments tried per event, largest first.
const DELAYS: [u64; 4] = [1600, 800, 400, 200];

/// Result of shrinking a failing spec.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized spec (still failing).
    pub spec: ChaosSpec,
    /// Violations of the minimized spec's run.
    pub violations: Vec<String>,
    /// Chaos runs spent shrinking.
    pub runs: usize,
    /// One-line command reproducing the minimized failure.
    pub repro: String,
}

/// Minimize a failing schedule. Returns `None` if `spec` does not
/// actually fail its oracles (nothing to shrink).
pub fn shrink(spec: &ChaosSpec) -> Option<ShrinkOutcome> {
    let mut runs = 0usize;
    fn check(s: &ChaosSpec, runs: &mut usize) -> Vec<String> {
        *runs += 1;
        run_chaos(s).violations
    }
    let mut best_violations = check(spec, &mut runs);
    if best_violations.is_empty() {
        return None;
    }
    let mut best = spec.clone();

    'outer: loop {
        let mut improved = false;
        // Move 1: drop events, scanning forward; on success rescan from
        // the start (dropping one event may unlock dropping another).
        let mut i = 0;
        while i < best.schedule.len() {
            if runs >= MAX_RUNS {
                break 'outer;
            }
            let mut cand = best.clone();
            cand.schedule.remove(i);
            let v = check(&cand, &mut runs);
            if !v.is_empty() {
                best = cand;
                best_violations = v;
                improved = true;
            } else {
                i += 1;
            }
        }
        // Move 2: push each surviving event later, largest delay first.
        for i in 0..best.schedule.len() {
            for d in DELAYS {
                if runs >= MAX_RUNS {
                    break 'outer;
                }
                let mut cand = best.clone();
                cand.schedule[i].at_ms += d;
                let v = check(&cand, &mut runs);
                if !v.is_empty() {
                    best = cand;
                    best_violations = v;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }

    let repro = repro_command(&best);
    Some(ShrinkOutcome {
        spec: best,
        violations: best_violations,
        runs,
        repro,
    })
}
