//! Experiment specifications: workload × protocol × schedule × storage.

use gcr_chaos::{Proto, WorkloadSpec};
use gcr_group::GroupDef;
use gcr_net::StorageTarget;

/// When checkpoints are taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Never checkpoint (baseline).
    None,
    /// One checkpoint at an absolute time (seconds).
    SingleAt(f64),
    /// First checkpoint at `start_s`, then every `every_s`, until the app
    /// finishes.
    Interval {
        /// First checkpoint time (s).
        start_s: f64,
        /// Interval between checkpoints (s).
        every_s: f64,
    },
}

/// A complete, `Send`-able experiment description.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The application.
    pub workload: WorkloadSpec,
    /// The protocol under test.
    pub proto: Proto,
    /// The checkpoint schedule.
    pub schedule: Schedule,
    /// Image/log storage target.
    pub storage: StorageTarget,
    /// Run the restart protocol after the app completes (paper §5.1).
    pub restart: bool,
    /// Enable the coordination straggler model.
    pub stragglers: bool,
    /// Root seed.
    pub seed: u64,
    /// Precomputed groups (skips the profiling run for `Proto::Gp`).
    pub groups: Option<GroupDef>,
    /// Honor piggyback-driven log garbage collection (ablation knob).
    pub piggyback_gc: bool,
    /// Override the cluster's straggler probability (ablation knob).
    pub straggler_prob: Option<f64>,
    /// Checkpoint groups one after another within each round (the paper's
    /// checkpoint-target-file capability) instead of simultaneously.
    pub staggered: bool,
}

impl RunSpec {
    /// A spec with paper-like defaults (local storage, stragglers on,
    /// restart off).
    pub fn new(workload: WorkloadSpec, proto: Proto, schedule: Schedule) -> Self {
        RunSpec {
            workload,
            proto,
            schedule,
            storage: StorageTarget::Local,
            restart: false,
            stragglers: true,
            seed: 0x6f2c_1138,
            groups: None,
            piggyback_gc: true,
            straggler_prob: None,
            staggered: false,
        }
    }

    /// Checkpoint groups one after another within each round.
    pub fn with_staggered_groups(mut self) -> Self {
        self.staggered = true;
        self
    }

    /// Enable the post-run restart measurement.
    pub fn with_restart(mut self) -> Self {
        self.restart = true;
        self
    }

    /// Use remote checkpoint servers (paper §5.3).
    pub fn with_remote_storage(mut self) -> Self {
        self.storage = StorageTarget::Remote;
        self
    }

    /// Override the seed (repetition index in multi-trial experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Everything a figure needs from one run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Application completion time (s).
    pub exec_s: f64,
    /// Completed checkpoint waves.
    pub waves: u64,
    /// Sum over ranks × waves of per-rank checkpoint time (Fig 6a).
    pub agg_ckpt_s: f64,
    /// Sum over ranks × waves of coordination-phase time (Fig 1).
    pub agg_coord_s: f64,
    /// Sum over ranks of restart time (Fig 6b); 0 when restart is off.
    pub agg_restart_s: f64,
    /// Mean per-rank checkpoint duration (Fig 14).
    pub mean_ckpt_s: f64,
    /// Mean phase breakdown `(lock, coordination, checkpoint, finalize)`
    /// in seconds (Fig 9).
    pub phases: (f64, f64, f64, f64),
    /// Total bytes re-sent during restart (Fig 7).
    pub resend_bytes: u64,
    /// Total resend operations during restart (Fig 8).
    pub resend_ops: u64,
    /// Bytes retained in message logs at the end of the run.
    pub retained_log_bytes: u64,
    /// Total bytes ever logged.
    pub total_logged_bytes: u64,
    /// Group count actually used.
    pub group_count: usize,
    /// Simulator task polls (cost diagnostic).
    pub sim_polls: u64,
}

/// Expand a spec into `trials` seed-varied copies (the paper repeats each
/// experiment five times and averages).
pub fn with_trials(spec: &RunSpec, trials: u64) -> Vec<RunSpec> {
    (0..trials)
        .map(|i| {
            spec.clone()
                .with_seed(spec.seed.wrapping_add(i * 0x9e37_79b9))
        })
        .collect()
}

/// Average the numeric fields of several results (counts are averaged too,
/// rounding to nearest).
pub fn average(results: &[RunResult]) -> RunResult {
    assert!(!results.is_empty(), "cannot average zero results");
    let n = results.len() as f64;
    let avg_u = |f: &dyn Fn(&RunResult) -> u64| -> u64 {
        (results.iter().map(f).sum::<u64>() as f64 / n).round() as u64
    };
    RunResult {
        exec_s: results.iter().map(|r| r.exec_s).sum::<f64>() / n,
        waves: avg_u(&|r| r.waves),
        agg_ckpt_s: results.iter().map(|r| r.agg_ckpt_s).sum::<f64>() / n,
        agg_coord_s: results.iter().map(|r| r.agg_coord_s).sum::<f64>() / n,
        agg_restart_s: results.iter().map(|r| r.agg_restart_s).sum::<f64>() / n,
        mean_ckpt_s: results.iter().map(|r| r.mean_ckpt_s).sum::<f64>() / n,
        phases: (
            results.iter().map(|r| r.phases.0).sum::<f64>() / n,
            results.iter().map(|r| r.phases.1).sum::<f64>() / n,
            results.iter().map(|r| r.phases.2).sum::<f64>() / n,
            results.iter().map(|r| r.phases.3).sum::<f64>() / n,
        ),
        resend_bytes: avg_u(&|r| r.resend_bytes),
        resend_ops: avg_u(&|r| r.resend_ops),
        retained_log_bytes: avg_u(&|r| r.retained_log_bytes),
        total_logged_bytes: avg_u(&|r| r.total_logged_bytes),
        group_count: results[0].group_count,
        sim_polls: avg_u(&|r| r.sim_polls),
    }
}

/// An HPL process grid for an arbitrary process count: `p` is the largest
/// divisor of `n` that is at most 8 (the paper fixes `P = 8` where
/// possible), `q = n / p`.
pub fn hpl_grid_for(n: usize) -> (usize, usize) {
    assert!(n > 0);
    let p = (1..=8.min(n))
        .rev()
        .find(|p| n.is_multiple_of(*p))
        .unwrap_or(1);
    (p, n / p)
}

#[cfg(test)]
mod spec_tests {
    use super::*;

    #[test]
    fn grids_for_fig1_sizes() {
        assert_eq!(hpl_grid_for(12), (6, 2));
        assert_eq!(hpl_grid_for(16), (8, 2));
        assert_eq!(hpl_grid_for(20), (5, 4));
        assert_eq!(hpl_grid_for(44), (4, 11));
        assert_eq!(hpl_grid_for(64), (8, 8));
        assert_eq!(hpl_grid_for(7), (7, 1));
    }

    #[test]
    fn trials_vary_seeds() {
        use gcr_workloads::RingConfig;
        let spec = RunSpec::new(
            WorkloadSpec::Ring(RingConfig {
                nprocs: 2,
                iters: 1,
                bytes: 1,
                compute_ms: 1,
                image_bytes: 1,
            }),
            Proto::Norm,
            Schedule::None,
        );
        let t = with_trials(&spec, 3);
        assert_eq!(t.len(), 3);
        assert_ne!(t[0].seed, t[1].seed);
        assert_ne!(t[1].seed, t[2].seed);
    }

    #[test]
    fn average_of_identical_is_identity() {
        let r = RunResult {
            exec_s: 10.0,
            waves: 2,
            ..RunResult::default()
        };
        let avg = average(&[r.clone(), r.clone()]);
        assert_eq!(avg.exec_s, 10.0);
        assert_eq!(avg.waves, 2);
    }
}
