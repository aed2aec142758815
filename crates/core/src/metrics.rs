//! Checkpoint/restart measurements, mirroring what the paper reports.
//!
//! * Per-rank, per-wave **checkpoint records** with the Figure-9 phase
//!   breakdown (Lock MPI / Coordination / Checkpoint / Finalize).
//! * Per-rank **restart records** with resend counts (Figures 6b/7/8).
//! * Aggregations used by the figures ("sum of time spent by all
//!   processes", averages per checkpoint, …).

use std::cell::RefCell;
use std::rc::Rc;

use gcr_sim::{fnv1a_words, SimDuration, SimTime};

/// The four phases of a blocking coordinated checkpoint (paper Fig. 9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Locking the MPI layer (signal delivery, quiescing the process).
    pub lock: SimDuration,
    /// Coordination: log sync, bookmark exchange, channel drain, barrier.
    pub coordination: SimDuration,
    /// Writing the checkpoint image to storage.
    pub checkpoint: SimDuration,
    /// Final barrier and resuming execution.
    pub finalize: SimDuration,
}

impl PhaseBreakdown {
    /// Total time across phases.
    pub fn total(&self) -> SimDuration {
        self.lock + self.coordination + self.checkpoint + self.finalize
    }
}

/// One rank's participation in one checkpoint wave.
#[derive(Debug, Clone, Copy)]
pub struct CkptRecord {
    /// Checkpoint wave number (0-based).
    pub wave: u64,
    /// The rank.
    pub rank: u32,
    /// When the rank received the checkpoint request.
    pub started: SimTime,
    /// When the rank resumed normal execution.
    pub finished: SimTime,
    /// Phase breakdown (blocking modes; VCL reports everything under
    /// `checkpoint` with zero coordination).
    pub phases: PhaseBreakdown,
    /// Bytes of message log flushed as part of this checkpoint (GP only).
    pub log_flushed_bytes: u64,
    /// Checkpoint image size written.
    pub image_bytes: u64,
    /// Whether the wave's generation durably committed at this rank
    /// (blocking: the coordinator's broadcast decision; VCL: whether this
    /// rank's own writes were acknowledged).
    pub committed: bool,
}

impl CkptRecord {
    /// Wall time the rank spent on this checkpoint.
    pub fn duration(&self) -> SimDuration {
        self.finished.saturating_since(self.started)
    }
}

/// One rank's restart measurement.
#[derive(Debug, Clone, Copy)]
pub struct RestartRecord {
    /// The rank.
    pub rank: u32,
    /// Restart start (process re-creation).
    pub started: SimTime,
    /// Return to normal execution.
    pub finished: SimTime,
    /// Time loading the checkpoint image.
    pub image_load: SimDuration,
    /// Messages this rank re-sent from its log.
    pub resend_ops: u64,
    /// Bytes this rank re-sent from its log.
    pub resend_bytes: u64,
    /// Bytes of future sends this rank will skip.
    pub skip_bytes: u64,
    /// Committed generation the image was loaded from (`None`: restarted
    /// from the initial state — no usable generation existed).
    pub generation: Option<u64>,
}

impl RestartRecord {
    /// Wall time of the restart.
    pub fn duration(&self) -> SimDuration {
        self.finished.saturating_since(self.started)
    }
}

/// Shared metrics collector.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Rc<RefCell<MetricsInner>>,
}

#[derive(Default)]
struct MetricsInner {
    ckpts: Vec<CkptRecord>,
    restarts: Vec<RestartRecord>,
    completed_waves: u64,
}

impl Metrics {
    /// Fresh collector.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Record one rank × wave checkpoint.
    pub fn push_ckpt(&self, rec: CkptRecord) {
        self.inner.borrow_mut().ckpts.push(rec);
    }

    /// Record one rank restart.
    pub fn push_restart(&self, rec: RestartRecord) {
        self.inner.borrow_mut().restarts.push(rec);
    }

    /// Mark a wave complete (all groups finished).
    pub fn wave_completed(&self) {
        self.inner.borrow_mut().completed_waves += 1;
    }

    /// Number of completed checkpoint waves.
    pub fn waves(&self) -> u64 {
        self.inner.borrow().completed_waves
    }

    /// All checkpoint records.
    pub fn ckpt_records(&self) -> Vec<CkptRecord> {
        self.inner.borrow().ckpts.clone()
    }

    /// All restart records.
    pub fn restart_records(&self) -> Vec<RestartRecord> {
        self.inner.borrow().restarts.clone()
    }

    /// Paper Fig. 6a: sum over all processes (and waves) of per-process
    /// checkpoint time, in seconds.
    pub fn aggregate_ckpt_time(&self) -> f64 {
        self.inner
            .borrow()
            .ckpts
            .iter()
            .map(|r| r.duration().as_secs_f64())
            .sum()
    }

    /// Sum over processes of time spent in the coordination phase
    /// (paper Fig. 1), in seconds.
    pub fn aggregate_coordination_time(&self) -> f64 {
        self.inner
            .borrow()
            .ckpts
            .iter()
            .map(|r| r.phases.coordination.as_secs_f64())
            .sum()
    }

    /// Paper Fig. 6b: sum over all processes of restart time, in seconds.
    pub fn aggregate_restart_time(&self) -> f64 {
        self.inner
            .borrow()
            .restarts
            .iter()
            .map(|r| r.duration().as_secs_f64())
            .sum()
    }

    /// Mean of the per-rank phase breakdown across all records, in seconds,
    /// as `(lock, coordination, checkpoint, finalize)` (paper Fig. 9).
    pub fn mean_phases(&self) -> (f64, f64, f64, f64) {
        let inner = self.inner.borrow();
        let n = inner.ckpts.len();
        if n == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let mut acc = (0.0, 0.0, 0.0, 0.0);
        for r in &inner.ckpts {
            acc.0 += r.phases.lock.as_secs_f64();
            acc.1 += r.phases.coordination.as_secs_f64();
            acc.2 += r.phases.checkpoint.as_secs_f64();
            acc.3 += r.phases.finalize.as_secs_f64();
        }
        let n = n as f64;
        (acc.0 / n, acc.1 / n, acc.2 / n, acc.3 / n)
    }

    /// Average wall duration of a checkpoint wave per rank, in seconds
    /// (paper Fig. 14).
    pub fn mean_ckpt_time(&self) -> f64 {
        let inner = self.inner.borrow();
        if inner.ckpts.is_empty() {
            return 0.0;
        }
        inner
            .ckpts
            .iter()
            .map(|r| r.duration().as_secs_f64())
            .sum::<f64>()
            / inner.ckpts.len() as f64
    }

    /// Paper Fig. 7: total bytes re-sent during restarts.
    pub fn total_resend_bytes(&self) -> u64 {
        self.inner
            .borrow()
            .restarts
            .iter()
            .map(|r| r.resend_bytes)
            .sum()
    }

    /// Paper Fig. 8: total resend operations during restarts.
    pub fn total_resend_ops(&self) -> u64 {
        self.inner
            .borrow()
            .restarts
            .iter()
            .map(|r| r.resend_ops)
            .sum()
    }

    /// Order-sensitive FNV-1a digest over every recorded field, down to
    /// exact nanosecond timestamps. Two runs are bit-deterministic iff
    /// their digests match — the chaos harness's determinism oracle.
    pub fn digest(&self) -> u64 {
        let inner = self.inner.borrow();
        let ckpts = inner.ckpts.iter().flat_map(|r| {
            [
                r.wave,
                r.rank as u64,
                r.started.as_nanos(),
                r.finished.as_nanos(),
                r.phases.lock.as_nanos(),
                r.phases.coordination.as_nanos(),
                r.phases.checkpoint.as_nanos(),
                r.phases.finalize.as_nanos(),
                r.log_flushed_bytes,
                r.image_bytes,
                r.committed as u64,
            ]
        });
        let restarts = inner.restarts.iter().flat_map(|r| {
            [
                r.rank as u64,
                r.started.as_nanos(),
                r.finished.as_nanos(),
                r.image_load.as_nanos(),
                r.resend_ops,
                r.resend_bytes,
                r.skip_bytes,
                // +1 keeps "no generation" distinct from "generation 0".
                r.generation.map(|g| g + 1).unwrap_or(0),
            ]
        });
        fnv1a_words(
            [inner.completed_waves, inner.ckpts.len() as u64]
                .into_iter()
                .chain(ckpts)
                .chain([inner.restarts.len() as u64])
                .chain(restarts),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(rank: u32, dur_s: u64, coord_s: u64) -> CkptRecord {
        CkptRecord {
            wave: 0,
            rank,
            started: SimTime::from_secs(10),
            finished: SimTime::from_secs(10 + dur_s),
            phases: PhaseBreakdown {
                lock: SimDuration::ZERO,
                coordination: SimDuration::from_secs(coord_s),
                checkpoint: SimDuration::from_secs(dur_s - coord_s),
                finalize: SimDuration::ZERO,
            },
            log_flushed_bytes: 0,
            image_bytes: 0,
            committed: true,
        }
    }

    #[test]
    fn aggregates_sum_over_ranks() {
        let m = Metrics::new();
        m.push_ckpt(rec(0, 5, 2));
        m.push_ckpt(rec(1, 7, 3));
        assert_eq!(m.aggregate_ckpt_time(), 12.0);
        assert_eq!(m.aggregate_coordination_time(), 5.0);
        assert_eq!(m.mean_ckpt_time(), 6.0);
    }

    #[test]
    fn phase_means() {
        let m = Metrics::new();
        m.push_ckpt(rec(0, 4, 2));
        m.push_ckpt(rec(1, 6, 4));
        let (lock, coord, ckpt, fin) = m.mean_phases();
        assert_eq!(lock, 0.0);
        assert_eq!(coord, 3.0);
        assert_eq!(ckpt, 2.0);
        assert_eq!(fin, 0.0);
    }

    #[test]
    fn restart_aggregates() {
        let m = Metrics::new();
        m.push_restart(RestartRecord {
            rank: 0,
            started: SimTime::ZERO,
            finished: SimTime::from_secs(3),
            image_load: SimDuration::from_secs(1),
            resend_ops: 4,
            resend_bytes: 4000,
            skip_bytes: 100,
            generation: Some(0),
        });
        m.push_restart(RestartRecord {
            rank: 1,
            started: SimTime::ZERO,
            finished: SimTime::from_secs(5),
            image_load: SimDuration::from_secs(1),
            resend_ops: 1,
            resend_bytes: 500,
            skip_bytes: 0,
            generation: None,
        });
        assert_eq!(m.aggregate_restart_time(), 8.0);
        assert_eq!(m.total_resend_ops(), 5);
        assert_eq!(m.total_resend_bytes(), 4500);
    }

    #[test]
    fn waves_count() {
        let m = Metrics::new();
        assert_eq!(m.waves(), 0);
        m.wave_completed();
        m.wave_completed();
        assert_eq!(m.waves(), 2);
    }

    #[test]
    fn phase_total() {
        let p = PhaseBreakdown {
            lock: SimDuration::from_secs(1),
            coordination: SimDuration::from_secs(2),
            checkpoint: SimDuration::from_secs(3),
            finalize: SimDuration::from_secs(4),
        };
        assert_eq!(p.total(), SimDuration::from_secs(10));
    }
}
