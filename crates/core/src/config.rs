//! Checkpoint-system configuration.

use gcr_net::StorageTarget;

/// Which protocol family drives checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Blocking coordinated checkpointing scoped to groups (LAM/MPI-style).
    /// With a single global group this is the paper's `NORM`; with trace
    /// groups it is `GP`; with singletons, `GP1`.
    Blocking,
    /// Non-blocking Chandy–Lamport checkpointing over all ranks
    /// (MPICH-VCL-style): image written concurrently with execution, new
    /// sends suspended during the write, markers flush channel state.
    Vcl,
    /// Non-blocking collective-vector-clock checkpointing (CVC,
    /// Xu & Cooperman): per-communicator clocks derived from collective
    /// traffic pick a common cut target; each rank cuts when its clock
    /// reaches the target, a piggybacked cut epoch on application sends
    /// forces lagging receivers to cut before consuming post-cut traffic
    /// (so the cut stays orphan-free), and the image is written
    /// concurrently with execution under the group 2PC catalog.
    Cvc,
    /// Blocking group checkpointing with **receiver-based** message
    /// logging (Dichev & Nikolopoulos): every inter-group receive is
    /// logged durably on the receiver's node, acknowledgements piggyback
    /// on application sends to trim the sender-side log down to the
    /// unacked in-transit tail, and restart replays from the local
    /// receiver log instead of soliciting full sender logs from peers.
    RbLog,
}

/// Tunables of the checkpoint system.
#[derive(Debug, Clone)]
pub struct CkptConfig {
    /// Where images and flushed logs are written.
    pub storage: StorageTarget,
    /// Per-rank checkpoint image size in bytes (the application's resident
    /// memory; BLCR writes roughly this much).
    pub image_bytes: Vec<u64>,
    /// Apply the cluster's straggler model at coordination points.
    pub stragglers: bool,
    /// Honor `RR` piggybacks for message-log garbage collection
    /// (ablation knob; the paper always GCs).
    pub piggyback_gc: bool,
    /// Fault-injection knob: over-GC the sender log by this many extra
    /// bytes past every `RR` piggyback. Zero (the default) is the correct
    /// protocol; nonzero deliberately violates the log-retention invariant
    /// so the chaos harness can prove its oracles and shrinker catch real
    /// bugs.
    pub gc_overshoot: u64,
    /// Root seed for the protocol's random substreams.
    pub seed: u64,
}

impl CkptConfig {
    /// A config with uniform image sizes and the paper's protocol
    /// defaults. The software stack's fixed costs are constants of the
    /// modules that charge them.
    pub fn uniform(n: usize, image_bytes: u64, storage: StorageTarget) -> Self {
        CkptConfig {
            storage,
            image_bytes: vec![image_bytes; n],
            stragglers: true,
            piggyback_gc: true,
            gc_overshoot: 0,
            seed: 0x9c27_b0e1,
        }
    }

    /// Disable all randomness (unit tests).
    pub fn deterministic(mut self) -> Self {
        self.stragglers = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_fills_image_sizes() {
        let c = CkptConfig::uniform(4, 1 << 20, StorageTarget::Local);
        assert_eq!(c.image_bytes, vec![1 << 20; 4]);
        assert!(c.piggyback_gc);
        assert!(c.stragglers);
        assert!(!c.clone().deterministic().stragglers);
    }
}
