//! Chaos run specifications and seeded generation.

use gcr_net::{ClusterSpec, StorageTarget};
use gcr_sim::{DetRng, SimDuration};

use crate::scenario::{Proto, Scenario, WorkloadKind};
use crate::schedule::{format_schedule, ChaosEvent, Fault};

/// Which checkpoint image backend a chaos run installs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosBackend {
    /// The original local-disk / remote-server path.
    Disk,
    /// ReStore-style replicated in-memory checkpoints
    /// ([`gcr_net::RestoreBackend`]).
    Restore,
}

impl ChaosBackend {
    /// CLI / report label.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosBackend::Disk => "disk",
            ChaosBackend::Restore => "restore",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Result<Self, String> {
        [ChaosBackend::Disk, ChaosBackend::Restore]
            .into_iter()
            .find(|b| b.label() == s)
            .ok_or_else(|| format!("unknown chaos backend `{s}` (disk|restore)"))
    }
}

/// A complete chaos scenario: everything [`crate::run_chaos`] needs, and
/// everything needed to reproduce a run from the command line.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Root seed: drives the simulation's random substreams (and, via
    /// [`ChaosSpec::generate`], the scenario itself).
    pub seed: u64,
    /// The application skeleton (its [`WorkloadKind::chaos`] set-up).
    pub workload: WorkloadKind,
    /// The protocol under test.
    pub proto: Proto,
    /// Image/log storage target.
    pub storage: StorageTarget,
    /// Checkpoint interval (first wave at this offset, then periodic).
    pub interval_ms: u64,
    /// Fault knob: over-GC sender logs by this many bytes (0 = correct
    /// protocol; nonzero plants a real retention bug for the oracles to
    /// catch).
    pub gc_overshoot: u64,
    /// The failure schedule.
    pub schedule: Vec<ChaosEvent>,
    /// Executor shard count. Purely a kernel-layout knob: every shard
    /// count produces the bit-identical report and digest for the same
    /// seed (the determinism matrix in `tests/determinism.rs` enforces
    /// this), so it is deliberately excluded from the report JSON.
    pub shards: usize,
    /// Checkpoint image backend the run installs.
    pub backend: ChaosBackend,
    /// Replication factor k for the restore backend (ignored by disk).
    pub replication: usize,
}

impl ChaosSpec {
    /// Generate the scenario for a seed: workload, protocol, storage,
    /// checkpoint cadence, and a 1–4 event failure schedule (always at
    /// least one crash). Deterministic: the same seed always yields the
    /// same spec.
    pub fn generate(seed: u64) -> Self {
        Self::generate_for(seed, ChaosBackend::Disk)
    }

    /// [`ChaosSpec::generate`], parameterized by backend. The disk draw
    /// sequence is untouched (kind modulus 7 — pinned `--verify` digests
    /// depend on it); the restore backend widens the event vocabulary to
    /// include replica loss (kind modulus 8) and defaults to k = 2.
    pub fn generate_for(seed: u64, backend: ChaosBackend) -> Self {
        let mut rng = DetRng::new(seed).fork("chaos-spec");
        let workload = WorkloadKind::ALL[rng.index(4)];
        let proto = Proto::ALL[rng.index(5)];
        let n = || workload.chaos().n() as u64;
        // VCL is the remote-server baseline; others go remote 30% of runs.
        let storage = if proto == Proto::Vcl || rng.chance(0.3) {
            StorageTarget::Remote
        } else {
            StorageTarget::Local
        };
        let interval_ms = rng.range_u64(400, 1201);
        let n_events = 1 + rng.index(4);
        let kinds = if backend == ChaosBackend::Restore {
            8
        } else {
            7
        };
        let mut schedule = Vec::with_capacity(n_events);
        for i in 0..n_events {
            let at_ms = rng.range_u64(300, 3501);
            // The first event is always a crash — recovery is the point.
            let kind = if i == 0 { 0 } else { rng.index(kinds) };
            let fault = match kind {
                0 => Fault::Crash {
                    group: rng.range_u64(0, 64),
                },
                1 => Fault::Storm {
                    dur_ms: rng.range_u64(300, 1501),
                    factor: rng.range_u64(2, 9),
                },
                2 if storage == StorageTarget::Remote => Fault::Outage {
                    dur_ms: rng.range_u64(300, 1501),
                    server: rng.range_u64(0, 8),
                },
                4 => Fault::TornWrite {
                    node: rng.range_u64(0, n()),
                    count: rng.range_u64(1, 4),
                },
                5 => Fault::CorruptImage {
                    group: rng.range_u64(0, 64),
                },
                6 => Fault::CrashCkpt {
                    group: rng.range_u64(0, 64),
                    phase: rng.range_u64(0, 3),
                },
                // Restore backend only: replica loss, 1-in-3 with a
                // rebuild-phase sabotage trap.
                7 => Fault::Replica {
                    group: rng.range_u64(0, 64),
                    crash_phase: match rng.index(3) {
                        0 => None,
                        1 => Some(0),
                        _ => Some(1),
                    },
                },
                // Kind 3, and 2 when the run uses local storage.
                _ => Fault::Slow {
                    dur_ms: rng.range_u64(300, 1501),
                    node: rng.range_u64(0, n()),
                    factor: rng.range_u64(2, 7),
                },
            };
            schedule.push(ChaosEvent { at_ms, fault });
        }
        schedule.sort_by_key(|e| e.at_ms);
        ChaosSpec {
            seed,
            workload,
            proto,
            storage,
            interval_ms,
            gc_overshoot: 0,
            schedule,
            shards: 1,
            backend,
            replication: 2,
        }
    }

    /// The scenario the spec runs: the workload's chaos skeleton on
    /// Gideon-300 with a milder base straggler model (prob 2%, mean
    /// 200 ms) so storm multipliers have headroom and bounded runtimes.
    pub fn scenario(&self) -> Scenario {
        let workload = self.workload.chaos();
        let mut cluster = ClusterSpec::gideon300(workload.n());
        cluster.straggler.prob = 0.02;
        cluster.straggler.mean = SimDuration::from_millis(200);
        Scenario {
            workload,
            proto: self.proto,
            storage: self.storage,
            backend: self.backend,
            replication: self.replication,
            cluster,
            groups: None,
            seed: self.seed,
            shards: self.shards,
            stragglers: true,
            piggyback_gc: true,
            gc_overshoot: self.gc_overshoot,
        }
    }

    /// The schedule in its compact replayable string form.
    pub fn schedule_string(&self) -> String {
        format_schedule(&self.schedule)
    }
}

/// The one-line command that reproduces this exact scenario.
pub fn repro_command(spec: &ChaosSpec) -> String {
    let mut cmd = format!(
        "gcrsim chaos --seed {} --workload {} --proto {} --storage {} --interval-ms {}",
        spec.seed,
        spec.workload.label(),
        spec.proto.label(),
        spec.storage.label(),
        spec.interval_ms,
    );
    if spec.gc_overshoot > 0 {
        cmd.push_str(&format!(" --gc-overshoot {}", spec.gc_overshoot));
    }
    if spec.shards > 1 {
        cmd.push_str(&format!(" --shards {}", spec.shards));
    }
    if spec.backend != ChaosBackend::Disk {
        cmd.push_str(&format!(" --backend {}", spec.backend.label()));
    }
    if spec.replication != 2 {
        cmd.push_str(&format!(" --replication {}", spec.replication));
    }
    cmd.push_str(&format!(" --schedule '{}'", spec.schedule_string()));
    cmd
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50u64 {
            let a = ChaosSpec::generate(seed);
            let b = ChaosSpec::generate(seed);
            assert_eq!(a.schedule, b.schedule, "seed {seed}");
            assert_eq!(a.workload, b.workload, "seed {seed}");
            assert_eq!(a.proto, b.proto, "seed {seed}");
            assert_eq!(a.interval_ms, b.interval_ms, "seed {seed}");
        }
    }

    #[test]
    fn generation_always_includes_a_crash() {
        for seed in 0..100u64 {
            let spec = ChaosSpec::generate(seed);
            assert!(
                spec.schedule
                    .iter()
                    .any(|e| matches!(e.fault, Fault::Crash { .. })),
                "seed {seed}"
            );
            assert!(
                !spec.schedule.is_empty() && spec.schedule.len() <= 4,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn generation_covers_all_protocols_and_workloads() {
        let mut protos = std::collections::BTreeSet::new();
        let mut wls = std::collections::BTreeSet::new();
        for seed in 0..200u64 {
            let spec = ChaosSpec::generate(seed);
            protos.insert(spec.proto.label());
            wls.insert(spec.workload.label());
        }
        assert_eq!(protos.len(), 5, "{protos:?}");
        assert_eq!(wls.len(), 4, "{wls:?}");
    }

    #[test]
    fn restore_generation_is_deterministic_and_reaches_replica_events() {
        let mut saw_replica = false;
        for seed in 0..200u64 {
            let a = ChaosSpec::generate_for(seed, ChaosBackend::Restore);
            let b = ChaosSpec::generate_for(seed, ChaosBackend::Restore);
            assert_eq!(a.schedule, b.schedule, "seed {seed}");
            assert_eq!(a.backend, ChaosBackend::Restore);
            assert_eq!(a.replication, 2);
            saw_replica |= a
                .schedule
                .iter()
                .any(|e| matches!(e.fault, Fault::Replica { .. }));
        }
        assert!(saw_replica, "replica events never generated in 200 seeds");
    }

    #[test]
    fn disk_generation_ignores_the_widened_event_vocabulary() {
        for seed in 0..100u64 {
            let a = ChaosSpec::generate(seed);
            let b = ChaosSpec::generate_for(seed, ChaosBackend::Disk);
            assert_eq!(a.schedule, b.schedule, "seed {seed}");
            assert!(
                !a.schedule
                    .iter()
                    .any(|e| matches!(e.fault, Fault::Replica { .. })),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn repro_command_names_non_default_backend() {
        let mut spec = ChaosSpec::generate_for(3, ChaosBackend::Restore);
        spec.replication = 3;
        let cmd = repro_command(&spec);
        assert!(cmd.contains("--backend restore"), "{cmd}");
        assert!(cmd.contains("--replication 3"), "{cmd}");
        let disk = ChaosSpec::generate(3);
        let cmd = repro_command(&disk);
        assert!(!cmd.contains("--backend"), "{cmd}");
        assert!(!cmd.contains("--replication"), "{cmd}");
    }

    #[test]
    fn repro_command_roundtrips_schedule() {
        let spec = ChaosSpec::generate(7);
        let cmd = repro_command(&spec);
        assert!(cmd.starts_with("gcrsim chaos --seed 7"));
        let sched = cmd
            .split("--schedule '")
            .nth(1)
            .unwrap()
            .trim_end_matches('\'');
        assert_eq!(crate::parse_schedule(sched).unwrap(), spec.schedule);
    }
}
