//! Chaos run specifications and seeded generation.

use gcr_group::{contiguous, form_groups, single, singletons, GroupDef};
use gcr_mpi::{World, WorldOpts};
use gcr_net::{Cluster, ClusterSpec, StorageTarget};
use gcr_sim::{DetRng, Sim, SimDuration};
use gcr_trace::Tracer;
use gcr_workloads::{Cg, CgConfig, Hpl, HplConfig, Ring, RingConfig, Sp, SpConfig, Workload};

use crate::schedule::{format_schedule, ChaosEvent, Fault};

/// Which workload skeleton a chaos run exercises. The scales are fixed
/// small-but-nontrivial configurations (seconds of simulated time) so a
/// generated schedule's injection instants land mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosWorkload {
    /// Synthetic ring exchange, 8 ranks.
    Ring,
    /// NPB CG skeleton, 8 ranks.
    Cg,
    /// NPB SP skeleton, 9 ranks.
    Sp,
    /// HPL skeleton, 8 ranks.
    Hpl,
}

impl ChaosWorkload {
    /// All skeletons, in generation order.
    pub const ALL: [ChaosWorkload; 4] = [
        ChaosWorkload::Ring,
        ChaosWorkload::Cg,
        ChaosWorkload::Sp,
        ChaosWorkload::Hpl,
    ];

    /// CLI / report label.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosWorkload::Ring => "ring",
            ChaosWorkload::Cg => "cg",
            ChaosWorkload::Sp => "sp",
            ChaosWorkload::Hpl => "hpl",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "ring" => Ok(ChaosWorkload::Ring),
            "cg" => Ok(ChaosWorkload::Cg),
            "sp" => Ok(ChaosWorkload::Sp),
            "hpl" => Ok(ChaosWorkload::Hpl),
            other => Err(format!("unknown chaos workload `{other}` (ring|cg|sp|hpl)")),
        }
    }

    /// Rank count of the skeleton.
    pub fn n(&self) -> usize {
        match self {
            ChaosWorkload::Ring | ChaosWorkload::Cg | ChaosWorkload::Hpl => 8,
            ChaosWorkload::Sp => 9,
        }
    }

    /// Materialize the workload.
    pub fn build(&self) -> Box<dyn Workload> {
        match self {
            ChaosWorkload::Ring => Box::new(Ring::new(RingConfig {
                nprocs: 8,
                iters: 400,
                bytes: 48 * 1024,
                compute_ms: 8,
                image_bytes: 24 << 20,
            })),
            ChaosWorkload::Cg => Box::new(Cg::new(CgConfig {
                niter: 3,
                ..CgConfig::class_c(8)
            })),
            ChaosWorkload::Sp => Box::new(Sp::new(SpConfig {
                niter: 20,
                ..SpConfig::class_c(9)
            })),
            ChaosWorkload::Hpl => Box::new(Hpl::new(HplConfig {
                n_matrix: 2_000,
                ..HplConfig::paper(8)
            })),
        }
    }

    /// A truncated variant for the profiling (tracing) run that feeds
    /// trace-based group formation.
    fn build_profile(&self) -> Box<dyn Workload> {
        match self {
            ChaosWorkload::Ring => Box::new(Ring::new(RingConfig {
                nprocs: 8,
                iters: 3,
                bytes: 48 * 1024,
                compute_ms: 8,
                image_bytes: 24 << 20,
            })),
            ChaosWorkload::Cg => Box::new(Cg::new(CgConfig {
                niter: 1,
                inner: 5,
                ..CgConfig::class_c(8)
            })),
            ChaosWorkload::Sp => Box::new(Sp::new(SpConfig {
                niter: 3,
                ..SpConfig::class_c(9)
            })),
            ChaosWorkload::Hpl => Box::new(Hpl::new(HplConfig {
                n_matrix: 16 * HplConfig::paper(8).nb,
                ..HplConfig::paper(8)
            })),
        }
    }
}

/// Which protocol a chaos run exercises (fixed parameterizations of the
/// benchmark suite's protocol set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProto {
    /// Global blocking coordinated checkpointing (stock LAM/MPI).
    Norm,
    /// Trace-assisted groups (Algorithm 2, max size 4).
    Gp,
    /// Singleton groups: uncoordinated + full logging.
    Gp1,
    /// Four contiguous ad-hoc groups.
    Gp4,
    /// Non-blocking Chandy–Lamport (MPICH-VCL), remote servers.
    Vcl,
    /// Non-blocking collective-vector-clock checkpointing
    /// (Xu & Cooperman), global cut, epoch piggybacks.
    Cvc,
    /// Blocking singleton groups with receiver-based logging
    /// (Dichev & Nikolopoulos): restart replays from local receiver
    /// logs, ack piggybacks trim sender logs to the unacked tail.
    Rblog,
}

impl ChaosProto {
    /// All protocols. The first five are the original generation set —
    /// [`ChaosSpec::generate_for`] keeps drawing from that prefix so
    /// every historical seed resolves to the same scenario; the matrix
    /// harness and explicit `--proto` runs cover the full list.
    pub const ALL: [ChaosProto; 7] = [
        ChaosProto::Norm,
        ChaosProto::Gp,
        ChaosProto::Gp1,
        ChaosProto::Gp4,
        ChaosProto::Vcl,
        ChaosProto::Cvc,
        ChaosProto::Rblog,
    ];

    /// CLI / report label.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosProto::Norm => "norm",
            ChaosProto::Gp => "gp",
            ChaosProto::Gp1 => "gp1",
            ChaosProto::Gp4 => "gp4",
            ChaosProto::Vcl => "vcl",
            ChaosProto::Cvc => "cvc",
            ChaosProto::Rblog => "rblog",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "norm" => Ok(ChaosProto::Norm),
            "gp" => Ok(ChaosProto::Gp),
            "gp1" => Ok(ChaosProto::Gp1),
            "gp4" => Ok(ChaosProto::Gp4),
            "vcl" => Ok(ChaosProto::Vcl),
            "cvc" => Ok(ChaosProto::Cvc),
            "rblog" => Ok(ChaosProto::Rblog),
            other => Err(format!(
                "unknown chaos proto `{other}` (norm|gp|gp1|gp4|vcl|cvc|rblog)"
            )),
        }
    }

    /// Resolve the group definition (profiling run for [`ChaosProto::Gp`]).
    pub fn resolve_groups(&self, workload: ChaosWorkload) -> GroupDef {
        let n = workload.n();
        match self {
            ChaosProto::Gp => form_groups(&profile_trace(workload), 4),
            ChaosProto::Gp1 | ChaosProto::Rblog => singletons(n),
            ChaosProto::Gp4 => contiguous(n, 4),
            ChaosProto::Norm | ChaosProto::Vcl | ChaosProto::Cvc => single(n),
        }
    }
}

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
        match s {
            "disk" => Ok(ChaosBackend::Disk),
            "restore" => Ok(ChaosBackend::Restore),
            other => Err(format!("unknown chaos backend `{other}` (disk|restore)")),
        }
    }
}

/// World options shared by every chaos run (mirrors the benchmark
/// runner's LAM/MPI-era settings).
pub(crate) fn chaos_world_opts() -> WorldOpts {
    WorldOpts {
        compute_slice: SimDuration::from_millis(100),
        eager_threshold: 128 * 1024,
        ..WorldOpts::default()
    }
}

/// The cluster a chaos run uses: Gideon-300 calibration with a milder
/// base straggler model (prob 2%, mean 200 ms) so storm multipliers have
/// headroom and bounded runtimes.
pub(crate) fn chaos_cluster_spec(n: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::gideon300(n);
    spec.straggler.prob = 0.02;
    spec.straggler.mean = SimDuration::from_millis(200);
    spec
}

/// Run the truncated profiling workload under a tracer (the paper's
/// preparatory run) and return the trace for group formation.
fn profile_trace(workload: ChaosWorkload) -> gcr_trace::Trace {
    let wl = workload.build_profile();
    let sim = Sim::new();
    let mut spec = chaos_cluster_spec(wl.n());
    spec.straggler = gcr_net::StragglerSpec::disabled();
    let cluster = Cluster::new(&sim, spec);
    let world = World::new(cluster, chaos_world_opts());
    let tracer = Tracer::install(&world, wl.name());
    wl.launch(&world);
    // gcr-lint: allow(D03-T) the profiling pre-run injects no faults; a deadlock here is a workload bug the harness must fail loudly on
    sim.run().expect("profiling run deadlocked");
    tracer.take()
}

/// A complete chaos scenario: everything [`crate::run_chaos`] needs, and
/// everything needed to reproduce a run from the command line.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Root seed: drives the simulation's random substreams (and, via
    /// [`ChaosSpec::generate`], the scenario itself).
    pub seed: u64,
    /// The application skeleton.
    pub workload: ChaosWorkload,
    /// The protocol under test.
    pub proto: ChaosProto,
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
        let workload = ChaosWorkload::ALL[rng.index(4)];
        let proto = ChaosProto::ALL[rng.index(5)];
        // VCL is the remote-server baseline; others go remote 30% of runs.
        let storage = if proto == ChaosProto::Vcl || rng.chance(0.3) {
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
                    node: rng.range_u64(0, workload.n() as u64),
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
                    node: rng.range_u64(0, workload.n() as u64),
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

    /// The schedule in its compact replayable string form.
    pub fn schedule_string(&self) -> String {
        format_schedule(&self.schedule)
    }
}

/// The one-line command that reproduces this exact scenario.
pub fn repro_command(spec: &ChaosSpec) -> String {
    let storage = match spec.storage {
        StorageTarget::Local => "local",
        StorageTarget::Remote => "remote",
    };
    let mut cmd = format!(
        "gcrsim chaos --seed {} --workload {} --proto {} --storage {} --interval-ms {}",
        spec.seed,
        spec.workload.label(),
        spec.proto.label(),
        storage,
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
