//! The run vocabulary and the one set-up path every run goes through.
//!
//! [`WorkloadKind`] and [`Proto`] name the four workload skeletons and
//! the seven checkpoint protocols once, for the CLI, the chaos harness
//! and the benchmark suite alike. A [`Scenario`] is assembled into a
//! ready-to-run simulation by [`Scenario::build`]: the profiling run and
//! group formation, the world, the optional restore backend, the
//! workload launch and the checkpoint runtime, always in that order.

use std::rc::Rc;

use gcr_ckpt::{CkptConfig, CkptRuntime, Mode};
use gcr_group::{contiguous, form_groups, single, singletons, GroupDef};
use gcr_mpi::{World, WorldOpts};
use gcr_net::{Cluster, ClusterSpec, RestoreBackend, StorageTarget};
use gcr_sim::{Sim, SimDuration};
use gcr_trace::{Trace, Tracer};
use gcr_workloads::{Cg, CgConfig, Hpl, HplConfig, Ring, RingConfig, Sp, SpConfig, Workload};

use crate::spec::ChaosBackend;

/// Which application model to run, with its full configuration.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// High Performance Linpack.
    Hpl(HplConfig),
    /// NPB CG.
    Cg(CgConfig),
    /// NPB SP.
    Sp(SpConfig),
    /// Synthetic ring.
    Ring(RingConfig),
}

impl WorkloadSpec {
    /// Materialize the workload.
    pub fn build(&self) -> Box<dyn Workload> {
        match self {
            WorkloadSpec::Hpl(c) => Box::new(Hpl::new(c.clone())),
            WorkloadSpec::Cg(c) => Box::new(Cg::new(c.clone())),
            WorkloadSpec::Sp(c) => Box::new(Sp::new(c.clone())),
            WorkloadSpec::Ring(c) => Box::new(Ring::new(c.clone())),
        }
    }

    /// Rank count.
    pub fn n(&self) -> usize {
        match self {
            WorkloadSpec::Hpl(c) => c.nprocs(),
            WorkloadSpec::Cg(c) => c.nprocs,
            WorkloadSpec::Sp(c) => c.nprocs,
            WorkloadSpec::Ring(c) => c.nprocs,
        }
    }

    /// A truncated variant used for the profiling (tracing) run that feeds
    /// group formation — the communication pattern of all four workloads is
    /// stationary, so a short prefix suffices (paper §4: the tracer is only
    /// linked for a preparatory run).
    pub fn profile(&self) -> WorkloadSpec {
        match self {
            WorkloadSpec::Hpl(c) => {
                let mut p = c.clone();
                p.n_matrix = c.nb * (2 * c.p.max(c.q) as u64).max(8);
                WorkloadSpec::Hpl(p)
            }
            WorkloadSpec::Cg(c) => {
                let mut p = c.clone();
                p.niter = 1;
                p.inner = 5;
                WorkloadSpec::Cg(p)
            }
            WorkloadSpec::Sp(c) => {
                let mut p = c.clone();
                p.niter = 3;
                WorkloadSpec::Sp(p)
            }
            WorkloadSpec::Ring(c) => {
                let mut p = c.clone();
                p.iters = 3;
                WorkloadSpec::Ring(p)
            }
        }
    }
}

/// The four workload skeletons, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Synthetic ring exchange.
    Ring,
    /// NPB CG skeleton.
    Cg,
    /// NPB SP skeleton.
    Sp,
    /// HPL skeleton.
    Hpl,
}

impl WorkloadKind {
    /// All skeletons, in chaos generation order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Ring,
        WorkloadKind::Cg,
        WorkloadKind::Sp,
        WorkloadKind::Hpl,
    ];

    /// CLI / report label.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::Ring => "ring",
            WorkloadKind::Cg => "cg",
            WorkloadKind::Sp => "sp",
            WorkloadKind::Hpl => "hpl",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.label() == s)
            .ok_or_else(|| format!("unknown workload `{s}` (ring|cg|sp|hpl)"))
    }

    /// The `gcrsim run` configuration at `procs` ranks: the paper's HPL
    /// and NPB class C set-ups, and a 200-iteration ring.
    pub fn paper(self, procs: usize) -> WorkloadSpec {
        match self {
            WorkloadKind::Hpl => WorkloadSpec::Hpl(HplConfig::paper(procs)),
            WorkloadKind::Cg => WorkloadSpec::Cg(CgConfig::class_c(procs)),
            WorkloadKind::Sp => WorkloadSpec::Sp(SpConfig::class_c(procs)),
            WorkloadKind::Ring => WorkloadSpec::Ring(RingConfig {
                nprocs: procs,
                iters: 200,
                bytes: 32 * 1024,
                compute_ms: 10,
                image_bytes: 64 << 20,
            }),
        }
    }

    /// The fixed chaos skeleton: small but nontrivial (seconds of
    /// simulated time, 8 ranks, 9 for SP) so a generated schedule's
    /// injection instants land mid-run.
    pub fn chaos(self) -> WorkloadSpec {
        match self {
            WorkloadKind::Ring => WorkloadSpec::Ring(RingConfig {
                nprocs: 8,
                iters: 400,
                bytes: 48 * 1024,
                compute_ms: 8,
                image_bytes: 24 << 20,
            }),
            WorkloadKind::Cg => WorkloadSpec::Cg(CgConfig {
                niter: 3,
                ..CgConfig::class_c(8)
            }),
            WorkloadKind::Sp => WorkloadSpec::Sp(SpConfig {
                niter: 20,
                ..SpConfig::class_c(9)
            }),
            WorkloadKind::Hpl => WorkloadSpec::Hpl(HplConfig {
                n_matrix: 2_000,
                ..HplConfig::paper(8)
            }),
        }
    }
}

/// The checkpoint protocols: the paper's five (§5) and two from related
/// work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Global blocking coordinated checkpointing (stock LAM/MPI).
    Norm,
    /// Trace-assisted group-based checkpointing (the contribution).
    Gp {
        /// Maximum group size for Algorithm 2.
        max_size: usize,
    },
    /// Singleton groups: uncoordinated + full logging.
    Gp1,
    /// `k` contiguous ad-hoc groups (the paper's GP4 with `k = 4`).
    GpK {
        /// Number of groups.
        k: usize,
    },
    /// Non-blocking Chandy–Lamport with remote servers (MPICH-VCL).
    Vcl,
    /// Non-blocking collective-vector-clock checkpointing
    /// (Xu & Cooperman), global cut, epoch piggybacks.
    Cvc,
    /// Blocking singleton groups with receiver-based logging
    /// (Dichev & Nikolopoulos): restart replays from local receiver
    /// logs, ack piggybacks trim sender logs to the unacked tail.
    Rblog,
}

impl Proto {
    /// Every protocol, GP and GP4 at group size / count 4. The first five
    /// are the original chaos generation set — [`crate::ChaosSpec::generate_for`]
    /// keeps drawing from that prefix so every historical seed resolves to
    /// the same scenario.
    pub const ALL: [Proto; 7] = [
        Proto::Norm,
        Proto::Gp { max_size: 4 },
        Proto::Gp1,
        Proto::GpK { k: 4 },
        Proto::Vcl,
        Proto::Cvc,
        Proto::Rblog,
    ];

    /// CLI / report label (lower case; figure tables print it upper case).
    pub fn label(&self) -> &'static str {
        match self {
            Proto::Norm => "norm",
            Proto::Gp { .. } => "gp",
            Proto::Gp1 => "gp1",
            Proto::GpK { .. } => "gp4",
            Proto::Vcl => "vcl",
            Proto::Cvc => "cvc",
            Proto::Rblog => "rblog",
        }
    }

    /// Parse a CLI label into its [`Proto::ALL`] parameterization.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|p| p.label() == s)
            .ok_or_else(|| format!("unknown protocol `{s}` (norm|gp|gp1|gp4|vcl|cvc|rblog)"))
    }

    /// The runtime mode that drives the protocol's checkpoints.
    pub fn mode(&self) -> Mode {
        match self {
            Proto::Norm | Proto::Gp { .. } | Proto::Gp1 | Proto::GpK { .. } => Mode::Blocking,
            Proto::Vcl => Mode::Vcl,
            Proto::Cvc => Mode::Cvc,
            Proto::Rblog => Mode::RbLog,
        }
    }

    /// The protocol's groups over `workload` (a profiling run for
    /// [`Proto::Gp`]).
    pub fn groups(&self, workload: &WorkloadSpec) -> GroupDef {
        self.groups_with(workload.n(), || profile_trace(workload))
    }

    /// The protocol's groups over `n` ranks; `profile` is called only for
    /// [`Proto::Gp`], whose groups Algorithm 2 forms from its trace.
    pub fn groups_with(&self, n: usize, profile: impl FnOnce() -> Trace) -> GroupDef {
        match *self {
            Proto::Gp { max_size } => form_groups(&profile(), max_size),
            Proto::Gp1 | Proto::Rblog => singletons(n),
            Proto::GpK { k } => contiguous(n, k),
            Proto::Norm | Proto::Vcl | Proto::Cvc => single(n),
        }
    }
}

/// World options of every run: LAM/MPI-era settings.
pub fn world_opts() -> WorldOpts {
    WorldOpts {
        compute_slice: SimDuration::from_millis(100),
        // LAM/MPI-era rendezvous threshold: messages up to 128 KB are sent
        // eagerly and can sit unconsumed in the receiver's MPI layer — the
        // source of restart replay volume when checkpoints catch them.
        eager_threshold: 128 * 1024,
        ..WorldOpts::default()
    }
}

/// Run the truncated profiling workload under a tracer (the paper's
/// preparatory run, on Gideon-300 without stragglers) and return the
/// trace for group formation.
pub fn profile_trace(workload: &WorkloadSpec) -> Trace {
    let wl = workload.profile().build();
    let sim = Sim::new();
    let mut spec = ClusterSpec::gideon300(wl.n());
    spec.straggler = gcr_net::StragglerSpec::disabled();
    let cluster = Cluster::new(&sim, spec);
    let world = World::new(cluster, world_opts());
    let tracer = Tracer::install(&world, wl.name());
    wl.launch(&world);
    // gcr-lint: allow(D03-T) the profiling pre-run injects no faults; a deadlock here is a workload bug the harness must fail loudly on
    sim.run().expect("profiling run deadlocked");
    tracer.take()
}

/// Everything one run is assembled from.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The application.
    pub workload: WorkloadSpec,
    /// The protocol under test.
    pub proto: Proto,
    /// Image/log storage target.
    pub storage: StorageTarget,
    /// Checkpoint image backend.
    pub backend: ChaosBackend,
    /// Replication factor k for the restore backend (ignored by disk).
    pub replication: usize,
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// Precomputed groups (skips the profiling run for [`Proto::Gp`]).
    pub groups: Option<GroupDef>,
    /// Root seed of the protocol's random substreams.
    pub seed: u64,
    /// Executor shard count (a layout knob; never changes the result).
    pub shards: usize,
    /// Apply the cluster's straggler model at coordination points.
    pub stragglers: bool,
    /// Honor piggyback-driven log garbage collection.
    pub piggyback_gc: bool,
    /// Fault knob: over-GC sender logs by this many bytes.
    pub gc_overshoot: u64,
}

/// A built scenario: the workload is launched and the checkpoint runtime
/// installed; nothing has run yet.
pub struct Built {
    /// The simulation.
    pub sim: Sim,
    /// The MPI world.
    pub world: World,
    /// The cluster.
    pub cluster: Cluster,
    /// The checkpoint runtime.
    pub rt: CkptRuntime,
    /// The groups the runtime checkpoints.
    pub groups: Rc<GroupDef>,
    /// The restore backend (`None` under the disk backend).
    pub restore: Option<Rc<RestoreBackend>>,
}

impl Scenario {
    /// Assemble the scenario.
    pub fn build(self) -> Built {
        self.build_with(|_, _| {})
    }

    /// Assemble the scenario, calling `before_launch` on the world and the
    /// workload just before the workload launches (where a tracer goes).
    pub fn build_with(self, before_launch: impl FnOnce(&World, &dyn Workload)) -> Built {
        let wl = self.workload.build();
        let n = wl.n();
        let sim = Sim::with_shards(self.shards);
        let cluster = Cluster::new(&sim, self.cluster);
        let world = World::new(cluster.clone(), world_opts());
        // Groups are resolved before launch (the profile trace runs on its
        // own private Sim) so each rank's events can be attributed to its
        // group's shard. Attribution never affects event order — see
        // tests/determinism.rs.
        let groups = Rc::new(match self.groups {
            Some(g) => g,
            None => self.proto.groups(&self.workload),
        });
        let group_of: Vec<usize> = (0..n as u32).map(|r| groups.group_of(r)).collect();
        world.set_shard_map(group_of.iter().map(|&g| g as u32).collect());
        // The restore backend is installed before launch so every wave and
        // restart routes its image I/O through it.
        let restore = (self.backend == ChaosBackend::Restore)
            .then(|| RestoreBackend::install(&cluster, group_of, self.replication.max(1)));
        before_launch(&world, wl.as_ref());
        wl.launch(&world);

        let mut cfg = CkptConfig::uniform(n, 0, self.storage);
        cfg.image_bytes = wl.image_bytes();
        cfg.stragglers = self.stragglers;
        cfg.piggyback_gc = self.piggyback_gc;
        cfg.gc_overshoot = self.gc_overshoot;
        cfg.seed = self.seed;
        let rt = CkptRuntime::install(&world, Rc::clone(&groups), self.proto.mode(), cfg);
        Built {
            sim,
            world,
            cluster,
            rt,
            groups,
            restore,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_parse_back() {
        for p in Proto::ALL {
            assert_eq!(Proto::parse(p.label()), Ok(p));
        }
        for w in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::parse(w.label()).unwrap(), w);
        }
        assert!(Proto::parse("GP").is_err());
        assert!(WorkloadKind::parse("stencil").is_err());
    }

    #[test]
    fn groups_profile_only_for_gp() {
        let no_trace = || -> Trace { panic!("only GP profiles") };
        assert_eq!(Proto::Norm.groups_with(8, no_trace).group_count(), 1);
        assert_eq!(Proto::Cvc.groups_with(8, no_trace).group_count(), 1);
        assert_eq!(Proto::Gp1.groups_with(8, no_trace).group_count(), 8);
        assert_eq!(Proto::Rblog.groups_with(8, no_trace).group_count(), 8);
        assert_eq!(
            Proto::GpK { k: 4 }.groups_with(8, no_trace).group_count(),
            4
        );
        let gp = Proto::Gp { max_size: 4 }.groups(&WorkloadKind::Ring.chaos());
        assert!(gp.max_group_size() <= 4);
    }

    #[test]
    fn chaos_skeletons_profile_a_short_prefix() {
        for w in WorkloadKind::ALL {
            let spec = w.chaos();
            match spec.profile() {
                WorkloadSpec::Ring(c) => assert_eq!(c.iters, 3),
                WorkloadSpec::Cg(c) => assert_eq!((c.niter, c.inner), (1, 5)),
                WorkloadSpec::Sp(c) => assert_eq!(c.niter, 3),
                WorkloadSpec::Hpl(c) => assert_eq!(c.n_matrix, 16 * c.nb),
            }
            assert_eq!(spec.n(), spec.profile().n());
        }
    }
}
