//! # gcr — group-based checkpoint/restart for message-passing systems
//!
//! A full reproduction of *Ho, Wang, Lau — "Scalable Group-based
//! Checkpoint/Restart for Large-Scale Message-passing Systems"*
//! (IPDPS 2008), as a Rust workspace:
//!
//! * [`sim`] — deterministic discrete-event kernel (async executor,
//!   virtual time, resources),
//! * [`net`] — cluster / network / storage models (Gideon-300 calibration),
//! * [`mpi`] — simulated MPI runtime (p2p, collectives, protocol hooks),
//! * [`trace`] — the communication tracer and trace analysis,
//! * [`group`] — Algorithm 2 group formation,
//! * [`ckpt`] — the checkpoint protocols: group-based (GP), global
//!   coordinated (NORM), Chandy–Lamport non-blocking (VCL), plus restart
//!   with message replay and recovery-line consistency checking,
//! * [`workloads`] — HPL / NPB-CG / NPB-SP skeletons and synthetic apps,
//! * [`chaos`] — deterministic fault injection: seeded failure schedules,
//!   invariant oracles, schedule shrinking (`gcrsim chaos`).
//!
//! ## Quickstart
//! ```
//! use std::rc::Rc;
//! use gcr::prelude::*;
//!
//! // A 8-rank cluster running a ring application, checkpointed by GP.
//! let sim = Sim::new();
//! let cluster = Cluster::new(&sim, ClusterSpec::test(8));
//! let world = World::new(cluster, WorldOpts::default());
//! let ring = Ring::new(RingConfig {
//!     nprocs: 8, iters: 50, bytes: 4096, compute_ms: 2, image_bytes: 1 << 20,
//! });
//! ring.launch(&world);
//!
//! let groups = Rc::new(gcr::group::contiguous(8, 4));
//! let cfg = CkptConfig::uniform(8, 1 << 20, StorageTarget::Local).deterministic();
//! let rt = CkptRuntime::install(&world, groups, Mode::Blocking, cfg);
//! {
//!     let (rt, world) = (rt.clone(), world.clone());
//!     sim.spawn(async move {
//!         rt.single_checkpoint_at(SimTime::from_millis(50)).await;
//!         world.wait_all_ranks().await;
//!         rt.shutdown();
//!     });
//! }
//! sim.run().unwrap();
//! assert_eq!(rt.metrics().waves(), 1);
//! gcr::ckpt::check_recovery_line(&world, &rt).unwrap();
//! ```

pub mod cli;

pub use gcr_bench as bench;
pub use gcr_chaos as chaos;
pub use gcr_ckpt as ckpt;
pub use gcr_group as group;
pub use gcr_mpi as mpi;
pub use gcr_net as net;
pub use gcr_sim as sim;
pub use gcr_trace as trace;
pub use gcr_workloads as workloads;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use gcr_chaos::Proto;
    pub use gcr_ckpt::{CkptConfig, CkptRuntime, Metrics, Mode};
    pub use gcr_group::{form_groups, GroupDef};
    pub use gcr_mpi::{Comm, Rank, RankCtx, SrcSel, World, WorldOpts};
    pub use gcr_net::{Cluster, ClusterSpec, StorageTarget};
    pub use gcr_sim::{DetRng, Sim, SimDuration, SimTime};
    pub use gcr_trace::Tracer;
    pub use gcr_workloads::{
        Cg, CgConfig, Hpl, HplConfig, Ring, RingConfig, Sp, SpConfig, Stencil, StencilConfig,
        Workload,
    };
}
