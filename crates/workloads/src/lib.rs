//! # gcr-workloads — application models
//!
//! Communication-skeleton reimplementations of the paper's three
//! applications — [`hpl::Hpl`] (High Performance Linpack on a P×Q grid),
//! [`cg::Cg`] (NPB CG, non-stop row-wise exchanges), [`sp::Sp`] (NPB SP,
//! ADI sweeps on a square grid) — plus synthetic patterns ([`synth`]).
//!
//! The checkpoint protocols are payload-oblivious: these skeletons generate
//! the same message sequences (sources, destinations, sizes, dependence
//! structure) and memory footprints as the originals, which is all the
//! protocols and the trace-based grouping can observe (see DESIGN.md §2).

#![warn(missing_docs)]
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]

pub mod cg;
pub mod hpl;
pub mod sp;
pub mod synth;
pub mod traits;

pub use cg::{Cg, CgConfig};
pub use hpl::{Hpl, HplConfig};
pub use sp::{Sp, SpConfig};
pub use synth::{
    MasterWorker, MasterWorkerConfig, RandomConfig, RandomTraffic, Ring, RingConfig, Stencil,
    StencilConfig,
};
pub use traits::{flops_to_time, Workload};
