//! # gcr-ckpt — group-based checkpoint/restart protocols
//!
//! The paper's contribution (Ho, Wang, Lau — IPDPS 2008), implemented over
//! the simulated MPI runtime:
//!
//! * **Blocking coordinated checkpointing scoped to groups**
//!   ([`blocking`]): with one global group this is `NORM` (stock LAM/MPI);
//!   with trace-formed groups it is the paper's `GP`; with singletons,
//!   `GP1`; with ad-hoc contiguous groups, `GP4`.
//! * **Algorithm 1's data plane** ([`hooks::GpState`], [`msglog`],
//!   [`volume`]): asynchronous sender-based logging of inter-group
//!   messages, `R`/`S`/`RR` volume counters, `RR` piggybacks on the first
//!   post-checkpoint message, and piggyback-driven log garbage collection.
//! * **Group-local restart** ([`restart`]): image reload, pairwise volume
//!   exchange with out-of-group peers, per-message replay and send
//!   skipping.
//! * **The MPICH-VCL baseline** ([`vcl`]): non-blocking Chandy–Lamport
//!   with a send-suspension window and remote checkpoint servers.
//! * **CVC checkpointing** ([`cvc`]): non-blocking cuts driven by
//!   per-communicator collective vector clocks, kept orphan-free by a
//!   cut-epoch piggyback on application sends (Xu & Cooperman).
//! * **Receiver-based logging** ([`hooks::RbState`], [`Mode::RbLog`]):
//!   inter-group receives are logged durably on the receiver's node,
//!   acknowledgement piggybacks trim the sender log to the unacked
//!   tail, and restart replays from the local receiver log
//!   (Dichev & Nikolopoulos).
//! * **Mechanical consistency checking** ([`consistency`]): the recovery
//!   line formed by group checkpoints + logs is verified, not assumed.
//!
//! Entry point: [`runtime::CkptRuntime::install`].

#![warn(missing_docs)]
#![forbid(dead_code)]
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]

pub mod advisor;
pub mod blocking;
pub mod config;
pub mod consistency;
pub mod ctrlplane;
pub mod cvc;
pub mod error;
pub mod hooks;
pub mod metrics;
pub mod msglog;
mod peer_table;
pub mod restart;
pub mod runtime;
pub mod vcl;
pub mod volume;

pub use advisor::{
    analyze_schedule, expected_lost_work, optimal_interval, work_lost_at, WorkLossReport,
};
pub use config::{CkptConfig, Mode};
pub use consistency::{check_quiescent, check_recovery_line, Violation};
pub use cvc::CvcState;
pub use error::RecoveryError;
pub use hooks::{GpState, RbState, VclState};
pub use metrics::{CkptRecord, Metrics, PhaseBreakdown, RestartRecord};
pub use msglog::{digest_of, LogEntry, MsgLog, PeerLog};
pub use runtime::{CkptRuntime, RecoveryStats};
pub use volume::VolumeCounters;
