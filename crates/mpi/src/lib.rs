//! # gcr-mpi — simulated message-passing runtime
//!
//! An MPI-like runtime over the `gcr-sim` discrete-event kernel: ranks are
//! async coroutines, point-to-point messages use an eager/rendezvous
//! protocol with tag matching and an unexpected-message queue, and
//! collectives are built from p2p messages (so every byte a collective
//! moves is visible to tracing and to the checkpoint protocols).
//!
//! Checkpoint protocols attach through:
//! * [`hooks::MpiHook`] — send/arrival/receive interposition (logging,
//!   piggybacks, Chandy–Lamport channel state),
//! * per-rank **gates** ([`world::World::freeze`] /
//!   [`world::World::block_sends`]) — the "Lock MPI" and send-suspension
//!   windows,
//! * the channel counters ([`counters::ChannelCounters`]) and
//!   [`world::World::wait_arrived`] — bookmark drains and the paper's
//!   volume counters.

#![warn(missing_docs)]
#![forbid(dead_code)]

pub mod collective;
pub mod counters;
pub mod hooks;
pub mod mailbox;
pub mod message;
pub mod rank;
pub mod world;

pub use collective::Comm;
pub use counters::{ChannelCounters, PairStats};
pub use hooks::{MpiHook, TraceSink};
pub use message::{Envelope, MsgId, MsgKind, Payload, Tag};
pub use rank::{Rank, SrcSel};
pub use world::{RankCtx, World, WorldOpts};
