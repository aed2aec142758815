//! # gcr-net — cluster, network, and storage models
//!
//! Models the hardware substrate of the paper's testbed (HKU Gideon 300):
//! compute nodes with a sustained flop rate, a switched Fast-Ethernet
//! interconnect with per-link FIFO serialization ([`network::Network`]),
//! local disks and shared remote checkpoint servers
//! ([`storage::Storage`]), and the coordination-straggler noise model that
//! produces the paper's NORM spikes.
//!
//! See `DESIGN.md` §2 for the substitution argument: the paper's results are
//! time/queueing phenomena, which this layer reproduces with a calibrated
//! discrete-event model.

#![warn(missing_docs)]

pub mod backend;
pub mod ckptstore;
pub mod cluster;
pub mod network;
pub mod restore;
pub mod spec;
pub mod storage;

pub use backend::{CkptBackend, DiskBackend, ImageFuture, ImageOp};
pub use ckptstore::{CkptStore, GenState, LoadRecord, StorageError};
pub use cluster::Cluster;
pub use network::{Network, NodeId, TransferTiming};
pub use restore::{place_replicas, placement_digest, RebuildStats, ReplicaTable, RestoreBackend};
pub use spec::{ClusterSpec, NetSpec, StorageSpec, StragglerSpec};
pub use storage::{Storage, StorageTarget};
