//! Backend-agnostic checkpoint image I/O.
//!
//! The two-phase-commit catalog in [`crate::ckptstore`] tracks *which*
//! generations exist and whether they committed; it never cares *where*
//! the image bytes live. This module draws that line explicitly: a
//! [`CkptBackend`] owns the data plane (image writes during a wave,
//! image reads during restart) plus two commit-broadcast hooks, while
//! the catalog stays shared across every backend.
//!
//! Two implementations exist:
//!
//! * [`DiskBackend`] — the original local-disk / remote-server path,
//!   delegating verbatim to [`Storage::write_with_retry`] /
//!   [`Storage::read_with_retry`]. Behavior-preserving: a cluster with
//!   the default backend produces bit-identical schedules to the
//!   pre-trait code.
//! * [`crate::restore::RestoreBackend`] — ReStore-style replicated
//!   in-memory checkpoints served from peer memory on restart.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use gcr_sim::SimTime;

use crate::ckptstore::{CkptStore, StorageError};
use crate::storage::{Storage, StorageTarget};

/// Boxed image-I/O future returned by [`CkptBackend`] methods.
///
/// Hand-rolled (no `async_trait` dependency): each call site awaits the
/// boxed future exactly as it awaited the concrete storage future
/// before the trait extraction.
pub type ImageFuture<'a> = Pin<Box<dyn Future<Output = Result<SimTime, StorageError>> + 'a>>;

/// One checkpoint-image I/O request, bundled so backend methods stay at
/// a single argument.
#[derive(Debug, Clone, Copy)]
pub struct ImageOp {
    /// Node performing (or receiving) the image I/O.
    pub node: usize,
    /// Group that owns the checkpoint wave.
    pub group: usize,
    /// Catalog generation: `Some(wave)` for a cataloged image,
    /// `None` for an initial-state restart with no committed wave.
    pub gen: Option<u64>,
    /// Global rank id of the image's owner.
    pub rank: u32,
    /// Image size in bytes.
    pub bytes: u64,
    /// Disk-path target ([`StorageTarget::Local`] or remote) used by the
    /// primary write and by any peer-memory fallback read.
    pub target: StorageTarget,
}

/// Where checkpoint image bytes live and how restart gets them back.
///
/// The protocol layer holds one `Rc<dyn CkptBackend>` per cluster (see
/// [`crate::Cluster::backend`]) and calls:
///
/// * [`CkptBackend::write_image`] from the wave's write phase,
/// * [`CkptBackend::on_commit`] / [`CkptBackend::on_abort`] when the
///   coordinator's 2PC decision is broadcast, and
/// * [`CkptBackend::read_image`] from the restart path.
pub trait CkptBackend {
    /// Short stable name (`"disk"`, `"restore"`) for reports and CLI.
    fn label(&self) -> &'static str;

    /// The shared two-phase-commit catalog this backend records into.
    fn catalog(&self) -> &Rc<CkptStore>;

    /// Persist one rank's checkpoint image; resolves to the sim time the
    /// write completed.
    fn write_image(&self, op: ImageOp) -> ImageFuture<'_>;

    /// Fetch one rank's checkpoint image for restart; resolves to the
    /// sim time the read completed.
    fn read_image(&self, op: ImageOp) -> ImageFuture<'_>;

    /// The coordinator committed generation `gen` for `group` and is
    /// broadcasting the decision.
    fn on_commit(&self, group: usize, gen: u64);

    /// The coordinator aborted generation `gen` for `group`.
    fn on_abort(&self, group: usize, gen: u64);
}

/// The original disk/remote-server image path as a [`CkptBackend`].
///
/// Pure delegation — timing and schedule digests are identical to the
/// pre-trait direct calls, which is what keeps the pinned chaos
/// `--verify` digests valid.
pub struct DiskBackend {
    storage: Rc<Storage>,
    store: Rc<CkptStore>,
}

impl DiskBackend {
    /// Wrap the cluster's storage model and shared catalog.
    pub fn new(storage: Rc<Storage>, store: Rc<CkptStore>) -> Self {
        DiskBackend { storage, store }
    }
}

impl CkptBackend for DiskBackend {
    fn label(&self) -> &'static str {
        "disk"
    }

    fn catalog(&self) -> &Rc<CkptStore> {
        &self.store
    }

    fn write_image(&self, op: ImageOp) -> ImageFuture<'_> {
        Box::pin(async move {
            self.storage
                .write_with_retry(op.node, op.bytes, op.target)
                .await
        })
    }

    fn read_image(&self, op: ImageOp) -> ImageFuture<'_> {
        Box::pin(async move {
            self.storage
                .read_with_retry(op.node, op.bytes, op.target)
                .await
        })
    }

    fn on_commit(&self, _group: usize, _gen: u64) {}

    fn on_abort(&self, _group: usize, _gen: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterSpec;
    use crate::Cluster;
    use gcr_sim::Sim;

    #[test]
    fn disk_backend_delegates_with_identical_timing() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::test(4));
        let direct = cluster.clone();
        let via_backend = cluster.clone();
        let got = Rc::new(std::cell::RefCell::new(Vec::new()));
        let out = got.clone();
        sim.spawn(async move {
            let op = ImageOp {
                node: 1,
                group: 0,
                gen: Some(3),
                rank: 1,
                bytes: 1 << 20,
                target: StorageTarget::Remote,
            };
            let a = via_backend.backend().write_image(op).await;
            out.borrow_mut().push(a);
        });
        sim.run().unwrap();

        let sim2 = Sim::new();
        let cluster2 = Cluster::new(&sim2, ClusterSpec::test(4));
        let got2 = Rc::new(std::cell::RefCell::new(Vec::new()));
        let out2 = got2.clone();
        sim2.spawn(async move {
            let a = cluster2
                .storage()
                .write_with_retry(1, 1 << 20, StorageTarget::Remote)
                .await;
            out2.borrow_mut().push(a);
        });
        sim2.run().unwrap();

        assert_eq!(*got.borrow(), *got2.borrow());
        assert!(matches!(got.borrow().first(), Some(Ok(_))));
        let _ = direct;
    }
}
