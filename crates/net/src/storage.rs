//! Checkpoint storage: per-node local disks and shared remote servers.
//!
//! Two targets mirror the paper's two configurations:
//!
//! * **Local** — each node writes its image to its own disk (§5.1, §5.2);
//!   only per-disk bandwidth matters, there is no cross-node contention.
//! * **Remote** — images go to one of `k` shared checkpoint servers over the
//!   network (§5.3, the MPICH-VCL comparison; LAM/MPI via NFS). Clients are
//!   assigned round-robin (`node % k`). Contention on the server downlink and
//!   server disk is exactly the scalability bottleneck Figure 13 exposes.
//!
//! Storage operations are **fallible**: a write can time out, tear, or find
//! every server down ([`crate::ckptstore::StorageError`]), and the
//! fault-injection hooks ([`Storage::inject_torn_writes`],
//! [`Storage::inject_write_timeouts`], [`Storage::set_server_down`]) let the
//! chaos harness trigger each mode deterministically. The
//! [`Storage::write_with_retry`] / [`Storage::read_with_retry`] wrappers
//! run the one bounded, sim-clock-driven backoff policy the protocol
//! layer uses: transient faults are retried, a retry under an
//! outage fails over to the next live server, and exhaustion degrades to a
//! typed error.

// gcr-lint: trust(D03-T) local_disks/remote_disks/remote_down are sized to the cluster at construction and indexed by NodeId/server ids the cluster validated; storage faults surface as StorageError, not index panics

use std::cell::Cell;
use std::rc::Rc;

use gcr_sim::resource::FifoResource;
use gcr_sim::{Sim, SimDuration, SimTime};

use crate::ckptstore::{retry, StorageError};
use crate::network::{Network, NodeId};
use crate::spec::StorageSpec;

/// Where checkpoint images and flushed message logs are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageTarget {
    /// The writing node's own disk.
    Local,
    /// The shared remote checkpoint servers.
    Remote,
}

impl StorageTarget {
    /// CLI / report label.
    pub fn label(&self) -> &'static str {
        match self {
            StorageTarget::Local => "local",
            StorageTarget::Remote => "remote",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Result<Self, String> {
        [StorageTarget::Local, StorageTarget::Remote]
            .into_iter()
            .find(|t| t.label() == s)
            .ok_or_else(|| format!("unknown storage '{s}' (local|remote)"))
    }
}

/// The cluster's storage subsystem.
pub struct Storage {
    sim: Sim,
    local_bps: f64,
    local_seek: SimDuration,
    remote_bps: f64,
    remote_seek: SimDuration,
    local_disks: Vec<FifoResource>,
    /// Remote servers occupy network node ids `[first_server, first_server + k)`.
    remote_disks: Vec<FifoResource>,
    /// Outage flags (fault injection): a down server is skipped by
    /// [`Storage::server_for`], failing its clients over to the next one.
    remote_down: Vec<Cell<bool>>,
    /// Pending injected torn writes, per compute node: each counted write
    /// from that node lands only a prefix of its bytes and errors.
    torn_writes: Vec<Cell<u32>>,
    /// Pending injected write timeouts, per compute node: each counted
    /// write pays its full service time and then errors.
    write_timeouts: Vec<Cell<u32>>,
    /// Pending injected read timeouts, per compute node: each counted
    /// read pays its full service time and then errors (mirrors
    /// `write_timeouts` so the restart-side `read_with_retry` failover is
    /// chaos-testable too).
    read_timeouts: Vec<Cell<u32>>,
    first_server: NodeId,
    network: Rc<Network>,
}

fn take_one(counters: &[Cell<u32>], node: NodeId) -> bool {
    match counters.get(node) {
        Some(c) if c.get() > 0 => {
            c.set(c.get() - 1);
            true
        }
        _ => false,
    }
}

/// Arm `count` more injected faults on `node`'s counter. Saturates: a
/// count past the counter's range arms as many faults as it can hold.
fn arm(counters: &[Cell<u32>], node: NodeId, count: u32) {
    if let Some(c) = counters.get(node) {
        c.set(c.get().saturating_add(count));
    }
}

/// The error a retry loop reports once its attempts ran out: an outage
/// passes through unmasked (retrying cannot help until a server
/// returns), any other fault becomes [`StorageError::RetriesExhausted`].
fn exhausted(node: NodeId, (e, attempts): (StorageError, u32)) -> StorageError {
    match e {
        StorageError::AllServersDown { .. } => e,
        _ => StorageError::RetriesExhausted { node, attempts },
    }
}

impl Storage {
    /// Build the storage system for `compute_nodes` nodes. The network must
    /// have been created with `compute_nodes + spec.remote_servers`
    /// endpoints; the trailing endpoints are the checkpoint servers.
    pub fn new(sim: &Sim, spec: &StorageSpec, compute_nodes: usize, network: Rc<Network>) -> Self {
        assert!(
            spec.local_disk_bps > 0.0,
            "local disk bandwidth must be positive"
        );
        assert_eq!(
            network.nodes(),
            compute_nodes + spec.remote_servers,
            "network must include one endpoint per remote server"
        );
        Storage {
            sim: sim.clone(),
            local_bps: spec.local_disk_bps,
            local_seek: spec.local_seek,
            remote_bps: spec.remote_disk_bps,
            remote_seek: spec.remote_seek,
            local_disks: (0..compute_nodes).map(|_| FifoResource::new(sim)).collect(),
            remote_disks: (0..spec.remote_servers)
                .map(|_| FifoResource::new(sim))
                .collect(),
            remote_down: (0..spec.remote_servers).map(|_| Cell::new(false)).collect(),
            torn_writes: (0..compute_nodes).map(|_| Cell::new(0)).collect(),
            write_timeouts: (0..compute_nodes).map(|_| Cell::new(0)).collect(),
            read_timeouts: (0..compute_nodes).map(|_| Cell::new(0)).collect(),
            first_server: compute_nodes,
            network,
        }
    }

    /// Number of remote checkpoint servers.
    pub fn remote_servers(&self) -> usize {
        self.remote_disks.len()
    }

    /// The checkpoint server assigned to `node` (round-robin). Servers
    /// marked down by [`Storage::set_server_down`] are skipped: the client
    /// deterministically fails over to the next live server in ring order.
    ///
    /// # Errors
    /// [`StorageError::AllServersDown`] when no remote server is configured
    /// or every server is marked down — the caller surfaces the stall
    /// instead of silently queueing on a dead server.
    pub fn server_for(&self, node: NodeId) -> Result<usize, StorageError> {
        let k = self.remote_disks.len();
        if k == 0 {
            return Err(StorageError::AllServersDown { node });
        }
        let base = node % k;
        for off in 0..k {
            let srv = (base + off) % k;
            if !self.remote_down[srv].get() {
                return Ok(srv);
            }
        }
        Err(StorageError::AllServersDown { node })
    }

    /// Mark a remote checkpoint server down or back up (fault injection).
    ///
    /// # Panics
    /// Panics if `server` is out of range.
    pub fn set_server_down(&self, server: usize, down: bool) {
        self.remote_down[server].set(down);
    }

    /// Arm `count` torn writes on `node` (fault injection): each of the
    /// next `count` writes from that node lands only half its bytes and
    /// returns [`StorageError::TornWrite`].
    pub fn inject_torn_writes(&self, node: NodeId, count: u32) {
        arm(&self.torn_writes, node, count);
    }

    /// Arm `count` write timeouts on `node` (fault injection): each of the
    /// next `count` writes from that node pays its full service time and
    /// returns [`StorageError::WriteTimeout`].
    pub fn inject_write_timeouts(&self, node: NodeId, count: u32) {
        arm(&self.write_timeouts, node, count);
    }

    /// Arm `count` read timeouts on `node` (fault injection): each of the
    /// next `count` reads to that node pays its full service time and
    /// returns [`StorageError::ReadTimeout`]. The restart path's
    /// [`Storage::read_with_retry`] must ride out transient read faults
    /// exactly like the write path does.
    pub fn inject_read_timeouts(&self, node: NodeId, count: u32) {
        arm(&self.read_timeouts, node, count);
    }

    fn local_service(&self, bytes: u64) -> SimDuration {
        self.local_seek + SimDuration::from_secs_f64(bytes as f64 / self.local_bps)
    }

    fn remote_service(&self, bytes: u64) -> SimDuration {
        self.remote_seek + SimDuration::from_secs_f64(bytes as f64 / self.remote_bps)
    }

    async fn raw_write(
        &self,
        node: NodeId,
        bytes: u64,
        target: StorageTarget,
    ) -> Result<SimTime, StorageError> {
        match target {
            StorageTarget::Local => Ok(self.local_disks[node]
                .access(self.local_service(bytes))
                .await),
            StorageTarget::Remote => {
                let srv = self.server_for(node)?;
                // Ship the data to the server, then serialize on its disk.
                let arrived = self
                    .network
                    .reserve_transfer(node, self.first_server + srv, bytes);
                let done = self.remote_disks[srv].reserve_from(arrived, self.remote_service(bytes));
                self.sim.sleep_until(done).await;
                // The server went down while the write was in flight: the
                // ack never arrives. The service time was already paid (the
                // disk was busy until the outage), so the caller retries —
                // and its retry fails over to the next live server.
                if self.remote_down[srv].get() {
                    return Err(StorageError::WriteTimeout { node });
                }
                Ok(done)
            }
        }
    }

    /// Write `bytes` from `node` to `target`; returns the completion instant.
    ///
    /// # Errors
    /// Injected faults surface here: [`StorageError::TornWrite`] (half the
    /// bytes reach the medium), [`StorageError::WriteTimeout`] (full
    /// service time paid, no ack — also produced when the assigned server
    /// goes down mid-write), [`StorageError::AllServersDown`] for a remote
    /// write with no live server.
    pub async fn write(
        &self,
        node: NodeId,
        bytes: u64,
        target: StorageTarget,
    ) -> Result<SimTime, StorageError> {
        if take_one(&self.torn_writes, node) {
            let written = bytes / 2;
            self.raw_write(node, written, target).await?;
            return Err(StorageError::TornWrite {
                node,
                written,
                expected: bytes,
            });
        }
        if take_one(&self.write_timeouts, node) {
            self.raw_write(node, bytes, target).await?;
            return Err(StorageError::WriteTimeout { node });
        }
        self.raw_write(node, bytes, target).await
    }

    /// Read `bytes` back to `node` from `target`; returns the completion
    /// instant (used during restart).
    ///
    /// # Errors
    /// [`StorageError::AllServersDown`] for a remote read with no live
    /// server; [`StorageError::ReadTimeout`] when the serving server goes
    /// down mid-transfer or an injected read timeout fires.
    pub async fn read(
        &self,
        node: NodeId,
        bytes: u64,
        target: StorageTarget,
    ) -> Result<SimTime, StorageError> {
        if take_one(&self.read_timeouts, node) {
            self.raw_read(node, bytes, target).await?;
            return Err(StorageError::ReadTimeout { node });
        }
        self.raw_read(node, bytes, target).await
    }

    async fn raw_read(
        &self,
        node: NodeId,
        bytes: u64,
        target: StorageTarget,
    ) -> Result<SimTime, StorageError> {
        match target {
            StorageTarget::Local => Ok(self.local_disks[node]
                .access(self.local_service(bytes))
                .await),
            StorageTarget::Remote => {
                let srv = self.server_for(node)?;
                let disk_done = self.remote_disks[srv].reserve(self.remote_service(bytes));
                self.sim.sleep_until(disk_done).await;
                let done = self
                    .network
                    .transfer(self.first_server + srv, node, bytes)
                    .await;
                if self.remote_down[srv].get() {
                    return Err(StorageError::ReadTimeout { node });
                }
                Ok(done)
            }
        }
    }

    /// [`Storage::write`] under the storage retry policy: transient faults
    /// sleep the deterministic backoff and retry (a retry under an outage
    /// fails over via [`Storage::server_for`]).
    ///
    /// # Errors
    /// [`StorageError::RetriesExhausted`] once every attempt has failed;
    /// [`StorageError::AllServersDown`] passes through unmasked (retrying
    /// cannot help until a server returns).
    pub async fn write_with_retry(
        &self,
        node: NodeId,
        bytes: u64,
        target: StorageTarget,
    ) -> Result<SimTime, StorageError> {
        retry(&self.sim, || self.write(node, bytes, target))
            .await
            .map_err(|e| exhausted(node, e))
    }

    /// [`Storage::read`] under the storage retry policy.
    ///
    /// # Errors
    /// As [`Storage::write_with_retry`].
    pub async fn read_with_retry(
        &self,
        node: NodeId,
        bytes: u64,
        target: StorageTarget,
    ) -> Result<SimTime, StorageError> {
        retry(&self.sim, || self.read(node, bytes, target))
            .await
            .map_err(|e| exhausted(node, e))
    }

    /// Queue an asynchronous, batched background write on `node`'s local
    /// disk (the message-log writer): reserves disk time without waiting.
    /// Batched streaming writes pay bandwidth plus a small per-op cost, not
    /// the full seek penalty.
    pub fn queue_local_log_write(&self, node: NodeId, bytes: u64) -> SimTime {
        let service = SimDuration::from_micros(200)
            + SimDuration::from_secs_f64(bytes as f64 / self.local_bps);
        self.local_disks[node].reserve(service)
    }

    /// Wait until every write queued on `node`'s local disk has completed
    /// ("synchronize message logs"). Returns the completion instant.
    pub async fn drain_local(&self, node: NodeId) -> SimTime {
        let t = self.local_disks[node].next_free();
        self.sim.sleep_until(t).await;
        self.sim.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterSpec;
    use std::cell::Cell;

    fn setup(nodes: usize) -> (Sim, Rc<Storage>) {
        let sim = Sim::new();
        let mut spec = ClusterSpec::test(nodes);
        spec.storage.local_disk_bps = 1e6;
        spec.storage.local_seek = SimDuration::from_millis(10);
        spec.storage.remote_disk_bps = 1e6;
        spec.storage.remote_seek = SimDuration::from_millis(0);
        spec.net.latency = SimDuration::from_micros(0);
        spec.net.bandwidth_bps = 1e8; // network much faster than server disks
        let network = Rc::new(Network::new(
            &sim,
            &spec.net,
            nodes + spec.storage.remote_servers,
        ));
        let storage = Rc::new(Storage::new(&sim, &spec.storage, nodes, network));
        (sim, storage)
    }

    #[test]
    fn local_writes_do_not_contend_across_nodes() {
        let (sim, storage) = setup(4);
        let done_times = Rc::new(std::cell::RefCell::new(Vec::new()));
        for node in 0..4 {
            let st = Rc::clone(&storage);
            let d = Rc::clone(&done_times);
            sim.spawn(async move {
                let t = st
                    .write(node, 1_000_000, StorageTarget::Local)
                    .await
                    .unwrap();
                d.borrow_mut().push(t);
            });
        }
        sim.run().unwrap();
        // All four finish at the same time: seek 10 ms + 1 s.
        for &t in done_times.borrow().iter() {
            assert_eq!(t.as_nanos(), 1_010_000_000);
        }
    }

    #[test]
    fn same_node_local_writes_serialize() {
        let (sim, storage) = setup(2);
        let last = Rc::new(Cell::new(SimTime::ZERO));
        for _ in 0..3 {
            let st = Rc::clone(&storage);
            let l = Rc::clone(&last);
            sim.spawn(async move {
                let t = st.write(0, 1_000_000, StorageTarget::Local).await.unwrap();
                l.set(l.get().max(t));
            });
        }
        sim.run().unwrap();
        assert_eq!(last.get().as_nanos(), 3 * 1_010_000_000);
    }

    #[test]
    fn remote_writes_contend_on_shared_servers() {
        // test spec has 2 remote servers; 4 clients → 2 per server.
        let (sim, storage) = setup(4);
        let last = Rc::new(Cell::new(SimTime::ZERO));
        for node in 0..4 {
            let st = Rc::clone(&storage);
            let l = Rc::clone(&last);
            sim.spawn(async move {
                let t = st
                    .write(node, 1_000_000, StorageTarget::Remote)
                    .await
                    .unwrap();
                l.set(l.get().max(t));
            });
        }
        sim.run().unwrap();
        // Each server serializes its two 1-second writes.
        let total = last.get().as_secs_f64();
        assert!((2.0..2.2).contains(&total), "total {total}");
    }

    #[test]
    fn server_assignment_is_round_robin() {
        let (_sim, storage) = setup(5);
        assert_eq!(storage.server_for(0), Ok(0));
        assert_eq!(storage.server_for(1), Ok(1));
        assert_eq!(storage.server_for(2), Ok(0));
        assert_eq!(storage.remote_servers(), 2);
    }

    #[test]
    fn read_returns_data_to_node() {
        let (sim, storage) = setup(2);
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let st = Rc::clone(&storage);
        let d = Rc::clone(&done);
        sim.spawn(async move {
            let t = st.read(1, 2_000_000, StorageTarget::Remote).await.unwrap();
            d.set(t);
        });
        sim.run().unwrap();
        // 2 s disk + 20 ms network (2 MB at 100 MB/s).
        let t = done.get().as_secs_f64();
        assert!((t - 2.02).abs() < 1e-6, "t {t}");
    }

    #[test]
    fn all_servers_down_is_a_typed_error() {
        let (sim, storage) = setup(2);
        storage.set_server_down(0, true);
        storage.set_server_down(1, true);
        assert_eq!(
            storage.server_for(0),
            Err(StorageError::AllServersDown { node: 0 })
        );
        let got = Rc::new(std::cell::RefCell::new(None));
        let st = Rc::clone(&storage);
        let g = Rc::clone(&got);
        sim.spawn(async move {
            // Retrying cannot help while every server is down: the error
            // passes through the retry wrapper unmasked.
            let r = st.write_with_retry(0, 1_000, StorageTarget::Remote).await;
            *g.borrow_mut() = Some(r);
        });
        sim.run().unwrap();
        assert_eq!(
            *got.borrow(),
            Some(Err(StorageError::AllServersDown { node: 0 }))
        );
    }

    #[test]
    fn mid_write_outage_fails_over_to_next_server() {
        // Node 0 is assigned server 0. Take server 0 down while node 0's
        // write is in flight: the write times out, and the retry fails
        // over to server 1 and succeeds.
        let (sim, storage) = setup(2);
        let done = Rc::new(std::cell::RefCell::new(None));
        let st = Rc::clone(&storage);
        let d = Rc::clone(&done);
        sim.spawn(async move {
            let r = st
                .write_with_retry(0, 1_000_000, StorageTarget::Remote)
                .await;
            *d.borrow_mut() = Some(r);
        });
        let st = Rc::clone(&storage);
        sim.spawn(async move {
            // The 1 MB write takes ~1 s on the server disk; kill the
            // server halfway through.
            st.sim.sleep(SimDuration::from_millis(500)).await;
            st.set_server_down(0, true);
        });
        sim.run().unwrap();
        let r = done.borrow().expect("write task finished");
        let t = r.expect("failover write succeeds").as_secs_f64();
        // First attempt pays its full 1 s service, then 50 ms backoff,
        // then ~1 s on server 1.
        assert!(t > 2.0, "t {t}");
        assert!(storage.remote_disks[1].busy_time().as_secs_f64() > 0.9);
        assert!(storage.remote_disks[0].busy_time().as_secs_f64() > 0.9);
    }

    #[test]
    fn injected_faults_fire_once_each_and_then_clear() {
        let (sim, storage) = setup(2);
        storage.inject_torn_writes(0, 1);
        storage.inject_write_timeouts(1, 1);
        let results = Rc::new(std::cell::RefCell::new(Vec::new()));
        for node in 0..2 {
            let st = Rc::clone(&storage);
            let res = Rc::clone(&results);
            sim.spawn(async move {
                let first = st.write(node, 1_000_000, StorageTarget::Local).await;
                let second = st.write(node, 1_000_000, StorageTarget::Local).await;
                res.borrow_mut().push((node, first, second));
            });
        }
        sim.run().unwrap();
        let res = results.borrow();
        for &(node, first, second) in res.iter() {
            match node {
                0 => assert_eq!(
                    first,
                    Err(StorageError::TornWrite {
                        node: 0,
                        written: 500_000,
                        expected: 1_000_000
                    })
                ),
                _ => assert_eq!(first, Err(StorageError::WriteTimeout { node: 1 })),
            }
            assert!(second.is_ok(), "fault cleared after firing once");
        }
    }

    #[test]
    fn retry_recovers_from_transient_write_timeouts() {
        let (sim, storage) = setup(2);
        storage.inject_write_timeouts(0, 2);
        let done = Rc::new(std::cell::RefCell::new(None));
        let st = Rc::clone(&storage);
        let d = Rc::clone(&done);
        sim.spawn(async move {
            let r = st
                .write_with_retry(0, 1_000_000, StorageTarget::Local)
                .await;
            *d.borrow_mut() = Some(r);
        });
        sim.run().unwrap();
        let t = done
            .borrow()
            .expect("finished")
            .expect("third attempt lands");
        // Two failed 1.01 s attempts + 50 ms + 100 ms backoffs + success.
        assert_eq!(t.as_nanos(), 3 * 1_010_000_000 + 150_000_000);
    }

    #[test]
    fn injected_read_timeouts_fire_once_each_and_then_clear() {
        let (sim, storage) = setup(2);
        storage.inject_read_timeouts(0, 1);
        let results = Rc::new(std::cell::RefCell::new(None));
        let st = Rc::clone(&storage);
        let res = Rc::clone(&results);
        sim.spawn(async move {
            let first = st.read(0, 1_000_000, StorageTarget::Local).await;
            let second = st.read(0, 1_000_000, StorageTarget::Local).await;
            *res.borrow_mut() = Some((first, second));
        });
        sim.run().unwrap();
        let (first, second) = results.borrow().expect("read task finished");
        assert_eq!(first, Err(StorageError::ReadTimeout { node: 0 }));
        assert!(second.is_ok(), "fault cleared after firing once");
    }

    #[test]
    fn read_retry_recovers_from_transient_read_timeouts() {
        let (sim, storage) = setup(2);
        storage.inject_read_timeouts(0, 2);
        let done = Rc::new(std::cell::RefCell::new(None));
        let st = Rc::clone(&storage);
        let d = Rc::clone(&done);
        sim.spawn(async move {
            let r = st.read_with_retry(0, 1_000_000, StorageTarget::Local).await;
            *d.borrow_mut() = Some(r);
        });
        sim.run().unwrap();
        let t = done
            .borrow()
            .expect("finished")
            .expect("third attempt lands");
        // Two failed 1.01 s attempts + 50 ms + 100 ms backoffs + success —
        // the exact mirror of the write-side retry timing.
        assert_eq!(t.as_nanos(), 3 * 1_010_000_000 + 150_000_000);
    }

    #[test]
    fn read_retries_exhaust_into_a_typed_error() {
        let (sim, storage) = setup(2);
        storage.inject_read_timeouts(0, 3);
        let done = Rc::new(std::cell::RefCell::new(None));
        let st = Rc::clone(&storage);
        let d = Rc::clone(&done);
        sim.spawn(async move {
            let r = st.read_with_retry(0, 1_000, StorageTarget::Local).await;
            *d.borrow_mut() = Some(r);
        });
        sim.run().unwrap();
        assert_eq!(
            *done.borrow(),
            Some(Err(StorageError::RetriesExhausted {
                node: 0,
                attempts: 3
            }))
        );
    }

    #[test]
    fn retries_exhaust_into_a_typed_error() {
        let (sim, storage) = setup(2);
        storage.inject_write_timeouts(0, 3);
        let done = Rc::new(std::cell::RefCell::new(None));
        let st = Rc::clone(&storage);
        let d = Rc::clone(&done);
        sim.spawn(async move {
            let r = st.write_with_retry(0, 1_000, StorageTarget::Local).await;
            *d.borrow_mut() = Some(r);
        });
        sim.run().unwrap();
        assert_eq!(
            *done.borrow(),
            Some(Err(StorageError::RetriesExhausted {
                node: 0,
                attempts: 3
            }))
        );
    }
}
