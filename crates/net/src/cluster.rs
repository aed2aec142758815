//! The assembled cluster: nodes + network + storage + noise models.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use gcr_sim::{DetRng, Sim, SimDuration};

use crate::backend::{CkptBackend, DiskBackend};
use crate::ckptstore::CkptStore;
use crate::network::Network;
use crate::spec::ClusterSpec;
use crate::storage::Storage;

/// A fully-wired simulated cluster. Cheap to clone (shared internals).
#[derive(Clone)]
pub struct Cluster {
    sim: Sim,
    spec: Rc<ClusterSpec>,
    network: Rc<Network>,
    storage: Rc<Storage>,
    ckpt_store: Rc<CkptStore>,
    /// Active checkpoint image backend. Defaults to the disk path;
    /// swappable (before protocols start) via [`Cluster::install_backend`].
    backend: Rc<RefCell<Rc<dyn CkptBackend>>>,
    /// Straggler-storm multiplier (fault injection): scales both the
    /// straggler probability (capped at 1) and the mean delay. Shared
    /// across clones so a controller can dial it up and back down.
    storm: Rc<Cell<f64>>,
}

impl Cluster {
    /// Build a cluster from a spec. The network gets one endpoint per
    /// compute node plus one per remote checkpoint server.
    pub fn new(sim: &Sim, spec: ClusterSpec) -> Self {
        let endpoints = spec.nodes + spec.storage.remote_servers;
        let network = Rc::new(Network::new(sim, &spec.net, endpoints));
        let storage = Rc::new(Storage::new(
            sim,
            &spec.storage,
            spec.nodes,
            Rc::clone(&network),
        ));
        let ckpt_store = Rc::new(CkptStore::new());
        let backend: Rc<dyn CkptBackend> = Rc::new(DiskBackend::new(
            Rc::clone(&storage),
            Rc::clone(&ckpt_store),
        ));
        Cluster {
            sim: sim.clone(),
            spec: Rc::new(spec),
            network,
            storage,
            ckpt_store,
            backend: Rc::new(RefCell::new(backend)),
            storm: Rc::new(Cell::new(1.0)),
        }
    }

    /// Set the straggler-storm multiplier (fault injection). `1.0` restores
    /// the spec's nominal straggler model; larger values make coordination
    /// stragglers both more likely and longer.
    ///
    /// # Panics
    /// Panics if `factor` is not ≥ 1.0.
    pub fn set_straggler_storm(&self, factor: f64) {
        assert!(factor >= 1.0, "storm factor must be >= 1.0");
        self.storm.set(factor);
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The hardware spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of compute nodes.
    pub fn nodes(&self) -> usize {
        self.spec.nodes
    }

    /// The interconnect.
    pub fn network(&self) -> &Rc<Network> {
        &self.network
    }

    /// The storage subsystem.
    pub fn storage(&self) -> &Rc<Storage> {
        &self.storage
    }

    /// The durable checkpoint catalog (generations, two-phase commit).
    pub fn ckpt_store(&self) -> &Rc<CkptStore> {
        &self.ckpt_store
    }

    /// The active checkpoint image backend (disk by default).
    pub fn backend(&self) -> Rc<dyn CkptBackend> {
        Rc::clone(&self.backend.borrow())
    }

    /// Swap the checkpoint image backend. Install before any protocol
    /// runtime starts so every wave and restart sees the same backend.
    pub fn install_backend(&self, backend: Rc<dyn CkptBackend>) {
        *self.backend.borrow_mut() = backend;
    }

    /// Execute `flops` of computation on a node (sleeps for the model time).
    pub async fn compute(&self, flops: f64) {
        self.sim.sleep(self.spec.compute_time(flops)).await;
    }

    /// Sample a coordination straggler delay for one process, or zero.
    ///
    /// `rng` should be the caller's own substream so draws stay
    /// deterministic per rank.
    pub fn sample_straggler(&self, rng: &mut DetRng) -> SimDuration {
        let s = &self.spec.straggler;
        let storm = self.storm.get();
        let prob = (s.prob * storm).min(1.0);
        if prob > 0.0 && rng.chance(prob) {
            SimDuration::from_secs_f64(rng.exp(s.mean.as_secs_f64() * storm))
        } else {
            SimDuration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_sim::SimTime;
    use std::cell::Cell;

    #[test]
    fn cluster_wires_network_and_storage() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::test(8));
        assert_eq!(cluster.nodes(), 8);
        assert_eq!(cluster.network().nodes(), 10); // 8 compute + 2 servers
        assert_eq!(cluster.storage().remote_servers(), 2);
    }

    #[test]
    fn compute_sleeps_for_model_time() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::test(1));
        let c = cluster.clone();
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let d = Rc::clone(&done);
        let s = sim.clone();
        sim.spawn(async move {
            c.compute(2.5e9).await; // at 1 Gflop/s → 2.5 s
            d.set(s.now());
        });
        sim.run().unwrap();
        assert_eq!(done.get(), SimTime::from_secs_f64(2.5));
    }

    #[test]
    fn straggler_disabled_returns_zero() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::test(1));
        let mut rng = DetRng::new(1);
        for _ in 0..100 {
            assert_eq!(cluster.sample_straggler(&mut rng), SimDuration::ZERO);
        }
    }

    #[test]
    fn straggler_enabled_sometimes_delays() {
        let sim = Sim::new();
        let mut spec = ClusterSpec::test(1);
        spec.straggler.prob = 0.5;
        spec.straggler.mean = SimDuration::from_millis(100);
        let cluster = Cluster::new(&sim, spec);
        let mut rng = DetRng::new(7);
        let delays: Vec<SimDuration> = (0..200)
            .map(|_| cluster.sample_straggler(&mut rng))
            .collect();
        let nonzero = delays.iter().filter(|d| !d.is_zero()).count();
        assert!(nonzero > 50 && nonzero < 150, "nonzero {nonzero}");
        let max = delays.iter().max().unwrap();
        assert!(max.as_secs_f64() > 0.01);
    }
}
