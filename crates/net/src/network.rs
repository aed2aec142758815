//! Switched full-duplex network model.
//!
//! Each node has an uplink (TX) and a downlink (RX), each a
//! [`FifoResource`] with service time `bytes / bandwidth`. A message
//! serializes on the sender's uplink, crosses the switch after the wire
//! latency, and serializes on the receiver's downlink *pipelined* with the
//! uplink (the RX window starts `latency` after the TX window starts, not
//! after it ends). Uncontended delivery therefore takes
//! `overhead + latency + bytes/bw`; contention — most importantly incast at
//! checkpoint servers and barrier roots — emerges from the FIFO queues.

// gcr-lint: trust(D03-T) per-node uplink/downlink/slowdown tables are sized to the cluster at construction and indexed by validated NodeIds

use std::cell::Cell;

use gcr_sim::resource::FifoResource;
use gcr_sim::{Sim, SimDuration, SimTime};

use crate::spec::NetSpec;

/// Identifies a node (compute node or storage server) on the network.
pub type NodeId = usize;

/// Timing of a reserved transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferTiming {
    /// Instant the sender's uplink is released.
    pub tx_done: SimTime,
    /// Instant the last byte arrives at the receiver.
    pub delivered: SimTime,
}

/// The cluster interconnect.
pub struct Network {
    sim: Sim,
    latency: SimDuration,
    overhead: SimDuration,
    bandwidth_bps: f64,
    loopback_bps: f64,
    tx: Vec<FifoResource>,
    rx: Vec<FifoResource>,
    /// Per-node service-time multiplier (fault injection: a degraded link
    /// stretches serialization on that node's NIC). 1.0 = nominal.
    slow: Vec<Cell<f64>>,
}

/// Stretch a duration by a slowdown factor; identity when nominal so the
/// unperturbed path stays bit-exact.
fn stretched(d: SimDuration, factor: f64) -> SimDuration {
    if factor == 1.0 {
        d
    } else {
        SimDuration::from_secs_f64(d.as_secs_f64() * factor)
    }
}

impl Network {
    /// Build a network with `nodes` endpoints.
    pub fn new(sim: &Sim, spec: &NetSpec, nodes: usize) -> Self {
        assert!(nodes > 0, "network needs at least one node");
        assert!(
            spec.bandwidth_bps > 0.0 && spec.loopback_bps > 0.0,
            "bandwidth must be positive"
        );
        Network {
            sim: sim.clone(),
            latency: spec.latency,
            overhead: spec.per_msg_overhead,
            bandwidth_bps: spec.bandwidth_bps,
            loopback_bps: spec.loopback_bps,
            tx: (0..nodes)
                .map(|i| FifoResource::new(sim, format!("tx{i}")))
                .collect(),
            rx: (0..nodes)
                .map(|i| FifoResource::new(sim, format!("rx{i}")))
                .collect(),
            slow: (0..nodes).map(|_| Cell::new(1.0)).collect(),
        }
    }

    /// Set a node's link slowdown factor (fault injection). `1.0` restores
    /// nominal speed; larger values stretch serialization on both the
    /// node's uplink and downlink for transfers reserved from now on.
    ///
    /// # Panics
    /// Panics if `node` is out of range or `factor` is not ≥ 1.0.
    pub fn set_node_slowdown(&self, node: NodeId, factor: f64) {
        assert!(node < self.nodes(), "node id out of range");
        assert!(factor >= 1.0, "slowdown factor must be >= 1.0");
        self.slow[node].set(factor);
    }

    /// Number of endpoints.
    pub fn nodes(&self) -> usize {
        self.tx.len()
    }

    /// Serialization time of `bytes` on a link.
    pub fn wire_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }

    /// Reserve link capacity for a `src → dst` message of `bytes` and return
    /// the instant the last byte arrives at `dst`. Does not wait.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is out of range.
    pub fn reserve_transfer(&self, src: NodeId, dst: NodeId, bytes: u64) -> SimTime {
        self.reserve_transfer_full(src, dst, bytes).delivered
    }

    /// Like [`Network::reserve_transfer`], but also reports when the sender's
    /// uplink is released (`tx_done`) — the point at which an eager send
    /// "returns" to the application.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is out of range.
    pub fn reserve_transfer_full(&self, src: NodeId, dst: NodeId, bytes: u64) -> TransferTiming {
        assert!(
            src < self.nodes() && dst < self.nodes(),
            "node id out of range"
        );
        if src == dst {
            // Loopback: a memcpy, no NIC involvement.
            let t = SimDuration::from_secs_f64(bytes as f64 / self.loopback_bps);
            let done = self.sim.now() + self.overhead + stretched(t, self.slow[src].get());
            return TransferTiming {
                tx_done: done,
                delivered: done,
            };
        }
        let service = self.wire_time(bytes);
        let tx_service = stretched(service, self.slow[src].get());
        let rx_service = stretched(service, self.slow[dst].get());
        let tx_done = self.tx[src].reserve(self.overhead + tx_service);
        let tx_start = tx_done - tx_service; // first byte leaves after the overhead
        let arrival_begin = tx_start + self.latency;
        let delivered = self.rx[dst].reserve_from(arrival_begin, rx_service);
        TransferTiming { tx_done, delivered }
    }

    /// Transfer and wait for delivery; returns the delivery instant.
    pub async fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) -> SimTime {
        let done = self.reserve_transfer(src, dst, bytes);
        self.sim.sleep_until(done).await;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterSpec;
    use std::cell::Cell;
    use std::rc::Rc;

    fn net(sim: &Sim, nodes: usize) -> Network {
        let mut spec = ClusterSpec::test(nodes);
        spec.net.latency = SimDuration::from_micros(100);
        spec.net.bandwidth_bps = 1e6; // 1 MB/s for easy arithmetic
        Network::new(sim, &spec.net, nodes)
    }

    #[test]
    fn uncontended_transfer_is_latency_plus_serialization() {
        let sim = Sim::new();
        let n = net(&sim, 2);
        // 1 MB at 1 MB/s = 1 s, plus 100 us latency.
        let done = n.reserve_transfer(0, 1, 1_000_000);
        assert_eq!(done.as_nanos(), 1_000_000_000 + 100_000);
    }

    #[test]
    fn sender_uplink_serializes_messages() {
        let sim = Sim::new();
        let n = net(&sim, 3);
        let d1 = n.reserve_transfer(0, 1, 1_000_000);
        let d2 = n.reserve_transfer(0, 2, 1_000_000);
        // Second message cannot start until the first left the uplink.
        assert_eq!(d2 - d1, SimDuration::from_secs(1));
    }

    #[test]
    fn receiver_downlink_creates_incast_queueing() {
        let sim = Sim::new();
        let n = net(&sim, 5);
        // Four senders to node 0 simultaneously: RX serializes them.
        let mut deliveries: Vec<SimTime> = (1..5)
            .map(|s| n.reserve_transfer(s, 0, 1_000_000))
            .collect();
        deliveries.sort();
        assert_eq!(deliveries[0].as_nanos(), 1_000_000_000 + 100_000);
        assert_eq!(deliveries[3] - deliveries[0], SimDuration::from_secs(3));
    }

    #[test]
    fn disjoint_pairs_do_not_interfere() {
        let sim = Sim::new();
        let n = net(&sim, 4);
        let d1 = n.reserve_transfer(0, 1, 1_000_000);
        let d2 = n.reserve_transfer(2, 3, 1_000_000);
        assert_eq!(d1, d2);
    }

    #[test]
    fn loopback_is_fast_and_contention_free() {
        let sim = Sim::new();
        let n = net(&sim, 2);
        let d = n.reserve_transfer(1, 1, 10_000_000);
        // 10 MB / 10 GB/s = 1 ms; no latency term beyond overhead (0 here).
        assert_eq!(d.as_nanos(), 1_000_000);
        // Does not occupy the NIC.
        assert_eq!(n.tx[1].busy_time(), SimDuration::ZERO);
    }

    #[test]
    fn async_transfer_waits_until_delivery() {
        let sim = Sim::new();
        let n = Rc::new(net(&sim, 2));
        let t = Rc::new(Cell::new(SimTime::ZERO));
        let (n2, t2, s) = (Rc::clone(&n), Rc::clone(&t), sim.clone());
        sim.spawn(async move {
            n2.transfer(0, 1, 500_000).await;
            t2.set(s.now());
        });
        sim.run().unwrap();
        assert_eq!(t.get().as_nanos(), 500_000_000 + 100_000);
    }

    #[test]
    fn per_msg_overhead_is_charged_on_wire() {
        let sim = Sim::new();
        let mut spec = ClusterSpec::test(2);
        spec.net.per_msg_overhead = SimDuration::from_micros(50);
        spec.net.latency = SimDuration::from_micros(100);
        let n = Network::new(&sim, &spec.net, 2);
        let d = n.reserve_transfer(0, 1, 0);
        assert_eq!(d.as_nanos(), 150_000);
    }
}
