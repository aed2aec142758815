//! Serially-shared resources: NIC links, disks, checkpoint servers.
//!
//! A [`FifoResource`] models a work-conserving server that processes
//! requests one at a time in reservation order. Reserving returns the
//! completion time; contention shows up naturally as queueing delay. This
//! is the building block for the Fast-Ethernet links and the NFS
//! checkpoint-server bottleneck in `gcr-net`.

use std::cell::RefCell;
use std::rc::Rc;

use crate::executor::Sim;
use crate::time::{SimDuration, SimTime};

struct Inner {
    name: String,
    next_free: SimTime,
    busy: SimDuration,
    ops: u64,
}

/// A FIFO single-server resource in simulated time.
#[derive(Clone)]
pub struct FifoResource {
    sim: Sim,
    inner: Rc<RefCell<Inner>>,
}

impl FifoResource {
    /// Create a resource that is free from t = 0.
    pub fn new(sim: &Sim, name: impl Into<String>) -> Self {
        FifoResource {
            sim: sim.clone(),
            inner: Rc::new(RefCell::new(Inner {
                name: name.into(),
                next_free: SimTime::ZERO,
                busy: SimDuration::ZERO,
                ops: 0,
            })),
        }
    }

    /// Reserve the server for `service` time starting as soon as possible,
    /// and return the completion instant. Does not wait — combine with
    /// [`Sim::sleep_until`] (or use [`FifoResource::access`]).
    pub fn reserve(&self, service: SimDuration) -> SimTime {
        self.reserve_from(self.sim.now(), service)
    }

    /// Reserve starting no earlier than `earliest` (used for pipelined
    /// receive-side links where data cannot arrive before the wire latency
    /// has elapsed).
    pub fn reserve_from(&self, earliest: SimTime, service: SimDuration) -> SimTime {
        let mut r = self.inner.borrow_mut();
        let start = r.next_free.max(earliest).max(self.sim.now());
        let done = start + service;
        r.next_free = done;
        r.busy += service;
        r.ops += 1;
        done
    }

    /// Reserve and wait until the work completes. Returns the completion time.
    pub async fn access(&self, service: SimDuration) -> SimTime {
        let done = self.reserve(service);
        self.sim.sleep_until(done).await;
        done
    }

    /// The earliest instant at which a new reservation could start.
    pub fn next_free(&self) -> SimTime {
        self.inner.borrow().next_free
    }

    /// Total busy time accumulated by reservations so far.
    pub fn busy_time(&self) -> SimDuration {
        self.inner.borrow().busy
    }

    /// Number of reservations made.
    pub fn ops(&self) -> u64 {
        self.inner.borrow().ops
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn uncontended_reservation_starts_now() {
        let sim = Sim::new();
        let r = FifoResource::new(&sim, "disk");
        let done = r.reserve(SimDuration::from_secs(2));
        assert_eq!(done, SimTime::from_secs(2));
        assert_eq!(r.ops(), 1);
    }

    #[test]
    fn contended_reservations_queue_fifo() {
        let sim = Sim::new();
        let r = FifoResource::new(&sim, "disk");
        let a = r.reserve(SimDuration::from_secs(1));
        let b = r.reserve(SimDuration::from_secs(1));
        let c = r.reserve(SimDuration::from_secs(1));
        assert_eq!(a, SimTime::from_secs(1));
        assert_eq!(b, SimTime::from_secs(2));
        assert_eq!(c, SimTime::from_secs(3));
        assert_eq!(r.busy_time(), SimDuration::from_secs(3));
    }

    #[test]
    fn reserve_from_respects_earliest() {
        let sim = Sim::new();
        let r = FifoResource::new(&sim, "rx-link");
        let done = r.reserve_from(SimTime::from_secs(10), SimDuration::from_secs(1));
        assert_eq!(done, SimTime::from_secs(11));
        // A second reservation with an earlier "earliest" still queues after.
        let done2 = r.reserve_from(SimTime::from_secs(5), SimDuration::from_secs(1));
        assert_eq!(done2, SimTime::from_secs(12));
    }

    #[test]
    fn access_waits_for_completion() {
        let sim = Sim::new();
        let r = FifoResource::new(&sim, "disk");
        let finished_at = Rc::new(Cell::new(SimTime::ZERO));
        for _ in 0..3 {
            let r = r.clone();
            let s = sim.clone();
            let f = Rc::clone(&finished_at);
            sim.spawn(async move {
                let done = r.access(SimDuration::from_secs(4)).await;
                assert_eq!(done, s.now());
                f.set(f.get().max(done));
            });
        }
        sim.run().unwrap();
        assert_eq!(finished_at.get(), SimTime::from_secs(12));
    }

    #[test]
    fn busy_time_excludes_idle_time() {
        let sim = Sim::new();
        let r = FifoResource::new(&sim, "disk");
        let r2 = r.clone();
        let s = sim.clone();
        sim.spawn(async move {
            r2.access(SimDuration::from_secs(1)).await;
            s.sleep(SimDuration::from_secs(1)).await;
        });
        sim.run().unwrap();
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(r.busy_time(), SimDuration::from_secs(1));
    }
}
