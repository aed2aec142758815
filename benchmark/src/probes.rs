//! Probes installed from outside the layers they measure, through the
//! layers' own public seams:
//!
//! * the hook pair — two `MpiHook`s per rank, one installed before
//!   `CkptRuntime::install` and one after. Hooks run in install order, so
//!   the gap between the pair is the protocol hook's own time, and the
//!   first of the pair sees every application message.
//! * the backend decorator — a delegating `CkptBackend` set with
//!   `Cluster::install_backend` that counts image I/O and times each
//!   poll of the inner backend's futures.
//!
//! Neither charges simulated time nor touches an envelope, so a traced
//! sample must reproduce the untraced sample's digest exactly.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

use gcr_mpi::{Envelope, MpiHook, Rank, World};
use gcr_net::{CkptBackend, CkptStore, Cluster, ImageFuture, ImageOp, StorageError};
use gcr_sim::{Sim, SimDuration, SimTime};

fn add(c: &Cell<u64>, v: u64) {
    c.set(c.get() + v);
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Counts and host-time totals of the hook pair on every rank.
#[derive(Default)]
pub struct HookTally {
    mark: Cell<Option<Instant>>,
    /// Application sends seen.
    pub sends: Cell<u64>,
    /// Application payload bytes sent.
    pub bytes: Cell<u64>,
    /// Arrivals seen.
    pub arrivals: Cell<u64>,
    /// Completed receives seen.
    pub recvs: Cell<u64>,
    /// Simulated time messages waited between arrival and consumption.
    pub wait_sim_ns: Cell<u64>,
    /// Host time inside the protocol's `on_send` hooks.
    pub send_ns: Cell<u64>,
    /// Host time inside the protocol's `on_arrival` hooks.
    pub arrival_ns: Cell<u64>,
    /// Host time inside the protocol's `on_recv` hooks.
    pub recv_ns: Cell<u64>,
}

impl HookTally {
    fn since_mark(&self) -> u64 {
        self.mark.take().map(ns_since).unwrap_or(0)
    }
}

struct Before {
    tally: Rc<HookTally>,
    sim: Sim,
}

struct After {
    tally: Rc<HookTally>,
}

impl MpiHook for Before {
    fn on_send(&self, env: &mut Envelope) -> SimDuration {
        let t = &self.tally;
        add(&t.sends, 1);
        add(&t.bytes, env.bytes);
        t.mark.set(Some(Instant::now()));
        SimDuration::ZERO
    }

    fn on_arrival(&self, _env: &Envelope) {
        add(&self.tally.arrivals, 1);
        self.tally.mark.set(Some(Instant::now()));
    }

    fn on_recv(&self, env: &Envelope) {
        let t = &self.tally;
        add(&t.recvs, 1);
        add(
            &t.wait_sim_ns,
            self.sim.now().saturating_since(env.arrived_at).as_nanos(),
        );
        t.mark.set(Some(Instant::now()));
    }
}

impl MpiHook for After {
    fn on_send(&self, _env: &mut Envelope) -> SimDuration {
        add(&self.tally.send_ns, self.tally.since_mark());
        SimDuration::ZERO
    }

    fn on_arrival(&self, _env: &Envelope) {
        add(&self.tally.arrival_ns, self.tally.since_mark());
    }

    fn on_recv(&self, _env: &Envelope) {
        add(&self.tally.recv_ns, self.tally.since_mark());
    }
}

/// Every probe of one traced simulation sample.
pub struct Probes {
    /// What the hook pair observed.
    pub hooks: Rc<HookTally>,
    /// What the backend decorator observed.
    pub backend: Rc<BackendTally>,
    /// The cluster's two-phase-commit catalog.
    pub store: Rc<CkptStore>,
}

impl Probes {
    /// Wrap the cluster's backend and install the first hook of the pair
    /// on every rank. Call before `CkptRuntime::install`.
    pub fn install_before(world: &World) -> Self {
        let backend = BackendProbe::install(world.cluster());
        let hooks = Rc::new(HookTally::default());
        let hook: Rc<dyn MpiHook> = Rc::new(Before {
            tally: Rc::clone(&hooks),
            sim: world.sim().clone(),
        });
        for r in 0..world.n() as u32 {
            world.install_hook(Rank(r), Rc::clone(&hook));
        }
        Probes {
            hooks,
            backend,
            store: Rc::clone(world.cluster().ckpt_store()),
        }
    }

    /// Install the closing hook on every rank. Call after
    /// `CkptRuntime::install`.
    pub fn install_after(&self, world: &World) {
        let hook: Rc<dyn MpiHook> = Rc::new(After {
            tally: Rc::clone(&self.hooks),
        });
        for r in 0..world.n() as u32 {
            world.install_hook(Rank(r), Rc::clone(&hook));
        }
    }
}

/// Counts and timings of image I/O through the backend.
#[derive(Default)]
pub struct BackendTally {
    /// Image writes issued.
    pub writes: Cell<u64>,
    /// Image reads issued.
    pub reads: Cell<u64>,
    /// Bytes written.
    pub write_bytes: Cell<u64>,
    /// Bytes read.
    pub read_bytes: Cell<u64>,
    /// Simulated time from issue to completion, summed over writes.
    pub write_sim_ns: Cell<u64>,
    /// Simulated time from issue to completion, summed over reads.
    pub read_sim_ns: Cell<u64>,
    /// Host time inside the inner backend's futures.
    pub poll_ns: Cell<u64>,
    /// Polls of the inner backend's futures.
    pub polls: Cell<u64>,
    /// I/O that resolved to a storage error.
    pub errors: Cell<u64>,
    /// Commit decisions broadcast.
    pub commits: Cell<u64>,
    /// Abort decisions broadcast.
    pub aborts: Cell<u64>,
    /// Per generation: host time of the first image write and of the last
    /// commit or abort — the wave as the backend sees it.
    pub waves: RefCell<BTreeMap<u64, (Instant, Instant)>>,
}

/// The delegating backend decorator.
struct BackendProbe {
    inner: Rc<dyn CkptBackend>,
    sim: Sim,
    tally: Rc<BackendTally>,
}

impl BackendProbe {
    /// Wrap the cluster's current backend. Call before any protocol
    /// runtime starts.
    fn install(cluster: &Cluster) -> Rc<BackendTally> {
        let tally = Rc::new(BackendTally::default());
        cluster.install_backend(Rc::new(BackendProbe {
            inner: cluster.backend(),
            sim: cluster.sim().clone(),
            tally: Rc::clone(&tally),
        }));
        tally
    }

    fn timed<'a>(&'a self, inner: ImageFuture<'a>, read: bool) -> ImageFuture<'a> {
        Box::pin(Timed {
            inner,
            tally: &self.tally,
            issued: self.sim.now(),
            read,
        })
    }

    fn wave_edge(&self, gen: u64, first: bool) {
        let now = Instant::now();
        let mut waves = self.tally.waves.borrow_mut();
        let w = waves.entry(gen).or_insert((now, now));
        if !first {
            w.1 = now;
        }
    }
}

impl CkptBackend for BackendProbe {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn catalog(&self) -> &Rc<CkptStore> {
        self.inner.catalog()
    }

    fn write_image(&self, op: ImageOp) -> ImageFuture<'_> {
        add(&self.tally.writes, 1);
        add(&self.tally.write_bytes, op.bytes);
        if let Some(gen) = op.gen {
            self.wave_edge(gen, true);
        }
        self.timed(self.inner.write_image(op), false)
    }

    fn read_image(&self, op: ImageOp) -> ImageFuture<'_> {
        add(&self.tally.reads, 1);
        add(&self.tally.read_bytes, op.bytes);
        self.timed(self.inner.read_image(op), true)
    }

    fn on_commit(&self, group: usize, gen: u64) {
        add(&self.tally.commits, 1);
        self.wave_edge(gen, false);
        self.inner.on_commit(group, gen);
    }

    fn on_abort(&self, group: usize, gen: u64) {
        add(&self.tally.aborts, 1);
        self.wave_edge(gen, false);
        self.inner.on_abort(group, gen);
    }
}

struct Timed<'a> {
    inner: ImageFuture<'a>,
    tally: &'a BackendTally,
    issued: SimTime,
    read: bool,
}

impl Future for Timed<'_> {
    type Output = Result<SimTime, StorageError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let t = Instant::now();
        let out = this.inner.as_mut().poll(cx);
        add(&this.tally.poll_ns, ns_since(t));
        add(&this.tally.polls, 1);
        if let Poll::Ready(res) = &out {
            match res {
                Ok(done) => {
                    let sim_ns = done.saturating_since(this.issued).as_nanos();
                    if this.read {
                        add(&this.tally.read_sim_ns, sim_ns);
                    } else {
                        add(&this.tally.write_sim_ns, sim_ns);
                    }
                }
                Err(_) => add(&this.tally.errors, 1),
            }
        }
        out
    }
}
