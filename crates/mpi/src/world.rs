//! The message-passing world: ranks, the send/receive engine, gates, and
//! the protocol-facing control surface.

// gcr-lint: trust(D03-T) per-rank state arrays (mailboxes, halt_gates, arrival_pulses, pending_grants, …) are sized to the world at construction and indexed by validated Rank ids — an out-of-range rank is a simulator bug, not a recoverable fault

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use gcr_net::Cluster;
use gcr_sim::channel::oneshot;
use gcr_sim::executor::Sleep;
use gcr_sim::sync::{Gate, WaitGroup};
use gcr_sim::{DetRng, Sim, SimDuration, SimTime};

use crate::counters::ChannelCounters;
use crate::hooks::{MpiHook, TraceSink};
use crate::mailbox::{Arrival, Mailbox, Posted, Pulse, RecvFut, RecvSlot};
use crate::message::{Envelope, MsgId, MsgKind, Payload, Tag};
use crate::rank::{Rank, SrcSel};

/// Await `rank`'s application gates, in order: halted, frozen and, for a
/// send, sends blocked. Every application send, receive post and compute
/// slice passes them. A macro rather than an async fn: a helper future
/// around these awaits costs a few percent of message-heavy runs.
macro_rules! wait_app_gates {
    ($inner:expr, $rank:expr) => {{
        $inner.halt_gates[$rank.idx()].wait_open().await;
        $inner.app_gates[$rank.idx()].wait_open().await;
    }};
    ($inner:expr, $rank:expr, send) => {{
        wait_app_gates!($inner, $rank);
        $inner.send_gates[$rank.idx()].wait_open().await;
    }};
}

/// Tunables of the MPI runtime model.
#[derive(Debug, Clone)]
pub struct WorldOpts {
    /// Messages larger than this use the rendezvous protocol.
    pub eager_threshold: u64,
    /// Wire header added to every message's on-wire size.
    pub header_bytes: u64,
    /// Wire size of a rendezvous RTS.
    pub rts_bytes: u64,
    /// Wire size of a rendezvous CTS.
    pub cts_bytes: u64,
    /// Granularity at which compute can be interrupted by a freeze.
    pub compute_slice: SimDuration,
}

impl Default for WorldOpts {
    fn default() -> Self {
        WorldOpts {
            eager_threshold: 64 * 1024,
            header_bytes: 64,
            rts_bytes: 64,
            cts_bytes: 64,
            compute_slice: SimDuration::from_millis(50),
        }
    }
}

struct Inner {
    sim: Sim,
    cluster: Cluster,
    n: usize,
    opts: WorldOpts,
    mailboxes: Vec<RefCell<Mailbox>>,
    counters: RefCell<ChannelCounters>,
    hooks: Vec<RefCell<Vec<Rc<dyn MpiHook>>>>,
    trace: RefCell<Option<Rc<dyn TraceSink>>>,
    /// Closed while the rank is frozen (blocking checkpoint in progress):
    /// blocks new sends, new receive posts, and compute slices.
    app_gates: Vec<Gate>,
    /// Closed while the rank is halted by fault injection (the process is
    /// "dead"): blocks the same application paths as `app_gates`, but is
    /// owned by the chaos controller instead of the checkpoint protocol —
    /// a wave's freeze/thaw cycle must not resurrect a crashed rank.
    halt_gates: Vec<Gate>,
    /// Closed while new application sends are suspended (non-blocking
    /// checkpoint send-window); receives and compute continue.
    send_gates: Vec<Gate>,
    arrival_pulses: Vec<Pulse>,
    /// Rendezvous sends per rank that have been granted a CTS but whose
    /// data is not yet on the wire. A consistent bookmark snapshot must
    /// wait for these to reach zero (the data is committed to be sent
    /// "before the checkpoint" even though it is not yet counted).
    pending_grants: Vec<Cell<u64>>,
    grant_pulses: Vec<Pulse>,
    send_seq: Vec<Cell<u64>>,
    /// Executor shard each rank's events are attributed to (usually the
    /// rank's checkpoint group). Attribution is a placement choice — it
    /// never affects event order — so the default all-zeros map is always
    /// correct, just unsharded.
    shard_of: RefCell<Vec<u32>>,
    ranks_done: WaitGroup,
    finished: Cell<usize>,
}

/// Handle to the message-passing world. Cheap to clone.
#[derive(Clone)]
pub struct World {
    inner: Rc<Inner>,
}

impl World {
    /// Build a world with one rank per compute node of the cluster.
    pub fn new(cluster: Cluster, opts: WorldOpts) -> Self {
        let n = cluster.nodes();
        let sim = cluster.sim().clone();
        let ranks_done = WaitGroup::new();
        World {
            inner: Rc::new(Inner {
                sim,
                cluster,
                n,
                opts,
                mailboxes: (0..n).map(|_| RefCell::new(Mailbox::new())).collect(),
                counters: RefCell::new(ChannelCounters::new(n)),
                hooks: (0..n).map(|_| RefCell::new(Vec::new())).collect(),
                trace: RefCell::new(None),
                app_gates: (0..n).map(|_| Gate::new(true)).collect(),
                halt_gates: (0..n).map(|_| Gate::new(true)).collect(),
                send_gates: (0..n).map(|_| Gate::new(true)).collect(),
                arrival_pulses: (0..n).map(|_| Pulse::new()).collect(),
                pending_grants: (0..n).map(|_| Cell::new(0)).collect(),
                grant_pulses: (0..n).map(|_| Pulse::new()).collect(),
                send_seq: (0..n).map(|_| Cell::new(0)).collect(),
                shard_of: RefCell::new(vec![0; n]),
                ranks_done,
                finished: Cell::new(0),
            }),
        }
    }

    /// World size.
    pub fn n(&self) -> usize {
        self.inner.n
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.inner.cluster
    }

    /// The runtime options.
    pub fn opts(&self) -> &WorldOpts {
        &self.inner.opts
    }

    /// Make a context for `rank` (protocol daemons and launched apps both
    /// use contexts; several contexts per rank are fine).
    pub fn ctx(&self, rank: Rank) -> RankCtx {
        assert!(rank.idx() < self.inner.n, "rank out of range");
        RankCtx {
            world: self.clone(),
            rank,
        }
    }

    /// Attribute each rank's events to an executor shard (typically the
    /// rank's checkpoint group, taken modulo the shard count). Call before
    /// [`World::launch`] so rank mains spawn onto their shard. Attribution
    /// never affects event order; it only spreads the timer heaps.
    pub fn set_shard_map(&self, map: Vec<u32>) {
        assert_eq!(map.len(), self.inner.n, "shard map must cover every rank");
        *self.inner.shard_of.borrow_mut() = map;
    }

    /// The executor shard `rank`'s events are attributed to.
    pub fn shard_of(&self, rank: Rank) -> usize {
        self.inner.shard_of.borrow()[rank.idx()] as usize
    }

    /// Spawn `rank`'s application main. Completion is tracked: see
    /// [`World::wait_all_ranks`] and [`World::ranks_finished`].
    pub fn launch<F, Fut>(&self, rank: Rank, f: F)
    where
        F: FnOnce(RankCtx) -> Fut,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let ctx = self.ctx(rank);
        let inner = Rc::clone(&self.inner);
        inner.ranks_done.add(1);
        let fut = f(ctx);
        let inner2 = Rc::clone(&self.inner);
        self.inner
            .sim
            .spawn_named_on(self.shard_of(rank), ("rank", rank.0), async move {
                fut.await;
                inner2.finished.set(inner2.finished.get() + 1);
                inner2.ranks_done.done();
            });
    }

    /// Completes when every launched rank's main has returned.
    pub async fn wait_all_ranks(&self) {
        self.inner.ranks_done.wait().await;
    }

    /// How many launched rank mains have returned.
    pub fn ranks_finished(&self) -> usize {
        self.inner.finished.get()
    }

    /// Install a protocol hook on `rank`.
    pub fn install_hook(&self, rank: Rank, hook: Rc<dyn MpiHook>) {
        self.inner.hooks[rank.idx()].borrow_mut().push(hook);
    }

    /// Install the global trace sink.
    pub fn set_trace(&self, sink: Rc<dyn TraceSink>) {
        *self.inner.trace.borrow_mut() = Some(sink);
    }

    /// Freeze `rank`: no new sends, receive posts, or compute slices until
    /// [`World::thaw`]. Models the process being held by the checkpointer.
    pub fn freeze(&self, rank: Rank) {
        self.inner.app_gates[rank.idx()].close();
    }

    /// Release a frozen rank.
    pub fn thaw(&self, rank: Rank) {
        self.inner.app_gates[rank.idx()].open();
    }

    /// Halt `rank` as if its process died: no new application sends,
    /// receive posts, or compute until [`World::resume`]. Unlike
    /// [`World::freeze`] this gate belongs to the fault injector, so a
    /// checkpoint wave's own freeze/thaw cycle cannot release it. Control
    /// traffic (recovery protocol) still flows.
    pub fn halt(&self, rank: Rank) {
        self.inner.halt_gates[rank.idx()].close();
    }

    /// Release a halted rank (recovery finished; the process is back).
    pub fn resume(&self, rank: Rank) {
        self.inner.halt_gates[rank.idx()].open();
    }

    /// Suspend new application sends from `rank` (receives and compute
    /// continue). Models the non-blocking checkpoint send window.
    pub fn block_sends(&self, rank: Rank) {
        self.inner.send_gates[rank.idx()].close();
    }

    /// Re-enable application sends from `rank`.
    pub fn unblock_sends(&self, rank: Rank) {
        self.inner.send_gates[rank.idx()].open();
    }

    /// Snapshot of the per-channel counters.
    pub fn counters(&self) -> ChannelCounters {
        self.inner.counters.borrow().clone()
    }

    /// Stats for one channel without cloning the whole matrix.
    pub fn pair_stats(&self, src: Rank, dst: Rank) -> crate::counters::PairStats {
        self.inner.counters.borrow().pair(src, dst)
    }

    /// Wait until at least `target_bytes` of application data from `src`
    /// has **arrived** at `dst`'s MPI layer (the bookmark-drain primitive).
    pub async fn wait_arrived(&self, src: Rank, dst: Rank, target_bytes: u64) {
        loop {
            if self.inner.counters.borrow().pair(src, dst).arrived_bytes >= target_bytes {
                return;
            }
            self.inner.arrival_pulses[dst.idx()].wait_next().await;
        }
    }

    // -- internal engine ---------------------------------------------------

    /// A new message `src → dst` with the sender's next sequence number,
    /// stamped with the current time; send hooks fill in the piggybacks.
    fn envelope(
        &self,
        src: Rank,
        dst: Rank,
        tag: Tag,
        bytes: u64,
        kind: MsgKind,
        payload: Payload,
    ) -> Envelope {
        assert!(dst.idx() < self.inner.n, "destination rank out of range");
        let c = &self.inner.send_seq[src.idx()];
        let seq = c.get();
        c.set(seq + 1);
        Envelope {
            src,
            dst,
            tag,
            bytes,
            id: MsgId { src, seq },
            kind,
            piggyback_rr: None,
            piggyback_epoch: None,
            piggyback_ack: None,
            payload,
            sent_at: self.inner.sim.now(),
            arrived_at: SimTime::ZERO,
        }
    }

    /// Run an application send's hooks and trace; returns the summed
    /// sender-side cost to charge before the data is committed to the
    /// network.
    fn run_send_hooks(&self, env: &mut Envelope) -> SimDuration {
        let mut cost = SimDuration::ZERO;
        for h in self.inner.hooks[env.src.idx()].borrow().iter() {
            cost += h.on_send(env);
        }
        if let Some(t) = self.inner.trace.borrow().as_ref() {
            t.trace_send(env);
        }
        cost
    }

    /// Put an eager message on the wire: reserve the links and schedule
    /// its delivery on the destination's shard. Returns the instant the
    /// sender's uplink is free.
    fn post_eager(&self, env: Envelope) -> SimTime {
        let net = self.inner.cluster.network();
        let wire = env.bytes + self.inner.opts.header_bytes;
        let timing = net.reserve_transfer_full(env.src.idx(), env.dst.idx(), wire);
        let world = self.clone();
        // In-flight message: an arena-allocated scheduled call on the
        // destination's shard, replacing a task spawn per message.
        let shard = self.shard_of(env.dst);
        self.inner
            .sim
            .schedule_call_on(shard, timing.delivered, move || world.deliver(env));
        timing.tx_done
    }

    /// Deliver a fully-arrived envelope into `dst`'s mailbox, matching a
    /// posted receive if one is waiting.
    fn deliver(&self, mut env: Envelope) {
        env.arrived_at = self.inner.sim.now();
        if env.kind == MsgKind::App {
            self.inner
                .counters
                .borrow_mut()
                .on_arrival(env.src, env.dst, env.bytes);
            for h in self.inner.hooks[env.dst.idx()].borrow().iter() {
                h.on_arrival(&env);
            }
        }
        let dst = env.dst;
        let matched = self.inner.mailboxes[dst.idx()]
            .borrow_mut()
            .take_matching_posted(&env);
        match matched {
            Some(posted) => self.complete_recv(posted.slot, env),
            None => self.inner.mailboxes[dst.idx()]
                .borrow_mut()
                .push_arrival(Arrival::Ready(env)),
        }
        self.inner.arrival_pulses[dst.idx()].pulse();
    }

    /// Deliver a rendezvous RTS announcement.
    fn deliver_rts(
        &self,
        mut env: Envelope,
        grant: gcr_sim::channel::OneshotSender<crate::mailbox::RtsGrant>,
    ) {
        env.arrived_at = self.inner.sim.now();
        let dst = env.dst;
        let matched = self.inner.mailboxes[dst.idx()]
            .borrow_mut()
            .take_matching_posted(&env);
        match matched {
            Some(posted) => self.grant_rts(env.src, env.dst, grant, posted.slot),
            None => self.inner.mailboxes[dst.idx()]
                .borrow_mut()
                .push_arrival(Arrival::Rts { env, grant }),
        }
        // No arrival pulse: the *data* has not arrived.
    }

    /// Charge the CTS and hand the sender its grant.
    fn grant_rts(
        &self,
        src: Rank,
        dst: Rank,
        grant: gcr_sim::channel::OneshotSender<crate::mailbox::RtsGrant>,
        slot: Rc<RefCell<RecvSlot>>,
    ) {
        let net = self.inner.cluster.network();
        let cts_arrive = net.reserve_transfer(
            dst.idx(),
            src.idx(),
            self.inner.opts.cts_bytes + self.inner.opts.header_bytes,
        );
        let p = &self.inner.pending_grants[src.idx()];
        p.set(p.get() + 1);
        grant.send((cts_arrive, slot));
    }

    /// Wait until `rank` has no rendezvous sends that were granted but have
    /// not yet put their data on the wire. Bookmark snapshots call this so
    /// the snapshot covers all committed sends.
    pub async fn wait_no_pending_grants(&self, rank: Rank) {
        loop {
            if self.inner.pending_grants[rank.idx()].get() == 0 {
                return;
            }
            self.inner.grant_pulses[rank.idx()].wait_next().await;
        }
    }

    /// Complete a receive: counters, hooks, trace, then fulfil the slot.
    fn complete_recv(&self, slot: Rc<RefCell<RecvSlot>>, env: Envelope) {
        if env.kind == MsgKind::App {
            self.inner
                .counters
                .borrow_mut()
                .on_consume(env.src, env.dst, env.bytes);
            for h in self.inner.hooks[env.dst.idx()].borrow().iter() {
                h.on_recv(&env);
            }
            if let Some(t) = self.inner.trace.borrow().as_ref() {
                t.trace_recv(&env);
            }
        }
        RecvSlot::fulfill(&slot, env);
    }

    /// Arrival of a rendezvous data transfer: runs as a scheduled call at
    /// the delivery time, on the destination's shard.
    fn deliver_rendezvous_data(&self, mut env: Envelope, slot: Rc<RefCell<RecvSlot>>) {
        env.arrived_at = self.inner.sim.now();
        self.inner
            .counters
            .borrow_mut()
            .on_arrival(env.src, env.dst, env.bytes);
        for h in self.inner.hooks[env.dst.idx()].borrow().iter() {
            h.on_arrival(&env);
        }
        let dst = env.dst;
        self.complete_recv(slot, env);
        self.inner.arrival_pulses[dst.idx()].pulse();
    }

    /// Engine behind all application sends. Returns when the sender's
    /// uplink is free (eager) or when the rendezvous data transfer has left
    /// (rendezvous).
    async fn send_impl(&self, src: Rank, dst: Rank, tag: Tag, bytes: u64) {
        wait_app_gates!(self.inner, src, send);
        let mut env = self.envelope(src, dst, tag, bytes, MsgKind::App, None);
        let net = Rc::clone(self.inner.cluster.network());
        let opts = &self.inner.opts;
        if bytes <= opts.eager_threshold || src == dst {
            // Eager: data goes on the wire after any hook-charged cost.
            let cost = self.run_send_hooks(&mut env);
            if !cost.is_zero() {
                self.inner.sim.sleep(cost).await;
            }
            env.sent_at = self.inner.sim.now();
            self.inner.counters.borrow_mut().on_send(src, dst, bytes);
            self.inner.sim.sleep_until(self.post_eager(env)).await;
        } else {
            // Rendezvous: RTS → (match) → CTS → data.
            let (grant_tx, grant_rx) = oneshot();
            let rts_timing =
                net.reserve_transfer_full(src.idx(), dst.idx(), opts.rts_bytes + opts.header_bytes);
            {
                let world = self.clone();
                let rts_env = env.clone();
                self.inner.sim.schedule_call_on(
                    self.shard_of(dst),
                    rts_timing.delivered,
                    move || {
                        world.deliver_rts(rts_env, grant_tx);
                    },
                );
            }
            let (cts_arrive, slot) = grant_rx.await.expect("receiver vanished during rendezvous");
            self.inner.sim.sleep_until(cts_arrive).await;
            // Data goes on the wire now (after hook-charged costs).
            let cost = self.run_send_hooks(&mut env);
            if !cost.is_zero() {
                self.inner.sim.sleep(cost).await;
            }
            env.sent_at = self.inner.sim.now();
            self.inner.counters.borrow_mut().on_send(src, dst, bytes);
            let p = &self.inner.pending_grants[src.idx()];
            p.set(p.get() - 1);
            self.inner.grant_pulses[src.idx()].pulse();
            let timing = net.reserve_transfer_full(src.idx(), dst.idx(), bytes + opts.header_bytes);
            {
                let world = self.clone();
                self.inner
                    .sim
                    .schedule_call_on(self.shard_of(dst), timing.delivered, move || {
                        world.deliver_rendezvous_data(env, slot);
                    });
            }
            self.inner.sim.sleep_until(timing.tx_done).await;
        }
    }

    /// Batched eager send: `count` back-to-back messages of `bytes` each.
    /// The gates are waited once for the whole batch, hook costs are
    /// charged as one up-front sleep, and the transfers are reserved
    /// back-to-back — the link model serializes them, so this is the
    /// saturated-link delivery path with one task wakeup per batch instead
    /// of one per message. Each message is still counted, traced, and
    /// delivered individually. Completes when the last transfer's uplink
    /// slot is released.
    async fn send_eager_batch_impl(&self, src: Rank, dst: Rank, tag: Tag, bytes: u64, count: u32) {
        if count == 0 {
            return;
        }
        wait_app_gates!(self.inner, src, send);
        let mut envs = Vec::with_capacity(count as usize);
        let mut cost = SimDuration::ZERO;
        for _ in 0..count {
            let mut env = self.envelope(src, dst, tag, bytes, MsgKind::App, None);
            cost += self.run_send_hooks(&mut env);
            envs.push(env);
        }
        if !cost.is_zero() {
            self.inner.sim.sleep(cost).await;
        }
        let now = self.inner.sim.now();
        let mut last_tx_done = now;
        for mut env in envs {
            env.sent_at = now;
            self.inner
                .counters
                .borrow_mut()
                .on_send(env.src, env.dst, env.bytes);
            last_tx_done = self.post_eager(env);
        }
        self.inner.sim.sleep_until(last_tx_done).await;
    }

    /// Engine behind all receives.
    fn recv_impl(&self, dst: Rank, src: SrcSel, tag: Tag) -> RecvFut {
        let slot = RecvSlot::new();
        let arrival = self.inner.mailboxes[dst.idx()]
            .borrow_mut()
            .take_matching_arrival(src, tag);
        match arrival {
            Some(Arrival::Ready(env)) => {
                self.complete_recv(Rc::clone(&slot), env);
            }
            Some(Arrival::Rts { env, grant }) => {
                self.grant_rts(env.src, env.dst, grant, Rc::clone(&slot));
            }
            None => {
                self.inner.mailboxes[dst.idx()]
                    .borrow_mut()
                    .push_posted(Posted {
                        src,
                        tag,
                        slot: Rc::clone(&slot),
                    });
            }
        }
        RecvFut::new(slot)
    }
}

/// Per-rank API handed to applications and protocol daemons.
#[derive(Clone)]
pub struct RankCtx {
    world: World,
    rank: Rank,
}

impl RankCtx {
    /// This context's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size.
    pub fn n(&self) -> usize {
        self.world.n()
    }

    /// The world handle.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.sim().now()
    }

    /// Send `bytes` of application data to `dst` with an app `tag`.
    /// Completes when the local send buffer is released (eager) or the data
    /// transfer has been handed to the wire (rendezvous).
    pub async fn send(&self, dst: Rank, tag: u64, bytes: u64) {
        self.world
            .send_impl(self.rank, dst, Tag::app(tag), bytes)
            .await;
    }

    /// Send `count` back-to-back eager messages of `bytes` each to `dst` —
    /// batch delivery on a saturated link. The gates are waited once and
    /// the sender wakes once for the whole batch; every message is still
    /// counted, traced, and delivered individually.
    pub async fn send_batch(&self, dst: Rank, tag: u64, bytes: u64, count: u32) {
        self.world
            .send_eager_batch_impl(self.rank, dst, Tag::app(tag), bytes, count)
            .await;
    }

    /// Receive a message from `src` with app tag `tag`.
    pub async fn recv(&self, src: impl Into<SrcSel>, tag: u64) -> Envelope {
        wait_app_gates!(self.world.inner, self.rank);
        self.world
            .recv_impl(self.rank, src.into(), Tag::app(tag))
            .await
    }

    /// Concurrently send to `dst` and receive from `src` (same app tag) —
    /// the safe idiom for symmetric neighbour exchanges.
    pub async fn sendrecv(
        &self,
        dst: Rank,
        send_bytes: u64,
        src: impl Into<SrcSel>,
        tag: u64,
    ) -> Envelope {
        let (_, env) =
            gcr_sim::future::join2(self.send(dst, tag, send_bytes), self.recv(src, tag)).await;
        env
    }

    /// Execute computation for a model duration, interruptible by freeze at
    /// [`WorldOpts::compute_slice`] granularity.
    pub async fn busy(&self, dur: SimDuration) {
        let slice = self.world.inner.opts.compute_slice;
        let mut remaining = dur;
        while !remaining.is_zero() {
            wait_app_gates!(self.world.inner, self.rank);
            let step = remaining.min(slice);
            self.world.sim().sleep(step).await;
            remaining = remaining.saturating_sub(step);
        }
    }

    /// Fork a deterministic RNG substream for this rank.
    pub fn rng(&self, root: &DetRng) -> DetRng {
        root.fork_idx(self.rank.0 as u64)
    }

    // -- protocol-control plane (bypasses gates, uncounted, untraced) ------

    /// Send a protocol control message. It is posted (always eager) when
    /// called, whether or not the result is awaited; the returned `Sleep`
    /// only waits for the uplink to free, so a caller that holds it
    /// across other work holds 32 bytes, not the arguments as well.
    pub fn ctrl_send(&self, dst: Rank, ctrl_tag: u64, bytes: u64, payload: Payload) -> Sleep {
        let env = self.world.envelope(
            self.rank,
            dst,
            Tag::ctrl(ctrl_tag),
            bytes,
            MsgKind::Ctrl,
            payload,
        );
        let tx_done = self.world.post_eager(env);
        self.world.sim().sleep_until(tx_done)
    }

    /// Receive a protocol control message.
    pub async fn ctrl_recv(&self, src: impl Into<SrcSel>, ctrl_tag: u64) -> Envelope {
        self.world
            .recv_impl(self.rank, src.into(), Tag::ctrl(ctrl_tag))
            .await
    }

    // -- collective-internal plane (app traffic with reserved tags) --------

    /// Send on the collective-internal tag space. App-class traffic: it is
    /// traced, counted, and subject to protocol gating/logging like any
    /// other application message.
    pub(crate) async fn coll_send(&self, dst: Rank, seq: u64, bytes: u64) {
        self.world
            .send_impl(self.rank, dst, Tag::coll(seq), bytes)
            .await;
    }

    /// Receive on the collective-internal tag space.
    pub(crate) async fn coll_recv(&self, src: Rank, seq: u64) -> Envelope {
        wait_app_gates!(self.world.inner, self.rank);
        self.world
            .recv_impl(self.rank, SrcSel::From(src), Tag::coll(seq))
            .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_net::ClusterSpec;
    use std::cell::Cell;

    fn make_world(n: usize) -> (Sim, World) {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::test(n));
        (sim.clone(), World::new(cluster, WorldOpts::default()))
    }

    #[test]
    fn eager_send_recv_roundtrip() {
        let (sim, world) = make_world(2);
        let got = Rc::new(RefCell::new(None));
        world.launch(Rank(0), |ctx| async move {
            ctx.send(Rank(1), 7, 1024).await;
        });
        {
            let got = Rc::clone(&got);
            world.launch(Rank(1), |ctx| async move {
                let env = ctx.recv(Rank(0), 7).await;
                *got.borrow_mut() = Some((env.src, env.bytes, env.arrived_at));
            });
        }
        sim.run().unwrap();
        let (src, bytes, arrived) = got.borrow().unwrap();
        assert_eq!(src, Rank(0));
        assert_eq!(bytes, 1024);
        assert!(arrived > SimTime::ZERO);
        assert_eq!(world.ranks_finished(), 2);
    }

    #[test]
    fn recv_before_send_matches() {
        let (sim, world) = make_world(2);
        let done = Rc::new(Cell::new(false));
        {
            let done = Rc::clone(&done);
            world.launch(Rank(1), |ctx| async move {
                let env = ctx.recv(SrcSel::Any, 3).await;
                assert_eq!(env.src, Rank(0));
                done.set(true);
            });
        }
        world.launch(Rank(0), |ctx| async move {
            ctx.busy(SimDuration::from_millis(5)).await;
            ctx.send(Rank(1), 3, 64).await;
        });
        sim.run().unwrap();
        assert!(done.get());
    }

    #[test]
    fn messages_do_not_overtake_on_a_channel() {
        let (sim, world) = make_world(2);
        let seqs = Rc::new(RefCell::new(Vec::new()));
        world.launch(Rank(0), |ctx| async move {
            for _ in 0..20 {
                ctx.send(Rank(1), 1, 100).await;
            }
        });
        {
            let seqs = Rc::clone(&seqs);
            world.launch(Rank(1), |ctx| async move {
                for _ in 0..20 {
                    let env = ctx.recv(Rank(0), 1).await;
                    seqs.borrow_mut().push(env.id.seq);
                }
            });
        }
        sim.run().unwrap();
        let s = seqs.borrow();
        assert_eq!(*s, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn rendezvous_waits_for_receiver() {
        let (sim, world) = make_world(2);
        // 1 MB > 64 KB threshold → rendezvous. Receiver posts late.
        let send_done = Rc::new(Cell::new(SimTime::ZERO));
        let recv_posted_at = SimTime::from_secs(5);
        {
            let sd = Rc::clone(&send_done);
            world.launch(Rank(0), |ctx| async move {
                ctx.send(Rank(1), 9, 1 << 20).await;
                sd.set(ctx.now());
            });
        }
        world.launch(Rank(1), |ctx| async move {
            ctx.busy(SimDuration::from_secs(5)).await;
            let env = ctx.recv(Rank(0), 9).await;
            assert_eq!(env.bytes, 1 << 20);
            // Data could not have arrived before the recv was posted.
            assert!(env.arrived_at > recv_posted_at);
        });
        sim.run().unwrap();
        // The sender was stuck until the receiver showed up.
        assert!(send_done.get() > recv_posted_at);
    }

    #[test]
    fn eager_threshold_boundary_is_eager() {
        let (sim, world) = make_world(2);
        // Exactly at threshold → eager → sender completes without receiver.
        let send_done = Rc::new(Cell::new(false));
        {
            let sd = Rc::clone(&send_done);
            world.launch(Rank(0), |ctx| async move {
                ctx.send(Rank(1), 2, 64 * 1024).await;
                sd.set(true);
            });
        }
        {
            world.launch(Rank(1), |ctx| async move {
                ctx.recv(Rank(0), 2).await;
            });
        }
        sim.run().unwrap();
        assert!(send_done.get());
    }

    #[test]
    fn counters_track_lifecycle() {
        let (sim, world) = make_world(2);
        world.launch(Rank(0), |ctx| async move {
            ctx.send(Rank(1), 1, 500).await;
            ctx.send(Rank(1), 1, 700).await;
        });
        world.launch(Rank(1), |ctx| async move {
            ctx.recv(Rank(0), 1).await;
            ctx.recv(Rank(0), 1).await;
        });
        sim.run().unwrap();
        let c = world.counters();
        let p = c.pair(Rank(0), Rank(1));
        assert_eq!(p.sent_bytes, 1200);
        assert_eq!(p.arrived_bytes, 1200);
        assert_eq!(p.consumed_bytes, 1200);
        assert_eq!(p.sent_msgs, 2);
        assert!(c.all_quiescent());
    }

    #[test]
    fn ctrl_traffic_is_not_counted() {
        let (sim, world) = make_world(2);
        world.launch(Rank(0), |ctx| async move {
            ctx.ctrl_send(Rank(1), 4, 999, Some(Rc::new([123]))).await;
        });
        let got = Rc::new(Cell::new(None));
        {
            let got = Rc::clone(&got);
            world.launch(Rank(1), |ctx| async move {
                let env = ctx.ctrl_recv(Rank(0), 4).await;
                got.set(env.word());
            });
        }
        sim.run().unwrap();
        assert_eq!(got.get(), Some(123));
        assert_eq!(world.pair_stats(Rank(0), Rank(1)).sent_msgs, 0);
    }

    #[test]
    fn multi_word_ctrl_payloads_arrive_intact_and_in_order() {
        let (sim, world) = make_world(2);
        world.launch(Rank(0), |ctx| async move {
            ctx.ctrl_send(Rank(1), 4, 40, Some(Rc::new([7, 0, u64::MAX])))
                .await;
            ctx.ctrl_send(Rank(1), 4, 24, Some(Rc::new([1, 2]))).await;
        });
        let got = Rc::new(RefCell::new(Vec::new()));
        {
            let got = Rc::clone(&got);
            world.launch(Rank(1), |ctx| async move {
                for _ in 0..2 {
                    let env = ctx.ctrl_recv(Rank(0), 4).await;
                    got.borrow_mut().push(env.words().to_vec());
                }
            });
        }
        sim.run().unwrap();
        assert_eq!(*got.borrow(), [vec![7, 0, u64::MAX], vec![1, 2]]);
    }

    #[test]
    fn ctrl_send_future_holds_only_its_arguments_and_a_sleep() {
        use gcr_sim::executor::Sleep;
        use std::mem::{size_of, size_of_val};
        let (_sim, world) = make_world(2);
        let ctx = world.ctx(Rank(0));
        let fut = ctx.ctrl_send(Rank(1), 4, 32, Some(Rc::new([1u64])));
        let args = size_of::<&RankCtx>() + size_of::<Rank>() + 2 * size_of::<u64>();
        let bound = size_of::<Sleep>() + args + size_of::<Payload>() + 16;
        let size = size_of_val(&fut);
        // An `Envelope` held across the await would not fit.
        assert!(
            size <= bound,
            "ctrl_send future is {size} bytes, over {bound}"
        );
    }

    #[test]
    fn freeze_blocks_sends_until_thaw() {
        let (sim, world) = make_world(2);
        world.freeze(Rank(0));
        let sent_at = Rc::new(Cell::new(SimTime::ZERO));
        {
            let sa = Rc::clone(&sent_at);
            world.launch(Rank(0), |ctx| async move {
                ctx.send(Rank(1), 1, 10).await;
                sa.set(ctx.now());
            });
        }
        world.launch(Rank(1), |ctx| async move {
            ctx.recv(Rank(0), 1).await;
        });
        // A controller thaws rank 0 at t = 2 s.
        {
            let w = world.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_secs(2)).await;
                w.thaw(Rank(0));
            });
        }
        sim.run().unwrap();
        assert!(sent_at.get() >= SimTime::from_secs(2));
    }

    #[test]
    fn block_sends_lets_recv_continue() {
        let (sim, world) = make_world(2);
        world.block_sends(Rank(1));
        let recv_done = Rc::new(Cell::new(SimTime::ZERO));
        let reply_at = Rc::new(Cell::new(SimTime::ZERO));
        world.launch(Rank(0), |ctx| async move {
            ctx.send(Rank(1), 1, 10).await;
            ctx.recv(Rank(1), 2).await;
        });
        {
            let rd = Rc::clone(&recv_done);
            let ra = Rc::clone(&reply_at);
            world.launch(Rank(1), |ctx| async move {
                ctx.recv(Rank(0), 1).await;
                rd.set(ctx.now());
                // Reply is blocked until sends are unblocked at t = 3 s.
                ctx.send(Rank(0), 2, 10).await;
                ra.set(ctx.now());
            });
        }
        {
            let w = world.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_secs(3)).await;
                w.unblock_sends(Rank(1));
            });
        }
        sim.run().unwrap();
        assert!(recv_done.get() < SimTime::from_secs(1));
        assert!(reply_at.get() >= SimTime::from_secs(3));
    }

    #[test]
    fn wait_arrived_sees_drain_target() {
        let (sim, world) = make_world(2);
        world.launch(Rank(0), |ctx| async move {
            ctx.busy(SimDuration::from_millis(100)).await;
            ctx.send(Rank(1), 1, 4096).await;
        });
        let drained = Rc::new(Cell::new(false));
        {
            let w = world.clone();
            let d = Rc::clone(&drained);
            sim.spawn(async move {
                w.wait_arrived(Rank(0), Rank(1), 4096).await;
                d.set(true);
            });
        }
        // The app-level receive also has to happen for the world to finish.
        world.launch(Rank(1), |ctx| async move {
            ctx.recv(Rank(0), 1).await;
        });
        sim.run().unwrap();
        assert!(drained.get());
    }

    #[test]
    fn busy_is_interruptible_by_freeze() {
        let (sim, world) = make_world(1);
        let done_at = Rc::new(Cell::new(SimTime::ZERO));
        {
            let d = Rc::clone(&done_at);
            world.launch(Rank(0), |ctx| async move {
                ctx.busy(SimDuration::from_secs(1)).await;
                d.set(ctx.now());
            });
        }
        {
            let w = world.clone();
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(200)).await;
                w.freeze(Rank(0));
                s.sleep(SimDuration::from_secs(10)).await;
                w.thaw(Rank(0));
            });
        }
        sim.run().unwrap();
        // 1 s of work stretched by the ~10 s freeze.
        assert!(done_at.get() > SimTime::from_secs(10));
        assert!(done_at.get() < SimTime::from_secs(12));
    }

    #[test]
    fn sendrecv_exchanges_symmetrically() {
        let (sim, world) = make_world(2);
        for r in 0..2u32 {
            world.launch(Rank(r), move |ctx| async move {
                let peer = Rank(1 - r);
                let env = ctx.sendrecv(peer, 2048, peer, 5).await;
                assert_eq!(env.src, peer);
                assert_eq!(env.bytes, 2048);
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn self_send_works() {
        let (sim, world) = make_world(1);
        world.launch(Rank(0), |ctx| async move {
            ctx.send(Rank(0), 1, 128).await;
            let env = ctx.recv(Rank(0), 1).await;
            assert_eq!(env.bytes, 128);
        });
        sim.run().unwrap();
    }
}
