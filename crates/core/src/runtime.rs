//! The checkpoint runtime: per-rank protocol daemons, the `mpirun`-style
//! controller API, and checkpoint schedules.

// gcr-lint: trust(D03-T) gp/cmd-channel vectors are sized to the group map at install time and the daemon-gone panics assert simulator lifetime invariants; none are reachable from an injected fault

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use gcr_group::GroupDef;
use gcr_mpi::{MpiHook, Rank, RankCtx, World};
use gcr_sim::channel::{channel, Sender};
use gcr_sim::future::{select2, Either};
use gcr_sim::sync::WaitGroup;
use gcr_sim::{DetRng, SimDuration, SimTime};

use crate::blocking::blocking_wave;
use crate::config::{CkptConfig, Mode};
use crate::cvc::{cvc_wave, CvcState};
use crate::error::RecoveryError;
use crate::hooks::{GpState, RbState, VclState};
use crate::metrics::Metrics;
use crate::restart::{restart_rank_with_peers, serve_peer_recovery};
use crate::vcl::vcl_wave;

/// Serial per-process checkpoint-request propagation cost: `mpirun`
/// spawns one child per group, and each child signals its group's members
/// one after another. With a single global group (NORM) the last rank
/// hears about the checkpoint `n × this` late, the linear component of
/// the paper's Figure 1; per-group children parallelize it for GP.
const PROPAGATION_PER_PROC: SimDuration = SimDuration::from_millis(20);

/// How many committed generations restart selection may fall back across
/// (retention window `W`). Message-log GC advertises the floor of the
/// *oldest retained* generation, so a fallback of up to `W − 1`
/// generations stays replayable; every rank's [`GpState`] starts with
/// this window.
pub(crate) const GC_RETENTION_GENS: usize = 2;

/// A crash trap armed on a group (fault injection): the group's next
/// checkpoint wave fails at the given phase — `0` before the image write,
/// `1` halfway through it, `2` after the writes but before the commit
/// record. Either way the generation aborts and restart must fall back.
pub(crate) struct CrashTrap {
    pub(crate) phase: u8,
    pub(crate) fired: Cell<bool>,
}

type TrapMap = Rc<RefCell<std::collections::BTreeMap<usize, Rc<CrashTrap>>>>;

/// Everything one rank's protocol code needs.
pub(crate) struct RankProto {
    pub(crate) ctx: RankCtx,
    pub(crate) groups: Rc<GroupDef>,
    pub(crate) cfg: Rc<CkptConfig>,
    pub(crate) metrics: Metrics,
    pub(crate) gp: Rc<GpState>,
    pub(crate) vcl: Rc<VclState>,
    pub(crate) cvc: Rc<CvcState>,
    pub(crate) rb: Option<Rc<RbState>>,
    pub(crate) rng: RefCell<DetRng>,
    pub(crate) traps: TrapMap,
}

impl RankProto {
    /// The crash trap armed on group `gid`, if any.
    pub(crate) fn crash_trap(&self, gid: usize) -> Option<Rc<CrashTrap>> {
        self.traps.borrow().get(&gid).cloned()
    }
}

enum Cmd {
    Ckpt { wave: u64, done: WaitGroup },
}

struct RtInner {
    world: World,
    groups: Rc<GroupDef>,
    cfg: Rc<CkptConfig>,
    mode: Mode,
    metrics: Metrics,
    gp: Vec<Rc<GpState>>,
    vcl: Vec<Rc<VclState>>,
    cvc: Vec<Rc<CvcState>>,
    rb: Vec<Option<Rc<RbState>>>,
    cmd_tx: RefCell<Vec<Sender<Cmd>>>,
    next_wave: Cell<u64>,
    /// Checkpoint rounds currently executing — a fault injector must not
    /// start a group recovery while a wave is mid-flight.
    waves_in_flight: Cell<u64>,
    /// Armed crash-during-checkpoint traps, by group id.
    traps: TrapMap,
}

impl RtInner {
    /// Rank `r`'s protocol context over the installed per-rank state,
    /// with `rng` as its private jitter stream.
    fn rank_proto(&self, r: u32, rng: DetRng) -> RankProto {
        let i = r as usize;
        RankProto {
            ctx: self.world.ctx(Rank(r)),
            groups: Rc::clone(&self.groups),
            cfg: Rc::clone(&self.cfg),
            metrics: self.metrics.clone(),
            gp: Rc::clone(&self.gp[i]),
            vcl: Rc::clone(&self.vcl[i]),
            cvc: Rc::clone(&self.cvc[i]),
            rb: self.rb[i].clone(),
            rng: RefCell::new(rng),
            traps: Rc::clone(&self.traps),
        }
    }
}

/// Handle to the installed checkpoint system. Cheap to clone.
#[derive(Clone)]
pub struct CkptRuntime {
    inner: Rc<RtInner>,
}

impl CkptRuntime {
    /// Install the checkpoint system on a world: hooks on every rank plus
    /// one protocol daemon per rank. Call before `sim.run()`.
    ///
    /// # Panics
    /// Panics if the group definition does not match the world size, or
    /// `cfg.image_bytes` is missing ranks.
    pub fn install(world: &World, groups: Rc<GroupDef>, mode: Mode, cfg: CkptConfig) -> Self {
        let n = world.n();
        assert_eq!(groups.n(), n, "group definition world-size mismatch");
        assert_eq!(
            cfg.image_bytes.len(),
            n,
            "image_bytes must cover every rank"
        );
        // A mode differs from another in three things only: its hook
        // (below), its wave fn (in the daemon), and whether it checkpoints
        // as one global group.
        if matches!(mode, Mode::Vcl | Mode::Cvc) {
            assert_eq!(
                groups.group_count(),
                1,
                "the {} model checkpoints globally; use a single group",
                format!("{mode:?}").to_uppercase()
            );
        }
        let cfg = Rc::new(cfg);
        let storage = world.cluster().storage();

        let mut gp_states = Vec::with_capacity(n);
        let mut vcl_states = Vec::with_capacity(n);
        let mut cvc_states = Vec::with_capacity(n);
        let mut rb_states = Vec::with_capacity(n);
        for r in 0..n as u32 {
            let gp = GpState::new(r, Rc::clone(&groups), cfg.piggyback_gc);
            gp.set_gc_overshoot(cfg.gc_overshoot);
            gp.attach_log_disk(Rc::clone(storage), r as usize);
            let vcl = VclState::new(r, n);
            let cvc = CvcState::new();
            let (hook, rb): (Rc<dyn MpiHook>, _) = match mode {
                // The GP data plane only acts on inter-group traffic, so
                // it is a no-op under a single global group (NORM); the
                // hook is installed unconditionally for uniformity.
                Mode::Blocking => (Rc::clone(&gp) as _, None),
                Mode::Vcl => (Rc::clone(&vcl) as _, None),
                Mode::Cvc => (Rc::clone(&cvc) as _, None),
                Mode::RbLog => {
                    let rb = RbState::new(Rc::clone(&gp), Rc::clone(&groups));
                    rb.attach_recv_disk(Rc::clone(storage), r as usize);
                    (Rc::clone(&rb) as _, Some(rb))
                }
            };
            world.install_hook(Rank(r), hook);
            gp_states.push(gp);
            vcl_states.push(vcl);
            cvc_states.push(cvc);
            rb_states.push(rb);
        }
        let inner = Rc::new(RtInner {
            world: world.clone(),
            groups,
            cfg,
            mode,
            metrics: Metrics::new(),
            gp: gp_states,
            vcl: vcl_states,
            cvc: cvc_states,
            rb: rb_states,
            cmd_tx: RefCell::new(Vec::with_capacity(n)),
            next_wave: Cell::new(0),
            waves_in_flight: Cell::new(0),
            traps: Rc::new(RefCell::new(Default::default())),
        });

        // The per-rank protocol daemons.
        let proto_rng = DetRng::new(inner.cfg.seed).fork("proto");
        let latency = world.cluster().spec().net.latency;
        for r in 0..n as u32 {
            let proto = inner.rank_proto(r, proto_rng.fork_idx(r as u64));
            let (tx, mut rx) = channel::<Cmd>();
            inner.cmd_tx.borrow_mut().push(tx);
            let sim = world.sim().clone();
            // mpirun spawns one child per group; the child signals its
            // members serially, so the propagation delay grows with the
            // rank's position within its group (not with the world size).
            // MPICH-VCL's checkpoint scheduler and CVC's single mpirun
            // child contact processes sequentially too: under their one
            // global group the position is the rank itself.
            let pos_in_group = inner
                .groups
                .members(inner.groups.group_of(r))
                .iter()
                .position(|&m| m == r)
                .expect("rank in own group") as u64;
            let propagation = PROPAGATION_PER_PROC * pos_in_group;
            world.sim().spawn_named(format!("ckptd{r}"), async move {
                while let Some(cmd) = rx.recv().await {
                    match cmd {
                        Cmd::Ckpt { wave, done } => {
                            // Request propagation from mpirun: one network
                            // hop, the serial signalling delay, plus jitter.
                            let jitter_us = proto.rng.borrow_mut().range_u64(0, 2_000);
                            sim.sleep(latency + propagation + SimDuration::from_micros(jitter_us))
                                .await;
                            match mode {
                                // Receiver-based logging rides the blocking
                                // group plane.
                                Mode::Blocking | Mode::RbLog => blocking_wave(&proto, wave).await,
                                Mode::Vcl => vcl_wave(&proto, wave).await,
                                Mode::Cvc => cvc_wave(&proto, wave).await,
                            }
                            done.done();
                        }
                    }
                }
                // Channel closed: runtime shut down. If a restart was
                // requested it runs through `restart_all`'s own tasks.
                let _ = &proto;
            });
        }

        CkptRuntime { inner }
    }

    /// The metrics collector.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The group definition in force.
    pub fn groups(&self) -> &Rc<GroupDef> {
        &self.inner.groups
    }

    /// Per-rank GP protocol state (logs, volume counters).
    pub fn gp_state(&self, rank: u32) -> &Rc<GpState> {
        &self.inner.gp[rank as usize]
    }

    /// The protocol mode.
    pub fn mode(&self) -> Mode {
        self.inner.mode
    }

    /// Total orphaned receives observed across all ranks — messages
    /// consumed while stamped with a cut epoch ahead of the consumer's.
    /// The CVC cut protocol makes this impossible by construction; the
    /// chaos harness and the property suite assert it stays zero.
    pub fn cvc_orphans(&self) -> u64 {
        self.inner.cvc.iter().map(|c| c.orphans()).sum()
    }

    /// Per-rank receiver-based-logging state (`None` outside
    /// [`Mode::RbLog`]).
    pub fn rb_state(&self, rank: u32) -> Option<&Rc<RbState>> {
        self.inner.rb[rank as usize].as_ref()
    }

    /// Number of checkpoint rounds currently executing. A fault injector
    /// polls this down to zero before recovering a group: `recover_group`
    /// must run at a protocol-quiescent point.
    pub fn waves_in_flight(&self) -> u64 {
        self.inner.waves_in_flight.get()
    }

    /// Arm a crash-during-checkpoint trap on `group` (fault injection):
    /// its next checkpoint wave fails at `phase` — `0` before the image
    /// write, `1` halfway through it, `2` after every write but before
    /// the commit record — and the generation aborts. Re-arming replaces
    /// any previous trap.
    pub fn arm_crash_trap(&self, group: usize, phase: u8) {
        self.inner.traps.borrow_mut().insert(
            group,
            Rc::new(CrashTrap {
                phase: phase.min(2),
                fired: Cell::new(false),
            }),
        );
    }

    /// Whether the trap armed on `group` has fired.
    pub fn crash_trap_fired(&self, group: usize) -> bool {
        self.inner
            .traps
            .borrow()
            .get(&group)
            .is_some_and(|t| t.fired.get())
    }

    /// Disarm the trap on `group` (fired or not).
    pub fn clear_crash_trap(&self, group: usize) {
        self.inner.traps.borrow_mut().remove(&group);
    }

    /// Trigger one checkpoint wave across all groups and wait until every
    /// rank has finished it. Returns the wave number.
    pub async fn checkpoint_now(&self) -> u64 {
        let gids: Vec<usize> = (0..self.inner.groups.group_count()).collect();
        self.checkpoint_groups(&gids).await
    }

    /// Checkpoint only the given groups (the paper's `mpirun` reads a
    /// *checkpoint target file* naming the group(s) to checkpoint and
    /// spawns one child per group). Returns the wave number.
    ///
    /// # Panics
    /// Panics if a group id is out of range or the runtime was shut down.
    pub async fn checkpoint_groups(&self, gids: &[usize]) -> u64 {
        let wave = self.checkpoint_groups_inner(gids).await;
        self.inner.metrics.wave_completed();
        wave
    }

    async fn checkpoint_groups_inner(&self, gids: &[usize]) -> u64 {
        self.inner
            .waves_in_flight
            .set(self.inner.waves_in_flight.get() + 1);
        let wave = self.checkpoint_groups_tracked(gids).await;
        self.inner
            .waves_in_flight
            .set(self.inner.waves_in_flight.get() - 1);
        wave
    }

    async fn checkpoint_groups_tracked(&self, gids: &[usize]) -> u64 {
        let wave = self.inner.next_wave.get();
        self.inner.next_wave.set(wave + 1);
        let done = WaitGroup::new();
        let mut targets = Vec::new();
        for &gid in gids {
            targets.extend_from_slice(self.inner.groups.members(gid));
        }
        done.add(targets.len());
        {
            // Scope the borrow: clippy's await_holding_refcell_ref — the
            // borrow must not live across the wait below.
            let txs = self.inner.cmd_tx.borrow();
            assert!(!txs.is_empty(), "checkpoint runtime was shut down");
            for r in targets {
                if txs[r as usize]
                    .send(Cmd::Ckpt {
                        wave,
                        done: done.clone(),
                    })
                    .is_err()
                {
                    panic!("checkpoint daemon is gone");
                }
            }
        }
        done.wait().await;
        // The VCL model has no per-group commit plane: the wave's images
        // are committed centrally once every rank's write is acknowledged
        // (all ranks form the single global group 0).
        if self.inner.mode == Mode::Vcl {
            let members: Vec<u32> = (0..self.inner.world.n() as u32).collect();
            self.inner
                .world
                .cluster()
                .ckpt_store()
                .commit(0, wave, &members);
        }
        wave
    }

    /// One checkpoint round with groups taken **one after another** instead
    /// of simultaneously — group independence lets `mpirun` avoid having
    /// every group hammer the shared checkpoint servers at once. The whole
    /// round counts as a single wave in the metrics.
    pub async fn checkpoint_staggered(&self) -> u64 {
        let mut last = 0;
        for gid in 0..self.inner.groups.group_count() {
            last = self.checkpoint_groups_inner(&[gid]).await;
        }
        self.inner.metrics.wave_completed();
        last
    }

    /// Checkpoint periodically until all application ranks finish: first
    /// wave at `start`, then every `interval`. Returns the number of
    /// completed waves. Shut the runtime down afterwards if no restart is
    /// planned.
    pub async fn interval_schedule(&self, start: SimDuration, interval: SimDuration) -> u64 {
        self.interval_schedule_inner(start, interval, false).await
    }

    /// Like [`CkptRuntime::interval_schedule`], but each round checkpoints
    /// the groups one after another ([`CkptRuntime::checkpoint_staggered`]).
    pub async fn interval_schedule_staggered(
        &self,
        start: SimDuration,
        interval: SimDuration,
    ) -> u64 {
        self.interval_schedule_inner(start, interval, true).await
    }

    async fn interval_schedule_inner(
        &self,
        start: SimDuration,
        interval: SimDuration,
        staggered: bool,
    ) -> u64 {
        assert!(!interval.is_zero(), "use no schedule for a zero interval");
        let sim = self.inner.world.sim().clone();
        let world = self.inner.world.clone();
        if let Either::Right(()) = select2(sim.sleep(start), world.wait_all_ranks()).await {
            return 0;
        }
        let mut waves = 0;
        loop {
            if world.ranks_finished() >= world.n() {
                break;
            }
            if staggered {
                self.checkpoint_staggered().await;
            } else {
                self.checkpoint_now().await;
            }
            waves += 1;
            if let Either::Right(()) = select2(sim.sleep(interval), world.wait_all_ranks()).await {
                break;
            }
        }
        waves
    }

    /// Take exactly one checkpoint at absolute time `at` (the paper's
    /// "checkpoint at t = 60 s" experiments). No-op if the app finishes
    /// first.
    pub async fn single_checkpoint_at(&self, at: SimTime) -> bool {
        let sim = self.inner.world.sim().clone();
        let world = self.inner.world.clone();
        if let Either::Right(()) = select2(sim.sleep_until(at), world.wait_all_ranks()).await {
            return false;
        }
        self.checkpoint_now().await;
        true
    }

    /// Run the restart protocol on every rank concurrently (the paper's
    /// "restart immediately after the program finishes" measurement).
    /// Returns when all ranks have resumed.
    ///
    /// # Errors
    /// The first [`RecoveryError`] any rank hit (all ranks still run to
    /// completion before it is reported).
    pub async fn restart_all(&self) -> Result<(), RecoveryError> {
        let n = self.inner.world.n();
        let store = self.inner.world.cluster().ckpt_store().clone();
        // Per group: select the newest committed-and-valid generation and
        // roll every member's ledger back to it *before* any restart runs,
        // so the volume exchange on both ends of every channel describes
        // the generation actually loaded.
        let mut gen_of_rank: Vec<Option<u64>> = vec![None; n];
        for gid in 0..self.inner.groups.group_count() {
            let members = self.inner.groups.members(gid);
            let gen = store.select_restart(gid, members, GC_RETENTION_GENS);
            for &m in members {
                self.inner.gp[m as usize].rollback_to(gen);
                gen_of_rank[m as usize] = gen;
            }
        }
        let done = WaitGroup::new();
        done.add(n);
        let root_rng = DetRng::new(self.inner.cfg.seed ^ 0xdead_beef);
        let first_err: Rc<RefCell<Option<RecoveryError>>> = Rc::new(RefCell::new(None));
        for r in 0..n as u32 {
            let proto = self.inner.rank_proto(r, root_rng.fork_idx(r as u64));
            let done = done.clone();
            let first_err = Rc::clone(&first_err);
            let gen = gen_of_rank[r as usize];
            self.inner
                .world
                .sim()
                .spawn_named(format!("restart{r}"), async move {
                    let out = proto.gp.comm_peers();
                    if let Err(e) = restart_rank_with_peers(&proto, &out, gen).await {
                        first_err.borrow_mut().get_or_insert(e);
                    }
                    done.done();
                });
        }
        done.wait().await;
        let err = first_err.borrow_mut().take();
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Recover from the failure of one group: its members run the restart
    /// protocol (image reload, volume exchange, replay) while every live
    /// rank that ever communicated with them serves the exchange from its
    /// retained log. Other groups lose **no work** — the paper's central
    /// argument against global restarts. Returns recovery statistics.
    ///
    /// Call at a quiescent point (e.g. after the application finished, or
    /// between phases); live ranks answer with their current counters.
    ///
    /// # Errors
    /// The first [`RecoveryError`] any participant hit. The chaos harness
    /// reports it as a scenario violation instead of aborting the sweep.
    pub async fn recover_group(&self, gid: usize) -> Result<RecoveryStats, RecoveryError> {
        let members = self.inner.groups.members(gid).to_vec();
        let n = self.inner.world.n();
        let started = self.inner.world.sim().now();
        // Generation selection: the newest committed generation whose
        // images all still validate, within the retention window. An
        // aborted or corrupt newest generation deterministically falls
        // back; `None` restarts the group from its initial state.
        let store = self.inner.world.cluster().ckpt_store().clone();
        let generation = store.select_restart(gid, &members, GC_RETENTION_GENS);
        let fell_back = generation != store.newest_attempted(gid);
        for &m in &members {
            self.inner.gp[m as usize].rollback_to(generation);
        }
        // The recovery coordinator (mpirun) computes the pairwise exchange
        // map from *both* ends' counters. A one-sided view deadlocks when
        // traffic is still in flight toward a halted member: the sender
        // counted bytes the member never consumed, so exactly one side
        // would show up for the volume exchange. At quiescence the union
        // equals each rank's own `comm_peers`, so full restarts are
        // unchanged.
        let mut member_peers: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut serve_sets: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &m in &members {
            for q in self.inner.groups.out_of_group(m) {
                let mine = &self.inner.gp[m as usize];
                let theirs = &self.inner.gp[q as usize];
                if mine.sent_to(q) > 0
                    || mine.received_from(q) > 0
                    || theirs.sent_to(m) > 0
                    || theirs.received_from(m) > 0
                {
                    member_peers[m as usize].push(q);
                    serve_sets[q as usize].push(m);
                }
            }
        }
        let done = WaitGroup::new();
        let replayed_in = Rc::new(Cell::new(0u64));
        let first_err: Rc<RefCell<Option<RecoveryError>>> = Rc::new(RefCell::new(None));
        let root_rng = DetRng::new(self.inner.cfg.seed ^ 0xfa11_ed00);
        for r in 0..n as u32 {
            let proto = self.inner.rank_proto(r, root_rng.fork_idx(r as u64));
            done.add(1);
            let done = done.clone();
            let is_member = members.contains(&r);
            let peers = if is_member {
                std::mem::take(&mut member_peers[r as usize])
            } else {
                std::mem::take(&mut serve_sets[r as usize])
            };
            let replayed_in = Rc::clone(&replayed_in);
            let first_err = Rc::clone(&first_err);
            self.inner
                .world
                .sim()
                .spawn_named(format!("recover{r}"), async move {
                    if is_member {
                        if let Err(e) = restart_rank_with_peers(&proto, &peers, generation).await {
                            first_err.borrow_mut().get_or_insert(e);
                        }
                    } else {
                        match serve_peer_recovery(&proto, &peers).await {
                            Ok(served) => replayed_in.set(replayed_in.get() + served),
                            Err(e) => {
                                first_err.borrow_mut().get_or_insert(e);
                            }
                        }
                    }
                    done.done();
                });
        }
        done.wait().await;
        if let Some(e) = first_err.borrow_mut().take() {
            return Err(e);
        }
        let finished = self.inner.world.sim().now();
        Ok(RecoveryStats {
            group: gid,
            ranks_restarted: members.len(),
            downtime: finished.saturating_since(started),
            replayed_into_group_bytes: replayed_in.get(),
            generation,
            fell_back,
        })
    }

    /// Stop all protocol daemons (drop their command channels). Call once
    /// checkpointing is finished so the simulation can terminate.
    pub fn shutdown(&self) {
        self.inner.cmd_tx.borrow_mut().clear();
    }
}

/// Result of [`CkptRuntime::recover_group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// The recovered group.
    pub group: usize,
    /// How many ranks rolled back.
    pub ranks_restarted: usize,
    /// Wall (simulated) time until every participant finished recovery.
    pub downtime: SimDuration,
    /// Bytes replayed into the recovered group from live ranks' logs.
    pub replayed_into_group_bytes: u64,
    /// The committed generation the group restarted from (`None`: initial
    /// state — no usable generation existed).
    pub generation: Option<u64>,
    /// Whether restart fell back past the newest attempted generation
    /// (it was aborted mid-checkpoint, or its images failed validation).
    pub fell_back: bool,
}
