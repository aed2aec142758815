//! Non-blocking checkpointing driven by collective vector clocks — the
//! CVC model (Xu & Cooperman).
//!
//! Instead of freezing the MPI layer (blocking) or suspending sends and
//! flooding markers (VCL), CVC derives a logical clock from the
//! **collective traffic the application already performs**: every rank
//! keeps, per communicator, the number of collective operations it has
//! entered. Because all members of a communicator execute the same
//! collective sequence, "clock `c` on communicator `m`" names a
//! globally meaningful point of execution at every member.
//!
//! A wave then runs in three steps at each rank:
//!
//! 1. **Target agreement** — a butterfly max-merge exchange of the
//!    current clock vectors picks a cut target no rank has passed long
//!    ago (each rank's own clock merged with everyone else's).
//! 2. **Cut** — the rank keeps executing at full speed and takes its cut
//!    the moment its own clock reaches the target ([`CvcState::arm`]).
//!    Ranks that never reach the target (they finished, or do not
//!    participate in a communicator) are cut by the **epoch piggyback**:
//!    every application send carries the sender's count of completed
//!    cuts, and a receiver seeing a newer epoch than its own cuts before
//!    consuming the message ([`CvcState`] forces the cut in `on_recv`).
//!    This is what keeps the cut orphan-free *by construction*: no
//!    message sent after the sender's cut is ever consumed by a rank
//!    that has not cut — so no receive is recorded without its send.
//! 3. **Record** — the image is written concurrently with execution
//!    under the group two-phase-commit catalog (begin / record /
//!    barrier / coordinator decision, exactly like the blocking plane),
//!    and messages that arrive after the cut but were sent before it
//!    are charged as Chandy–Lamport channel state.
//!
//! The [`CvcState::orphans`] counter is the protocol's own oracle: it
//! increments only if a post-cut message would be consumed by a rank
//! whose forced cut somehow failed, which the design makes impossible —
//! the chaos harness and the property suite assert it stays zero.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use gcr_mpi::{Envelope, MpiHook, Rank, Tag};
use gcr_net::ImageOp;
use gcr_sim::future::join2;
use gcr_sim::sync::WaitGroup;
use gcr_sim::SimDuration;

use crate::ctrlplane::{ctrl_barrier, tags, CTRL_BYTES};
use crate::metrics::{CkptRecord, PhaseBreakdown};
use crate::runtime::RankProto;

/// An armed cut: the wave it belongs to, the clock target agreed by the
/// butterfly exchange, and the wait-group the protocol daemon parks on.
struct Armed {
    wave: u64,
    target: BTreeMap<u64, u64>,
    done: WaitGroup,
}

/// Per-rank CVC state: the per-communicator collective clock, the count
/// of completed cuts (the *epoch* piggybacked on every application
/// send), and the channel-state recorder.
pub struct CvcState {
    /// `communicator id → number of collective operations entered`.
    clocks: RefCell<BTreeMap<u64, u64>>,
    /// Completed cuts. A wave-`w` cut sets the epoch to `w + 1`; sends
    /// stamp it outbound, receivers cut forward to any newer stamp.
    epoch: Cell<u64>,
    /// The pending cut, if a wave is between `arm` and its cut point.
    armed: RefCell<Option<Armed>>,
    /// Whether post-cut arrivals are being recorded as channel state.
    recording: Cell<bool>,
    /// Pre-cut bytes that arrived after the cut (Chandy–Lamport channel
    /// state), accumulated while recording.
    state_bytes: Cell<u64>,
    /// Messages consumed whose epoch stamp was *still* ahead of this
    /// rank's epoch after forcing — impossible by construction; the
    /// chaos oracle and the property suite assert this stays zero.
    orphans: Cell<u64>,
}

impl CvcState {
    /// Fresh state for one rank (clock empty, epoch zero).
    pub fn new() -> Rc<Self> {
        Rc::new(CvcState {
            clocks: RefCell::new(BTreeMap::new()),
            epoch: Cell::new(0),
            armed: RefCell::new(None),
            recording: Cell::new(false),
            state_bytes: Cell::new(0),
            orphans: Cell::new(0),
        })
    }

    /// The rank's current cut epoch (completed cuts).
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Snapshot of the per-communicator collective clock.
    pub fn clock_snapshot(&self) -> BTreeMap<u64, u64> {
        self.clocks.borrow().clone()
    }

    /// Post-cut messages consumed ahead of the consumer's (forced)
    /// epoch — the orphan oracle; zero in any correct execution.
    pub fn orphans(&self) -> u64 {
        self.orphans.get()
    }

    /// Advance the collective clock from a collective-internal tag. The
    /// collective layer namespaces its tags by operation sequence number
    /// (`(communicator id << 16) | op index`), so the clock can be
    /// recovered transparently without touching the collective code.
    fn observe_tag(&self, tag: Tag) {
        let t = tag.0;
        if !(Tag::COLL_BASE..Tag::CTRL_BASE).contains(&t) {
            return;
        }
        let seq = t - Tag::COLL_BASE;
        let comm = seq >> 16;
        let entered = (seq & 0xffff) + 1;
        let mut clocks = self.clocks.borrow_mut();
        let c = clocks.entry(comm).or_insert(0);
        if *c < entered {
            *c = entered;
        }
    }

    /// Does this rank's clock meet `target`? Only communicators this
    /// rank has itself participated in are compared: a rank outside a
    /// communicator can never advance its entry, so it cuts early and
    /// the epoch piggyback keeps the cut consistent regardless.
    fn clock_meets(&self, target: &BTreeMap<u64, u64>) -> bool {
        let clocks = self.clocks.borrow();
        clocks
            .iter()
            .all(|(comm, mine)| target.get(comm).is_none_or(|need| mine >= need))
    }

    /// Take the cut for `wave` now: bump the epoch and start recording
    /// channel state.
    fn cut(&self, wave: u64) {
        self.epoch.set(wave + 1);
        self.recording.set(true);
    }

    /// Cut if a wave is armed and the clock has reached its target.
    fn maybe_cut(&self) {
        let fire = {
            let armed = self.armed.borrow();
            match armed.as_ref() {
                Some(a) => self.epoch.get() <= a.wave && self.clock_meets(&a.target),
                None => false,
            }
        };
        if fire {
            if let Some(a) = self.armed.borrow_mut().take() {
                self.cut(a.wave);
                a.done.done();
            }
        }
    }

    /// A message stamped with the sender's epoch arrived for
    /// consumption. A stamp ahead of our epoch means the sender already
    /// cut — cut *now*, before the message is consumed, so it can never
    /// become an orphan receive.
    fn observe_epoch(&self, stamp: u64) {
        if stamp <= self.epoch.get() {
            return;
        }
        self.epoch.set(stamp);
        self.recording.set(true);
        // Complete any armed wave the forced cut covers.
        let covered = self.armed.borrow().as_ref().is_some_and(|a| a.wave < stamp);
        if covered {
            if let Some(a) = self.armed.borrow_mut().take() {
                a.done.done();
            }
        }
    }

    /// Arm the cut for `wave` with the agreed clock `target`. Returns a
    /// wait-group that completes when the cut has been taken — possibly
    /// immediately (clock already past the target, or a piggybacked
    /// epoch already forced the cut).
    pub fn arm(&self, wave: u64, target: BTreeMap<u64, u64>) -> WaitGroup {
        let done = WaitGroup::new();
        if self.epoch.get() > wave {
            // A forced cut already covered this wave.
            return done;
        }
        if self.clock_meets(&target) {
            self.cut(wave);
            return done;
        }
        done.add(1);
        *self.armed.borrow_mut() = Some(Armed {
            wave,
            target,
            done: done.clone(),
        });
        done
    }

    /// Stop recording channel state and return the bytes captured.
    pub fn end_wave(&self) -> u64 {
        self.recording.set(false);
        self.state_bytes.replace(0)
    }
}

impl MpiHook for CvcState {
    fn on_send(&self, env: &mut Envelope) -> SimDuration {
        self.observe_tag(env.tag);
        self.maybe_cut();
        env.piggyback_epoch = Some(self.epoch.get());
        SimDuration::ZERO
    }

    fn on_arrival(&self, env: &Envelope) {
        // Sent before the cut, arrived after it: Chandy–Lamport channel
        // state, persisted alongside the image.
        if self.recording.get() && env.piggyback_epoch.is_some_and(|e| e < self.epoch.get()) {
            self.state_bytes.set(self.state_bytes.get() + env.bytes);
        }
    }

    fn on_recv(&self, env: &Envelope) {
        self.observe_tag(env.tag);
        if let Some(stamp) = env.piggyback_epoch {
            self.observe_epoch(stamp);
        }
        self.maybe_cut();
        // After forcing, a consumed message can never be ahead of our
        // epoch; if it is, the cut protocol is broken — count it.
        if env.piggyback_epoch.is_some_and(|e| e > self.epoch.get()) {
            self.orphans.set(self.orphans.get() + 1);
        }
    }
}

/// Flatten a clock vector for the wire: `[comm, value, comm, value, …]`.
fn flatten(clock: &BTreeMap<u64, u64>) -> Vec<u64> {
    clock.iter().flat_map(|(&c, &v)| [c, v]).collect()
}

/// Max-merge a flattened peer clock into `target`.
fn merge_max(target: &mut BTreeMap<u64, u64>, flat: &[u64]) {
    for pair in flat.chunks_exact(2) {
        if let [comm, val] = pair {
            let c = target.entry(*comm).or_insert(0);
            if *c < *val {
                *c = *val;
            }
        }
    }
}

/// Execute one CVC wave at one rank. The application is never frozen and
/// sends are never suspended: the wave agrees on a clock target, waits
/// for the rank's own cut, and runs the image write and the group
/// two-phase commit concurrently with execution.
pub(crate) async fn cvc_wave(p: &RankProto, wave: u64) {
    let ctx = &p.ctx;
    let world = ctx.world().clone();
    let sim = world.sim().clone();
    let rank = ctx.rank();
    let storage = world.cluster().storage().clone();
    let started = ctx.now();

    if p.cfg.stragglers {
        let d = world.cluster().sample_straggler(&mut p.rng.borrow_mut());
        sim.sleep(d).await;
    }

    // Step 1: butterfly max-merge of the clock vectors. CVC checkpoints
    // globally (asserted at install), so the member set is exactly
    // 0..n and neighbor ranks are pure arithmetic. A peer whose payload
    // is missing only loosens the local target — the epoch piggyback
    // keeps the cut consistent under any target divergence.
    let n = world.n();
    let me = rank.0 as usize;
    let mut target = p.cvc.clock_snapshot();
    let mut k = 1usize;
    while k < n {
        let dst = Rank(((me + k) % n) as u32);
        let src = Rank(((me + n - k) % n) as u32);
        let flat = flatten(&target);
        let bytes = CTRL_BYTES + 8 * flat.len() as u64;
        let (_, env) = join2(
            ctx.ctrl_send(dst, tags::CVC_CLOCK + wave, bytes, Some(Rc::new(flat))),
            ctx.ctrl_recv(src, tags::CVC_CLOCK + wave),
        )
        .await;
        if let Some(theirs) = env.payload_as::<Vec<u64>>() {
            merge_max(&mut target, theirs);
        }
        k <<= 1;
    }

    // Step 2: cut when our own clock reaches the target (or a
    // piggybacked epoch forces it first). Execution continues at full
    // speed while we wait.
    p.cvc.arm(wave, target).wait().await;

    // Step 3: image write + group 2PC, concurrent with execution.
    let gid = p.groups.group_of(rank.0);
    let members = p.groups.members(gid).to_vec();
    let store = world.cluster().ckpt_store().clone();
    let backend = world.cluster().backend();
    store.begin(gid, wave);
    let image_bytes = p.cfg.image_bytes.get(rank.idx()).copied().unwrap_or(0);
    let trap = p.crash_trap(gid);
    let coord = members.first().copied();
    let is_coord = coord == Some(rank.0);
    let mut member_ok = match trap
        .as_ref()
        .filter(|t| is_coord && !t.fired.get() && t.phase < 2)
    {
        Some(t) if t.phase == 0 => {
            // Crash before the image write: nothing reaches storage.
            t.fired.set(true);
            false
        }
        Some(t) => {
            // Crash halfway through the write: half the service time is
            // spent and the image never completes. Whether the torn
            // half-write itself errors changes nothing — the member
            // failed mid-image either way.
            t.fired.set(true);
            match storage
                .write(rank.idx(), image_bytes / 2, p.cfg.storage)
                .await
            {
                Ok(_) | Err(_) => false,
            }
        }
        None => {
            let op = ImageOp {
                node: rank.idx(),
                group: gid,
                gen: Some(wave),
                rank: rank.0,
                bytes: image_bytes,
                target: p.cfg.storage,
            };
            backend.write_image(op).await.is_ok()
        }
    };
    let t_img = ctx.now();

    // Every member has cut and attempted its image once the pre-record
    // barrier completes; close the channel-state window and persist it.
    if ctrl_barrier(ctx, &members, tags::BARRIER1 + wave)
        .await
        .is_err()
    {
        member_ok = false;
    }
    let state_bytes = p.cvc.end_wave();
    if state_bytes > 0
        && storage
            .write_with_retry(rank.idx(), state_bytes, p.cfg.storage)
            .await
            .is_err()
    {
        member_ok = false;
    }
    if member_ok {
        store.record_image(gid, wave, rank.0, image_bytes);
    } else {
        store.record_failure(gid, wave, rank.0);
    }

    // Post-record barrier: the coordinator must see every member's
    // outcome in the catalog before deciding.
    let post = ctrl_barrier(ctx, &members, tags::BARRIER2 + wave).await;
    let committed = match coord {
        Some(c) if c == rank.0 => {
            let decision = if post.is_err() {
                store.abort(gid, wave);
                false
            } else if trap
                .as_ref()
                .is_some_and(|t| t.phase == 2 && !t.fired.get())
            {
                // Crash between the last write ack and the commit
                // record: images are on disk, the generation never
                // commits.
                if let Some(t) = trap.as_ref() {
                    t.fired.set(true);
                }
                store.abort(gid, wave);
                false
            } else {
                store.commit(gid, wave, &members)
            };
            if decision {
                backend.on_commit(gid, wave);
            } else {
                backend.on_abort(gid, wave);
            }
            let futs: Vec<_> = members
                .iter()
                .filter(|&&m| m != rank.0)
                .map(|&m| {
                    ctx.ctrl_send(
                        Rank(m),
                        tags::COMMIT + wave,
                        CTRL_BYTES,
                        Some(Rc::new(decision as u64)),
                    )
                })
                .collect();
            gcr_sim::future::join_all(futs).await;
            decision
        }
        Some(c) => {
            let env = ctx.ctrl_recv(Rank(c), tags::COMMIT + wave).await;
            post.is_ok() && env.payload_as::<u64>().map(|v| *v != 0).unwrap_or(false)
        }
        None => false,
    };
    let finished = ctx.now();

    p.metrics.push_ckpt(CkptRecord {
        wave,
        rank: rank.0,
        started,
        finished,
        phases: PhaseBreakdown {
            lock: SimDuration::ZERO,
            checkpoint: t_img.saturating_since(started),
            coordination: finished.saturating_since(t_img),
            finalize: SimDuration::ZERO,
        },
        log_flushed_bytes: state_bytes,
        image_bytes,
        committed,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_mpi::{MsgId, MsgKind};
    use gcr_sim::SimTime;

    fn coll_env(src: u32, dst: u32, comm: u64, op: u64, epoch: Option<u64>) -> Envelope {
        Envelope {
            src: Rank(src),
            dst: Rank(dst),
            tag: Tag::coll((comm << 16) | op),
            bytes: 1024,
            id: MsgId {
                src: Rank(src),
                seq: op,
            },
            kind: MsgKind::App,
            piggyback_rr: None,
            piggyback_epoch: epoch,
            piggyback_ack: None,
            payload: None,
            sent_at: SimTime::ZERO,
            arrived_at: SimTime::ZERO,
        }
    }

    #[test]
    fn clock_advances_per_communicator() {
        let cvc = CvcState::new();
        let mut e = coll_env(0, 1, 3, 7, None);
        cvc.on_send(&mut e);
        cvc.on_recv(&coll_env(1, 0, 3, 9, None));
        cvc.on_recv(&coll_env(1, 0, 5, 0, None));
        let snap = cvc.clock_snapshot();
        assert_eq!(snap.get(&3), Some(&10));
        assert_eq!(snap.get(&5), Some(&1));
        // App-tagged traffic does not advance the clock.
        let mut app = coll_env(0, 1, 0, 0, None);
        app.tag = Tag::app(9);
        cvc.on_send(&mut app);
        assert_eq!(cvc.clock_snapshot().len(), 2);
    }

    #[test]
    fn armed_cut_fires_when_the_clock_reaches_the_target() {
        let cvc = CvcState::new();
        cvc.on_recv(&coll_env(1, 0, 1, 0, None)); // clock[1] = 1
        let target = BTreeMap::from([(1u64, 3u64)]);
        let wg = cvc.arm(0, target);
        assert_eq!(cvc.epoch(), 0);
        cvc.on_recv(&coll_env(1, 0, 1, 2, None)); // clock[1] = 3: cut
        assert_eq!(cvc.epoch(), 1);
        drop(wg);
    }

    #[test]
    fn piggybacked_epoch_forces_the_cut_before_consumption() {
        let cvc = CvcState::new();
        let target = BTreeMap::from([(1u64, 100u64)]); // unreachable
        let _wg = cvc.arm(0, target);
        // A peer that already cut sends with epoch 1: we must cut first.
        cvc.on_recv(&coll_env(1, 0, 1, 0, Some(1)));
        assert_eq!(cvc.epoch(), 1);
        assert_eq!(cvc.orphans(), 0);
    }

    #[test]
    fn arming_a_covered_wave_completes_immediately() {
        let cvc = CvcState::new();
        cvc.on_recv(&coll_env(1, 0, 1, 0, Some(2))); // forced to epoch 2
        let wg = cvc.arm(1, BTreeMap::from([(1u64, 50u64)]));
        // No pending count: wait() would return immediately.
        drop(wg);
        assert_eq!(cvc.epoch(), 2);
    }

    #[test]
    fn channel_state_counts_only_pre_cut_arrivals() {
        let cvc = CvcState::new();
        cvc.arm(0, BTreeMap::new()); // empty target: cut immediately
        assert_eq!(cvc.epoch(), 1);
        cvc.on_arrival(&coll_env(1, 0, 1, 0, Some(0))); // pre-cut: state
        cvc.on_arrival(&coll_env(1, 0, 1, 1, Some(1))); // post-cut: not
        assert_eq!(cvc.end_wave(), 1024);
        // After end_wave the recorder is off.
        cvc.on_arrival(&coll_env(1, 0, 1, 2, Some(0)));
        assert_eq!(cvc.end_wave(), 0);
    }
}
