//! Protocol hooks installed on the MPI runtime.
//!
//! [`GpState`] is the per-rank data plane of the paper's Algorithm 1: it
//! logs inter-group sends, maintains the `R`/`S`/`RR` volume counters,
//! piggybacks `RR` on the first message to each out-of-group peer after a
//! checkpoint, and garbage-collects the log when a piggyback arrives.
//!
//! [`VclState`] records Chandy–Lamport channel state for the MPICH-VCL
//! model: bytes arriving from a peer between this rank's checkpoint and
//! that peer's marker belong to the channel state and must be persisted.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use gcr_group::GroupDef;
use gcr_mpi::{Envelope, MpiHook};
use gcr_net::Storage;
use gcr_sim::SimDuration;

use crate::msglog::{LogEntry, MsgLog};
use crate::runtime::GC_RETENTION_GENS;
use crate::volume::VolumeCounters;

/// Sender-side log copy bandwidth (bytes/s): the memcpy + bookkeeping cost
/// of asynchronous sender-based logging, charged per logged message.
const LOG_COPY_BPS: f64 = 250e6;

/// Fixed per-logged-message overhead.
const LOG_FIXED: SimDuration = SimDuration::from_micros(20);

/// One generation's volume snapshot: the `RR`/`SS` values a restart from
/// that generation's image would read back.
#[derive(Debug, Default, Clone)]
struct GenSnap {
    rr: std::collections::BTreeMap<u32, u64>,
    ss: std::collections::BTreeMap<u32, u64>,
}

/// Per-rank GP protocol state (Algorithm 1), generation-aware: volume
/// snapshots are taken per checkpoint **generation** and only become
/// restart-visible (and GC-advertisable) once the generation durably
/// commits in the [`gcr_net::CkptStore`].
pub struct GpState {
    rank: u32,
    groups: Rc<GroupDef>,
    log: RefCell<MsgLog>,
    vols: RefCell<VolumeCounters>,
    /// Snapshots of generations whose image writes are still in flight.
    pending: RefCell<std::collections::BTreeMap<u64, GenSnap>>,
    /// Snapshots of durably committed generations, oldest first.
    committed: RefCell<Vec<(u64, GenSnap)>>,
    /// Retention window `W`: GC advertises the floor of the oldest
    /// retained committed generation, so restart may fall back up to
    /// `W − 1` generations and still find its log intact.
    retention: Cell<usize>,
    piggyback_gc: bool,
    /// Fault-injection knob: GC `piggyback + overshoot` instead of the
    /// piggybacked `RR`. Nonzero deliberately breaks log retention.
    gc_overshoot: Cell<u64>,
}

impl GpState {
    /// Create state for one rank.
    pub fn new(rank: u32, groups: Rc<GroupDef>, piggyback_gc: bool) -> Rc<Self> {
        Rc::new(GpState {
            rank,
            groups,
            log: RefCell::new(MsgLog::new()),
            vols: RefCell::new(VolumeCounters::new()),
            pending: RefCell::new(Default::default()),
            committed: RefCell::new(Vec::new()),
            retention: Cell::new(GC_RETENTION_GENS),
            piggyback_gc,
            gc_overshoot: Cell::new(0),
        })
    }

    /// Set the GC-overshoot fault knob (see [`crate::CkptConfig::gc_overshoot`]).
    pub fn set_gc_overshoot(&self, bytes: u64) {
        self.gc_overshoot.set(bytes);
    }

    /// Set the generation-retention window `W` (the runtime's is the
    /// constant `GC_RETENTION_GENS`, 2). Clamped to ≥ 1.
    pub fn set_gc_retention(&self, gens: usize) {
        self.retention.set(gens.max(1));
    }

    /// Attach the background log writer: logged bytes are streamed to the
    /// node's local disk asynchronously; the checkpoint-time "synchronize
    /// message logs" step only drains the un-synced tail.
    pub fn attach_log_disk(&self, storage: Rc<Storage>, node: usize) {
        self.log.borrow_mut().attach_disk(storage, node);
    }

    /// The rank this state belongs to.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Checkpoint-time bookkeeping (Algorithm 1, "on receiving a group
    /// checkpoint request"): snapshot `RR_Q` and `S_Q` for each
    /// out-of-group process Q under the **pending** generation `gen`, and
    /// return the log bytes that must be flushed to stable storage.
    ///
    /// The snapshot does *not* arm piggybacks and does not move the
    /// restart-visible `RR`/`SS` — both happen only at
    /// [`GpState::on_commit`], once every member's image is durable.
    /// Trimming log against an uncommitted generation would make
    /// generation-fallback restart unreplayable.
    pub fn on_checkpoint(&self, gen: u64) -> u64 {
        // Traffic-sparse: only peers with recorded volume enter the
        // snapshot (absent reads as zero everywhere). Materializing the
        // full out-of-group set here would be O(world) per rank per wave
        // — quadratic across the job, and the reason a dense snapshot
        // cannot survive 100k ranks.
        let gid = self.groups.group_of(self.rank);
        let out = |q: u32| self.groups.group_of(q) != gid;
        let vols = self.vols.borrow();
        let snap = GenSnap {
            rr: vols.snapshot_received(out),
            ss: vols.snapshot_sent(out),
        };
        self.pending.borrow_mut().insert(gen, snap);
        self.log.borrow_mut().take_all_pending_flush()
    }

    /// The group coordinator committed generation `gen`: promote its
    /// snapshot to the committed ledger and advertise the GC floor of the
    /// oldest *retained* committed generation (lagged by the retention
    /// window, so peers never trim log a fallback restart still needs).
    pub fn on_commit(&self, gen: u64) {
        let snap = match self.pending.borrow_mut().remove(&gen) {
            Some(s) => s,
            None => return,
        };
        let mut committed = self.committed.borrow_mut();
        committed.push((gen, snap));
        let idx = committed.len().saturating_sub(self.retention.get());
        if let Some((_, floor)) = committed.get(idx) {
            self.vols.borrow_mut().advertise(&floor.rr);
        }
    }

    /// Generation `gen` aborted (a member's write failed, or the group
    /// crashed mid-checkpoint): drop its snapshot. `RR`/`SS` and the GC
    /// floor stay at the last committed generation.
    pub fn on_abort(&self, gen: u64) {
        self.pending.borrow_mut().remove(&gen);
    }

    /// Roll the ledger back for a restart from generation `gen` (`None`:
    /// initial state): drop pending snapshots and every committed
    /// generation newer than `gen`, and re-advertise the (lagged) GC floor
    /// of the surviving ledger. After this, [`GpState::rr`]/[`GpState::ss`]
    /// describe the generation the restart actually loads.
    pub fn rollback_to(&self, gen: Option<u64>) {
        self.pending.borrow_mut().clear();
        let mut committed = self.committed.borrow_mut();
        match gen {
            Some(g) => committed.retain(|&(id, _)| id <= g),
            None => committed.clear(),
        }
        // Floors move *backward* on rollback, so replace rather than
        // merge: peers absent from the surviving ledger's floor drop to
        // (implicit) zero.
        let idx = committed.len().saturating_sub(self.retention.get());
        match committed.get(idx) {
            Some((_, floor)) => self.vols.borrow_mut().reset_floors(&floor.rr),
            None => self
                .vols
                .borrow_mut()
                .reset_floors(&std::collections::BTreeMap::new()),
        }
    }

    /// `RR_Q` — received-from-Q volume at the newest **committed**
    /// generation (what a restart from that generation reads back).
    pub fn rr(&self, q: u32) -> u64 {
        self.committed
            .borrow()
            .last()
            .and_then(|(_, s)| s.rr.get(&q).copied())
            .unwrap_or(0)
    }

    /// `S_Q` at the newest **committed** generation.
    pub fn ss(&self, q: u32) -> u64 {
        self.committed
            .borrow()
            .last()
            .and_then(|(_, s)| s.ss.get(&q).copied())
            .unwrap_or(0)
    }

    /// The GC floor this rank currently advertises toward `q` (lagged by
    /// the retention window; piggybacked on the first post-commit send).
    pub fn gc_floor(&self, q: u32) -> u64 {
        self.vols.borrow().recorded_received(q)
    }

    /// Messages to replay to peer `q` on a restart where `q` had received
    /// `q_received` bytes at its checkpoint; bounded by this rank's own
    /// checkpointed `S`.
    pub fn replay_entries(&self, q: u32, q_received: u64) -> Vec<LogEntry> {
        self.log.borrow().replay_range(q, q_received, self.ss(q))
    }

    /// Replay entries for a *live* sender serving a rolled-back peer: all
    /// retained entries overlapping `[peer_rr, to)` where `to` is the
    /// sender's current `S` (no snapshot — the live rank never rolled
    /// back).
    pub fn replay_entries_live(&self, q: u32, peer_rr: u64, to: u64) -> Vec<LogEntry> {
        self.log.borrow().replay_range(q, peer_rr, to)
    }

    /// Bytes currently retained in the message log.
    pub fn retained_log_bytes(&self) -> u64 {
        self.log.borrow().retained_bytes()
    }

    /// Total bytes ever logged.
    pub fn total_logged_bytes(&self) -> u64 {
        self.log.borrow().appended_bytes()
    }

    /// Total bytes garbage-collected via piggybacks and acknowledgements.
    pub fn total_gc_bytes(&self) -> u64 {
        self.log.borrow().gc_bytes()
    }

    /// Receiver-acknowledgement GC (receiver-based logging): the peer has
    /// durably logged `acked` bytes of my stream on its *own* node, so my
    /// copy of that prefix is redundant — only the unacked tail must stay
    /// for in-transit replay. Unlike the piggybacked-`RR` path this trims
    /// independently of the committed-generation floor: the receiver's
    /// log, not my checkpoint ledger, is the durable copy now.
    pub fn ack_gc(&self, peer: u32, acked: u64) -> u64 {
        self.log.borrow_mut().gc(peer, acked)
    }

    /// Current `S` toward `q` (diagnostics / invariants).
    pub fn sent_to(&self, q: u32) -> u64 {
        self.vols.borrow().sent_to(q)
    }

    /// Current `R` from `q` (diagnostics / invariants).
    pub fn received_from(&self, q: u32) -> u64 {
        self.vols.borrow().received_from(q)
    }

    /// The out-of-group peers this rank actually exchanged data with — the
    /// only peers a restart needs to exchange volumes with. The set is
    /// symmetric: `q` lists me iff I list `q`.
    pub fn comm_peers(&self) -> Vec<u32> {
        // Walk the sparse traffic partners (ascending) instead of the
        // whole out-of-group set — at 100k ranks the latter is the job.
        let gid = self.groups.group_of(self.rank);
        self.vols
            .borrow()
            .active_partners()
            .into_iter()
            .filter(|&q| self.groups.group_of(q) != gid)
            .collect()
    }
}

impl MpiHook for GpState {
    fn on_send(&self, env: &mut Envelope) -> SimDuration {
        let dst = env.dst.0;
        let mut vols = self.vols.borrow_mut();
        let mut cost = SimDuration::ZERO;
        if !self.groups.is_intra(self.rank, dst) {
            // Asynchronous sender-based logging of the inter-group message:
            // the log streams it to disk in the background, and the copy
            // into the log buffer delays the sender.
            self.log.borrow_mut().append(dst, env.bytes, env.id.seq);
            cost = LOG_FIXED + SimDuration::from_secs_f64(env.bytes as f64 / LOG_COPY_BPS);
            // First message to dst since my last checkpoint: piggyback RR.
            if let Some(rr) = vols.piggyback_for(dst) {
                env.piggyback_rr = Some(rr);
            }
        }
        vols.on_send(dst, env.bytes);
        cost
    }

    fn on_recv(&self, env: &Envelope) {
        let src = env.src.0;
        self.vols.borrow_mut().on_recv(src, env.bytes);
        if let Some(v) = env.piggyback_rr {
            if self.piggyback_gc {
                self.log.borrow_mut().gc(src, v + self.gc_overshoot.get());
            }
        }
    }
}

/// Per-rank Chandy–Lamport channel-state recorder (VCL model).
pub struct VclState {
    rank: u32,
    n: usize,
    /// recording\[p\] = true while messages from p belong to channel state.
    /// Allocated lazily on the first wave: a rank that never starts one —
    /// every rank in non-VCL modes, most ranks between waves — costs O(1)
    /// instead of O(n), which matters in a 100k-rank world where the
    /// per-rank state is built n times.
    recording: RefCell<Vec<bool>>,
    /// Channel-state bytes accumulated in the current wave.
    state_bytes: Cell<u64>,
}

impl VclState {
    /// Create state for one rank in an `n`-rank world.
    pub fn new(rank: u32, n: usize) -> Rc<Self> {
        Rc::new(VclState {
            rank,
            n,
            recording: RefCell::new(Vec::new()),
            state_bytes: Cell::new(0),
        })
    }

    /// The rank this state belongs to.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Start a wave: record every incoming channel until its marker shows
    /// up.
    pub fn start_wave(&self) {
        let mut rec = self.recording.borrow_mut();
        rec.clear();
        rec.resize(self.n, true);
        if let Some(own) = rec.get_mut(self.rank as usize) {
            *own = false;
        }
        self.state_bytes.set(0);
    }

    /// A marker from `p` arrived: channel `p → me` state is complete.
    pub fn marker_from(&self, p: u32) {
        if let Some(rec) = self.recording.borrow_mut().get_mut(p as usize) {
            *rec = false;
        }
    }

    /// Bytes of channel state accumulated this wave.
    pub fn take_state_bytes(&self) -> u64 {
        self.state_bytes.replace(0)
    }
}

impl MpiHook for VclState {
    fn on_arrival(&self, env: &Envelope) {
        // Before the first wave the lazily-allocated vector is empty:
        // nothing is being recorded.
        let recording = self
            .recording
            .borrow()
            .get(env.src.idx())
            .copied()
            .unwrap_or(false);
        if recording {
            self.state_bytes.set(self.state_bytes.get() + env.bytes);
        }
    }
}

/// Per-rank receiver-based logging state (Dichev & Nikolopoulos):
/// wraps [`GpState`] (volume counters, sender-side tail, `RR`
/// piggybacks all still apply) and adds the receiver-side log plus its
/// acknowledgement piggyback.
///
/// Every inter-group **receive** is appended to a local [`MsgLog`] and
/// streamed to the node's own disk in the background — the receiver, not
/// the sender, owns the durable replay copy. Application sends piggyback
/// the receiver's logged high-water mark for the destination's stream
/// back to it; the destination then [`GpState::ack_gc`]s its sender-side
/// log down to that offset. What remains on the sender is exactly the
/// unacked tail — the bytes that may be in flight (neither consumed nor
/// logged by the receiver) when a crash hits, which is the one range the
/// local receiver log cannot replay.
pub struct RbState {
    gp: Rc<GpState>,
    groups: Rc<GroupDef>,
    /// The receiver plane's log, addressed like the sender's.
    recv: RefCell<MsgLog>,
}

impl RbState {
    /// Wrap a rank's [`GpState`] with receiver-based logging.
    pub fn new(gp: Rc<GpState>, groups: Rc<GroupDef>) -> Rc<Self> {
        Rc::new(RbState {
            gp,
            groups,
            recv: RefCell::new(MsgLog::new()),
        })
    }

    /// The wrapped sender-side state.
    pub fn gp(&self) -> &Rc<GpState> {
        &self.gp
    }

    /// The rank this state belongs to.
    pub fn rank(&self) -> u32 {
        self.gp.rank()
    }

    /// Attach the background receiver-log writer (this node's local
    /// disk). The log survives a crash of the rank: restart replays it.
    pub fn attach_recv_disk(&self, storage: Rc<Storage>, node: usize) {
        self.recv.borrow_mut().attach_disk(storage, node);
    }

    /// High-water mark of peer `q`'s logged stream — everything below it
    /// replays locally after a restart, and it is the acknowledgement
    /// value piggybacked back to `q`.
    pub fn logged_end(&self, q: u32) -> u64 {
        self.recv.borrow().logged_end(q)
    }

    /// Locally-logged entries of `q`'s stream overlapping
    /// `[from_offset, logged_end)` — the restart's local replay.
    pub fn replay_local(&self, q: u32, from_offset: u64) -> Vec<LogEntry> {
        self.recv.borrow().replay_range(q, from_offset, u64::MAX)
    }

    /// Checkpoint-time "synchronize message logs" for the receiver side:
    /// the un-synced receiver-log bytes that must reach the local disk
    /// before the image is declared durable.
    pub fn take_recv_flush(&self) -> u64 {
        self.recv.borrow_mut().take_all_pending_flush()
    }

    /// A generation durably committed: entries of each peer stream below
    /// the (retention-lagged) committed floor can never be replayed again
    /// — drop them. The high-water marks are unaffected.
    pub fn on_commit(&self) {
        let mut recv = self.recv.borrow_mut();
        let peers: Vec<u32> = recv.iter().map(|(p, _)| p).collect();
        for p in peers {
            recv.gc(p, self.gp.gc_floor(p));
        }
    }

    /// Total bytes ever receiver-logged.
    pub fn total_recv_logged_bytes(&self) -> u64 {
        self.recv.borrow().appended_bytes()
    }
}

impl MpiHook for RbState {
    fn on_send(&self, env: &mut Envelope) -> SimDuration {
        // Sender-side logging, counters and RR piggybacks run unchanged;
        // the ack piggyback rides on the same inter-group messages.
        let cost = self.gp.on_send(env);
        let dst = env.dst.0;
        if !self.groups.is_intra(self.rank(), dst) {
            env.piggyback_ack = Some(self.recv.borrow().logged_end(dst));
        }
        cost
    }

    fn on_recv(&self, env: &Envelope) {
        self.gp.on_recv(env);
        let src = env.src.0;
        if !self.groups.is_intra(self.rank(), src) {
            // The receiver owns the durable copy: log the message
            // locally (asynchronously — drained at checkpoint time).
            self.recv.borrow_mut().append(src, env.bytes, env.id.seq);
        }
        if let Some(acked) = env.piggyback_ack {
            // The peer has durably logged this much of my stream: my
            // sender-side copy of that prefix is redundant.
            self.gp.ack_gc(src, acked);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_mpi::{MsgId, MsgKind, Rank, Tag};
    use gcr_sim::SimTime;

    fn env(src: u32, dst: u32, bytes: u64, seq: u64) -> Envelope {
        Envelope {
            src: Rank(src),
            dst: Rank(dst),
            tag: Tag::app(0),
            bytes,
            id: MsgId {
                src: Rank(src),
                seq,
            },
            kind: MsgKind::App,
            piggyback_rr: None,
            piggyback_epoch: None,
            piggyback_ack: None,
            payload: None,
            sent_at: SimTime::ZERO,
            arrived_at: SimTime::ZERO,
        }
    }

    fn groups_2x2() -> Rc<GroupDef> {
        Rc::new(GroupDef::new(4, vec![vec![0, 1], vec![2, 3]]).unwrap())
    }

    fn gp_test(rank: u32, gc: bool) -> Rc<GpState> {
        GpState::new(rank, groups_2x2(), gc)
    }

    #[test]
    fn intra_group_sends_are_not_logged() {
        let gp = gp_test(0, true);
        let mut e = env(0, 1, 100, 0);
        gp.on_send(&mut e);
        assert_eq!(gp.retained_log_bytes(), 0);
        assert_eq!(gp.sent_to(1), 100);
        assert!(e.piggyback_rr.is_none());
    }

    #[test]
    fn inter_group_sends_are_logged_with_piggyback_after_commit() {
        let gp = gp_test(0, true);
        // Receive some data from 2, checkpoint, then send to 2.
        gp.on_recv(&env(2, 0, 500, 0));
        let flush = gp.on_checkpoint(0);
        // Nothing logged yet, and the generation is only pending: no
        // piggyback either — advertising before the commit would let the
        // peer trim log a fallback restart still needs.
        assert_eq!(flush, 0);
        let mut e0 = env(0, 2, 25, 0);
        gp.on_send(&mut e0);
        assert_eq!(e0.piggyback_rr, None);
        gp.on_commit(0);
        let mut e = env(0, 2, 100, 1);
        gp.on_send(&mut e);
        assert_eq!(e.piggyback_rr, Some(500));
        assert_eq!(gp.retained_log_bytes(), 125);
        // Second send has no piggyback.
        let mut e2 = env(0, 2, 50, 2);
        gp.on_send(&mut e2);
        assert_eq!(e2.piggyback_rr, None);
    }

    #[test]
    fn aborted_generation_leaves_rr_and_floor_untouched() {
        let gp = gp_test(0, true);
        gp.on_recv(&env(2, 0, 500, 0));
        gp.on_checkpoint(0);
        gp.on_commit(0);
        assert_eq!(gp.rr(2), 500);
        gp.on_recv(&env(2, 0, 300, 1));
        gp.on_checkpoint(1);
        gp.on_abort(1);
        // Restart-visible RR stays at the committed generation, and the
        // dropped snapshot can no longer commit.
        assert_eq!(gp.rr(2), 500);
        gp.on_commit(1);
        assert_eq!(gp.rr(2), 500);
    }

    #[test]
    fn gc_floor_lags_by_the_retention_window() {
        let gp = gp_test(0, true);
        gp.set_gc_retention(2);
        for (gen, bytes) in [(0u64, 100u64), (1, 200), (2, 300)] {
            gp.on_recv(&env(2, 0, bytes, gen));
            gp.on_checkpoint(gen);
            gp.on_commit(gen);
        }
        // RR tracks the newest committed generation (R = 100+200+300)…
        assert_eq!(gp.rr(2), 600);
        // …but the advertised GC floor is the oldest retained one
        // (generation 1, R = 300), so a one-generation fallback replays.
        assert_eq!(gp.gc_floor(2), 300);
        // Rollback to generation 1, then 0: RR returns to each snapshot.
        gp.rollback_to(Some(1));
        assert_eq!(gp.rr(2), 300);
        gp.rollback_to(Some(0));
        assert_eq!(gp.rr(2), 100);
        gp.rollback_to(None);
        assert_eq!(gp.rr(2), 0);
    }

    #[test]
    fn piggyback_triggers_gc_at_receiver() {
        let gp = gp_test(2, true);
        // Rank 2 logged 300 bytes to rank 0.
        for (i, b) in [100u64, 100, 100].iter().enumerate() {
            let mut e = env(2, 0, *b, i as u64);
            gp.on_send(&mut e);
        }
        assert_eq!(gp.retained_log_bytes(), 300);
        // Piggyback arrives: rank 0 checkpointed having received 200.
        let mut e = env(0, 2, 10, 0);
        e.piggyback_rr = Some(200);
        gp.on_recv(&e);
        assert_eq!(gp.retained_log_bytes(), 100);
        assert_eq!(gp.total_gc_bytes(), 200);
    }

    #[test]
    fn gc_can_be_disabled() {
        let gp = gp_test(2, false);
        let mut e = env(2, 0, 100, 0);
        gp.on_send(&mut e);
        let mut p = env(0, 2, 10, 0);
        p.piggyback_rr = Some(100);
        gp.on_recv(&p);
        assert_eq!(gp.retained_log_bytes(), 100);
    }

    #[test]
    fn checkpoint_snapshots_ss_and_flush_bytes() {
        let gp = gp_test(0, true);
        let mut e = env(0, 3, 700, 0);
        gp.on_send(&mut e);
        let flush = gp.on_checkpoint(0);
        gp.on_commit(0);
        assert_eq!(flush, 700);
        assert_eq!(gp.ss(3), 700);
        // Post-checkpoint sends do not move the snapshot.
        let mut e2 = env(0, 3, 50, 1);
        gp.on_send(&mut e2);
        assert_eq!(gp.ss(3), 700);
        assert_eq!(gp.sent_to(3), 750);
        // Replay for a peer that had received 300 at its ckpt: the single
        // 700-byte entry.
        let entries = gp.replay_entries(3, 300);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].bytes, 700);
        // Peer that had everything: nothing to replay.
        assert!(gp.replay_entries(3, 700).is_empty());
    }

    #[test]
    fn vcl_records_only_during_marker_window() {
        let vcl = VclState::new(0, 3);
        vcl.on_arrival(&env(1, 0, 100, 0)); // before wave: not recorded
        vcl.start_wave();
        vcl.on_arrival(&env(1, 0, 200, 1));
        vcl.on_arrival(&env(2, 0, 300, 0));
        vcl.marker_from(1);
        vcl.on_arrival(&env(1, 0, 400, 2)); // after 1's marker
        vcl.on_arrival(&env(2, 0, 500, 1)); // 2 still recording
        assert_eq!(vcl.take_state_bytes(), 200 + 300 + 500);
        assert_eq!(vcl.take_state_bytes(), 0);
    }
}
