//! Blocking coordinated checkpointing, scoped to a group (LAM/MPI-style).
//!
//! With one global group this is the paper's `NORM`; with trace-formed
//! groups it is `GP` (Algorithm 1); with singleton groups, `GP1`. The wave
//! at each rank runs the four phases of the paper's Figure 9:
//!
//! 1. **Lock MPI** — freeze the application (no new sends/receives/compute).
//! 2. **Coordination** — synchronize (flush) message logs, record the
//!    `RR`/`S` snapshots for out-of-group peers, run the bookmark drain so
//!    no intra-group bytes remain in flight, and barrier with the group.
//! 3. **Checkpoint** — open the generation and write the image under it
//!    (phase 1 of the group two-phase commit, shared with CVC in
//!    [`crate::ctrlplane`]).
//! 4. **Finalize** — barrier again and resolve the generation (phase 2 of
//!    the two-phase commit), then resume execution regardless of other
//!    groups' progress.

use gcr_sim::SimDuration;

use crate::ctrlplane::{
    bookmark_drain, ctrl_barrier, prepare_generation, resolve_generation, tags,
};
use crate::metrics::{CkptRecord, PhaseBreakdown};
use crate::runtime::RankProto;

/// Fixed cost of locking the MPI layer (signal + quiesce) on the paper's
/// LAM/MPI + BLCR stack.
const LOCK_OVERHEAD: SimDuration = SimDuration::from_millis(5);

/// Fixed cost of the finalize step after the barrier.
const FINALIZE_OVERHEAD: SimDuration = SimDuration::from_millis(5);

/// Execute one blocking coordinated checkpoint wave at one rank.
pub(crate) async fn blocking_wave(p: &RankProto, wave: u64) {
    let ctx = &p.ctx;
    let world = ctx.world();
    let sim = world.sim();
    let rank = ctx.rank();
    let started = ctx.now();

    // Phase 1: Lock MPI. The checkpoint signal is handled only when the
    // process is scheduled — the straggler delay happens *before* the
    // freeze, so a delayed rank keeps executing (and sending) while its
    // peers are already locked. This skew is what the coordination drain
    // pays for, and what creates inter-group replay volume.
    if p.cfg.stragglers {
        let d = world.cluster().sample_straggler(&mut p.rng.borrow_mut());
        sim.sleep(d).await;
    }
    world.freeze(rank);
    sim.sleep(LOCK_OVERHEAD).await;
    let t_lock = ctx.now();

    // Phase 2: Coordination.
    // Synchronize message logs (Algorithm 1). Logging streams to disk in
    // the background between checkpoints; here we only wait for the
    // un-synced tail to hit stable storage. The RR/S snapshot goes under
    // the *pending* generation: GC advertisement waits for the commit.
    let mut log_flushed_bytes = p.gp.on_checkpoint(wave);
    if let Some(rb) = p.rb() {
        // Receiver-based logging: the receiver-side log's un-synced
        // tail must also hit the local disk before the image counts.
        log_flushed_bytes += rb.take_recv_flush();
    }
    if log_flushed_bytes > 0 {
        world.cluster().storage().drain_local(rank.idx()).await;
    }
    let gid = p.groups.group_of(rank.0);
    let members = p.groups.members(gid);
    // Checkpoint-side callers may expect(): member sets come straight from
    // the validated group definition, and blocking.rs is outside the
    // D03 recovery-critical set.
    bookmark_drain(ctx, members, wave)
        .await
        // gcr-lint: allow(D03-T) bookmark payloads are built by our own protocol code — a malformed one is a simulator bug, not an injectable fault
        .expect("bookmark payloads carry byte counters");
    ctrl_barrier(ctx, members, tags::BARRIER1 + wave)
        .await
        // gcr-lint: allow(D03-T) membership comes from the validated group definition, fixed before any fault fires
        .expect("barrier membership comes from the validated group definition");
    let t_coord = ctx.now();

    // Phase 3: write the checkpoint image as a *pending* generation of
    // the durable store. The rank always goes on to phase 4's barrier even
    // when its write fails — a member that bailed out early would hang
    // the rest of the group; the failure is carried in the catalog and
    // decided at commit time.
    let image_bytes = p.cfg.image_bytes.get(rank.idx()).copied().unwrap_or(0);
    let trap = p.crash_trap(gid);
    let acked = prepare_generation(p, gid, wave, image_bytes, trap.as_deref()).await;
    let store = world.cluster().ckpt_store();
    if acked {
        store.record_image(gid, wave, rank.0, image_bytes);
    } else {
        store.record_failure(gid, wave, rank.0);
    }
    let t_img = ctx.now();

    // Phase 4: finalize and resume, independent of other groups. The
    // coordinator decides commit vs. abort once every member's write
    // outcome is in the catalog.
    let committed = resolve_generation(p, gid, wave, trap.as_deref()).await;
    if committed {
        p.gp.on_commit(wave);
        if let Some(rb) = p.rb() {
            // Receiver-log entries below the committed (retention-
            // lagged) floor can never replay again — drop them.
            rb.on_commit();
        }
    } else {
        p.gp.on_abort(wave);
    }
    sim.sleep(FINALIZE_OVERHEAD).await;
    world.thaw(rank);
    let finished = ctx.now();

    p.metrics.push_ckpt(CkptRecord {
        wave,
        rank: rank.0,
        started,
        finished,
        phases: PhaseBreakdown {
            lock: t_lock.saturating_since(started),
            coordination: t_coord.saturating_since(t_lock),
            checkpoint: t_img.saturating_since(t_coord),
            finalize: finished.saturating_since(t_img),
        },
        log_flushed_bytes,
        image_bytes,
        committed,
    });
}
