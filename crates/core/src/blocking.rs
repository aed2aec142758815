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
//! 3. **Checkpoint** — write the image through the storage model.
//! 4. **Finalize** — barrier again, then resume execution regardless of
//!    other groups' progress.

use std::rc::Rc;

use gcr_mpi::Rank;
use gcr_net::ImageOp;
use gcr_sim::future::join_all;
use gcr_sim::SimDuration;

use crate::ctrlplane::{bookmark_drain, ctrl_barrier, tags, CTRL_BYTES};
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
    let world = ctx.world().clone();
    let sim = world.sim().clone();
    let rank = ctx.rank();
    let storage = world.cluster().storage().clone();
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
    if let Some(rb) = &p.rb {
        // Receiver-based logging: the receiver-side log's un-synced
        // tail must also hit the local disk before the image counts.
        log_flushed_bytes += rb.take_recv_flush();
    }
    if log_flushed_bytes > 0 {
        storage.drain_local(rank.idx()).await;
    }
    let members = p.groups.members(p.groups.group_of(rank.0)).to_vec();
    // Checkpoint-side callers may expect(): member sets come straight from
    // the validated group definition, and blocking.rs is outside the
    // D03 recovery-critical set.
    bookmark_drain(ctx, &members, wave)
        .await
        // gcr-lint: allow(D03-T) bookmark payloads are built by our own protocol code — a malformed one is a simulator bug, not an injectable fault
        .expect("bookmark payloads carry byte counters");
    ctrl_barrier(ctx, &members, tags::BARRIER1 + wave)
        .await
        // gcr-lint: allow(D03-T) membership comes from the validated group definition, fixed before any fault fires
        .expect("barrier membership comes from the validated group definition");
    let t_coord = ctx.now();

    // Phase 3: write the checkpoint image as a *pending* generation of
    // the durable store. The rank always reaches the barriers below even
    // when its write fails — a member that bailed out early would hang
    // the rest of the group; the failure is carried in the catalog and
    // decided at commit time.
    let gid = p.groups.group_of(rank.0);
    let store = world.cluster().ckpt_store().clone();
    let backend = world.cluster().backend();
    store.begin(gid, wave);
    // gcr-lint: allow(D03-T) image_bytes is sized to the world when the config is built; the restart side re-reads it with get()+MissingImage
    let image_bytes = p.cfg.image_bytes[rank.idx()];
    let trap = p.crash_trap(gid);
    let is_coord = members.first() == Some(&rank.0);
    match trap
        .as_ref()
        .filter(|t| is_coord && !t.fired.get() && t.phase < 2)
    {
        Some(t) if t.phase == 0 => {
            // Crash before the image write: nothing reaches the store.
            t.fired.set(true);
            store.record_failure(gid, wave, rank.0);
        }
        Some(t) => {
            // Crash halfway through the write: half the service time was
            // spent, but the image never completes.
            t.fired.set(true);
            // gcr-lint: allow(E01) deliberate torn write — the injected crash abandons this I/O mid-flight, so its outcome must never reach the protocol
            let _ = storage
                .write(rank.idx(), image_bytes / 2, p.cfg.storage)
                .await;
            store.record_failure(gid, wave, rank.0);
        }
        None => {
            // The image goes through the cluster's checkpoint backend:
            // the disk path writes it to the configured target, the
            // restore path additionally pushes staged replica copies to
            // peer memory during this post-write phase.
            let op = ImageOp {
                node: rank.idx(),
                group: gid,
                gen: Some(wave),
                rank: rank.0,
                bytes: image_bytes,
                target: p.cfg.storage,
            };
            match backend.write_image(op).await {
                Ok(_) => store.record_image(gid, wave, rank.0, image_bytes),
                Err(_) => store.record_failure(gid, wave, rank.0),
            }
        }
    }
    let t_img = ctx.now();

    // Phase 4: finalize and resume, independent of other groups. After the
    // post-image barrier every member's write outcome is in the catalog;
    // the group coordinator decides commit vs. abort and broadcasts it.
    ctrl_barrier(ctx, &members, tags::BARRIER2 + wave)
        .await
        // gcr-lint: allow(D03-T) membership comes from the validated group definition, fixed before any fault fires
        .expect("barrier membership comes from the validated group definition");
    let committed = if is_coord {
        let decision = if trap
            .as_ref()
            .is_some_and(|t| t.phase == 2 && !t.fired.get())
        {
            // Crash between the last write ack and the commit record: the
            // images are all on disk, but the generation never commits.
            if let Some(t) = trap.as_ref() {
                t.fired.set(true);
            }
            store.abort(gid, wave);
            false
        } else {
            store.commit(gid, wave, &members)
        };
        // The backend rides the commit broadcast: a commit flips the
        // wave's staged replica copies servable, an abort discards them.
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
        join_all(futs).await;
        decision
    } else {
        // gcr-lint: allow(D03-T) members contains this rank, so it is never empty
        let coord = Rank(members[0]);
        let env = ctx.ctrl_recv(coord, tags::COMMIT + wave).await;
        env.payload_as::<u64>().map(|v| *v != 0).unwrap_or(false)
    };
    if committed {
        p.gp.on_commit(wave);
        if let Some(rb) = &p.rb {
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
