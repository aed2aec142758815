//! Group-based restart (Algorithm 1, "on restart").
//!
//! Every rank reloads its image, re-initializes the MPI runtime, and then —
//! pairwise with each **out-of-group** process Q — exchanges the volume
//! counters recorded at checkpoint time, replays the logged messages Q is
//! missing, and notes how many bytes of future sends to skip because Q
//! already consumed them. Intra-group channels need nothing: the group's
//! coordinated checkpoint left them empty.
//!
//! Receiver-based logging (Dichev & Nikolopoulos) runs the same exchange.
//! It changes only where the replayed bytes come from: a restarting rank
//! first replays Q's stream from its **own local receiver log**, then
//! advertises that log's high-water mark instead of its rolled-back
//! `RR_Q`, so only the unacked tail crosses the network.
//!
//! Every path here returns [`RecoveryError`] instead of panicking: the
//! chaos harness injects faults mid-recovery, and an abort in the restart
//! protocol would kill the whole scenario sweep rather than surface as a
//! reported violation (gcr-lint rule D03 enforces this statically).

#![deny(clippy::wildcard_enum_match_arm)]

use std::rc::Rc;

use gcr_mpi::{Rank, RankCtx};
use gcr_sim::future::{join2, join_all};
use gcr_sim::SimDuration;

use gcr_net::{ImageOp, StorageTarget};

use crate::ctrlplane::{ctrl_barrier, tags, CTRL_BYTES};
use crate::error::RecoveryError;
use crate::metrics::RestartRecord;
use crate::msglog::LogEntry;
use crate::runtime::RankProto;

/// Fixed restart cost: re-creating process spaces and updating the MPI
/// runtime's internal structures.
const RESTART_INIT: SimDuration = SimDuration::from_millis(150);

/// Per-peer processing cost of the restart volume exchange (socket setup,
/// request handling), paid serially for every out-of-group peer the rank
/// ever communicated with.
const RESTART_PEER_OVERHEAD: SimDuration = SimDuration::from_millis(100);

/// Execute the restart protocol at one rank against an explicit peer set.
/// A full restart at quiescence passes the rank's own `comm_peers`, where
/// both sides of every channel agree on whether they exchanged data. A
/// mid-run recovery must pass the coordinator's slice instead: with
/// traffic still in flight toward the failed group, the two ends of a
/// channel can disagree about whether they communicated (the sender
/// counted bytes the halted receiver never consumed), and a one-sided
/// peer choice deadlocks the volume exchange. The recovery coordinator
/// computes a symmetric map and hands each participant its slice.
///
/// `gen` is the committed generation selected for this rank's group
/// (`None`: restart from the initial state).
///
/// Per out-of-group peer `Q`, under receiver-based logging (`p.rb()` is
/// set):
/// 1. **Local replay** — every logged entry of `Q`'s stream between the
///    rolled-back `RR_Q` and the receiver log's high-water mark is read
///    back from this node's own disk. No network, no load on `Q`.
/// 2. **Volume exchange** — this rank advertises that high-water mark;
///    `Q` answers with its durable-coverage point for this rank's stream
///    (a live peer: bytes consumed; a restarting peer: *its* logged
///    high-water mark).
/// 3. **Tail replay** — `Q` serves the unacked tail above the advertised
///    mark from its ack-trimmed sender log. Ack GC only ever trims below
///    a logged high-water mark, so the retained tail always covers the
///    gap.
///
/// Sender-based logging skips step 1 and advertises `RR_Q`, so `Q`
/// replays everything this rank lost in the rollback.
pub(crate) async fn restart_rank_with_peers(
    p: &RankProto,
    out: &[u32],
    gen: Option<u64>,
) -> Result<RestartRecord, RecoveryError> {
    let ctx = &p.ctx;
    let world = ctx.world().clone();
    let sim = world.sim().clone();
    let rank = ctx.rank();
    let started = ctx.now();

    // Process re-creation noise: restarts are scripted (mpirun re-spawns
    // everything), so the jitter is bounded — unlike the heavy-tailed
    // coordination stragglers of a running system.
    if p.cfg.stragglers {
        let jitter = p.rng.borrow_mut().uniform(0.0, 0.2);
        sim.sleep(gcr_sim::SimDuration::from_secs_f64(jitter)).await;
    }

    // Load the checkpoint image from the selected committed generation.
    // The load is validated against the catalog (committed state + content
    // digest) and recorded, so the chaos oracle can prove no restart ever
    // consumed an uncommitted or corrupt image. With no usable generation
    // (`gen == None`) the rank restarts from its initial image.
    let gid = p.groups.group_of(rank.0);
    let image_bytes = match gen {
        Some(g) => {
            let store = world.cluster().ckpt_store().clone();
            let bytes = store
                .validate(gid, g, rank.0)
                .map_err(RecoveryError::Storage)?;
            store.record_load(gid, g, rank.0);
            bytes
        }
        None => p
            .cfg
            .image_bytes
            .get(rank.idx())
            .copied()
            .ok_or(RecoveryError::MissingImage { rank: rank.0 })?,
    };
    // The image comes back through the cluster's checkpoint backend: the
    // disk path reads the configured target, the restore path serves the
    // block from the nearest surviving peer replica and only falls back
    // to storage (recording degraded redundancy) when none survives.
    let backend = world.cluster().backend();
    backend
        .read_image(ImageOp {
            node: rank.idx(),
            group: gid,
            gen,
            rank: rank.0,
            bytes: image_bytes,
            target: p.cfg.storage,
        })
        .await
        .map_err(RecoveryError::Storage)?;
    let image_loaded = ctx.now();

    // Re-create process spaces / update MPI internal structures.
    sim.sleep(RESTART_INIT).await;

    // Pairwise volume exchange + replay — but only with the out-of-group
    // processes this rank communicated with (the paper's "small set of
    // processes" that makes GP restarts cheap relative to GP1).
    // Per-peer request handling is serial work before the exchanges fly.
    if !out.is_empty() {
        sim.sleep(RESTART_PEER_OVERHEAD * out.len() as u64).await;
    }
    let mut resend_ops = 0u64;
    let mut resend_bytes = 0u64;
    let mut skip_bytes = 0u64;
    // One future per peer, borrowing `ctx` and the rank's state rather
    // than owning handles: a recovery holds all of them at once.
    let (gp, rb) = (&p.gp, p.rb());
    let futs = out.iter().map(|&q| async move {
        let peer = Rank(q);
        // The point up to which I can rebuild Q's stream without Q: my
        // checkpoint-time RR_Q, or my receiver log's high-water mark once
        // its entries above RR_Q are read back from this node's own disk.
        let my_mark = match rb {
            None => gp.rr(q),
            Some(rb) => {
                let local_bytes: u64 = rb.replay_local(q, gp.rr(q)).iter().map(|e| e.bytes).sum();
                if local_bytes > 0 {
                    let storage = ctx.world().cluster().storage();
                    storage
                        .read(rank.idx(), local_bytes, StorageTarget::Local)
                        .await?;
                }
                rb.logged_end(q)
            }
        };
        // Exchange: I tell Q my mark; Q tells me how much of my stream it
        // holds (its own mark, or its consumed bytes).
        let q_received = exchange_volume(ctx, peer, my_mark).await?;

        // Replay: messages I sent before my checkpoint that Q had not
        // received at its checkpoint.
        let entries = gp.replay_entries(q, q_received);
        let ops = entries.len() as u64;
        // Replay is per-message: whole log entries go back on the wire
        // (the receiver discards any already-consumed prefix).
        let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
        // Skip: bytes Q already consumed beyond my rolled-back S.
        let skip = q_received.saturating_sub(gp.ss(q));
        replay_with(ctx, peer, entries, bytes).await?;
        Ok::<(u64, u64, u64), RecoveryError>((ops, bytes, skip))
    });
    for r in join_all(futs).await {
        let (ops, bytes, skip) = r?;
        resend_ops += ops;
        resend_bytes += bytes;
        skip_bytes += skip;
    }

    // Group members resume together.
    ctrl_barrier(ctx, p.groups.members(gid), tags::RESTART_BARRIER).await?;
    let finished = ctx.now();

    let rec = RestartRecord {
        rank: rank.0,
        started,
        finished,
        image_load: image_loaded.saturating_since(started),
        resend_ops,
        resend_bytes,
        skip_bytes,
        generation: gen,
    };
    p.metrics.push_restart(rec);
    Ok(rec)
}

/// A live (non-failed) rank's side of a group recovery: serve the volume
/// exchange and replay for each of the given restarting peers. Live ranks
/// do not roll back — they answer with their *current* counters, replay
/// the retained log suffix the restarted peer is missing, and absorb the
/// (empty) replay plan from the peer. Under receiver-based logging the
/// peer advertises its receiver log's high-water mark, so the suffix is
/// only the unacked tail, not the full post-checkpoint stream.
///
/// `restarting` is this rank's slice of the coordinator's symmetric
/// exchange map; it must mirror the peer set each restarting member was
/// given, or the pairwise exchange deadlocks.
///
/// Returns the total bytes replayed toward the restarting peers.
pub(crate) async fn serve_peer_recovery(
    p: &RankProto,
    restarting: &[u32],
) -> Result<u64, RecoveryError> {
    let (ctx, gp) = (&p.ctx, &p.gp);
    let futs = restarting.iter().map(|&q| async move {
        let peer = Rank(q);
        // I am live: my "received from q" is current, not a snapshot.
        let q_mark = exchange_volume(ctx, peer, gp.received_from(q)).await?;
        // Replay everything retained beyond the peer's mark — the peer
        // lost all of it in the rollback. GC safety (commit- or
        // ack-gated) guarantees the retained log still covers [q_mark, S).
        let to = gp.sent_to(q);
        let entries = gp.replay_entries_live(q, q_mark, to);
        let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
        replay_with(ctx, peer, entries, bytes).await?;
        Ok::<u64, RecoveryError>(bytes)
    });
    let mut total = 0u64;
    for r in join_all(futs).await {
        total += r?;
    }
    Ok(total)
}

/// Swap volume marks with `peer`: send `mine`, return the peer's.
async fn exchange_volume(ctx: &RankCtx, peer: Rank, mine: u64) -> Result<u64, RecoveryError> {
    let (_, theirs) = join2(
        ctx.ctrl_send(peer, tags::RESTART_VOL, CTRL_BYTES, Some(Rc::new([mine]))),
        async move { ctx.ctrl_recv(peer, tags::RESTART_VOL).await.word() },
    )
    .await;
    theirs.ok_or(RecoveryError::BadPayload {
        at: ctx.rank().0,
        from: peer.0,
        what: "volume",
    })
}

/// Send my replay plan and the `entries` (`bytes` in total) to `peer`,
/// and concurrently drain the peer's plan and data.
async fn replay_with(
    ctx: &RankCtx,
    peer: Rank,
    entries: Vec<LogEntry>,
    bytes: u64,
) -> Result<(), RecoveryError> {
    let send_side = async {
        // Replayed messages are read back from the on-disk log before they
        // can be resent; a log-read fault fails this peer's replay as a
        // typed error instead of silently sending a replay built from
        // nothing.
        if bytes > 0 {
            let storage = ctx.world().cluster().storage().clone();
            storage
                .read(ctx.rank().idx(), bytes, StorageTarget::Local)
                .await?;
        }
        ctx.ctrl_send(
            peer,
            tags::RESTART_PLAN,
            CTRL_BYTES,
            Some(Rc::new([entries.len() as u64])),
        )
        .await;
        for e in entries {
            ctx.ctrl_send(peer, tags::RESTART_DATA, e.bytes, None).await;
        }
        Ok::<(), RecoveryError>(())
    };
    let recv_side = async {
        let plan = ctx.ctrl_recv(peer, tags::RESTART_PLAN).await;
        let m = plan.word().ok_or(RecoveryError::BadPayload {
            at: ctx.rank().0,
            from: peer.0,
            what: "plan",
        })?;
        for _ in 0..m {
            ctx.ctrl_recv(peer, tags::RESTART_DATA).await;
        }
        Ok::<(), RecoveryError>(())
    };
    let (sent, drained) = join2(send_side, recv_side).await;
    sent?;
    drained?;
    Ok(())
}
