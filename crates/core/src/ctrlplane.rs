//! Control-plane primitives shared by the protocol engines: tag layout,
//! group barriers over control messages, the bookmark drain, and the two
//! phases of the group two-phase commit that the blocking and CVC waves
//! share (`prepare_generation`, `resolve_generation`).
//!
//! Everything here rides on [`gcr_mpi`]'s control message class — it costs
//! real network time but is invisible to tracing, the app-volume counters,
//! and the message logs (as in LAM/MPI, where the `crtcp` bookkeeping is
//! out-of-band with respect to application traffic).

#![deny(clippy::wildcard_enum_match_arm)]

use std::rc::Rc;

use gcr_mpi::{Rank, RankCtx};
use gcr_net::ImageOp;
use gcr_sim::future::{join2, join_all};

use crate::error::RecoveryError;
use crate::runtime::{CrashTrap, RankProto};

/// Control-tag namespaces (each offset by the wave / phase id).
pub mod tags {
    /// Bookmark exchange during coordinated drain: `BOOKMARK + wave`.
    pub const BOOKMARK: u64 = 0x0100_0000;
    /// Pre-image barrier: `BARRIER1 + wave`.
    pub const BARRIER1: u64 = 0x0200_0000;
    /// Post-image barrier: `BARRIER2 + wave`.
    pub const BARRIER2: u64 = 0x0300_0000;
    /// Chandy–Lamport marker: `MARKER + wave`.
    pub const MARKER: u64 = 0x0400_0000;
    /// Restart volume exchange (a restarting rank sends its rolled-back
    /// `RR`, or under receiver-based logging its receiver-log high-water
    /// mark; a live peer answers with its consumed volume).
    pub const RESTART_VOL: u64 = 0x0500_0000;
    /// Restart replay plan (entry count).
    pub const RESTART_PLAN: u64 = 0x0600_0000;
    /// Restart replayed message.
    pub const RESTART_DATA: u64 = 0x0700_0000;
    /// Restart completion barrier.
    pub const RESTART_BARRIER: u64 = 0x0800_0000;
    /// Two-phase-commit outcome broadcast (coordinator → members):
    /// `COMMIT + wave`, payload `1` = committed, `0` = aborted.
    pub const COMMIT: u64 = 0x0900_0000;
    /// CVC clock-exchange round: `CVC_CLOCK + wave`, payload the
    /// sender's flattened per-communicator clock vector.
    pub const CVC_CLOCK: u64 = 0x0A00_0000;
}

/// Wire size of a small control message (bookmarks, barrier tokens).
pub const CTRL_BYTES: u64 = 32;

/// Dissemination barrier across `members` using control messages with tag
/// `tag`. All members must call it with identical `members` and `tag`.
///
/// # Errors
/// [`RecoveryError::NotInBarrier`] if the calling rank is not in
/// `members` — the restart path reports it instead of aborting; checkpoint
/// callers may `expect` it, since their member sets come straight from the
/// validated group definition.
pub async fn ctrl_barrier(ctx: &RankCtx, members: &[u32], tag: u64) -> Result<(), RecoveryError> {
    let n = members.len();
    if n <= 1 {
        return Ok(());
    }
    let me = ctx.rank().0;
    let pos = members
        .iter()
        .position(|&r| r == me)
        .ok_or(RecoveryError::NotInBarrier { rank: me })?;
    let mut k = 1usize;
    while k < n {
        // gcr-lint: allow(D03) both indices are taken mod members.len(), so they cannot miss
        let dst = Rank(members[(pos + k) % n]);
        // gcr-lint: allow(D03) both indices are taken mod members.len(), so they cannot miss
        let src = Rank(members[(pos + n - k) % n]);
        // The token carries nothing: drop it inside the arm, or the
        // finished arm would hold a whole `Envelope` until the round ends.
        join2(ctx.ctrl_send(dst, tag, CTRL_BYTES, None), async move {
            ctx.ctrl_recv(src, tag).await;
        })
        .await;
        k <<= 1;
    }
    Ok(())
}

/// LAM-style bookmark drain among `members` (the calling rank included):
/// every pair exchanges "bytes I have put on the wire towards you", then
/// each member waits until that much application data has **arrived** at
/// its MPI layer. On return, no intra-member-set application bytes are in
/// flight toward the caller.
///
/// # Errors
/// [`RecoveryError::BadPayload`] if a bookmark arrives without its byte
/// counter.
pub async fn bookmark_drain(
    ctx: &RankCtx,
    members: &[u32],
    wave: u64,
) -> Result<(), RecoveryError> {
    let me = ctx.rank();
    let world = ctx.world();
    // A rendezvous send that was granted its CTS will put data on the wire
    // without further application involvement; wait for those so the
    // bookmark snapshot is complete.
    world.wait_no_pending_grants(me).await;
    let tag = tags::BOOKMARK + wave;
    // One future per peer, borrowing `ctx` rather than owning handles: at
    // scale these are the bulk of a wave's live state.
    let futs = members
        .iter()
        .filter(|&&r| r != me.0)
        .map(|&r| bookmark_peer(ctx, Rank(r), tag));
    for r in join_all(futs).await {
        r?;
    }
    Ok(())
}

/// One peer's share of [`bookmark_drain`]: swap sent-byte counters with
/// `peer` on control tag `tag`, then wait until as many bytes as `peer`
/// reports have arrived from it.
///
/// The receive arm keeps only the bookmark's word. A finished `join2`
/// arm holds its output until the other arm finishes too, and the whole
/// `Envelope` would sit in every peer's future for that long.
async fn bookmark_peer(ctx: &RankCtx, peer: Rank, tag: u64) -> Result<(), RecoveryError> {
    let me = ctx.rank();
    let world = ctx.world();
    let my_sent = world.pair_stats(me, peer).sent_bytes;
    let (_, their_sent) = join2(
        ctx.ctrl_send(peer, tag, CTRL_BYTES, Some(Rc::new([my_sent]))),
        async move { ctx.ctrl_recv(peer, tag).await.word() },
    )
    .await;
    let their_sent = their_sent.ok_or(RecoveryError::BadPayload {
        at: me.0,
        from: peer.0,
        what: "bookmark",
    })?;
    world.wait_arrived(peer, me, their_sent).await;
    Ok(())
}

/// Phase 1 of the group two-phase commit at one member of group `gid`:
/// open generation `wave` in the durable catalog and write the member's
/// `image_bytes` under it through the cluster's checkpoint backend. Every
/// member opens the generation (`CkptStore::begin` is idempotent). A
/// crash `trap` armed on the group fires here at its coordinator for
/// phase 0 (before the write: nothing reaches storage) and phase 1
/// (halfway through it: a torn write). Returns whether the image was
/// acknowledged; the caller records the outcome in the catalog.
pub(crate) async fn prepare_generation(
    p: &RankProto,
    gid: usize,
    wave: u64,
    image_bytes: u64,
    trap: Option<&CrashTrap>,
) -> bool {
    let rank = p.ctx.rank();
    let cluster = p.ctx.world().cluster();
    let store = cluster.ckpt_store();
    store.begin(gid, wave);
    let is_coord = p.groups.members(gid).first() == Some(&rank.0);
    match trap.filter(|t| is_coord && !t.fired.get() && t.phase < 2) {
        Some(t) if t.phase == 0 => {
            t.fired.set(true);
            false
        }
        Some(t) => {
            // Half the service time is spent and the image never
            // completes. Whether the torn half-write itself errors
            // changes nothing: the member failed mid-image either way.
            t.fired.set(true);
            let storage = cluster.storage();
            match storage
                .write(rank.idx(), image_bytes / 2, p.cfg.storage)
                .await
            {
                Ok(_) | Err(_) => false,
            }
        }
        None => {
            // The disk backend writes the image to the configured target;
            // the restore backend also stages replica copies in peer
            // memory, which the decision in phase 2 makes servable or
            // discards.
            let backend = cluster.backend();
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
    }
}

/// Phase 2 of the group two-phase commit at one member of group `gid`:
/// seal generation `wave` with the post-record barrier, after which every
/// member's outcome is in the catalog, then resolve it. The coordinator
/// (the group's first member) decides: abort on a failed seal or on a
/// phase-2 crash `trap` (the images are written but the commit record
/// never lands), otherwise commit iff every member's image is
/// acknowledged. It passes the decision to the backend and sends it to
/// every other member, which waits for it. Returns whether the
/// generation committed.
pub(crate) async fn resolve_generation(
    p: &RankProto,
    gid: usize,
    wave: u64,
    trap: Option<&CrashTrap>,
) -> bool {
    let ctx = &p.ctx;
    let me = ctx.rank().0;
    let members = p.groups.members(gid);
    let sealed = ctrl_barrier(ctx, members, tags::BARRIER2 + wave)
        .await
        .is_ok();
    match members.first() {
        Some(&coord) if coord == me => {
            let cluster = ctx.world().cluster();
            let store = cluster.ckpt_store();
            let decision = if !sealed {
                store.abort(gid, wave);
                false
            } else if let Some(t) = trap.filter(|t| t.phase == 2 && !t.fired.get()) {
                t.fired.set(true);
                store.abort(gid, wave);
                false
            } else {
                store.commit(gid, wave, members)
            };
            let backend = cluster.backend();
            if decision {
                backend.on_commit(gid, wave);
            } else {
                backend.on_abort(gid, wave);
            }
            let sends = members.iter().filter(|&&m| m != me).map(|&m| {
                ctx.ctrl_send(
                    Rank(m),
                    tags::COMMIT + wave,
                    CTRL_BYTES,
                    Some(Rc::new([u64::from(decision)])),
                )
            });
            join_all(sends).await;
            decision
        }
        Some(&coord) => {
            let env = ctx.ctrl_recv(Rank(coord), tags::COMMIT + wave).await;
            sealed && env.word().is_some_and(|v| v != 0)
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_mpi::{World, WorldOpts};
    use gcr_net::{Cluster, ClusterSpec};
    use gcr_sim::{Sim, SimDuration, SimTime};
    use std::cell::Cell;

    fn world(n: usize) -> (Sim, World) {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::test(n));
        (sim.clone(), World::new(cluster, WorldOpts::default()))
    }

    #[test]
    fn ctrl_barrier_holds_until_all_arrive() {
        let (sim, world) = world(4);
        let members: Vec<u32> = vec![0, 1, 2, 3];
        let min_exit = Rc::new(Cell::new(SimTime::MAX));
        for r in 0..4u32 {
            let m = members.clone();
            let me = Rc::clone(&min_exit);
            world.launch(Rank(r), move |ctx| async move {
                ctx.busy(SimDuration::from_millis(r as u64 * 20)).await;
                ctrl_barrier(&ctx, &m, 77).await.unwrap();
                me.set(me.get().min(ctx.now()));
            });
        }
        sim.run().unwrap();
        assert!(min_exit.get() >= SimTime::from_millis(60));
    }

    #[test]
    fn ctrl_barrier_subgroup_only_involves_members() {
        let (sim, world) = world(4);
        // Ranks 0 and 2 barrier; ranks 1 and 3 never participate.
        for r in [0u32, 2] {
            world.launch(Rank(r), move |ctx| async move {
                ctrl_barrier(&ctx, &[0, 2], 5).await.unwrap();
            });
        }
        sim.run().unwrap();
    }

    /// A wave holds one barrier future at a time and one bookmark future
    /// per peer, at every rank of the world at once. Neither may keep the
    /// received `Envelope` once its word is read: each bound sits 32
    /// bytes above the measured size (192 and 136 bytes, debug and
    /// release alike), below what a held envelope costs (312 and 256
    /// with a lazy 80-byte `ctrl_send` future, 248 and 192 without it).
    #[test]
    fn control_futures_drop_the_envelope_they_receive() {
        let (_sim, world) = world(2);
        let ctx = world.ctx(Rank(0));
        let barrier = std::mem::size_of_val(&ctrl_barrier(&ctx, &[0, 1], 3));
        let peer = std::mem::size_of_val(&bookmark_peer(&ctx, Rank(1), 3));
        assert!(
            barrier <= 192 + 32,
            "ctrl_barrier future is {barrier} bytes"
        );
        assert!(peer <= 136 + 32, "bookmark_peer future is {peer} bytes");
    }

    #[test]
    fn bookmark_drain_waits_for_in_flight_bytes() {
        let (sim, world) = world(2);
        // Rank 0 sends app data, then both drain; the drain at rank 1 must
        // observe the arrival even though the app never posted a receive
        // before the drain.
        let drained_at = Rc::new(Cell::new(SimTime::ZERO));
        world.launch(Rank(0), |ctx| async move {
            ctx.send(Rank(1), 1, 50_000).await;
            bookmark_drain(&ctx, &[0, 1], 0).await.unwrap();
        });
        {
            let d = Rc::clone(&drained_at);
            world.launch(Rank(1), |ctx| async move {
                bookmark_drain(&ctx, &[0, 1], 0).await.unwrap();
                d.set(ctx.now());
                // Consume the message afterwards so counters settle.
                ctx.recv(Rank(0), 1).await;
            });
        }
        sim.run().unwrap();
        // 50 KB at 1 GB/s is fast, but arrival is strictly positive.
        assert!(drained_at.get() > SimTime::ZERO);
        let c = world.counters();
        assert_eq!(c.pair(Rank(0), Rank(1)).arrived_bytes, 50_000);
    }

    #[test]
    fn drain_is_consistent_under_frozen_senders() {
        let (sim, world) = world(2);
        // Rank 0's second send is gated by a freeze before it reaches the
        // wire; the drain must NOT wait for it.
        world.launch(Rank(0), |ctx| async move {
            ctx.send(Rank(1), 1, 1000).await;
            ctx.world().freeze(ctx.rank());
            // This send is blocked until thaw (which never happens before
            // the drain completes at rank 1).
            ctx.send(Rank(1), 1, 2000).await;
        });
        let done = Rc::new(Cell::new(false));
        {
            let d = Rc::clone(&done);
            world.launch(Rank(1), |ctx| async move {
                // Give the first message time to be committed.
                ctx.busy(SimDuration::from_millis(10)).await;
                bookmark_drain(&ctx, &[1], 0).await.unwrap(); // self-only: trivial
                ctx.world().wait_arrived(Rank(0), Rank(1), 1000).await;
                d.set(true);
                ctx.recv(Rank(0), 1).await;
                // Unfreeze 0 so its second send can complete and the world
                // can finish.
                ctx.world().thaw(Rank(0));
                ctx.recv(Rank(0), 1).await;
            });
        }
        sim.run().unwrap();
        assert!(done.get());
    }
}
