//! Non-blocking coordinated checkpointing over all ranks — the MPICH-VCL
//! model (Chandy–Lamport with a send-suspension window).
//!
//! Per wave, each rank:
//! 1. suspends **new** application sends (receives and compute continue —
//!    this is the "short period when processes are not allowed to send"
//!    the paper quotes as the root of VCL's blocking cascade),
//! 2. writes its image (to the remote checkpoint servers in the paper's
//!    §5.3 configuration) concurrently with execution,
//! 3. sends a marker on every outgoing channel and resumes sends,
//! 4. records arriving messages from each peer until that peer's marker is
//!    seen (Chandy–Lamport channel state), then persists the channel state.
//!
//! The wave completes at a rank when its image is written, all markers are
//! in, and the channel state is persisted.

use gcr_mpi::Rank;
use gcr_sim::future::{join2, join_all};

use crate::ctrlplane::{tags, CTRL_BYTES};
use crate::metrics::{CkptRecord, PhaseBreakdown};
use crate::runtime::RankProto;

/// Image-size inflation of the VCL baseline relative to BLCR: MPICH-V's
/// user-level checkpointer captures the full address space, while BLCR
/// dumps resident pages only. Applied to the configured image size in
/// every VCL wave.
const VCL_IMAGE_FACTOR: f64 = 2.0;

/// Execute one VCL wave at one rank.
pub(crate) async fn vcl_wave(p: &RankProto, wave: u64) {
    let ctx = &p.ctx;
    let world = ctx.world().clone();
    let rank = ctx.rank();
    let storage = world.cluster().storage().clone();
    let n = world.n();
    let started = ctx.now();

    world.block_sends(rank);
    p.vcl.start_wave();

    let peers: Vec<Rank> = (0..n as u32).filter(|&r| r != rank.0).map(Rank).collect();

    // Marker collection starts immediately so channel-state recording stops
    // at marker arrival, concurrently with the image write.
    let collect = {
        let ctx = ctx.clone();
        let vcl = std::rc::Rc::clone(&p.vcl);
        let peers = peers.clone();
        async move {
            let futs: Vec<_> = peers
                .iter()
                .map(|&peer| {
                    let ctx = ctx.clone();
                    let vcl = std::rc::Rc::clone(&vcl);
                    async move {
                        ctx.ctrl_recv(peer, tags::MARKER + wave).await;
                        vcl.marker_from(peer.0);
                    }
                })
                .collect();
            join_all(futs).await;
        }
    };

    // VCL's single global group is catalog group 0; the commit decision is
    // made centrally by the runtime once every rank's wave completes.
    let store = world.cluster().ckpt_store().clone();
    store.begin(0, wave);
    // gcr-lint: allow(D03-T) image_bytes is sized to the world when the config is built; the restart side re-reads it with get()+MissingImage
    let image_bytes = (p.cfg.image_bytes[rank.idx()] as f64 * VCL_IMAGE_FACTOR) as u64;
    let image_ok = std::rc::Rc::new(std::cell::Cell::new(true));
    let work = {
        let ctx = ctx.clone();
        let world = world.clone();
        let storage = storage.clone();
        let peers = peers.clone();
        let cfg = std::rc::Rc::clone(&p.cfg);
        let image_ok = std::rc::Rc::clone(&image_ok);
        async move {
            // Image write proceeds concurrently with the application; only
            // new sends are held back.
            if storage
                .write_with_retry(rank.idx(), image_bytes, cfg.storage)
                .await
                .is_err()
            {
                image_ok.set(false);
            }
            let t_img = ctx.now();
            // Flood markers, then reopen the send window.
            let sends: Vec<_> = peers
                .iter()
                .map(|&peer| {
                    let ctx = ctx.clone();
                    async move {
                        ctx.ctrl_send(peer, tags::MARKER + wave, CTRL_BYTES, None)
                            .await;
                    }
                })
                .collect();
            join_all(sends).await;
            world.unblock_sends(rank);
            t_img
        }
    };

    let (t_img, ()) = join2(work, collect).await;

    // Persist the recorded channel state alongside the image.
    let state_bytes = p.vcl.take_state_bytes();
    let mut state_ok = true;
    if state_bytes > 0 {
        state_ok = storage
            .write_with_retry(rank.idx(), state_bytes, p.cfg.storage)
            .await
            .is_ok();
    }
    // The restart-relevant image is the BLCR-sized resident set (what
    // `restart_all` reloads); the inflated VCL write above is a transfer
    // cost, not a catalog size.
    let committed = image_ok.get() && state_ok;
    if committed {
        // gcr-lint: allow(D03-T) image_bytes is sized to the world when the config is built
        store.record_image(0, wave, rank.0, p.cfg.image_bytes[rank.idx()]);
    } else {
        store.record_failure(0, wave, rank.0);
    }
    let finished = ctx.now();

    p.metrics.push_ckpt(CkptRecord {
        wave,
        rank: rank.0,
        started,
        finished,
        phases: PhaseBreakdown {
            lock: gcr_sim::SimDuration::ZERO,
            checkpoint: t_img.saturating_since(started),
            coordination: finished.saturating_since(t_img),
            finalize: gcr_sim::SimDuration::ZERO,
        },
        log_flushed_bytes: state_bytes,
        image_bytes,
        committed,
    });
}
