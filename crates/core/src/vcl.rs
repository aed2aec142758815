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
use gcr_sim::SimDuration;

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
    let world = ctx.world();
    let rank = ctx.rank();
    let storage = world.cluster().storage();
    let n = world.n() as u32;
    let started = ctx.now();

    world.block_sends(rank);
    p.vcl().start_wave();

    // Every other rank, in rank order. The per-peer marker futures below
    // borrow `ctx` and `p` rather than owning handles: VCL's one global
    // group gives each rank n − 1 of them per wave.
    let peers = || (0..n).filter(move |&r| r != rank.0).map(Rank);

    // Marker collection starts immediately so channel-state recording stops
    // at marker arrival, concurrently with the image write.
    let collect = join_all(peers().map(|peer| async move {
        ctx.ctrl_recv(peer, tags::MARKER + wave).await;
        p.vcl().marker_from(peer.0);
    }));

    // VCL's single global group is catalog group 0; the commit decision is
    // made centrally by the runtime once every rank's wave completes.
    let store = world.cluster().ckpt_store();
    store.begin(0, wave);
    // The restart-relevant image is the BLCR-sized resident set (what
    // `restart_all` reloads); the inflated VCL write below is a transfer
    // cost, not a catalog size.
    let resident = p.cfg.image_bytes.get(rank.idx()).copied().unwrap_or(0);
    let image_bytes = (resident as f64 * VCL_IMAGE_FACTOR) as u64;
    let work = async {
        // Image write proceeds concurrently with the application; only
        // new sends are held back.
        let image_ok = storage
            .write_with_retry(rank.idx(), image_bytes, p.cfg.storage)
            .await
            .is_ok();
        let t_img = ctx.now();
        // Flood markers, then reopen the send window.
        join_all(peers().map(|peer| ctx.ctrl_send(peer, tags::MARKER + wave, CTRL_BYTES, None)))
            .await;
        world.unblock_sends(rank);
        (t_img, image_ok)
    };

    let ((t_img, image_ok), _) = join2(work, collect).await;

    // Persist the recorded channel state alongside the image.
    let state_bytes = p.vcl().take_state_bytes();
    let mut state_ok = true;
    if state_bytes > 0 {
        state_ok = storage
            .write_with_retry(rank.idx(), state_bytes, p.cfg.storage)
            .await
            .is_ok();
    }
    let committed = image_ok && state_ok;
    if committed {
        store.record_image(0, wave, rank.0, resident);
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
