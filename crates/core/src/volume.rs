//! The paper's Algorithm-1 volume counters, per rank.
//!
//! * `R_X` — bytes received from process X (updated on every receive).
//! * `S_X` — bytes sent to process X (updated on every send).
//! * `RR_X` — the value of `R_X` recorded at this rank's latest checkpoint.
//! * A "first message to X since my checkpoint" flag per out-of-group peer,
//!   which triggers piggybacking `RR_X` for log garbage collection.
//!
//! Everything here is **traffic-sparse**: tables only hold peers that
//! actually exchanged bytes, and every read defaults to zero for absent
//! peers. That is what lets a 100k-rank world checkpoint without
//! materializing 100k entries per rank — the dense representation would
//! be O(n²) across the job. The tables are flat vectors sorted by peer
//! (`peer_table`), since a rank has a handful of partners. The
//! piggyback flag in particular is *not* a per-peer set (arming all
//! out-of-group peers at every commit is O(n²) by itself): an
//! advertisement bumps an epoch, and a send piggybacks iff its
//! destination has not piggybacked in the current epoch.

use crate::peer_table::{find, PeerTable};

/// Algorithm-1 per-rank counter state.
#[derive(Debug, Default, Clone)]
pub struct VolumeCounters {
    /// `R`: every peer that sent to this rank, even 0 bytes.
    r: PeerTable<u64>,
    /// `S`: every peer this rank sent to, even 0 bytes.
    s: PeerTable<u64>,
    /// `RR`: the advertised GC floors.
    rr: PeerTable<u64>,
    /// Arming epoch: bumped whenever new GC floors are advertised. A
    /// fresh state is epoch 0 = nothing armed.
    epoch: u64,
    /// Per-destination epoch of the last piggyback actually attached.
    piggybacked: PeerTable<u64>,
}

impl VolumeCounters {
    /// Fresh state (all volumes zero, nothing to piggyback).
    pub fn new() -> Self {
        VolumeCounters::default()
    }

    /// Record `bytes` received from `src` (`R_src += bytes`).
    pub fn on_recv(&mut self, src: u32, bytes: u64) {
        self.r.update(src, |v| *v += bytes);
    }

    /// Record `bytes` sent to `dst` (`S_dst += bytes`).
    pub fn on_send(&mut self, dst: u32, bytes: u64) {
        self.s.update(dst, |v| *v += bytes);
    }

    /// `R_X`: bytes received from `x` so far.
    pub fn received_from(&self, x: u32) -> u64 {
        self.r.get(x).copied().unwrap_or(0)
    }

    /// `S_X`: bytes sent to `x` so far.
    pub fn sent_to(&self, x: u32) -> u64 {
        self.s.get(x).copied().unwrap_or(0)
    }

    /// `RR_X`: the received-volume floor this rank currently advertises to
    /// `x` for log garbage collection. With the durable store this is the
    /// `R_X` snapshot of the *oldest retained committed* generation — it
    /// trails the newest snapshot by the retention window, so fallback
    /// restarts stay replayable.
    pub fn recorded_received(&self, x: u32) -> u64 {
        self.rr.get(x).copied().unwrap_or(0)
    }

    /// Pure snapshot read of the `R` counters, taken at checkpoint time
    /// (Algorithm 1, "On receiving a group checkpoint request"), filtered
    /// to peers `keep` accepts (the out-of-group set). Sparse: peers that
    /// never sent to this rank are simply absent, and every consumer
    /// reads absent as zero. Does **not** arm piggybacks — the snapshot
    /// belongs to a *pending* generation; advertising it before the
    /// generation commits would let peers trim log a fallback restart
    /// still needs.
    ///
    /// The snapshot is a boxed slice sorted by peer, the counters' own
    /// layout frozen at its exact length: a pending or committed
    /// generation holds one per rank.
    pub fn snapshot_received(&self, keep: impl Fn(u32) -> bool) -> Box<[(u32, u64)]> {
        snapshot(&self.r, keep)
    }

    /// Sparse snapshot of the `S` counters, filtered and laid out like
    /// [`VolumeCounters::snapshot_received`].
    pub fn snapshot_sent(&self, keep: impl Fn(u32) -> bool) -> Box<[(u32, u64)]> {
        snapshot(&self.s, keep)
    }

    /// Peers this rank exchanged any bytes with, ascending, deduplicated.
    pub fn active_partners(&self) -> Vec<u32> {
        let mut partners: Vec<u32> = self.r.iter().chain(self.s.iter()).map(|(q, _)| q).collect();
        partners.sort_unstable();
        partners.dedup();
        partners
    }

    /// Commit-side bookkeeping: adopt `floors` as the advertised `RR`
    /// values and re-arm the piggyback flag for every peer (epoch bump).
    /// Called once the generation the floors belong to is durably
    /// committed. Peers absent from `floors` stay at their previous value
    /// — within one ledger progression `R` is monotonic, so a peer with
    /// recorded traffic never drops out of a later snapshot.
    pub fn advertise(&mut self, floors: &[(u32, u64)]) {
        for &(q, v) in floors {
            self.rr.set(q, v);
        }
        self.epoch += 1;
    }

    /// Rollback-side bookkeeping: *replace* the advertised floors (peers
    /// absent from `floors` drop to zero — the rolled-back ledger no
    /// longer vouches for them) and re-arm every piggyback.
    pub fn reset_floors(&mut self, floors: &[(u32, u64)]) {
        self.rr.clear();
        self.advertise(floors);
    }

    /// If this is the first message to `dst` since the latest checkpoint,
    /// return the `RR_dst` value to piggyback and clear the flag.
    pub fn piggyback_for(&mut self, dst: u32) -> Option<u64> {
        if self.piggybacked.get(dst).copied().unwrap_or(0) < self.epoch {
            self.piggybacked.set(dst, self.epoch);
            Some(self.recorded_received(dst))
        } else {
            None
        }
    }
}

/// The entries of `counters` whose peer `keep` accepts, ascending by peer.
fn snapshot(counters: &PeerTable<u64>, keep: impl Fn(u32) -> bool) -> Box<[(u32, u64)]> {
    counters
        .iter()
        .filter(|&(q, _)| keep(q))
        .map(|(q, &v)| (q, v))
        .collect()
}

/// `peer`'s value in a sorted snapshot (see
/// [`VolumeCounters::snapshot_received`]); absent reads as zero.
pub(crate) fn snapshot_value(snap: &[(u32, u64)], peer: u32) -> u64 {
    find(snap, peer).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Snapshot `R` for `peers` and advertise it at once: a checkpoint
    /// that commits immediately.
    fn checkpoint(v: &mut VolumeCounters, peers: &[u32]) {
        let snap = v.snapshot_received(|q| peers.contains(&q));
        v.advertise(&snap);
    }

    #[test]
    fn volumes_accumulate() {
        let mut v = VolumeCounters::new();
        v.on_recv(3, 100);
        v.on_recv(3, 50);
        v.on_send(3, 20);
        assert_eq!(v.received_from(3), 150);
        assert_eq!(v.sent_to(3), 20);
        assert_eq!(v.received_from(9), 0);
    }

    #[test]
    fn checkpoint_records_rr_and_arms_piggyback() {
        let mut v = VolumeCounters::new();
        v.on_recv(1, 100);
        v.on_recv(2, 200);
        checkpoint(&mut v, &[1, 2]);
        // More traffic after the checkpoint must not change RR.
        v.on_recv(1, 999);
        assert_eq!(v.recorded_received(1), 100);
        assert_eq!(v.recorded_received(2), 200);
        // First send to each peer piggybacks once.
        assert_eq!(v.piggyback_for(1), Some(100));
        assert_eq!(v.piggyback_for(1), None);
        assert_eq!(v.piggyback_for(2), Some(200));
    }

    #[test]
    fn second_checkpoint_rearms() {
        let mut v = VolumeCounters::new();
        checkpoint(&mut v, &[7]);
        assert_eq!(v.piggyback_for(7), Some(0));
        v.on_recv(7, 42);
        checkpoint(&mut v, &[7]);
        assert_eq!(v.piggyback_for(7), Some(42));
    }

    #[test]
    fn snapshot_does_not_arm_piggybacks() {
        let mut v = VolumeCounters::new();
        v.on_recv(1, 100);
        let snap = v.snapshot_received(|_| true);
        assert_eq!(*snap, [(1, 100)]);
        // Sparse: a peer that never sent is absent, and absent reads zero.
        assert_eq!(snapshot_value(&snap, 1), 100);
        assert_eq!(snapshot_value(&snap, 2), 0);
        // Nothing advertised yet: RR stays at its old floor, no piggyback.
        assert_eq!(v.recorded_received(1), 0);
        assert_eq!(v.piggyback_for(1), None);
        // Commit: advertising the snapshot arms the piggybacks.
        v.advertise(&snap);
        assert_eq!(v.recorded_received(1), 100);
        assert_eq!(v.piggyback_for(1), Some(100));
    }

    #[test]
    fn rr_defaults_to_zero() {
        let mut v = VolumeCounters::new();
        assert_eq!(v.recorded_received(5), 0);
        assert_eq!(v.piggyback_for(5), None);
    }

    #[test]
    fn reset_floors_drops_unlisted_peers_and_rearms() {
        let mut v = VolumeCounters::new();
        v.on_recv(1, 10);
        v.on_recv(2, 20);
        checkpoint(&mut v, &[1, 2]);
        assert_eq!(v.piggyback_for(1), Some(10));
        // Roll back to a ledger that only vouches for peer 2.
        v.reset_floors(&[(2, 20)]);
        assert_eq!(v.recorded_received(1), 0);
        assert_eq!(v.recorded_received(2), 20);
        // Every peer is re-armed, including the one that already sent.
        assert_eq!(v.piggyback_for(1), Some(0));
        assert_eq!(v.piggyback_for(2), Some(20));
    }

    #[test]
    fn active_partners_union_both_directions() {
        let mut v = VolumeCounters::new();
        v.on_recv(9, 1);
        v.on_send(3, 1);
        v.on_send(9, 1);
        assert_eq!(v.active_partners(), vec![3, 9]);
    }
}
