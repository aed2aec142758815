//! Message logs addressed by stream offset (paper Algorithm 1).
//!
//! Each rank keeps, per peer, an ordered log of one byte stream. Entries
//! are addressed by their **cumulative byte offset** in that stream, which
//! is exactly the unit of the paper's volume counters. The sender plane
//! logs the messages a rank sent to each out-of-group peer: garbage
//! collection drops the prefix a piggybacked `RR` value proves is covered
//! by the peer's checkpoint, and a restart replays the suffix of the
//! stream beyond what the (rolled-back) peer had received at its own
//! checkpoint. The receiver plane (receiver-based logging) logs what a
//! rank received from each peer in the same coordinates — the two views
//! of one channel share a coordinate system, so a restart can splice
//! "replay my local receiver log up to its high-water mark, then the
//! sender's unacked tail beyond it" without any translation.
//!
//! Logging is *asynchronous*: entries accumulate in memory and stream to
//! the node's local disk in the background; the bytes not yet synced are
//! drained right before a checkpoint ("Synchronize message logs" in
//! Algorithm 1), and `take_all_pending_flush` reports how many they are.

#![deny(clippy::wildcard_enum_match_arm)]

use std::collections::VecDeque;
use std::rc::Rc;

use gcr_net::Storage;
use gcr_sim::fnv1a_words;

use crate::peer_table::PeerTable;

/// One logged message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Cumulative byte offset of the first byte of this message within the
    /// stream.
    pub offset: u64,
    /// Message size in bytes.
    pub bytes: u64,
    /// Sender-side message sequence number.
    pub seq: u64,
}

impl LogEntry {
    /// Offset one past the last byte.
    pub fn end(&self) -> u64 {
        self.offset + self.bytes
    }
}

/// Deterministic FNV-1a pseudo-digest of a message's identifying triple.
/// Stands in for a payload checksum, since the simulator carries sizes,
/// not payload bytes: two streams agree on every `(src, seq, bytes)`
/// triple iff they agree on every digest.
pub fn digest_of(src: u32, seq: u64, bytes: u64) -> u64 {
    fnv1a_words([u64::from(src), seq, bytes])
}

/// The log of one peer's stream.
///
/// ```
/// use gcr_ckpt::PeerLog;
///
/// let mut log = PeerLog::default();
/// log.append(100, 0); // bytes, sender seq
/// log.append(200, 1);
/// // The peer's checkpoint covered the first 100 bytes: drop them.
/// assert_eq!(log.gc(100), 100);
/// // A restart where the peer had 100 and we had sent 300 replays entry 1.
/// let replay = log.replay_range(100, 300);
/// assert_eq!(replay.len(), 1);
/// assert_eq!(replay[0].bytes, 200);
/// ```
#[derive(Debug, Default, Clone)]
pub struct PeerLog {
    entries: VecDeque<LogEntry>,
    /// Total bytes ever appended: the stream's high-water mark (for the
    /// sender plane, the `S` counter restricted to logged traffic; for the
    /// receiver plane, the acknowledgement piggybacked back to the sender).
    appended: u64,
}

impl PeerLog {
    /// Append a message of `bytes` at the current end of the stream.
    pub fn append(&mut self, bytes: u64, seq: u64) -> LogEntry {
        let e = LogEntry {
            offset: self.appended,
            bytes,
            seq,
        };
        self.entries.push_back(e);
        self.appended += bytes;
        e
    }

    /// Total bytes ever appended.
    pub fn appended_bytes(&self) -> u64 {
        self.appended
    }

    /// Bytes currently retained in the log: the stream is contiguous, so
    /// everything from the oldest retained offset to the end.
    pub fn retained_bytes(&self) -> u64 {
        self.entries.front().map_or(0, |e| self.appended - e.offset)
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Garbage-collect every entry fully covered by the peer's checkpoint,
    /// i.e. entries with `end() <= covered_offset`. Returns bytes dropped.
    ///
    /// A partially-covered entry is retained whole: replay is per-message.
    pub fn gc(&mut self, covered_offset: u64) -> u64 {
        let mut dropped = 0;
        while let Some(front) = self.entries.front() {
            if front.end() <= covered_offset {
                dropped += front.bytes;
                self.entries.pop_front();
            } else {
                break;
            }
        }
        dropped
    }

    /// Entries whose byte range extends beyond `from_offset` and starts
    /// below `to_offset`. For the sender plane: the messages to replay for
    /// a peer that had received `from_offset` bytes at its checkpoint,
    /// bounded by the sender's own `S` at *its* checkpoint (entries at or
    /// past it were sent after the sender's checkpoint and will be
    /// regenerated by re-execution). For the receiver plane, `to_offset`
    /// is `u64::MAX`: the local replay of everything logged.
    pub fn replay_range(&self, from_offset: u64, to_offset: u64) -> Vec<LogEntry> {
        self.entries
            .iter()
            .filter(|e| e.end() > from_offset && e.offset < to_offset)
            .copied()
            .collect()
    }
}

/// All of one rank's peer logs on one plane, plus the background writer
/// that streams appends to the node's local disk.
#[derive(Default)]
pub struct MsgLog {
    /// One stream per peer ever appended to, ascending by peer.
    peers: PeerTable<PeerLog>,
    /// Bytes appended since the last flush, across peers.
    pending_flush: u64,
    /// Background log writer target: queued (non-blocking) writes on
    /// this node's local disk, drained at checkpoint time.
    disk: Option<(Rc<Storage>, usize)>,
}

impl MsgLog {
    /// Empty log with no background writer.
    pub fn new() -> Self {
        MsgLog::default()
    }

    /// Stream every later append to `node`'s local disk in the background.
    pub fn attach_disk(&mut self, storage: Rc<Storage>, node: usize) {
        self.disk = Some((storage, node));
    }

    /// Append a message of `bytes` at the end of `peer`'s stream and queue
    /// its background disk write.
    pub fn append(&mut self, peer: u32, bytes: u64, seq: u64) -> LogEntry {
        let e = self.peers.update(peer, |l| l.append(bytes, seq));
        self.pending_flush += bytes;
        if let Some((storage, node)) = &self.disk {
            storage.queue_local_log_write(*node, bytes);
        }
        e
    }

    /// [`PeerLog::gc`] on `peer`'s stream (0 if nothing was ever logged).
    pub fn gc(&mut self, peer: u32, covered_offset: u64) -> u64 {
        self.peers.get_mut(peer).map_or(0, |l| l.gc(covered_offset))
    }

    /// The log of `peer`'s stream, if any messages were ever logged.
    pub fn peer(&self, peer: u32) -> Option<&PeerLog> {
        self.peers.get(peer)
    }

    /// Iterate all (peer, log) pairs, ascending by peer.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &PeerLog)> {
        self.peers.iter()
    }

    /// High-water mark of `peer`'s stream (0 if never logged).
    pub fn logged_end(&self, peer: u32) -> u64 {
        self.peer(peer).map_or(0, PeerLog::appended_bytes)
    }

    /// [`PeerLog::replay_range`] on `peer`'s stream (empty if never logged).
    pub fn replay_range(&self, peer: u32, from_offset: u64, to_offset: u64) -> Vec<LogEntry> {
        self.peer(peer)
            .map(|l| l.replay_range(from_offset, to_offset))
            .unwrap_or_default()
    }

    /// Pending-flush bytes across peers, resetting them — the bytes
    /// written to storage at "synchronize message logs".
    pub fn take_all_pending_flush(&mut self) -> u64 {
        std::mem::take(&mut self.pending_flush)
    }

    /// Total bytes ever appended across peers.
    pub fn appended_bytes(&self) -> u64 {
        self.peers.iter().map(|(_, l)| l.appended_bytes()).sum()
    }

    /// Total retained bytes across peers (memory pressure diagnostics).
    pub fn retained_bytes(&self) -> u64 {
        self.peers.iter().map(|(_, l)| l.retained_bytes()).sum()
    }

    /// Total bytes garbage-collected across peers: every appended byte is
    /// either retained or dropped.
    pub fn gc_bytes(&self) -> u64 {
        self.appended_bytes() - self.retained_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_cumulative_offsets() {
        let mut log = PeerLog::default();
        let a = log.append(100, 0);
        let b = log.append(50, 1);
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 100);
        assert_eq!(b.end(), 150);
        assert_eq!(log.appended_bytes(), 150);
        assert_eq!(log.retained_bytes(), 150);
    }

    #[test]
    fn gc_drops_only_fully_covered_entries() {
        let mut log = PeerLog::default();
        log.append(100, 0); // [0, 100)
        log.append(100, 1); // [100, 200)
        log.append(100, 2); // [200, 300)
                            // Peer checkpointed having received 150 bytes: entry 0 is covered,
                            // entry 1 is split — kept whole.
        let dropped = log.gc(150);
        assert_eq!(dropped, 100);
        assert_eq!(log.len(), 2);
        assert_eq!(
            log.replay_range(0, u64::MAX).first().map(|e| e.offset),
            Some(100)
        );
        // GC is monotone; a smaller offset later is a no-op.
        assert_eq!(log.gc(50), 0);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn replay_range_selects_suffix() {
        let mut log = PeerLog::default();
        log.append(100, 0);
        log.append(100, 1);
        log.append(100, 2);
        // Peer had 150 at its ckpt; I had sent 300 at mine: replay entries
        // overlapping [150, 300) → entries 1 and 2.
        let replay = log.replay_range(150, 300);
        assert_eq!(replay.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2]);
        // I checkpointed earlier, at 250: entry 2 starts before 250 → still
        // replayed (it was sent before my checkpoint).
        let replay = log.replay_range(150, 250);
        assert_eq!(replay.len(), 2);
        // Sender ckpt at exactly 200: entry 2 (offset 200) is NOT replayed.
        let replay = log.replay_range(150, 200);
        assert_eq!(replay.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1]);
        // Peer already has everything.
        assert!(log.replay_range(300, 300).is_empty());
    }

    #[test]
    fn pending_flush_accumulates_and_resets() {
        let mut log = MsgLog::new();
        log.append(3, 100, 0);
        log.append(5, 200, 1);
        assert_eq!(log.take_all_pending_flush(), 300);
        assert_eq!(log.take_all_pending_flush(), 0);
        log.append(3, 40, 2);
        assert_eq!(log.take_all_pending_flush(), 40);
    }

    #[test]
    fn per_peer_isolation() {
        let mut log = MsgLog::new();
        log.append(1, 10, 0);
        log.append(2, 20, 1);
        assert_eq!(log.peer(1).unwrap().retained_bytes(), 10);
        assert_eq!(log.peer(2).unwrap().retained_bytes(), 20);
        assert!(log.peer(9).is_none());
        assert_eq!(log.retained_bytes(), 30);
    }

    #[test]
    fn gc_then_replay_never_loses_needed_bytes() {
        // Invariant: after gc(v), replay_range(v', s) for any v' >= v still
        // covers [v', s).
        let mut log = PeerLog::default();
        for i in 0..10 {
            log.append(10 + i, i);
        }
        let total = log.appended_bytes();
        log.gc(37); // drops entries ending ≤ 37
        for vprime in 37..total {
            let replay = log.replay_range(vprime, total);
            let covered_from = replay.first().map(|e| e.offset).unwrap_or(total);
            assert!(covered_from <= vprime, "hole before {vprime}");
            let covered_to = replay.last().map(|e| e.end()).unwrap_or(total);
            assert!(covered_to >= total);
        }
    }

    #[test]
    fn recv_log_replays_its_own_suffix() {
        let mut log = MsgLog::new();
        log.append(2, 100, 0); // [0, 100)
        log.append(2, 100, 1); // [100, 200)
        log.append(2, 50, 2); // [200, 250)
        assert_eq!(log.logged_end(2), 250);
        // Restart from a checkpoint with rr = 150: entry 0 is covered by
        // the image, entries 1 and 2 replay locally.
        let replay = log.replay_range(2, 150, u64::MAX);
        assert_eq!(replay.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2]);
        // GC below a committed floor keeps the replayable suffix whole.
        assert_eq!(log.gc(2, 150), 100);
        let replay = log.replay_range(2, 150, u64::MAX);
        assert_eq!(replay.len(), 2);
        assert_eq!(
            log.logged_end(2),
            250,
            "gc must not move the high-water mark"
        );
    }

    #[test]
    fn digest_of_value_is_pinned() {
        assert_eq!(digest_of(1, 2, 3), 0xda2b_fb22_5e0d_1f05);
    }

    #[test]
    fn recv_digest_is_a_function_of_the_message_identity() {
        let a = digest_of(1, 7, 100);
        assert_eq!(a, digest_of(1, 7, 100));
        assert_ne!(a, digest_of(2, 7, 100));
        assert_ne!(a, digest_of(1, 8, 100));
        assert_ne!(a, digest_of(1, 7, 101));
    }
}
