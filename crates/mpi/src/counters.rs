//! Per-channel byte/message accounting for application traffic.
//!
//! These counters drive three things:
//! * the **bookmark drain** in coordinated checkpointing (a channel is clean
//!   when everything the sender put on the wire has arrived at the
//!   receiver's MPI layer),
//! * the **R/S volume counters** of the paper's Algorithm 1 (bytes received
//!   from / sent to each process, recorded at checkpoint time), and
//! * end-of-run sanity invariants (nothing left in flight).
//!
//! Storage is a dense `n × n` matrix at paper scale and a sorted sparse map
//! above [`DENSE_LIMIT`] ranks — a 100k-rank world would need ~10¹⁰ dense
//! entries, while its actual communication graph (grid neighbors, group
//! members) touches a vanishing fraction of pairs. The sparse map is a
//! `BTreeMap`, not a hash map, so every iteration order is deterministic
//! (`clippy.toml` bans the hash containers).

// gcr-lint: trust(D03-T) the dense pair matrix is n×n by construction; rank indices come from the validated world

use std::collections::BTreeMap;

use crate::rank::Rank;

/// Worlds larger than this store channel counters sparsely.
pub const DENSE_LIMIT: usize = 512;

/// Byte and message counts on one directed channel `src → dst`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairStats {
    /// Bytes the sender has put on the wire (data transfer started).
    pub sent_bytes: u64,
    /// Messages the sender has put on the wire.
    pub sent_msgs: u64,
    /// Bytes that have arrived at the receiver's MPI layer.
    pub arrived_bytes: u64,
    /// Messages that have arrived at the receiver's MPI layer.
    pub arrived_msgs: u64,
    /// Bytes consumed by a completed application receive.
    pub consumed_bytes: u64,
    /// Messages consumed by completed application receives.
    pub consumed_msgs: u64,
}

impl PairStats {
    /// Bytes on the wire: sent but not yet arrived.
    pub fn in_flight_bytes(&self) -> u64 {
        self.sent_bytes - self.arrived_bytes
    }

    /// Messages on the wire.
    pub fn in_flight_msgs(&self) -> u64 {
        self.sent_msgs - self.arrived_msgs
    }
}

/// Channel-pair storage: dense matrix at paper scale, sorted sparse map at
/// 100k-rank scale.
#[derive(Debug, Clone)]
enum Pairs {
    Dense(Vec<PairStats>),
    Sparse(BTreeMap<(u32, u32), PairStats>),
}

/// All `src → dst` channel counters of one world.
#[derive(Debug, Clone)]
pub struct ChannelCounters {
    n: usize,
    pairs: Pairs,
}

impl ChannelCounters {
    /// Counters for an `n`-rank world.
    pub fn new(n: usize) -> Self {
        let pairs = if n <= DENSE_LIMIT {
            Pairs::Dense(vec![PairStats::default(); n * n])
        } else {
            Pairs::Sparse(BTreeMap::new())
        };
        ChannelCounters { n, pairs }
    }

    #[inline]
    fn entry(&mut self, src: Rank, dst: Rank) -> &mut PairStats {
        debug_assert!(src.idx() < self.n && dst.idx() < self.n);
        match &mut self.pairs {
            Pairs::Dense(v) => &mut v[src.idx() * self.n + dst.idx()],
            Pairs::Sparse(m) => m.entry((src.0, dst.0)).or_default(),
        }
    }

    /// Record a send (data put on the wire).
    pub fn on_send(&mut self, src: Rank, dst: Rank, bytes: u64) {
        let p = self.entry(src, dst);
        p.sent_bytes += bytes;
        p.sent_msgs += 1;
    }

    /// Record an arrival at the receiver's MPI layer.
    pub fn on_arrival(&mut self, src: Rank, dst: Rank, bytes: u64) {
        let p = self.entry(src, dst);
        p.arrived_bytes += bytes;
        p.arrived_msgs += 1;
        debug_assert!(
            p.arrived_bytes <= p.sent_bytes,
            "arrival without send on {src}→{dst}"
        );
    }

    /// Record consumption by a completed application receive.
    pub fn on_consume(&mut self, src: Rank, dst: Rank, bytes: u64) {
        let p = self.entry(src, dst);
        p.consumed_bytes += bytes;
        p.consumed_msgs += 1;
        debug_assert!(
            p.consumed_bytes <= p.arrived_bytes,
            "consume before arrival on {src}→{dst}"
        );
    }

    /// Stats for one directed channel.
    pub fn pair(&self, src: Rank, dst: Rank) -> PairStats {
        debug_assert!(src.idx() < self.n && dst.idx() < self.n);
        match &self.pairs {
            Pairs::Dense(v) => v[src.idx() * self.n + dst.idx()],
            Pairs::Sparse(m) => m.get(&(src.0, dst.0)).copied().unwrap_or_default(),
        }
    }

    /// World size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// True when no bytes are in flight anywhere.
    pub fn all_quiescent(&self) -> bool {
        let quiet = |p: &PairStats| p.in_flight_bytes() == 0 && p.in_flight_msgs() == 0;
        match &self.pairs {
            Pairs::Dense(v) => v.iter().all(quiet),
            Pairs::Sparse(m) => m.values().all(quiet),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_arrive_consume_lifecycle() {
        let mut c = ChannelCounters::new(4);
        let (a, b) = (Rank(0), Rank(2));
        c.on_send(a, b, 100);
        assert_eq!(c.pair(a, b).in_flight_bytes(), 100);
        assert!(!c.all_quiescent());
        c.on_arrival(a, b, 100);
        assert_eq!(c.pair(a, b).in_flight_bytes(), 0);
        assert!(c.all_quiescent());
        c.on_consume(a, b, 100);
        assert_eq!(c.pair(a, b).consumed_bytes, 100);
        assert_eq!(c.pair(a, b).sent_bytes, 100);
        // Reverse channel untouched.
        assert_eq!(c.pair(b, a), PairStats::default());
    }

    #[test]
    fn in_flight_bytes_are_kept_per_source() {
        let mut c = ChannelCounters::new(4);
        c.on_send(Rank(0), Rank(3), 10);
        c.on_send(Rank(1), Rank(3), 20);
        c.on_send(Rank(2), Rank(3), 30);
        c.on_arrival(Rank(1), Rank(3), 20);
        let in_flight: Vec<u64> = (0..3)
            .map(|s| c.pair(Rank(s), Rank(3)).in_flight_bytes())
            .collect();
        assert_eq!(in_flight, [10, 0, 30]);
    }

    #[test]
    fn sparse_worlds_count_like_dense_ones() {
        // Past DENSE_LIMIT the map backend takes over; behavior must be
        // indistinguishable.
        let n = DENSE_LIMIT + 8;
        let mut c = ChannelCounters::new(n);
        let (a, b) = (Rank(3), Rank(n as u32 - 1));
        assert!(c.all_quiescent());
        c.on_send(a, b, 64);
        assert!(!c.all_quiescent());
        assert_eq!(c.pair(a, b).in_flight_bytes(), 64);
        c.on_arrival(a, b, 64);
        c.on_consume(a, b, 64);
        assert!(c.all_quiescent());
        assert_eq!(c.pair(a, b).consumed_bytes, 64);
        // Untouched pairs read as zeroes without materializing.
        assert_eq!(c.pair(b, a), PairStats::default());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "arrival without send")]
    fn arrival_without_send_is_caught() {
        let mut c = ChannelCounters::new(2);
        c.on_arrival(Rank(0), Rank(1), 5);
    }
}
