//! Collective operations built from point-to-point messages.
//!
//! Collectives are **application traffic**: every constituent message is
//! traced, counted in the channel counters, gated by checkpoint protocols,
//! and eligible for message logging — exactly as in LAM/MPI, where the
//! checkpoint layer sits below the collective algorithms.
//!
//! Algorithms follow the classic MPICH shapes: dissemination barrier,
//! binomial-tree broadcast/reduce, ring allgather.

// gcr-lint: trust(D03-T) Comm::new's panics are documented constructor preconditions (membership fixed at build time); rank tables are sized to the communicator

use std::cell::Cell;
use std::rc::Rc;

use gcr_sim::future::join2;

use crate::rank::Rank;
use crate::world::RankCtx;

/// Size of a zero-payload synchronization message on the wire.
const SYNC_BYTES: u64 = 8;

/// A communicator: an ordered set of ranks with a private collective
/// sequence space. All members must construct the communicator with the
/// same `id` and the same rank order, and must call the same collectives in
/// the same order (the usual MPI contract).
pub struct Comm {
    ctx: RankCtx,
    id: u64,
    ranks: Rc<Vec<Rank>>,
    pos: usize,
    next_op: Cell<u64>,
}

impl Comm {
    /// Create a communicator handle for `ctx.rank()`.
    ///
    /// # Panics
    /// Panics if the calling rank is not in `ranks`, or `id >= 2^16`.
    pub fn new(ctx: RankCtx, id: u64, ranks: Rc<Vec<Rank>>) -> Self {
        assert!(id < 1 << 16, "communicator id out of range");
        assert!(!ranks.is_empty(), "empty communicator");
        let me = ctx.rank();
        let pos = ranks
            .iter()
            .position(|&r| r == me)
            .unwrap_or_else(|| panic!("{me} is not a member of communicator {id}"));
        Comm {
            ctx,
            id,
            ranks,
            pos,
            next_op: Cell::new(0),
        }
    }

    /// The world communicator (id 0, all ranks in order).
    pub fn world(ctx: RankCtx) -> Self {
        let ranks = Rc::new((0..ctx.n()).map(Rank::from).collect::<Vec<_>>());
        Comm::new(ctx, 0, ranks)
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// This rank's index within the communicator.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Member at index `i`.
    pub fn member(&self, i: usize) -> Rank {
        self.ranks[i]
    }

    /// All members in communicator order.
    pub fn members(&self) -> &[Rank] {
        &self.ranks
    }

    fn next_seq(&self) -> u64 {
        let op = self.next_op.get();
        assert!(
            op < 1 << 16,
            "collective sequence space exhausted on comm {}",
            self.id
        );
        self.next_op.set(op + 1);
        (self.id << 16) | op
    }

    async fn exchange(&self, dst_pos: usize, src_pos: usize, seq: u64, bytes: u64) {
        let dst = self.ranks[dst_pos];
        let src = self.ranks[src_pos];
        let (_, _env) = join2(
            self.ctx.coll_send(dst, seq, bytes),
            self.ctx.coll_recv(src, seq),
        )
        .await;
    }

    /// Dissemination barrier: ⌈log₂ n⌉ rounds of small sendrecvs.
    pub async fn barrier(&self) {
        let n = self.size();
        if n == 1 {
            return;
        }
        let seq = self.next_seq();
        let mut k = 1usize;
        while k < n {
            let dst = (self.pos + k) % n;
            let src = (self.pos + n - k) % n;
            self.exchange(dst, src, seq, SYNC_BYTES).await;
            k <<= 1;
        }
    }

    /// Binomial-tree broadcast of `bytes` from the member at `root_pos`.
    pub async fn bcast(&self, root_pos: usize, bytes: u64) {
        let n = self.size();
        assert!(root_pos < n, "root out of range");
        if n == 1 {
            return;
        }
        let seq = self.next_seq();
        let relative = (self.pos + n - root_pos) % n;
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let src_rel = relative - mask;
                let src = (src_rel + root_pos) % n;
                self.ctx.coll_recv(self.ranks[src], seq).await;
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if relative + mask < n {
                let dst_rel = relative + mask;
                let dst = (dst_rel + root_pos) % n;
                self.ctx.coll_send(self.ranks[dst], seq, bytes).await;
            }
            mask >>= 1;
        }
    }

    /// Ring-pipelined broadcast: the payload is cut into `segments` pieces
    /// that stream around the ring, so the cost approaches
    /// `bytes/bw × (1 + (n−2)/segments)` instead of the binomial tree's
    /// `log₂(n) × bytes/bw`. This is how HPL's panel/U broadcasts behave
    /// (its `1ring`/`2ring` variants).
    pub async fn bcast_ring(&self, root_pos: usize, bytes: u64, segments: u64) {
        let n = self.size();
        assert!(root_pos < n, "root out of range");
        assert!(segments > 0, "need at least one segment");
        if n == 1 || bytes == 0 {
            return;
        }
        let seq = self.next_seq();
        let rel = (self.pos + n - root_pos) % n;
        let prev = (self.pos + n - 1) % n;
        let next = (self.pos + 1) % n;
        let segments = segments.min(bytes);
        let base = bytes / segments;
        let rem = bytes % segments;
        for s in 0..segments {
            let b = base + u64::from(s < rem);
            if rel > 0 {
                self.ctx.coll_recv(self.ranks[prev], seq).await;
            }
            if rel < n - 1 {
                self.ctx.coll_send(self.ranks[next], seq, b).await;
            }
        }
    }

    /// Binomial-tree reduction of `bytes` to the member at `root_pos`.
    pub async fn reduce(&self, root_pos: usize, bytes: u64) {
        let n = self.size();
        assert!(root_pos < n, "root out of range");
        if n == 1 {
            return;
        }
        let seq = self.next_seq();
        let relative = (self.pos + n - root_pos) % n;
        let mut mask = 1usize;
        while mask < n {
            if relative & mask == 0 {
                if relative + mask < n {
                    let src_rel = relative + mask;
                    let src = (src_rel + root_pos) % n;
                    self.ctx.coll_recv(self.ranks[src], seq).await;
                }
            } else {
                let dst_rel = relative - mask;
                let dst = (dst_rel + root_pos) % n;
                self.ctx.coll_send(self.ranks[dst], seq, bytes).await;
                break;
            }
            mask <<= 1;
        }
    }

    /// Allreduce = reduce to member 0 + broadcast from member 0.
    pub async fn allreduce(&self, bytes: u64) {
        self.reduce(0, bytes).await;
        self.bcast(0, bytes).await;
    }

    /// Ring allgather: n−1 steps, each member forwarding `bytes_per_member`.
    pub async fn allgather(&self, bytes_per_member: u64) {
        let n = self.size();
        if n == 1 {
            return;
        }
        let seq = self.next_seq();
        let right = (self.pos + 1) % n;
        let left = (self.pos + n - 1) % n;
        for _ in 0..n - 1 {
            self.exchange(right, left, seq, bytes_per_member).await;
        }
    }

    /// Linear gather of `bytes` from every member to `root_pos`.
    pub async fn gather(&self, root_pos: usize, bytes: u64) {
        let n = self.size();
        assert!(root_pos < n, "root out of range");
        if n == 1 {
            return;
        }
        let seq = self.next_seq();
        if self.pos == root_pos {
            for i in 0..n {
                if i != root_pos {
                    self.ctx.coll_recv(self.ranks[i], seq).await;
                }
            }
        } else {
            self.ctx.coll_send(self.ranks[root_pos], seq, bytes).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldOpts};
    use gcr_net::{Cluster, ClusterSpec};
    use gcr_sim::{Sim, SimDuration, SimTime};
    use std::cell::Cell;

    fn run_collective<F, Fut>(n: usize, f: F) -> (World, SimTime)
    where
        F: Fn(Comm, RankCtx) -> Fut + Clone + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::test(n));
        let world = World::new(cluster, WorldOpts::default());
        for r in 0..n {
            let f = f.clone();
            world.launch(Rank::from(r), move |ctx| {
                let comm = Comm::world(ctx.clone());
                f(comm, ctx)
            });
        }
        sim.run().unwrap();
        (world, sim.now())
    }

    #[test]
    fn barrier_synchronizes_stragglers() {
        // Each rank sleeps r * 10 ms then barriers; all must exit at ≥ the
        // slowest arrival.
        let exit_min = Rc::new(Cell::new(SimTime::MAX));
        let em = Rc::clone(&exit_min);
        let (_, _) = run_collective(8, move |comm, ctx| {
            let em = Rc::clone(&em);
            async move {
                ctx.busy(SimDuration::from_millis(ctx.rank().0 as u64 * 10))
                    .await;
                comm.barrier().await;
                em.set(em.get().min(ctx.now()));
            }
        });
        assert!(exit_min.get() >= SimTime::from_millis(70));
    }

    #[test]
    fn repeated_barriers_do_not_cross_talk() {
        let (_, _) = run_collective(4, |comm, _ctx| async move {
            for _ in 0..10 {
                comm.barrier().await;
            }
        });
    }

    #[test]
    fn bcast_from_each_root() {
        let (world, _) = run_collective(6, |comm, _ctx| async move {
            for root in 0..6 {
                comm.bcast(root, 4096).await;
            }
        });
        // Every rank consumed at least one bcast message per round it
        // wasn't the root of... just check global conservation:
        let c = world.counters();
        assert!(c.all_quiescent());
    }

    #[test]
    fn reduce_then_bcast_is_allreduce() {
        let (_, t) = run_collective(8, |comm, _ctx| async move {
            comm.allreduce(8).await;
        });
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn allgather_moves_n_minus_1_chunks_per_rank() {
        let (world, _) = run_collective(5, |comm, _ctx| async move {
            comm.allgather(1000).await;
        });
        let c = world.counters();
        // Ring: each rank sends exactly n-1 chunks.
        for r in 0..5 {
            let sent: u64 = (0..5)
                .map(|d| c.pair(Rank(r), Rank(d as u32)).sent_bytes)
                .sum();
            assert_eq!(sent, 4000);
        }
    }

    #[test]
    fn gather_concentrates_at_root() {
        let (world, _) = run_collective(6, |comm, _ctx| async move {
            comm.gather(2, 512).await;
        });
        let c = world.counters();
        let into_root: u64 = (0..6)
            .map(|s| c.pair(Rank(s), Rank(2)).consumed_bytes)
            .sum();
        assert_eq!(into_root, 5 * 512);
    }

    #[test]
    fn subgroup_comm_works() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::test(6));
        let world = World::new(cluster, WorldOpts::default());
        // Two groups of 3 barrier independently.
        for r in 0..6usize {
            world.launch(Rank::from(r), move |ctx| async move {
                let gid = (r / 3) as u64 + 1;
                let ranks: Vec<Rank> = (0..3).map(|i| Rank::from((r / 3) * 3 + i)).collect();
                let comm = Comm::new(ctx.clone(), gid, Rc::new(ranks));
                assert_eq!(comm.size(), 3);
                comm.barrier().await;
                comm.bcast(0, 1024).await;
            });
        }
        sim.run().unwrap();
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn non_member_construction_panics() {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::test(4));
        let world = World::new(cluster, WorldOpts::default());
        let ctx = world.ctx(Rank(3));
        let _ = Comm::new(ctx, 1, Rc::new(vec![Rank(0), Rank(1)]));
    }

    #[test]
    fn two_rank_collectives() {
        let (_, _) = run_collective(2, |comm, _ctx| async move {
            comm.barrier().await;
            comm.bcast(0, 100).await;
            comm.reduce(1, 100).await;
            comm.allgather(50).await;
        });
    }

    #[test]
    fn ring_bcast_delivers_to_all_members() {
        let (world, _) = run_collective(6, |comm, _ctx| async move {
            comm.bcast_ring(2, 64_000, 8).await;
        });
        let c = world.counters();
        // Ring: every member except the last relative one forwards once.
        let total_sent: u64 = (0..6)
            .flat_map(|s| (0..6).map(move |d| (s, d)))
            .map(|(s, d)| c.pair(Rank(s as u32), Rank(d as u32)).sent_bytes)
            .sum();
        assert_eq!(total_sent, 5 * 64_000);
        assert!(c.all_quiescent());
    }

    #[test]
    fn ring_bcast_pipelines_faster_than_binomial_for_large_payloads() {
        // On a slow network, a segmented ring bcast should beat the
        // binomial tree for a large payload across many ranks.
        let time_with = |ring: bool| -> SimTime {
            let sim = Sim::new();
            let mut spec = ClusterSpec::test(8);
            spec.net.bandwidth_bps = 10e6; // slow link: serialization dominates
            let cluster = Cluster::new(&sim, spec);
            let world = World::new(cluster, WorldOpts::default());
            for r in 0..8u32 {
                world.launch(Rank(r), move |ctx| async move {
                    let comm = Comm::world(ctx.clone());
                    if ring {
                        comm.bcast_ring(0, 8 << 20, 16).await;
                    } else {
                        comm.bcast(0, 8 << 20).await;
                    }
                });
            }
            sim.run().unwrap();
            sim.now()
        };
        let ring = time_with(true);
        let tree = time_with(false);
        assert!(ring < tree, "ring {ring} should beat tree {tree}");
    }

    #[test]
    fn ring_bcast_zero_bytes_is_noop() {
        let (_, t) = run_collective(4, |comm, _ctx| async move {
            comm.bcast_ring(0, 0, 4).await;
        });
        assert_eq!(t, SimTime::ZERO);
    }

    #[test]
    fn singleton_collectives_are_noops() {
        let (_, t) = run_collective(1, |comm, _ctx| async move {
            comm.barrier().await;
            comm.bcast(0, 1 << 20).await;
            comm.allreduce(1 << 20).await;
        });
        assert_eq!(t, SimTime::ZERO);
    }
}
