//! Property-style tests of the MPI runtime's transport guarantees.
//!
//! Randomised inputs come from the deterministic [`DetRng`] so every case
//! is reproducible from its seed (no external property-test framework).

use std::cell::RefCell;
use std::rc::Rc;

use gcr_mpi::{Rank, SrcSel, World, WorldOpts};
use gcr_net::{Cluster, ClusterSpec};
use gcr_sim::{DetRng, Sim};

fn world(n: usize, eager_threshold: u64) -> (Sim, World) {
    let sim = Sim::new();
    let cluster = Cluster::new(&sim, ClusterSpec::test(n));
    let opts = WorldOpts {
        eager_threshold,
        ..WorldOpts::default()
    };
    (sim.clone(), World::new(cluster, opts))
}

/// Per-channel FIFO: a receiver always sees a sender's messages in
/// send order, for any mix of eager and rendezvous sizes.
#[test]
fn no_overtaking_on_a_channel() {
    for case in 0..32u64 {
        let mut rng = DetRng::new(0x3301_0001).fork_idx(case);
        let sizes: Vec<u64> = (0..rng.range_u64(1, 40))
            .map(|_| rng.range_u64(1, 200_000))
            .collect();
        // Exercise all-rendezvous, mixed, and all-eager regimes.
        let threshold = [1u64, 64 * 1024, 1u64 << 30][rng.index(3)];
        let (sim, world) = world(2, threshold);
        let m = sizes.len();
        {
            let sizes = sizes.clone();
            world.launch(Rank(0), move |ctx| async move {
                for &b in &sizes {
                    ctx.send(Rank(1), 1, b).await;
                }
            });
        }
        let got: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let got = Rc::clone(&got);
            world.launch(Rank(1), move |ctx| async move {
                for _ in 0..m {
                    let env = ctx.recv(Rank(0), 1).await;
                    got.borrow_mut().push((env.id.seq, env.bytes));
                }
            });
        }
        sim.run().unwrap();
        let got = got.borrow();
        assert_eq!(got.len(), m, "case {case}");
        for (i, (&(seq, bytes), &expected)) in got.iter().zip(&sizes).enumerate() {
            assert_eq!(seq, i as u64, "case {case}");
            assert_eq!(bytes, expected, "case {case}");
        }
    }
}

/// Conservation: every sent byte arrives and is consumed exactly once,
/// for random many-to-many traffic.
#[test]
fn bytes_are_conserved() {
    for case in 0..32u64 {
        let mut rng = DetRng::new(0x3301_0002).fork_idx(case);
        let n = rng.range_u64(2, 6) as usize;
        let plan: Vec<(usize, usize, u64)> = (0..rng.range_u64(1, 30))
            .map(|_| (rng.index(6), rng.index(6), rng.range_u64(1, 50_000)))
            .filter(|&(s, d, _)| s < n && d < n && s != d)
            .collect();
        let (sim, world) = world(n, 16 * 1024);
        // Count expected receives per destination per source.
        let mut expect: Vec<Vec<u64>> = vec![vec![0; n]; n];
        for &(s, d, _) in &plan {
            expect[d][s] += 1;
        }
        #[allow(clippy::needless_range_loop)] // r is a rank id, not just an index
        for r in 0..n {
            let my_sends: Vec<(usize, u64)> = plan
                .iter()
                .filter(|&&(s, _, _)| s == r)
                .map(|&(_, d, b)| (d, b))
                .collect();
            let my_recvs: u64 = expect[r].iter().sum();
            world.launch(Rank(r as u32), move |ctx| async move {
                let sender = {
                    let ctx = ctx.clone();
                    async move {
                        for (d, b) in my_sends {
                            ctx.send(Rank(d as u32), 2, b).await;
                        }
                    }
                };
                let receiver = {
                    let ctx = ctx.clone();
                    async move {
                        for _ in 0..my_recvs {
                            ctx.recv(SrcSel::Any, 2).await;
                        }
                    }
                };
                gcr_sim::future::join2(sender, receiver).await;
            });
        }
        sim.run().unwrap();
        let c = world.counters();
        assert!(c.all_quiescent(), "case {case}");
        let total_sent: u64 = plan.iter().map(|&(_, _, b)| b).sum();
        let mut consumed = 0;
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                let p = c.pair(Rank(s), Rank(d));
                assert_eq!(p.consumed_bytes, p.sent_bytes, "case {case}");
                consumed += p.consumed_bytes;
            }
        }
        assert_eq!(consumed, total_sent, "case {case}");
    }
}

/// A 64-rank ring on `shards` executor shards: each rank batch-sends four
/// eager messages to its successor and drains four from its predecessor.
/// Groups of eight ranks are pinned to shards, so one ring edge in eight
/// crosses a shard boundary. Returns the final simulated time (ns) and
/// the executor counters that must not depend on the shard count.
fn sharded_ring(shards: usize) -> (u64, u64, u64, u64, u64) {
    const N: u32 = 64;
    const GROUP_RANKS: u32 = 8;
    const ITERS: u32 = 4;
    let sim = Sim::with_shards(shards);
    let world = World::new(
        Cluster::new(&sim, ClusterSpec::test(N as usize)),
        WorldOpts::default(),
    );
    world.set_shard_map((0..N).map(|r| r / GROUP_RANKS).collect());
    for r in 0..N {
        let next = Rank((r + 1) % N);
        let prev = Rank((r + N - 1) % N);
        world.launch(Rank(r), move |ctx| async move {
            ctx.send_batch(next, 7, 1033, ITERS).await;
            for _ in 0..ITERS {
                ctx.recv(prev, 7).await;
            }
        });
    }
    sim.run().unwrap();
    let st = sim.stats();
    (
        sim.now().as_nanos(),
        st.polls,
        st.events_fired,
        st.calls_run,
        st.merges,
    )
}

/// Sharding is layout only: the simulated outcome and the executor's
/// counters are the same at 1, 4 and 16 shards, and from run to run.
#[test]
fn executor_counters_are_shard_invariant_and_run_stable() {
    let one = sharded_ring(1);
    assert_eq!(sharded_ring(1), one, "same run, different outcome");
    for shards in [4, 16] {
        assert_eq!(
            sharded_ring(shards),
            one,
            "(now, polls, fired, calls, merges) moved between 1 and {shards} shards"
        );
    }
}
