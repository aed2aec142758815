//! Microbenchmarks of the simulation kernel itself.
//!
//! Plain timing harness (`cargo bench -p gcr-bench --bench kernel`):
//! each case is warmed up once, then timed over a fixed iteration count
//! and reported as mean wall-clock per iteration. The sharded throughput
//! grid that writes `BENCH_kernel.json` is `gcrsim bench`.

use gcr_mpi::{Comm, Rank, World, WorldOpts};
use gcr_net::{Cluster, ClusterSpec};
use gcr_sim::{Sim, SimDuration};

fn time_case(name: &str, iters: u32, mut f: impl FnMut()) {
    f(); // warm-up
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    let per = start.elapsed() / iters;
    println!("{name:<28} {per:>12.2?}/iter  ({iters} iters)");
}

fn main() {
    println!("kernel microbenchmarks");
    time_case("spawn_sleep_100_tasks", 50, || {
        let sim = Sim::new();
        for i in 0..100u64 {
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(i)).await;
            });
        }
        sim.run().unwrap();
    });
    time_case("p2p_1000_messages", 20, || {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::test(2));
        let world = World::new(cluster, WorldOpts::default());
        world.launch(Rank(0), |ctx| async move {
            for _ in 0..1000 {
                ctx.send(Rank(1), 1, 512).await;
            }
        });
        world.launch(Rank(1), |ctx| async move {
            for _ in 0..1000 {
                ctx.recv(Rank(0), 1).await;
            }
        });
        sim.run().unwrap();
    });
    time_case("allreduce_32_ranks", 10, || {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::test(32));
        let world = World::new(cluster, WorldOpts::default());
        for r in 0..32u32 {
            world.launch(Rank::from(r), |ctx| async move {
                let comm = Comm::world(ctx.clone());
                for _ in 0..10 {
                    comm.allreduce(64).await;
                }
            });
        }
        sim.run().unwrap();
    });
}
