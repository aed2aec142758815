//! Group-local recovery costs the group and its partners, not the world:
//! recovering one group of a ring takes the same executor work at 1,024
//! and at 4,096 ranks. The 100k-rank run in `tests/scale.rs` covers the
//! same path at full size but only bounds its memory.

use std::cell::Cell;
use std::rc::Rc;

use gcr::ckpt::{CkptConfig, CkptRuntime, Mode};
use gcr::group::contiguous;
use gcr::mpi::{World, WorldOpts};
use gcr::net::{Cluster, ClusterSpec, StorageTarget};
use gcr::sim::{Sim, SimTime};
use gcr::workloads::{Ring, RingConfig, Workload};

const GROUP_RANKS: usize = 8;

/// Executor polls that `recover_group` takes for group 1 of an `n`-rank
/// ring in contiguous groups of 8, run to completion after one committed
/// checkpoint wave. On a ring every group has the same two out-of-group
/// partners, so a recovery whose cost follows the group and its partners
/// polls the same tasks at every world size.
fn ring_recovery_polls(n: usize) -> u64 {
    let sim = Sim::new();
    let world = World::new(
        Cluster::new(&sim, ClusterSpec::test(n)),
        WorldOpts::default(),
    );
    let groups = Rc::new(contiguous(n, n / GROUP_RANKS));
    Ring::new(RingConfig {
        nprocs: n,
        iters: 4,
        bytes: 4096,
        compute_ms: 1,
        image_bytes: 1 << 20,
    })
    .launch(&world);
    let cfg = CkptConfig::uniform(n, 1 << 20, StorageTarget::Local).deterministic();
    let rt = CkptRuntime::install(&world, groups, Mode::Blocking, cfg);
    let polls = Rc::new(Cell::new(0));
    {
        let (sim2, world, rt, polls) = (sim.clone(), world.clone(), rt.clone(), Rc::clone(&polls));
        sim.spawn_named("recovery-controller", async move {
            let committed = rt.single_checkpoint_at(SimTime::from_millis(1)).await;
            assert!(committed, "the wave must commit before the ring ends");
            world.wait_all_ranks().await;
            let before = sim2.poll_count();
            let stats = rt.recover_group(1).await.expect("ring recovery");
            polls.set(sim2.poll_count() - before);
            assert_eq!(stats.ranks_restarted, GROUP_RANKS);
            assert!(stats.generation.is_some());
            rt.shutdown();
        });
    }
    sim.run()
        .unwrap_or_else(|d| panic!("{n}-rank ring deadlocked: {d}"));
    polls.get()
}

#[test]
fn recovering_one_group_polls_as_many_tasks_at_4k_ranks_as_at_1k() {
    let small = ring_recovery_polls(1_024);
    let large = ring_recovery_polls(4_096);
    assert_eq!(
        small, large,
        "group recovery polled {small} times at 1,024 ranks but {large} at 4,096"
    );
}
