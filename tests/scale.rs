//! Scale acceptance test: a 100,000-rank HPL skeleton on the sharded
//! executor survives an injected group failure and runs to completion.
//!
//! This is the tentpole's reason to exist — the single-heap executor
//! handled thousands of ranks; the sharded kernel has to hold a 250×400
//! process grid (12,500 groups of 8, whole groups pinned to shards)
//! through a checkpoint wave, a group crash, a group-local recovery, and
//! the tail of the run. The chaos harness's O(n²) post-recovery oracles
//! (recovery-line and stream-closure sweeps over every rank pair) are
//! deliberately skipped here: at 100k ranks they would dwarf the
//! simulation itself, and the same oracles already run at chaos scale in
//! `tests/determinism.rs` and `crates/chaos/tests`.

use std::rc::Rc;

use gcr::ckpt::{CkptConfig, CkptRuntime, Mode};
use gcr::group::contiguous;
use gcr::mpi::{Rank, World, WorldOpts};
use gcr::net::{Cluster, ClusterSpec, StorageTarget};
use gcr::sim::{Sim, SimDuration, SimTime};
use gcr::workloads::{Hpl, HplConfig, Workload};

const RANKS: usize = 100_000;
const SHARDS: usize = 16;
const GROUP_RANKS: usize = 8;
/// The group that dies (ranks 9,872..9,880 of the grid interior).
const CRASHED_GROUP: usize = 1_234;

/// One-panel HPL skeleton on a 250×400 grid: real column/row
/// communicators and ring broadcasts at full width, with the matrix cut
/// down so the run is traffic-dominated rather than compute-dominated.
fn hpl_100k() -> Hpl {
    Hpl::new(HplConfig {
        n_matrix: 120,
        nb: 120,
        p: 250,
        q: 400,
        efficiency: 0.75,
        pivot_rounds: 1,
        base_mem_bytes: 1 << 20,
    })
}

#[test]
fn hundred_thousand_ranks_survive_a_group_failure() {
    let wl = hpl_100k();
    assert_eq!(wl.n(), RANKS);

    let sim = Sim::with_shards(SHARDS);
    let cluster = Cluster::new(&sim, ClusterSpec::test(RANKS));
    let world = World::new(cluster, WorldOpts::default());
    // `contiguous` takes the group *count*: 12,500 groups of 8 ranks.
    let groups = Rc::new(contiguous(RANKS, RANKS / GROUP_RANKS));
    assert_eq!(groups.group_count(), RANKS / GROUP_RANKS);
    assert_eq!(groups.members(CRASHED_GROUP).len(), GROUP_RANKS);
    world.set_shard_map(
        (0..RANKS as u32)
            .map(|r| groups.group_of(r) as u32)
            .collect(),
    );
    wl.launch(&world);

    let cfg = CkptConfig::uniform(RANKS, 1 << 20, StorageTarget::Local).deterministic();
    let rt = CkptRuntime::install(&world, Rc::clone(&groups), Mode::Blocking, cfg);

    // Controller: commit one checkpoint wave early, then kill one group
    // mid-run and recover it — the chaos engine's crash path (halt the
    // members, drain in-flight waves, recover, resume) minus the
    // quadratic oracles.
    {
        let sim2 = sim.clone();
        let world = world.clone();
        let rt = rt.clone();
        let groups = Rc::clone(&groups);
        sim.spawn_named("scale-controller", async move {
            let committed = rt.single_checkpoint_at(SimTime::from_millis(2)).await;
            assert!(committed, "the first wave must commit");
            for &m in groups.members(CRASHED_GROUP) {
                world.halt(Rank(m));
            }
            while rt.waves_in_flight() > 0 {
                sim2.sleep(SimDuration::from_micros(200)).await;
            }
            let stats = rt
                .recover_group(CRASHED_GROUP)
                .await
                .expect("group recovery must succeed at scale");
            assert_eq!(stats.ranks_restarted, GROUP_RANKS);
            assert!(
                stats.generation.is_some(),
                "restart must come from the committed wave, not initial state"
            );
            for &m in groups.members(CRASHED_GROUP) {
                world.resume(Rank(m));
            }
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }

    sim.run()
        .unwrap_or_else(|d| panic!("100k-rank run deadlocked: {d}"));

    assert_eq!(world.ranks_finished(), RANKS, "every rank must complete");
    assert_eq!(rt.metrics().waves(), 1);

    let st = sim.stats();
    assert_eq!(st.shard_count, SHARDS);
    assert!(
        st.merges > 0 && st.events_fired > st.merges,
        "the cross-shard merge must actually have run: {st:?}"
    );

    // The 100k-rank footprint, in optimised builds (a debug build's frames
    // and futures are larger).
    #[cfg(not(debug_assertions))]
    if let Some(hwm_kib) = peak_rss_kib() {
        let hwm = hwm_kib / 1024;
        println!(
            "100k-rank run: VmHWM {hwm} MiB, {:.2} KiB per rank (limit {PEAK_RSS_LIMIT_MIB} MiB)",
            hwm_kib as f64 / RANKS as f64
        );
        assert!(
            hwm <= PEAK_RSS_LIMIT_MIB,
            "100k-rank run peaked at VmHWM {hwm} MiB, over {PEAK_RSS_LIMIT_MIB} MiB"
        );
    }
}

/// Release-build ceiling on the run's peak resident set.
#[cfg(not(debug_assertions))]
const PEAK_RSS_LIMIT_MIB: u64 = 1024;

/// This process's peak resident set (`VmHWM` in `/proc/self/status`) in
/// KiB, or `None` where that file cannot be read (not Linux).
#[cfg(not(debug_assertions))]
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
