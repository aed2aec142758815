//! Tentpole acceptance: the ReStore-style replicated in-memory
//! checkpoint backend under chaos.
//!
//! The survivability oracle lives inside the engine (`run_chaos` checks
//! it at end of run for every restore-backend scenario): after any
//! schedule with at most `k − 1` concurrent group failures, every
//! committed generation must remain reconstructible from surviving peer
//! memory and no restart read may touch the remote servers — unless the
//! backend recorded a typed `DegradedRedundancy`, in which case the
//! typed degradation (never an abort) *is* the contract. These tests
//! drive the oracle across the protocol/workload/schedule matrix and
//! additionally pin the surface behaviour: peer-served restarts, replica
//! loss during rebuild, and determinism of the replicated plane.

use gcr_chaos::{
    parse_schedule, run_chaos, run_chaos_verified, ChaosBackend, ChaosSpec, Proto, WorkloadKind,
};
use gcr_net::StorageTarget;

/// A restore-backend spec with replication k over an explicit schedule.
fn restore_spec(
    seed: u64,
    workload: WorkloadKind,
    proto: Proto,
    storage: StorageTarget,
    interval_ms: u64,
    k: usize,
    schedule: &str,
) -> ChaosSpec {
    ChaosSpec {
        seed,
        workload,
        proto,
        storage,
        interval_ms,
        gc_overshoot: 0,
        schedule: parse_schedule(schedule).expect("test schedule parses"),
        shards: 1,
        backend: ChaosBackend::Restore,
        replication: k,
    }
}

/// Survivability across the protocol matrix: one group crash (≤ k − 1
/// failures for k = 2) on a multi-group workload. Restart reads come
/// from peer memory, the committed generations stay reconstructible
/// (engine oracle), and the run stays bit-deterministic. GP forms only
/// two groups on this workload (one non-owner group < k = 2), so it is
/// covered by the degradation tests below; GP1 and GP4 give k = 2 its
/// required three-plus groups.
#[test]
fn single_group_crash_recovers_from_peer_memory_across_protocols() {
    for proto in [Proto::Gp1, Proto::GpK { k: 4 }] {
        let s = restore_spec(
            0xBEE5,
            WorkloadKind::Cg,
            proto,
            StorageTarget::Remote,
            600,
            2,
            "crash:g1@2500",
        );
        let r = run_chaos_verified(&s);
        assert!(r.passed(), "{}: {:?}", proto.label(), r.violations);
        assert_eq!(r.backend, "restore", "{}", proto.label());
        assert_eq!(r.replication, 2, "{}", proto.label());
        assert_eq!(
            r.recoveries.len(),
            1,
            "{}: {:?}",
            proto.label(),
            r.recoveries
        );
        assert!(
            r.peer_reads > 0,
            "{}: restart never read from peer memory: {r:?}",
            proto.label()
        );
        assert_eq!(
            r.degraded_events,
            0,
            "{}: a clean single-group crash must not degrade redundancy: {:?}",
            proto.label(),
            r.violations
        );
        assert!(
            !r.recoveries[0].degraded,
            "{}: {:?}",
            proto.label(),
            r.recoveries
        );
    }
}

/// NORM is a single global group: no non-owner group exists to hold a
/// replica, so every write degrades typed at placement time and every
/// restart read falls back to the remote servers. The run still passes —
/// the recorded `DegradedRedundancy` excuses the survivability oracle,
/// and the recovery report carries the degradation.
#[test]
fn single_group_topology_degrades_typed_and_falls_back_to_disk() {
    // GP under k = 1: placement succeeds (one non-owner group), restart
    // reads come from peer memory, but the crash destroys the sole
    // copies the dead group held for its peer — recorded typed, and the
    // ≤ k − 1 bound (zero failures for k = 1) is legitimately exceeded.
    let s = restore_spec(
        0xBEE5,
        WorkloadKind::Cg,
        Proto::Gp { max_size: 4 },
        StorageTarget::Remote,
        600,
        1,
        "crash:g1@2500",
    );
    let r = run_chaos_verified(&s);
    assert!(r.passed(), "gp/k=1: {:?}", r.violations);
    assert!(r.peer_reads > 0, "gp/k=1: {r:?}");
    assert!(r.degraded_events > 0, "gp/k=1: {r:?}");

    let s = restore_spec(
        0xBEE5,
        WorkloadKind::Cg,
        Proto::Norm,
        StorageTarget::Remote,
        600,
        2,
        "crash:g1@2500",
    );
    let r = run_chaos_verified(&s);
    assert!(r.passed(), "{:?}", r.violations);
    assert_eq!(r.peer_reads, 0, "{r:?}");
    assert!(r.fallback_reads > 0, "{r:?}");
    assert!(r.degraded_events > 0, "{r:?}");
    assert_eq!(r.recoveries.len(), 1, "{:?}", r.recoveries);
    assert!(r.recoveries[0].degraded, "{:?}", r.recoveries);
}

/// Replica loss followed by the owner's crash: the `replica:` event
/// evaporates every copy group 0's members hold, the rebuild pass
/// re-replicates from surviving holders, and the later crash of group 1
/// still restarts from peer memory — the oracle proves re-replication
/// actually restored redundancy.
#[test]
fn replica_loss_is_repaired_before_the_next_crash() {
    let s = restore_spec(
        0xCAFE,
        WorkloadKind::Cg,
        Proto::GpK { k: 4 },
        StorageTarget::Remote,
        600,
        2,
        "replica:g0@14000;crash:g1@20000",
    );
    let r = run_chaos_verified(&s);
    assert!(r.passed(), "{:?}", r.violations);
    assert_eq!(r.events_applied, 2, "both events must fire");
    assert_eq!(r.recoveries.len(), 1, "{:?}", r.recoveries);
    assert!(r.peer_reads > 0, "{r:?}");
    assert_eq!(r.degraded_events, 0, "{:?}", r.violations);
}

/// Rebuild-phase sabotage. Phase 0 arms one transient push fault — the
/// bounded retry (deterministic backoff) must absorb it and the run
/// stays fully redundant. Phase 1 makes every push fail — the pass must
/// degrade to the typed `DegradedRedundancy` (which excuses the
/// survivability oracle), and the workload still completes: replica
/// exhaustion is never an abort.
#[test]
fn rebuild_faults_retry_or_degrade_typed_never_abort() {
    // Phase 0: transient — healed by retry.
    let s = restore_spec(
        0xD00D,
        WorkloadKind::Cg,
        Proto::GpK { k: 4 },
        StorageTarget::Remote,
        600,
        2,
        "replica:g0p0@14000;crash:g1@20000",
    );
    let r = run_chaos_verified(&s);
    assert!(r.passed(), "phase 0: {:?}", r.violations);
    assert_eq!(
        r.degraded_events, 0,
        "phase 0 retry must heal: {:?}",
        r.violations
    );
    assert!(r.peer_reads > 0, "phase 0: {r:?}");

    // Phase 1: every push fails — typed degradation, no abort, and the
    // later restart is allowed to fall back to the remote servers.
    let s = restore_spec(
        0xD00D,
        WorkloadKind::Cg,
        Proto::GpK { k: 4 },
        StorageTarget::Remote,
        600,
        2,
        "replica:g0p1@14000;crash:g1@20000",
    );
    let r = run_chaos_verified(&s);
    assert!(r.passed(), "phase 1: {:?}", r.violations);
    assert!(
        r.degraded_events > 0,
        "phase 1 must record typed degraded redundancy: {r:?}"
    );
}

/// Back-to-back crashes of two different groups under k = 2: each crash
/// is a single concurrent failure (recoveries serialize), so both
/// restarts must be served from peer memory with redundancy rebuilt
/// in between.
#[test]
fn serialized_crashes_of_two_groups_stay_within_k_minus_1() {
    let s = restore_spec(
        0xFEED,
        WorkloadKind::Cg,
        Proto::GpK { k: 4 },
        StorageTarget::Remote,
        600,
        2,
        "crash:g0@2500;crash:g2@4200",
    );
    let r = run_chaos_verified(&s);
    assert!(r.passed(), "{:?}", r.violations);
    assert_eq!(r.recoveries.len(), 2, "{:?}", r.recoveries);
    assert!(r.peer_reads > 0, "{r:?}");
    assert_eq!(r.degraded_events, 0, "{:?}", r.violations);
}

/// Higher replication factors place more copies but obey the same
/// no-co-location contract; k exceeding the available non-owner groups
/// degrades typed at write time and the run still completes (the
/// engine's oracle is excused by the recorded degradation).
#[test]
fn replication_factor_sweep_degrades_typed_when_k_exceeds_groups() {
    // CG forms 4 groups under GP4 → 3 non-owner groups. k = 1 places a
    // sole copy, so the group crash destroys the single replica of every
    // block its members held — the post-recovery rebuild records the loss
    // typed. k = 3 survives the crash cleanly; k = 4 exceeds the
    // available non-owner groups and degrades at placement time.
    for (k, expect_degraded) in [(1usize, true), (3, false), (4, true)] {
        let s = restore_spec(
            0xABBA,
            WorkloadKind::Cg,
            Proto::GpK { k: 4 },
            StorageTarget::Remote,
            600,
            k,
            "crash:g1@2500",
        );
        let r = run_chaos(&s);
        assert!(r.passed(), "k={k}: {:?}", r.violations);
        assert_eq!(r.replication, k, "k={k}");
        assert_eq!(
            r.degraded_events > 0,
            expect_degraded,
            "k={k}: degraded_events={} — placement should {}",
            r.degraded_events,
            if expect_degraded {
                "degrade (too few groups)"
            } else {
                "succeed"
            }
        );
        if !expect_degraded {
            assert!(r.peer_reads > 0, "k={k}: {r:?}");
        }
    }
}

/// Seeded sweep with the widened (replica-aware) event vocabulary:
/// every generated restore-backend schedule passes all oracles,
/// including the double-run determinism check.
#[test]
fn generated_restore_seeds_pass_all_oracles() {
    for seed in 0..10u64 {
        let s = ChaosSpec::generate_for(seed, ChaosBackend::Restore);
        assert_eq!(s.backend, ChaosBackend::Restore, "seed {seed}");
        let r = run_chaos_verified(&s);
        assert!(
            r.passed(),
            "seed {seed} ({}/{}/{} sched [{}]): {:?}",
            r.workload,
            r.proto,
            r.storage,
            r.schedule,
            r.violations
        );
    }
}
