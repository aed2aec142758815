//! Integration tests for the chaos harness: determinism per protocol,
//! piggyback-GC retention under multi-wave schedules, back-to-back group
//! failures, shrinker regression on an intentionally broken GC config,
//! and seeded sweeps.

use gcr_chaos::{
    parse_schedule, run_chaos, run_chaos_verified, shrink, ChaosBackend, ChaosProto, ChaosSpec,
    ChaosWorkload,
};
use gcr_net::StorageTarget;

/// Hand-built spec: one place to keep the field defaults.
fn spec(
    seed: u64,
    workload: ChaosWorkload,
    proto: ChaosProto,
    storage: StorageTarget,
    interval_ms: u64,
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
        backend: ChaosBackend::Disk,
        replication: 2,
    }
}

/// Satellite: same seed → bit-identical report for every protocol, with a
/// crash (and hence a full group recovery) inside the run.
#[test]
fn determinism_per_protocol() {
    for proto in ChaosProto::ALL {
        let storage = if proto == ChaosProto::Vcl {
            StorageTarget::Remote
        } else {
            StorageTarget::Local
        };
        let s = spec(
            42,
            ChaosWorkload::Ring,
            proto,
            storage,
            700,
            "crash:g1@2000",
        );
        let a = run_chaos(&s);
        let b = run_chaos(&s);
        assert!(a.passed(), "{}: {:?}", proto.label(), a.violations);
        assert_eq!(
            a.digest(),
            b.digest(),
            "{}: reports diverged across identical runs",
            proto.label()
        );
        assert_eq!(a.events_applied + a.events_skipped, 1, "{}", proto.label());
    }
}

/// The verified runner performs the double-run digest comparison itself.
#[test]
fn verified_run_detects_no_spurious_nondeterminism() {
    let s = spec(
        7,
        ChaosWorkload::Hpl,
        ChaosProto::Gp,
        StorageTarget::Local,
        900,
        "crash:g0@1500",
    );
    let r = run_chaos_verified(&s);
    assert!(r.passed(), "{:?}", r.violations);
    assert!(r.waves > 0);
}

/// Satellite (property test): across ≥3 checkpoint waves with inter-group
/// traffic driving RR-piggyback GC, the retained sender logs always close
/// the byte stream a later group recovery replays — GC never discards
/// bytes it still owes a recovering group. The closure oracle runs after
/// every recovery and at end of run; varied crash placements probe GC
/// state at different wave phases.
#[test]
fn gc_piggyback_never_discards_needed_bytes_across_waves() {
    for (case, schedule) in [
        "crash:g1@4000;crash:g2@9000",
        "crash:g0@2500;crash:g3@5200",
        "crash:g2@3100;crash:g1@7700",
    ]
    .iter()
    .enumerate()
    {
        let s = spec(
            100 + case as u64,
            ChaosWorkload::Cg,
            ChaosProto::Gp4,
            StorageTarget::Local,
            600,
            schedule,
        );
        let r = run_chaos(&s);
        assert!(r.passed(), "case {case}: {:?}", r.violations);
        assert!(
            r.waves >= 3,
            "case {case}: only {} waves — schedule too short",
            r.waves
        );
        assert_eq!(r.recoveries.len(), 2, "case {case}: {:?}", r.recoveries);
        assert!(
            r.recoveries.iter().any(|rec| rec.replayed_bytes > 0),
            "case {case}: no recovery replayed logged bytes — the property was not exercised: {:?}",
            r.recoveries
        );
    }
}

/// Satellite: `recover_group` under back-to-back failures of two
/// different groups — the second crash queues behind the first recovery
/// and both groups restart consistently.
#[test]
fn back_to_back_failures_of_two_groups() {
    let s = spec(
        55,
        ChaosWorkload::Cg,
        ChaosProto::Gp4,
        StorageTarget::Local,
        700,
        "crash:g0@2500;crash:g1@2550",
    );
    let r = run_chaos(&s);
    assert!(r.passed(), "{:?}", r.violations);
    assert_eq!(r.recoveries.len(), 2, "{:?}", r.recoveries);
    assert_eq!(r.recoveries[0].group, 0);
    assert_eq!(r.recoveries[1].group, 1);
    // The injected instants are 50 ms apart; serialized recovery means the
    // second group's rollback happened after the first completed, i.e. two
    // distinct restart events, not one merged line.
    assert!(
        r.recoveries.iter().all(|rec| rec.ranks == 2),
        "{:?}",
        r.recoveries
    );
}

/// Crashes landing mid-wave (interval stressed low) and under concurrent
/// storm/slow faults still recover to a consistent line.
#[test]
fn crash_during_storm_and_slow_links() {
    let s = spec(
        9,
        ChaosWorkload::Cg,
        ChaosProto::Gp4,
        StorageTarget::Remote,
        500,
        "storm:x6@1000+4000;slow:n2x5@1500+4000;crash:g1@2600;outage:s1@2000+2500",
    );
    let r = run_chaos(&s);
    assert!(r.passed(), "{:?}", r.violations);
    assert_eq!(r.recoveries.len(), 1, "{:?}", r.recoveries);
    assert_eq!(r.events_applied, 4, "all four faults should fire mid-run");
}

/// Acceptance: the shrinker, demonstrated on an intentionally broken GC
/// configuration (`gc_overshoot` discards log bytes past the piggybacked
/// RR). The oracles must catch it, the clean twin must pass, and shrinking
/// must minimize the schedule and emit a replayable repro line.
#[test]
fn shrinker_minimizes_broken_gc_config() {
    // Seed 3 generates a 4-event schedule; force the bidirectional
    // inter-group configuration where piggyback GC actually runs.
    let mut broken = ChaosSpec::generate(3);
    broken.workload = ChaosWorkload::Cg;
    broken.proto = ChaosProto::Gp4;
    broken.storage = StorageTarget::Local;
    broken.gc_overshoot = 1 << 16;
    assert_eq!(broken.schedule.len(), 4);

    let clean = ChaosSpec {
        gc_overshoot: 0,
        ..broken.clone()
    };
    assert!(run_chaos(&clean).passed(), "clean twin must pass");

    let r = run_chaos(&broken);
    assert!(!r.passed(), "overshot GC must violate the oracles");
    assert!(
        r.violations.iter().any(|v| v.contains("log truncated")),
        "expected a retention violation, got {:?}",
        r.violations
    );

    let out = shrink(&broken).expect("a failing spec must shrink");
    assert!(
        out.spec.schedule.len() < broken.schedule.len(),
        "shrinker kept all {} events",
        broken.schedule.len()
    );
    assert!(!out.violations.is_empty());
    assert!(out.runs > 0);
    assert!(out.repro.contains("gcrsim chaos --seed 3"), "{}", out.repro);
    assert!(out.repro.contains("--gc-overshoot 65536"), "{}", out.repro);
    assert!(out.repro.contains("--schedule"), "{}", out.repro);
    // The minimized spec still fails for the same reason.
    let replay = run_chaos(&out.spec);
    assert_eq!(replay.violations, out.violations);
}

/// Tentpole acceptance: a group dying *during* its checkpoint — at every
/// phase (before the image write, halfway through it, and after the
/// writes but before the commit record) — aborts the pending generation,
/// and recovery restarts the group from the last committed one. The
/// store-load oracle proves the uncommitted image was never consumed.
#[test]
fn crash_during_checkpoint_falls_back_to_committed_generation() {
    for phase in 0..3u64 {
        let s = spec(
            60 + phase,
            ChaosWorkload::Cg,
            ChaosProto::Gp4,
            StorageTarget::Local,
            600,
            &format!("crashckpt:g1p{phase}@2000"),
        );
        let r = run_chaos_verified(&s);
        assert!(r.passed(), "phase {phase}: {:?}", r.violations);
        assert_eq!(r.events_applied, 1, "phase {phase}: trap never fired");
        assert_eq!(r.recoveries.len(), 1, "phase {phase}: {:?}", r.recoveries);
        let rec = &r.recoveries[0];
        assert!(
            rec.fell_back,
            "phase {phase}: restart should fall back past the aborted generation: {rec:?}"
        );
        assert!(
            rec.generation.is_some(),
            "phase {phase}: a committed generation must exist by t=2s: {rec:?}"
        );
    }
}

/// Tentpole acceptance: corrupting the newest committed image and then
/// crashing the group restarts it from the *previous* committed
/// generation — the digest check rejects the corrupt image, generation
/// selection falls back inside the retention window, and the retained
/// peer logs still close the byte stream at the older cut.
#[test]
fn corrupt_newest_image_falls_back_a_generation() {
    let s = spec(
        70,
        ChaosWorkload::Cg,
        ChaosProto::Gp4,
        StorageTarget::Local,
        600,
        "corrupt:g1@2500",
    );
    let r = run_chaos_verified(&s);
    assert!(r.passed(), "{:?}", r.violations);
    assert_eq!(r.recoveries.len(), 1, "{:?}", r.recoveries);
    let rec = &r.recoveries[0];
    assert!(
        rec.fell_back,
        "restart should reject the corrupt image and fall back: {rec:?}"
    );
    assert!(rec.generation.is_some(), "{rec:?}");
}

/// Torn image writes (mid-transfer storage faults) either retry past the
/// fault or abort the generation — and a later crash still recovers from
/// a committed generation with every oracle intact.
#[test]
fn torn_writes_never_break_recovery() {
    // count=3 exhausts the default retry budget (generation aborts);
    // count=1 is healed by the retry loop (generation commits late).
    for (case, schedule) in ["torn:n2x3@900;crash:g1@1500", "torn:n2x1@900;crash:g1@2600"]
        .iter()
        .enumerate()
    {
        let s = spec(
            80 + case as u64,
            ChaosWorkload::Cg,
            ChaosProto::Gp4,
            StorageTarget::Local,
            600,
            schedule,
        );
        let r = run_chaos_verified(&s);
        assert!(r.passed(), "case {case}: {:?}", r.violations);
        assert_eq!(r.recoveries.len(), 1, "case {case}: {:?}", r.recoveries);
        assert_eq!(r.events_applied, 2, "case {case}");
    }
}

/// A torn-write count beyond `u32::MAX` arms as many tears as the
/// counter holds, never wraps to none, and two arms that sum past the
/// counter's range saturate instead of overflowing.
#[test]
fn torn_write_counts_saturate_instead_of_wrapping() {
    let run = |schedule: &str| {
        let r = run_chaos_verified(&spec(
            70,
            ChaosWorkload::Cg,
            ChaosProto::Gp4,
            StorageTarget::Local,
            600,
            schedule,
        ));
        assert!(r.passed(), "{schedule}: {:?}", r.violations);
        (r.exec_s.to_bits(), r.metrics_digest)
    };
    let max = run("torn:n2x4294967295@900");
    assert_eq!(run("torn:n2x4294967296@900"), max);
    assert_ne!(run("torn:n2x0@900"), max);
    assert_eq!(run("torn:n2x4294967295@900;torn:n2x1@901"), max);
}

/// A healthy spec has nothing to shrink.
#[test]
fn shrink_returns_none_for_passing_spec() {
    let s = spec(
        1,
        ChaosWorkload::Ring,
        ChaosProto::Norm,
        StorageTarget::Local,
        700,
        "crash:g0@2000",
    );
    assert!(shrink(&s).is_none());
}

/// Seeded scenario sweep: every generated schedule passes all oracles,
/// including the double-run determinism check.
#[test]
fn generated_seeds_pass_all_oracles() {
    for seed in 0..12u64 {
        let s = ChaosSpec::generate(seed);
        let r = run_chaos_verified(&s);
        assert!(
            r.passed(),
            "seed {seed} ({}/{}/{}): {:?}",
            r.workload,
            r.proto,
            r.storage,
            r.violations
        );
    }
}

/// Acceptance criterion: 1000 generated schedules across all five
/// protocols with zero oracle violations. Run with
/// `cargo test -q --release -p gcr-chaos -- --ignored`.
#[test]
#[ignore = "acceptance sweep (~minutes); run explicitly"]
fn sweep_1000_schedules() {
    let mut failures = Vec::new();
    for seed in 0..1000u64 {
        let s = ChaosSpec::generate(seed);
        let r = run_chaos(&s);
        if !r.passed() {
            failures.push((seed, r.violations.clone()));
        }
    }
    assert!(failures.is_empty(), "{failures:?}");
}
