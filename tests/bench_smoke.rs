//! Bench smoke test (tier-1): the kernel benchmark's JSON report is
//! well-formed, the committed `BENCH_kernel.json` trajectory still
//! parses against the schema, and the 1-shard executor still produces
//! the exact digests captured *before* the kernel was sharded. The last
//! check is the anchor of the whole refactor: combined with the
//! cross-shard matrix in `tests/determinism.rs` it proves every shard
//! count reproduces the original single-heap executor bit-for-bit.

use gcr_bench::kernel::{report_json, run_kernel, validate_report, KernelSpec};
use gcr_bench::{run_one, RunSpec, Schedule, WorkloadSpec};
use gcr_chaos::{parse_schedule, run_chaos, ChaosBackend, ChaosSpec, Proto, WorkloadKind};
use gcr_json::Json;
use gcr_net::StorageTarget;
use gcr_workloads::RingConfig;

/// Digests of the pinned scenario (seed 0xD1CE, ring workload, local
/// storage, 700 ms interval, `crash:g1@2500`). The first five were
/// captured on the single-heap executor immediately before the sharding
/// refactor. The `Cvc` and `Rblog` pins were captured later, on the
/// sharded executor just before the sender- and receiver-based restart
/// paths were merged into one, so they guard that merge.
const PINNED: [(Proto, u64); 7] = [
    (Proto::Norm, 0xaa0753172d701950),
    (Proto::Gp { max_size: 4 }, 0x3638182098136693),
    (Proto::Gp1, 0x85db100133b6753e),
    (Proto::GpK { k: 4 }, 0x994ab282c0502e59),
    (Proto::Vcl, 0x3b1eea16a89df404),
    (Proto::Cvc, 0x63bd4fee771a7ce2),
    (Proto::Rblog, 0x7530a15a2a6cc0e0),
];

#[test]
fn one_shard_digests_match_the_pre_refactor_pins() {
    for (proto, want) in PINNED {
        let spec = ChaosSpec {
            seed: 0xD1CE,
            workload: WorkloadKind::Ring,
            proto,
            storage: StorageTarget::Local,
            interval_ms: 700,
            gc_overshoot: 0,
            schedule: parse_schedule("crash:g1@2500").expect("literal schedule parses"),
            shards: 1,
            backend: ChaosBackend::Disk,
            replication: 2,
        };
        let got = run_chaos(&spec).digest();
        assert_eq!(
            got,
            want,
            "{}: 1-shard digest {got:#018x} != pin {want:#018x} — \
             observable behavior changed",
            proto.label()
        );
    }
}

/// Digests (FNV-1a of the `Debug` form) of `run_one`'s `RunResult` for a
/// small ring under each protocol: waves every 0.5 s, then a full
/// restart. The five paper protocols were captured on `run_one`'s own
/// set-up code, before it was shared with `run_chaos`; the CVC and
/// receiver-based logging rows were added once `RunSpec` could name them.
const RUN_ONE_PINNED: [(Proto, u64); 7] = [
    (Proto::Norm, 0xb8a51f771a0e9cf4),
    (Proto::Gp { max_size: 4 }, 0x69fd3b6d53055096),
    (Proto::Gp1, 0x124d4fa6884ee5df),
    (Proto::GpK { k: 4 }, 0x3377c96cde42d1cf),
    (Proto::Vcl, 0x4ca77cc9242a7b40),
    (Proto::Cvc, 0xd26678a9833704c7),
    (Proto::Rblog, 0x76b99ceeebc1e90d),
];

#[test]
fn run_one_digests_match_the_pins() {
    for (proto, want) in RUN_ONE_PINNED {
        let workload = WorkloadSpec::Ring(RingConfig {
            nprocs: 8,
            iters: 120,
            bytes: 32 * 1024,
            compute_ms: 10,
            image_bytes: 16 << 20,
        });
        let every = Schedule::Interval {
            start_s: 0.5,
            every_s: 0.5,
        };
        let r = run_one(&RunSpec::new(workload, proto, every).with_restart());
        let got = gcr_sim::fnv1a(format!("{r:?}").as_bytes());
        assert_eq!(
            got,
            want,
            "{}: run_one digest {got:#018x} != pin {want:#018x} — {r:?}",
            proto.label()
        );
    }
}

#[test]
fn generated_bench_report_is_well_formed() {
    let points: Vec<_> = [(16usize, 1usize), (16, 4), (32, 1)]
        .iter()
        .map(|&(ranks, shards)| {
            run_kernel(&KernelSpec {
                ranks,
                shards,
                iters: 2,
                seed: 5,
            })
        })
        .collect();
    let doc = report_json(5, &points);
    let parsed = Json::parse(&doc.pretty()).expect("report serializes to valid JSON");
    validate_report(&parsed).expect("report matches the v1 schema");

    // Spot-check the required fields survive the round trip with values.
    let pts = parsed.arr_field("points").unwrap();
    assert_eq!(pts.len(), 3);
    assert_eq!(pts[0].u64_field("ranks").unwrap(), 16);
    assert_eq!(pts[1].u64_field("shards").unwrap(), 4);
    assert!(pts[0].f64_field("events_per_sec").unwrap() > 0.0);
    // Same (ranks, iters, seed) ⇒ same digest regardless of shard count.
    assert_eq!(
        pts[0].str_field("digest").unwrap(),
        pts[1].str_field("digest").unwrap(),
        "digest leaked shard layout"
    );
}

#[test]
fn committed_bench_trajectory_validates() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_kernel.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path} must be committed alongside the kernel: {e}"));
    let doc = Json::parse(&text).expect("committed BENCH_kernel.json parses");
    validate_report(&doc).expect("committed BENCH_kernel.json matches the v1 schema");
    // The acceptance bar: at least three (ranks × shards) grid points.
    assert!(
        doc.arr_field("points").unwrap().len() >= 3,
        "trajectory needs at least three grid points"
    );
}

/// The committed protocol-crossover grid (`BENCH_protocols.json`, written
/// by the `protocol_crossover` bin) parses, covers the full protocol ×
/// workload × failure-rate grid, includes both protocols added by the
/// zoo (CVC and receiver-based logging), and keeps the bookkeeping
/// coherent: a point with no recoveries reports zero downtime and zero
/// replayed bytes, and crash counts match recovery counts.
#[test]
fn committed_protocol_crossover_validates() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_protocols.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path} must be committed alongside the protocol zoo: {e}"));
    let doc = Json::parse(&text).expect("committed BENCH_protocols.json parses");
    assert_eq!(
        doc.str_field("schema").expect("schema"),
        "gcr-bench-protocols/v1"
    );
    let protocols: Vec<String> = doc
        .arr_field("protocols")
        .expect("protocols array")
        .iter()
        .map(|p| p.as_str().expect("protocol label").to_string())
        .collect();
    for required in ["cvc", "rblog"] {
        assert!(
            protocols.iter().any(|p| p == required),
            "crossover grid must include `{required}`"
        );
    }
    let points = doc.arr_field("points").expect("points array");
    // Full grid: every swept protocol appears at every failure rate in
    // every workload, so each protocol contributes points ≡ 0 (mod 3).
    assert!(
        points.len() >= protocols.len() * 3,
        "grid needs ≥ 3 failure rates per protocol"
    );
    for proto in &protocols {
        let mine: Vec<_> = points
            .iter()
            .filter(|p| p.str_field("proto").expect("proto") == *proto)
            .collect();
        assert!(
            !mine.is_empty() && mine.len() % 3 == 0,
            "`{proto}`: expected a full 3-rate grid, got {} point(s)",
            mine.len()
        );
        assert!(
            mine.iter()
                .any(|p| p.u64_field("crashes").expect("crashes") == 0)
                && mine
                    .iter()
                    .any(|p| p.u64_field("crashes").expect("crashes") >= 2),
            "`{proto}`: grid must span crash-free through multi-crash rates"
        );
    }
    for p in points {
        assert!(p.f64_field("exec_s").expect("exec_s") > 0.0);
        let recoveries = p.u64_field("recoveries").expect("recoveries");
        let downtime = p.f64_field("downtime_s").expect("downtime_s");
        let replayed = p.u64_field("replayed_bytes").expect("replayed_bytes");
        assert_eq!(
            recoveries,
            p.u64_field("crashes").expect("crashes"),
            "every injected crash must surface as exactly one recovery"
        );
        if recoveries == 0 {
            assert_eq!(downtime, 0.0, "no recovery, yet nonzero downtime");
            assert_eq!(replayed, 0, "no recovery, yet bytes were replayed");
        } else {
            assert!(downtime > 0.0, "recovery with zero downtime");
        }
    }
}

/// The committed recovery-latency trajectory (`BENCH_recovery.json`,
/// written by the `recovery_latency` bin) parses, pairs every world size
/// as (remote, restore), and preserves the acceptance bar: peer-memory
/// recovery is strictly faster than the remote-server path and actually
/// served restart reads from peers.
#[test]
fn committed_recovery_trajectory_validates() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_recovery.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path} must be committed alongside the backend: {e}"));
    let doc = Json::parse(&text).expect("committed BENCH_recovery.json parses");
    assert_eq!(
        doc.str_field("schema").expect("schema"),
        "gcr-bench-recovery/v1"
    );
    assert!(doc.u64_field("replication").expect("replication") >= 1);
    let points = doc.arr_field("points").expect("points array");
    assert!(
        points.len() >= 4,
        "need at least two (remote, restore) pairs"
    );
    assert_eq!(points.len() % 2, 0, "points must pair remote with restore");
    for pair in points.chunks(2) {
        let (remote, restore) = (&pair[0], &pair[1]);
        assert_eq!(remote.str_field("backend").expect("backend"), "remote");
        assert_eq!(restore.str_field("backend").expect("backend"), "restore");
        let procs = remote.u64_field("procs").expect("procs");
        assert_eq!(
            restore.u64_field("procs").expect("procs"),
            procs,
            "pair mismatch"
        );
        let remote_s = remote.f64_field("downtime_s").expect("remote downtime");
        let restore_s = restore.f64_field("downtime_s").expect("restore downtime");
        assert!(
            restore_s < remote_s,
            "{procs} procs: restore {restore_s}s not below remote {remote_s}s"
        );
        assert!(
            restore.u64_field("peer_reads").unwrap_or(0) > 0,
            "{procs} procs: restore point never read from peer memory"
        );
    }
}
