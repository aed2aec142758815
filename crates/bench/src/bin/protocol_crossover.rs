//! **Protocol crossover sweep** — checkpoint/logging protocols compared
//! across workloads and failure rates.
//!
//! Coordinated blocking checkpointing (GP/4) pays a global synchronization
//! at every wave but recovers a group from its last line with no replay
//! from live ranks; the logging protocols (VCL sender-based, receiver-based
//! logging) pay a per-message tax instead and localize recovery to the
//! failed ranks; CVC coordinates without blocking by cutting on collective
//! clocks. Which protocol wins therefore *crosses over* as the failure
//! rate rises: the sweep runs every protocol on the same seeded chaos
//! scenarios at 0, 1, and 2 mid-run crashes and reports execution time,
//! recovery downtime, and replayed volume per cell. Every cell must hold
//! all chaos oracles — a protocol that "wins" by violating consistency is
//! a bug, not a data point. `--out` captures the grid as
//! `BENCH_protocols.json` for the schema gate in `tests/bench_smoke.rs`.
//!
//! ```text
//! protocol_crossover [--seed N] [--interval-ms MS] [--out FILE]
//! ```

use gcr_bench::table::{f1, f2, Table};
use gcr_chaos::{parse_schedule, run_chaos, ChaosBackend, ChaosSpec, Proto, WorkloadKind};
use gcr_json::Json;
use gcr_net::StorageTarget;

/// Protocols in the sweep: the blocking baseline, both logging designs,
/// and the collective-clock coordinated protocol.
const PROTOCOLS: [Proto; 4] = [Proto::GpK { k: 4 }, Proto::Vcl, Proto::Cvc, Proto::Rblog];

/// Workloads in the sweep (ring is bandwidth-bound, CG compute-bound).
const WORKLOADS: [WorkloadKind; 2] = [WorkloadKind::Ring, WorkloadKind::Cg];

/// Failure rates as crash counts with their schedules. Crashes target
/// group 0, which exists under every protocol's group shape (CVC runs a
/// single global group, receiver-based logging runs singletons).
const RATES: [(u64, &str); 3] = [
    (0, ""),
    (1, "crash:g0@2500"),
    (2, "crash:g0@2000;crash:g0@3600"),
];

/// One measured grid cell.
struct Point {
    proto: &'static str,
    workload: &'static str,
    crashes: u64,
    exec_s: f64,
    waves: u64,
    recoveries: usize,
    downtime_s: f64,
    replayed_bytes: u64,
}

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let seed: u64 = arg("--seed").and_then(|v| v.parse().ok()).unwrap_or(0xBEEF);
    let interval_ms: u64 = arg("--interval-ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(700);

    println!("Protocol crossover: execution + recovery cost vs failure rate\n");
    let mut points: Vec<Point> = Vec::new();
    for workload in WORKLOADS {
        let mut t = Table::new(&[
            "proto",
            "crashes",
            "exec (s)",
            "waves",
            "downtime (s)",
            "replayed (KiB)",
        ]);
        for proto in PROTOCOLS {
            for (crashes, schedule) in RATES {
                let spec = ChaosSpec {
                    seed,
                    workload,
                    proto,
                    storage: StorageTarget::Local,
                    interval_ms,
                    gc_overshoot: 0,
                    schedule: parse_schedule(schedule).expect("literal schedule parses"),
                    shards: 1,
                    backend: ChaosBackend::Disk,
                    replication: 2,
                };
                let r = run_chaos(&spec);
                assert!(
                    r.passed(),
                    "{}/{} @ {crashes} crash(es): oracle violation(s): {:?}",
                    proto.label(),
                    workload.label(),
                    r.violations
                );
                // fold from +0.0: an empty `f64::sum()` is -0.0, which
                // would leak a negative zero into the committed artifact.
                let downtime_s = r.recoveries.iter().fold(0.0, |a, s| a + s.downtime_s);
                let replayed_bytes: u64 = r.recoveries.iter().map(|s| s.replayed_bytes).sum();
                t.row(vec![
                    proto.label().to_string(),
                    crashes.to_string(),
                    f2(r.exec_s),
                    r.waves.to_string(),
                    f2(downtime_s),
                    f1(replayed_bytes as f64 / 1024.0),
                ]);
                points.push(Point {
                    proto: proto.label(),
                    workload: workload.label(),
                    crashes,
                    exec_s: r.exec_s,
                    waves: r.waves,
                    recoveries: r.recoveries.len(),
                    downtime_s,
                    replayed_bytes,
                });
            }
        }
        println!("workload: {}\n{}", workload.label(), t.render());
    }
    println!("expected: the cheapest protocol changes with the failure rate — logging");
    println!("pays per message but recovers locally; coordination pays per wave but");
    println!("replays nothing from live ranks\n");

    if let Some(out) = arg("--out") {
        let doc = Json::obj([
            ("schema", Json::from("gcr-bench-protocols/v1")),
            ("seed", Json::from(seed)),
            ("interval_ms", Json::from(interval_ms)),
            (
                "protocols",
                Json::from(
                    PROTOCOLS
                        .iter()
                        .map(|p| Json::from(p.label()))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "points",
                Json::from(
                    points
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("proto", Json::from(p.proto)),
                                ("workload", Json::from(p.workload)),
                                ("crashes", Json::from(p.crashes)),
                                ("exec_s", Json::from(p.exec_s)),
                                ("waves", Json::from(p.waves)),
                                ("recoveries", Json::from(p.recoveries)),
                                ("downtime_s", Json::from(p.downtime_s)),
                                ("replayed_bytes", Json::from(p.replayed_bytes)),
                            ])
                        })
                        .collect::<Vec<_>>(),
                ),
            ),
        ]);
        std::fs::write(&out, doc.pretty() + "\n").expect("write BENCH_protocols.json");
        println!("wrote {} point(s) to {out}", points.len());
    }
}
