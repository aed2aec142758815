//! **Recovery-latency comparison** — the replicated in-memory restore
//! backend against the remote checkpoint servers.
//!
//! For each world size the same GP run performs a post-run recovery of
//! group 0 twice: once with restart images read back from the shared
//! remote servers (the paper's disk path) and once with the
//! ReStore-style backend serving them from the nearest surviving peer's
//! memory over the interconnect. Reported: recovery downtime, restart
//! image reads served from peers, and the speedup. The restore backend
//! must win — peer memory skips the server round-trip and the shared-
//! server contention — and `--out` captures the sweep as
//! `BENCH_recovery.json` for CI trending.
//!
//! ```text
//! recovery_latency [--procs N,N,..] [--replication K] [--out FILE]
//! ```

use gcr_bench::runner::{recover_after_run, Recovered};
use gcr_bench::table::{f1, f2, table};
use gcr_bench::{arg, Proto, WorkloadSpec};
use gcr_json::Json;
use gcr_sim::SimDuration;
use gcr_workloads::CgConfig;

/// One measured recovery.
struct Point {
    procs: usize,
    backend: &'static str,
    downtime_s: f64,
    peer_reads: u64,
    ranks_restarted: usize,
}

/// One post-run recovery of group 0 (GP/4 on CG, checkpoints every 30 s).
fn run(n: usize, restore_k: Option<usize>) -> Recovered {
    let wl = WorkloadSpec::Cg(CgConfig::class_c(n));
    recover_after_run(
        wl,
        Proto::Gp { max_size: 4 },
        SimDuration::from_secs(30),
        restore_k,
    )
}

fn main() {
    let procs: Vec<usize> = arg("--procs")
        .map(|v| v.split(',').filter_map(|p| p.parse().ok()).collect())
        .unwrap_or_else(|| vec![16, 32, 64, 128]);
    let k: usize = arg("--replication")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);

    println!("Recovery latency: remote servers vs replicated peer memory (CG, GP/4, k={k})\n");
    let headers = [
        "procs",
        "remote downtime (s)",
        "restore downtime (s)",
        "speedup",
        "peer reads",
    ];
    let mut rows = Vec::new();
    let mut points: Vec<Point> = Vec::new();
    for &n in &procs {
        let remote = run(n, None).stats;
        let Recovered {
            stats: restore,
            peer_reads,
            ..
        } = run(n, Some(k));
        assert!(
            peer_reads > 0,
            "{n} procs: restore recovery never read from peer memory"
        );
        let remote_s = remote.downtime.as_secs_f64();
        let restore_s = restore.downtime.as_secs_f64();
        rows.push(vec![
            n.to_string(),
            f2(remote_s),
            f2(restore_s),
            format!("{}x", f1(remote_s / restore_s)),
            peer_reads.to_string(),
        ]);
        points.push(Point {
            procs: n,
            backend: "remote",
            downtime_s: remote_s,
            peer_reads: 0,
            ranks_restarted: remote.ranks_restarted,
        });
        points.push(Point {
            procs: n,
            backend: "restore",
            downtime_s: restore_s,
            peer_reads,
            ranks_restarted: restore.ranks_restarted,
        });
    }
    println!("{}", table(&headers, rows));
    println!("expected: peer-memory restart reads skip the shared servers, so the restore");
    println!("backend recovers strictly faster at every world size\n");

    // The acceptance bar baked into the binary: restore must win.
    for pair in points.chunks(2) {
        if let [remote, restore] = pair {
            assert!(
                restore.downtime_s < remote.downtime_s,
                "{} procs: restore {}s not below remote {}s",
                remote.procs,
                restore.downtime_s,
                remote.downtime_s
            );
        }
    }

    if let Some(out) = arg("--out") {
        let doc = Json::obj([
            ("schema", Json::from("gcr-bench-recovery/v1")),
            ("workload", Json::from("cg")),
            ("proto", Json::from("gp4")),
            ("replication", Json::from(k)),
            (
                "points",
                Json::from(
                    points
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("procs", Json::from(p.procs)),
                                ("backend", Json::from(p.backend)),
                                ("downtime_s", Json::from(p.downtime_s)),
                                ("peer_reads", Json::from(p.peer_reads)),
                                ("ranks_restarted", Json::from(p.ranks_restarted)),
                            ])
                        })
                        .collect::<Vec<_>>(),
                ),
            ),
        ]);
        std::fs::write(&out, doc.pretty() + "\n").expect("write BENCH_recovery.json");
        println!("wrote {} point(s) to {out}", points.len());
    }
}
