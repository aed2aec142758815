//! Sharded-kernel throughput benchmark.
//!
//! A synthetic group-local ring exchange at 1k–100k simulated ranks,
//! timed per `(rank count × shard count)` grid point and emitted as
//! `BENCH_kernel.json` so the perf trajectory is tracked in-repo. Each
//! point also carries a digest over the *deterministic* outcome of the
//! run (final sim time plus the shard-invariant executor counters), so
//! a throughput regression hunt can immediately tell "got slower" apart
//! from "computed something different".
//!
//! The shard map mirrors production use: ranks are grouped in blocks of
//! [`GROUP_RANKS`] and whole groups are pinned to shards, so only one
//! ring edge in [`GROUP_RANKS`] crosses a shard boundary. That is the
//! property that makes the conservative cross-shard merge cheap (see
//! DESIGN.md §10).

use gcr_json::Json;
use gcr_mpi::{Rank, World, WorldOpts};
use gcr_net::{Cluster, ClusterSpec};
use gcr_sim::{fnv1a, Sim};

/// Ranks per simulated group. The shard map assigns whole groups to
/// shards, so cross-shard traffic only crosses group boundaries.
pub const GROUP_RANKS: usize = 8;

/// Schema tag written into (and required of) `BENCH_kernel.json`.
pub const KERNEL_SCHEMA: &str = "gcr-bench-kernel/v1";

/// One grid point of the kernel benchmark.
#[derive(Debug, Clone, Copy)]
pub struct KernelSpec {
    /// Simulated world size.
    pub ranks: usize,
    /// Executor shard count. Layout only: the digest must not move.
    pub shards: usize,
    /// Messages each rank sends to its ring successor.
    pub iters: u32,
    /// Folded into the payload size so distinct seeds drive distinct
    /// (but still deterministic) traffic.
    pub seed: u64,
}

impl KernelSpec {
    /// Default iteration count for a world size: enough traffic to
    /// dominate setup cost, scaled down so the 100k-rank point stays
    /// seconds, not minutes.
    pub fn default_iters(ranks: usize) -> u32 {
        if ranks >= 100_000 {
            4
        } else if ranks >= 10_000 {
            16
        } else {
            64
        }
    }
}

/// Measured outcome of one grid point.
#[derive(Debug, Clone)]
pub struct KernelPoint {
    /// The spec that produced this point.
    pub spec: KernelSpec,
    /// Total executor events: task polls + heap events fired + calls run.
    pub events: u64,
    /// Wall-clock seconds for the simulation run (measurement only —
    /// never fed back into simulated time or the digest).
    pub wall_s: f64,
    /// `events / wall_s`.
    pub events_per_sec: f64,
    /// FNV-1a digest over the deterministic outcome; identical for the
    /// same `(ranks, iters, seed)` at every shard count.
    pub digest: u64,
}

/// Run one grid point: an `n`-rank ring where every rank batch-sends
/// `iters` eager messages to its successor and drains `iters` from its
/// predecessor. Groups of [`GROUP_RANKS`] are pinned to shards.
pub fn run_kernel(spec: &KernelSpec) -> KernelPoint {
    assert!(spec.ranks >= 2, "ring needs at least two ranks");
    assert!(spec.shards >= 1, "at least one shard");
    let sim = Sim::with_shards(spec.shards);
    let cluster = Cluster::new(&sim, ClusterSpec::test(spec.ranks));
    let world = World::new(cluster, WorldOpts::default());
    let n = spec.ranks as u32;
    world.set_shard_map((0..n).map(|r| r / GROUP_RANKS as u32).collect());

    // Seed perturbs the payload so different seeds exercise different
    // serialization times while staying fully deterministic.
    let bytes = 1024 + (spec.seed % 1024);
    let iters = spec.iters;
    for r in 0..n {
        let next = Rank::from((r + 1) % n);
        let prev = Rank::from((r + n - 1) % n);
        world.launch(Rank::from(r), move |ctx| async move {
            ctx.send_batch(next, 7, bytes, iters).await;
            for _ in 0..iters {
                ctx.recv(prev, 7).await;
            }
        });
    }

    let t0 = std::time::Instant::now();
    sim.run().expect("kernel benchmark deadlocked");
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);

    let st = sim.stats();
    let events = st.polls + st.events_fired + st.calls_run;
    // Digest only shard-invariant facts: final simulated time and the
    // counters that the determinism contract fixes across shard counts.
    // (window_batches/window_events are shard-layout-dependent and must
    // stay out.)
    let canon = format!(
        "ranks={};iters={};bytes={};now={};polls={};fired={};calls={};merges={}",
        spec.ranks,
        iters,
        bytes,
        sim.now().as_nanos(),
        st.polls,
        st.events_fired,
        st.calls_run,
        st.merges
    );
    KernelPoint {
        spec: *spec,
        events,
        wall_s,
        events_per_sec: events as f64 / wall_s,
        digest: fnv1a(canon.as_bytes()),
    }
}

/// Short git revision of the working tree, or `"unknown"` outside a
/// checkout. Measurement metadata only — never feeds the simulation.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Assemble the `BENCH_kernel.json` document for a set of grid points.
pub fn report_json(seed: u64, points: &[KernelPoint]) -> Json {
    Json::obj([
        ("schema", Json::Str(KERNEL_SCHEMA.to_string())),
        ("git_rev", Json::Str(git_rev())),
        ("seed", Json::UInt(seed)),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("ranks", Json::UInt(p.spec.ranks as u64)),
                            ("shards", Json::UInt(p.spec.shards as u64)),
                            ("iters", Json::UInt(u64::from(p.spec.iters))),
                            ("events", Json::UInt(p.events)),
                            ("wall_s", Json::Float(p.wall_s)),
                            ("events_per_sec", Json::Float(p.events_per_sec)),
                            ("digest", Json::Str(format!("{:#018x}", p.digest))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Validate a parsed `BENCH_kernel.json` against the v1 schema: the
/// schema tag, a git revision, the grid seed, and at least one point
/// carrying rank count, shard count, throughput, and an outcome digest.
///
/// # Errors
/// The first schema violation found.
pub fn validate_report(doc: &Json) -> Result<(), gcr_json::JsonError> {
    let schema = doc.str_field("schema")?;
    if schema != KERNEL_SCHEMA {
        return Err(gcr_json::JsonError::msg(format!(
            "schema {schema:?} != {KERNEL_SCHEMA:?}"
        )));
    }
    let rev = doc.str_field("git_rev")?;
    if rev.is_empty() {
        return Err(gcr_json::JsonError::msg("empty git_rev"));
    }
    doc.u64_field("seed")?;
    let points = doc.arr_field("points")?;
    if points.is_empty() {
        return Err(gcr_json::JsonError::msg("no bench points"));
    }
    for p in points {
        p.u64_field("ranks")?;
        p.u64_field("shards")?;
        p.u64_field("iters")?;
        p.u64_field("events")?;
        p.f64_field("wall_s")?;
        p.f64_field("events_per_sec")?;
        let digest = p.str_field("digest")?;
        if !digest.starts_with("0x") || digest.len() != 18 {
            return Err(gcr_json::JsonError::msg(format!(
                "digest {digest:?} is not an 0x-prefixed 64-bit hex literal"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_digest_is_shard_invariant_and_run_stable() {
        let base = KernelSpec {
            ranks: 64,
            shards: 1,
            iters: 4,
            seed: 9,
        };
        let one = run_kernel(&base);
        let again = run_kernel(&base);
        assert_eq!(one.digest, again.digest, "same spec, different outcome");
        for shards in [4, 16] {
            let p = run_kernel(&KernelSpec { shards, ..base });
            assert_eq!(
                p.digest, one.digest,
                "digest moved between 1 and {shards} shards"
            );
            assert_eq!(p.events, one.events, "event count moved at {shards} shards");
        }
    }

    #[test]
    fn report_round_trips_through_the_validator() {
        let p = run_kernel(&KernelSpec {
            ranks: 16,
            shards: 4,
            iters: 2,
            seed: 1,
        });
        let doc = report_json(1, &[p]);
        let parsed = Json::parse(&doc.pretty()).expect("self-produced JSON parses");
        validate_report(&parsed).expect("self-produced report validates");
    }

    #[test]
    fn validator_rejects_missing_fields() {
        let doc = Json::obj([("schema", Json::Str(KERNEL_SCHEMA.into()))]);
        assert!(validate_report(&doc).is_err());
    }
}
