//! `chaos_campaign`: a stratified batch of seeded chaos scenarios, each
//! generated with `ChaosSpec::generate_for` and run through `run_chaos`
//! with every oracle on.
//!
//! The batch walks chaos seeds `seed, seed + 1, …` under both the disk
//! and the replicated-memory backend, keeping a scenario while its
//! (workload, protocol, backend) cell holds fewer than `per_cell`. Every
//! sample runs the same batch.
//!
//! A sample's time is the median scenario time of the batch, each
//! scenario scaled to the reference pace read around it, not the batch
//! total. Scenario costs are heavy-tailed: from 1 ms to almost 1 s,
//! and a few scenarios of one cell can cost more than the rest of the
//! batch. The batch total therefore moves by a third from one seed's
//! batch to another's. The median scenario of a stratified batch moves by
//! a few percent.
//!
//! The generator draws from the first five protocols only; CVC and
//! receiver-based logging stay out of the campaign until the hang
//! recorded in BENCHMARK.md is fixed.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use gcr_chaos::{run_chaos, ChaosBackend, ChaosSpec};

use crate::pace::{self, Clock};
use crate::run::Bench;
use crate::sample::{Sample, MIB};
use crate::spans::Spans;
use crate::stats::{fold, median, percentile, FNV_OFFSET};

/// Labels of the protocols the generator draws from, and the per-layer
/// metric timing each.
const PROTOS: [(&str, &str); 5] = [
    ("norm", "chaos.norm_ms"),
    ("gp", "chaos.gp_ms"),
    ("gp1", "chaos.gp1_ms"),
    ("gp4", "chaos.gp4_ms"),
    ("vcl", "chaos.vcl_ms"),
];

const BACKENDS: [ChaosBackend; 2] = [ChaosBackend::Disk, ChaosBackend::Restore];

/// Chaos seeds the batch is drawn from. Every cell fills long before:
/// the rarest held 27 scenarios in 700 seeds.
const WALK: u64 = 1_000;

/// Scenarios between two readings of the host's pace. A scenario takes
/// about 6 ms, so the pace is read every tenth of a second or so, and
/// the readings cost about 5% of a sample.
const PACE_EVERY: usize = 16;

/// The chaos campaign.
pub struct Campaign {
    seed: u64,
    per_cell: usize,
}

impl Campaign {
    /// A campaign from chaos seed `seed` with `per_cell` scenarios in
    /// every (workload, protocol, backend) cell.
    pub fn new(seed: u64, per_cell: usize) -> Self {
        Campaign { seed, per_cell }
    }

    /// The batch every sample runs, in seed order: the first `per_cell`
    /// scenarios of each cell among the [`WALK`] seeds from `seed`. A
    /// fixed walk keeps the set-up work the same for every seed.
    fn batch(&self) -> Vec<ChaosSpec> {
        let mut filled: BTreeMap<(&str, &str, &str), usize> = BTreeMap::new();
        let mut batch = Vec::new();
        for seed in (0..WALK).map(|i| self.seed.wrapping_add(i)) {
            for backend in BACKENDS {
                let spec = ChaosSpec::generate_for(seed, backend);
                let cell = (spec.workload.label(), spec.proto.label(), backend.label());
                let n = filled.entry(cell).or_insert(0);
                if *n < self.per_cell {
                    *n += 1;
                    batch.push(spec);
                }
            }
        }
        batch
    }
}

impl Bench for Campaign {
    fn min_samples(&self) -> usize {
        5
    }

    fn sample(&mut self, spans: &Rc<Spans>, clock: &mut Clock) -> Sample {
        let mut sample = Sample::default();
        let t = clock.start();
        let batch = self.batch();
        sample.setup_s = clock.stop(t).scaled_s;

        let mut digest = FNV_OFFSET;
        let mut scenario_ms = Vec::with_capacity(batch.len());
        let mut scaled_ms = Vec::with_capacity(batch.len());
        let mut by_proto: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let v = &mut sample.values;
        let mut before = clock.reading();
        for (i, spec) in batch.iter().enumerate() {
            let t = Instant::now();
            let report = spans.time("chaos.scenario", || run_chaos(spec));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            scenario_ms.push(ms);
            by_proto.entry(spec.proto.label()).or_default().push(ms);
            if (i + 1) % PACE_EVERY == 0 || i + 1 == batch.len() {
                let after = clock.reading();
                let start = scaled_ms.len();
                scaled_ms.extend(
                    scenario_ms[start..]
                        .iter()
                        .map(|ms| pace::scale(*ms, (before + after) / 2.0)),
                );
                before = after;
            }
            digest = fold(digest, report.digest());
            for violation in &report.violations {
                sample.errors.push(format!(
                    "seed {} ({}): {violation}",
                    spec.seed,
                    spec.backend.label()
                ));
            }
            let recs = &report.recoveries;
            let mut add = |k: &'static str, x: f64| *v.entry(k).or_insert(0.0) += x;
            add("sim_exec_s", report.exec_s);
            add("sim_downtime_s", recs.iter().map(|r| r.downtime_s).sum());
            add(
                "sim_resend_mb",
                recs.iter().map(|r| r.replayed_bytes as f64).sum::<f64>() / MIB,
            );
            add("chaos.recoveries", recs.len() as f64);
            add("chaos.events_applied", report.events_applied as f64);
            add("chaos.events_skipped", report.events_skipped as f64);
            add("chaos.violations", report.violations.len() as f64);
            add("net.restore.peer_reads", report.peer_reads as f64);
            add("net.restore.fallback_reads", report.fallback_reads as f64);
            add("net.restore.degraded_events", report.degraded_events as f64);
        }
        sample.wall_s = median(&scaled_ms) / 1e3;
        sample.digest = digest;

        let host_s = scenario_ms.iter().sum::<f64>() / 1e3;
        v.insert("chaos.scenarios", batch.len() as f64);
        v.insert("chaos.scenarios_per_s", batch.len() as f64 / host_s);
        v.insert("chaos.scenario_p50_ms", percentile(&scenario_ms, 50.0));
        v.insert("chaos.scenario_p99_ms", percentile(&scenario_ms, 99.0));
        for (proto, key) in PROTOS {
            v.insert(key, by_proto.get(proto).map_or(0.0, |ms| median(ms)));
        }
        sample
    }
}
