//! The benchmark's definition: workloads, metrics, units, directions,
//! bounds, and which end-to-end number each layer metric should move.
//!
//! `BENCHMARK.json` at the repository root carries the same workloads and
//! metrics; `tests/benchmark.rs` checks the two agree.

/// How to run the benchmark from the repository root; callers append
/// `--workload NAME --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "benchmark",
    "--",
];

/// Seconds one run measures (the default of `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Whether a larger value of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, work done for the same result).
    Lower,
    /// Larger is better (rates, useful-outcome shares).
    Higher,
}

impl Better {
    /// The label used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old` (negative:
    /// better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return if new == old { 0.0 } else { f64::INFINITY };
        }
        match self {
            Better::Lower => (new - old) / old.abs(),
            Better::Higher => (old - new) / old.abs(),
        }
    }
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
}

/// The five workloads, in run order.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "hpl128_gp",
        why: "Paper 5.1 HPL-128 under GP: profiling run and Algorithm 2 in set-up, group-scoped coordination, one write wave, then 128 image reads at restart",
    },
    WorkloadDef {
        name: "cg128_gp1",
        why: "Message-heavy CG-128 under GP1: every send crosses a group boundary, so every send is logged and piggybacked, and restart replays the logs",
    },
    WorkloadDef {
        name: "hpl5k_crash",
        why: "5,120-rank HPL skeleton on 16 shards with one wave and a group-local recovery: the executor merge and the traffic-sparse checkpoint plane at scale",
    },
    WorkloadDef {
        name: "chaos_campaign",
        why: "Many small faulted worlds on one shard: restart, replay, 2PC fallback, restore peer reads and the oracles dominate; scenarios per second",
    },
    WorkloadDef {
        name: "lint_workspace",
        why: "The checked-out source tree linted cold, then warm from a private cache: guards the cost of the four lint engines",
    },
];

/// One end-to-end metric. Every workload reports every one of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// End-to-end metrics, measured with tracing off. Both times are medians
/// over the run's samples, each sample scaled to the reference pace
/// (`pace.rs`).
pub const END_TO_END: [EndToEnd; 3] = [
    // Set-up: building the world, the profiling run and Algorithm 2,
    // installing the runtime (simulations); generating the scenarios
    // (campaign); reading the sources (lint). Set up once per sample, so
    // many times per run.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    },
    // The measured call: a `Sim::run` (simulations), the median scenario
    // of the batch (campaign), one cold lint of the workspace (lint).
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    },
    // VmHWM after the warm-up sample: the footprint of one sample. See
    // BENCHMARK.md on why not after all samples.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// One per-layer metric, reported by the traced run of every workload (0
/// where the workload does not reach the layer).
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name (`layer.metric`, or `sim_*` for simulated outcomes).
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// `(metric, workload)` pairs this metric should move: an end-to-end
    /// metric or a simulated outcome. Empty for the outcomes themselves.
    pub moves: &'static [(&'static str, &'static str)],
    /// Workloads on which a change to this layer should move nothing.
    pub flat_on: &'static [&'static str],
}

/// Simulated-time outcomes: deterministic for a seed, so two commits
/// compare them exactly. A change meant only to speed up the simulator
/// leaves every one of them identical.
pub const OUTCOMES: [&str; 5] = [
    "sim_exec_s",
    "sim_ckpt_s",
    "sim_coord_s",
    "sim_downtime_s",
    "sim_resend_mb",
];

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
    flat_on: &'static [&'static str],
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        flat_on,
    }
}

use Better::{Higher, Lower};

const SIM: &[(&str, &str)] = &[("wall_s", "hpl5k_crash")];
const SIM_FLAT: &[&str] = &["chaos_campaign", "lint_workspace"];
const MPI: &[(&str, &str)] = &[("wall_s", "cg128_gp1")];
const MPI_FLAT: &[&str] = &["hpl128_gp"];
const HOOKS_FLAT: &[&str] = &["hpl5k_crash", "hpl128_gp"];
const WAVE: &[(&str, &str)] = &[
    ("sim_ckpt_s", "hpl128_gp"),
    ("sim_coord_s", "hpl128_gp"),
    ("wall_s", "hpl5k_crash"),
];
const WAVE_FLAT: &[&str] = &["cg128_gp1"];
const RESTART: &[(&str, &str)] = &[
    ("sim_downtime_s", "cg128_gp1"),
    ("sim_resend_mb", "cg128_gp1"),
    ("sim_downtime_s", "hpl128_gp"),
];
const RESTART_FLAT: &[&str] = &["lint_workspace"];
const WRITES: &[(&str, &str)] = &[("sim_ckpt_s", "hpl5k_crash")];
const READS: &[(&str, &str)] = &[("sim_downtime_s", "hpl128_gp")];
const BACKEND: &[(&str, &str)] = &[
    ("sim_ckpt_s", "hpl5k_crash"),
    ("sim_downtime_s", "hpl128_gp"),
];
const RESTORE: &[(&str, &str)] = &[("sim_downtime_s", "chaos_campaign")];
const DISK_ONLY: &[&str] = &["hpl128_gp", "cg128_gp1", "hpl5k_crash"];
const SETUP: &[(&str, &str)] = &[("setup_s", "hpl128_gp")];
const SETUP_FLAT: &[&str] = &["cg128_gp1", "hpl5k_crash"];
const CHAOS: &[(&str, &str)] = &[("wall_s", "chaos_campaign")];
const LINT: &[(&str, &str)] = &[("wall_s", "lint_workspace")];
const LINT_FLAT: &[&str] = &["hpl128_gp", "cg128_gp1", "hpl5k_crash", "chaos_campaign"];
const RSS: &[(&str, &str)] = &[
    ("peak_rss_mb", "hpl128_gp"),
    ("peak_rss_mb", "chaos_campaign"),
];
const TAIL: &[(&str, &str)] = &[("wall_s", "hpl128_gp")];
const NONE: &[&str] = &[];

/// Per-layer metrics, measured by the traced run only.
pub const PER_LAYER: [LayerMetric; 83] = [
    // DES executor: `Sim::run` timed, `Sim::stats` read after it.
    m("sim.events", "count", Lower, SIM, SIM_FLAT),
    m("sim.polls", "count", Lower, SIM, SIM_FLAT),
    m("sim.events_fired", "count", Lower, SIM, SIM_FLAT),
    m("sim.calls_run", "count", Lower, SIM, SIM_FLAT),
    m("sim.merges", "count", Lower, SIM, SIM_FLAT),
    m("sim.slow_path_share", "share", Lower, SIM, SIM_FLAT),
    m("sim.slow_path_event_share", "share", Lower, SIM, SIM_FLAT),
    m("sim.events_per_s", "1/s", Higher, SIM, SIM_FLAT),
    m("sim.run_s", "s", Lower, SIM, SIM_FLAT),
    // MPI matching and mailboxes: a probe `MpiHook` on every rank.
    m("mpi.msgs", "count", Lower, MPI, MPI_FLAT),
    m("mpi.mb", "MiB", Lower, MPI, MPI_FLAT),
    m("mpi.msgs_per_s", "1/s", Higher, MPI, MPI_FLAT),
    m("mpi.mailbox_wait_sim_ms", "ms", Lower, MPI, MPI_FLAT),
    // Protocol hooks: bracket probes around the runtime's own hook.
    m("core.hooks.sends", "count", Lower, MPI, HOOKS_FLAT),
    m("core.hooks.send_ns", "ns", Lower, MPI, HOOKS_FLAT),
    m("core.hooks.arrival_ns", "ns", Lower, MPI, HOOKS_FLAT),
    m("core.hooks.recv_ns", "ns", Lower, MPI, HOOKS_FLAT),
    m("core.hooks.self_s", "s", Lower, MPI, HOOKS_FLAT),
    m("core.hooks.share", "share", Lower, MPI, HOOKS_FLAT),
    m("core.hooks.logged_mb", "MiB", Lower, MPI, HOOKS_FLAT),
    m("core.hooks.retained_mb", "MiB", Lower, MPI, HOOKS_FLAT),
    // Checkpoint waves: `Metrics::ckpt_records` (simulated time).
    m("core.wave.count", "count", Lower, WAVE, WAVE_FLAT),
    m("core.wave.sim_s", "s", Lower, WAVE, WAVE_FLAT),
    m("core.wave.lock_s", "s", Lower, WAVE, WAVE_FLAT),
    m("core.wave.coord_s", "s", Lower, WAVE, WAVE_FLAT),
    m("core.wave.write_s", "s", Lower, WAVE, WAVE_FLAT),
    m("core.wave.finalize_s", "s", Lower, WAVE, WAVE_FLAT),
    m("core.wave.log_flushed_mb", "MiB", Lower, WAVE, WAVE_FLAT),
    m(
        "core.wave.committed_share",
        "share",
        Higher,
        WAVE,
        WAVE_FLAT,
    ),
    // Restart and recovery: wall time around `restart_all` /
    // `recover_group`, `Metrics::restart_records`.
    m("core.restart.ranks", "count", Lower, RESTART, RESTART_FLAT),
    m("core.restart.wall_s", "s", Lower, RESTART, RESTART_FLAT),
    m(
        "core.restart.image_load_sim_s",
        "s",
        Lower,
        RESTART,
        RESTART_FLAT,
    ),
    m(
        "core.restart.resend_ops",
        "count",
        Lower,
        RESTART,
        RESTART_FLAT,
    ),
    m("core.restart.skip_mb", "MiB", Lower, RESTART, RESTART_FLAT),
    // Image backend: a delegating `CkptBackend` decorator.
    m("net.backend.writes", "count", Lower, WRITES, NONE),
    m("net.backend.reads", "count", Lower, READS, NONE),
    m("net.backend.write_mb", "MiB", Lower, WRITES, NONE),
    m("net.backend.read_mb", "MiB", Lower, READS, NONE),
    m("net.backend.write_sim_ms", "ms", Lower, WRITES, NONE),
    m("net.backend.read_sim_ms", "ms", Lower, READS, NONE),
    m("net.backend.poll_ns", "ns", Lower, BACKEND, NONE),
    m("net.backend.errors", "count", Lower, BACKEND, NONE),
    m("net.backend.commits", "count", Lower, WRITES, NONE),
    m("net.backend.aborts", "count", Lower, WRITES, NONE),
    // Two-phase-commit catalog: `Cluster::ckpt_store`.
    m("net.ckptstore.committed_gens", "count", Lower, READS, NONE),
    m("net.ckptstore.loads", "count", Lower, READS, NONE),
    m("net.ckptstore.invalid_loads", "count", Lower, READS, NONE),
    // Replicated in-memory backend: `ChaosReport` counters.
    m(
        "net.restore.peer_reads",
        "count",
        Higher,
        RESTORE,
        DISK_ONLY,
    ),
    m(
        "net.restore.fallback_reads",
        "count",
        Lower,
        RESTORE,
        DISK_ONLY,
    ),
    m(
        "net.restore.degraded_events",
        "count",
        Lower,
        RESTORE,
        DISK_ONLY,
    ),
    // Profiling run and Algorithm 2: timed `profile_trace`, `form_groups`.
    m("trace.profile_s", "s", Lower, SETUP, SETUP_FLAT),
    m("trace.sends", "count", Lower, SETUP, SETUP_FLAT),
    m("group.form_s", "s", Lower, SETUP, SETUP_FLAT),
    m("group.count", "count", Lower, SETUP, SETUP_FLAT),
    m("group.max_size", "count", Lower, SETUP, SETUP_FLAT),
    m("group.intra_share", "share", Higher, SETUP, SETUP_FLAT),
    // Chaos harness: timed `run_chaos`, `ChaosReport`.
    m("chaos.scenarios", "count", Lower, CHAOS, NONE),
    m("chaos.scenarios_per_s", "1/s", Higher, CHAOS, NONE),
    m("chaos.recoveries", "count", Lower, CHAOS, NONE),
    m("chaos.events_applied", "count", Lower, CHAOS, NONE),
    m("chaos.events_skipped", "count", Lower, CHAOS, NONE),
    m("chaos.violations", "count", Lower, CHAOS, NONE),
    m("chaos.scenario_p50_ms", "ms", Lower, CHAOS, NONE),
    m("chaos.scenario_p99_ms", "ms", Lower, CHAOS, NONE),
    m("chaos.norm_ms", "ms", Lower, CHAOS, NONE),
    m("chaos.gp_ms", "ms", Lower, CHAOS, NONE),
    m("chaos.gp1_ms", "ms", Lower, CHAOS, NONE),
    m("chaos.gp4_ms", "ms", Lower, CHAOS, NONE),
    m("chaos.vcl_ms", "ms", Lower, CHAOS, NONE),
    // Lint: `collect_workspace_files`, `lint_source`, `lint_workspace`,
    // `lint_workspace_cached`.
    m("lint.files", "count", Lower, LINT, LINT_FLAT),
    m("lint.collect_s", "s", Lower, LINT, LINT_FLAT),
    m("lint.local_s", "s", Lower, LINT, LINT_FLAT),
    m("lint.findings", "count", Lower, LINT, LINT_FLAT),
    m("lint.cache_file_hits", "count", Higher, LINT, LINT_FLAT),
    m("lint.warm_s", "s", Lower, LINT, LINT_FLAT),
    // The benchmark process itself.
    m("proc.rss_growth_mb_per_sample", "MiB", Lower, RSS, NONE),
    m("bench.trace_overhead_share", "share", Lower, RSS, NONE),
    // The highest percentile of untraced sample times with at least ten
    // samples beyond it (the slowest sample below eleven samples): too
    // noisy on a shared host to carry a bound.
    m("bench.wall_tail_s", "s", Lower, TAIL, NONE),
    // Simulated outcomes (paper Figs 5, 6a, 9, 6b, 7).
    m("sim_exec_s", "s", Lower, &[], NONE),
    m("sim_ckpt_s", "s", Lower, &[], NONE),
    m("sim_coord_s", "s", Lower, &[], NONE),
    m("sim_downtime_s", "s", Lower, &[], NONE),
    m("sim_resend_mb", "MiB", Lower, &[], NONE),
];
