//! One measured sample, and the accounting shared by the simulation
//! workloads once a run has finished.

use std::collections::BTreeMap;

use gcr_ckpt::CkptRuntime;
use gcr_mpi::World;
use gcr_net::{CkptStore, GenState};
use gcr_sim::{Deadlock, Sim, SimTime};

use crate::probes::Probes;
use crate::spans::Spans;
use crate::stats::{fold, FNV_OFFSET};

/// Named per-layer values and simulated outcomes of one sample.
pub type Values = BTreeMap<&'static str, f64>;

/// Bytes per MiB, the unit of every `_mb` metric.
pub const MIB: f64 = 1_048_576.0;

/// What one sample measured.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Seconds of set-up (everything before the measured call), at the
    /// reference pace.
    pub setup_s: f64,
    /// Seconds of the measured call, at the reference pace.
    pub wall_s: f64,
    /// Outcome digest; equal inputs must give equal digests.
    pub digest: u64,
    /// Correctness failures (empty: the sample passed).
    pub errors: Vec<String>,
    /// Simulated outcomes and, for traced samples, per-layer values.
    pub values: Values,
}

/// The checks and results every simulation sample shares once `Sim::run`
/// returned `ran`: no deadlock, every rank finished, no store load of an
/// uncommitted or corrupt image; then the digest (the protocol metrics
/// digest, the final clock, the completion time and the finished-rank
/// count) and the simulated outcomes.
///
/// The digest holds only what the simulation computes. The executor's
/// work counters (polls, events fired, calls run) stay out of it: they
/// are per-layer metrics that a faster executor is meant to lower
/// without changing any result.
pub fn finish(
    sample: &mut Sample,
    ran: Result<(), Deadlock>,
    world: &World,
    rt: &CkptRuntime,
    app_done_at: SimTime,
) {
    let (sim, finished) = (world.sim(), world.ranks_finished());
    if let Err(d) = ran {
        sample.errors.push(format!("deadlock: {d}"));
    }
    if finished < world.n() {
        sample.errors.push(format!(
            "completion: {finished}/{} ranks finished",
            world.n()
        ));
    }
    if invalid_loads(world.cluster().ckpt_store()) > 0 {
        sample
            .errors
            .push("store: a restart loaded an uncommitted or corrupt image".to_string());
    }
    sample.digest = [
        rt.metrics().digest(),
        sim.now().as_nanos(),
        app_done_at.as_nanos(),
        finished as u64,
    ]
    .into_iter()
    .fold(FNV_OFFSET, fold);
    let m = rt.metrics();
    let v = &mut sample.values;
    v.insert("sim_exec_s", app_done_at.as_secs_f64());
    v.insert("sim_ckpt_s", m.aggregate_ckpt_time());
    v.insert("sim_coord_s", m.aggregate_coordination_time());
    v.insert("sim_downtime_s", m.aggregate_restart_time());
    v.insert("sim_resend_mb", m.total_resend_bytes() as f64 / MIB);
}

/// Store loads that hit an uncommitted or corrupt image (must be none).
fn invalid_loads(store: &CkptStore) -> usize {
    store
        .loads()
        .iter()
        .filter(|l| l.state != GenState::Committed || !l.valid)
        .count()
}

/// Per-layer values of a finished traced simulation whose `Sim::run`
/// took `run_s` and ran inside the span `run_span`; records each wave as
/// a child span of it.
pub fn layer_values(
    values: &mut Values,
    spans: &Spans,
    run_span: Option<usize>,
    sim: &Sim,
    run_s: f64,
    rt: &CkptRuntime,
    probes: &Probes,
) {
    let st = sim.stats();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let events = st.polls + st.calls_run;
    values.insert("sim.events", events as f64);
    values.insert("sim.polls", st.polls as f64);
    values.insert("sim.events_fired", st.events_fired as f64);
    values.insert("sim.calls_run", st.calls_run as f64);
    values.insert("sim.merges", st.merges as f64);
    values.insert("sim.slow_path_share", ratio(st.window_batches, st.merges));
    values.insert(
        "sim.slow_path_event_share",
        ratio(st.window_events, st.events_fired),
    );
    values.insert("sim.events_per_s", events as f64 / run_s);
    values.insert("sim.run_s", run_s);

    let h = &probes.hooks;
    let n = rt.groups().n() as u32;
    let self_ns = h.send_ns.get() + h.arrival_ns.get() + h.recv_ns.get();
    values.insert("mpi.msgs", h.sends.get() as f64);
    values.insert("mpi.mb", h.bytes.get() as f64 / MIB);
    values.insert("mpi.msgs_per_s", h.sends.get() as f64 / run_s);
    values.insert(
        "mpi.mailbox_wait_sim_ms",
        ratio(h.wait_sim_ns.get(), h.recvs.get()) / 1e6,
    );
    values.insert("core.hooks.sends", h.sends.get() as f64);
    values.insert("core.hooks.send_ns", ratio(h.send_ns.get(), h.sends.get()));
    values.insert(
        "core.hooks.arrival_ns",
        ratio(h.arrival_ns.get(), h.arrivals.get()),
    );
    values.insert("core.hooks.recv_ns", ratio(h.recv_ns.get(), h.recvs.get()));
    values.insert("core.hooks.self_s", self_ns as f64 / 1e9);
    values.insert("core.hooks.share", self_ns as f64 / 1e9 / run_s);
    let (logged, retained) = (0..n).fold((0u64, 0u64), |(l, r), rank| {
        let gp = rt.gp_state(rank);
        (l + gp.total_logged_bytes(), r + gp.retained_log_bytes())
    });
    values.insert("core.hooks.logged_mb", logged as f64 / MIB);
    values.insert("core.hooks.retained_mb", retained as f64 / MIB);

    let m = rt.metrics();
    let recs = m.ckpt_records();
    let mut windows: BTreeMap<u64, (SimTime, SimTime)> = BTreeMap::new();
    for r in &recs {
        let w = windows.entry(r.wave).or_insert((r.started, r.finished));
        w.0 = w.0.min(r.started);
        w.1 = w.1.max(r.finished);
    }
    let sum = |f: &dyn Fn(&gcr_ckpt::CkptRecord) -> f64| recs.iter().map(f).sum::<f64>();
    values.insert("core.wave.count", m.waves() as f64);
    values.insert(
        "core.wave.sim_s",
        windows
            .values()
            .map(|(a, b)| b.saturating_since(*a).as_secs_f64())
            .sum(),
    );
    values.insert("core.wave.lock_s", sum(&|r| r.phases.lock.as_secs_f64()));
    values.insert(
        "core.wave.coord_s",
        sum(&|r| r.phases.coordination.as_secs_f64()),
    );
    values.insert(
        "core.wave.write_s",
        sum(&|r| r.phases.checkpoint.as_secs_f64()),
    );
    values.insert(
        "core.wave.finalize_s",
        sum(&|r| r.phases.finalize.as_secs_f64()),
    );
    values.insert(
        "core.wave.log_flushed_mb",
        sum(&|r| r.log_flushed_bytes as f64) / MIB,
    );
    values.insert(
        "core.wave.committed_share",
        ratio(
            recs.iter().filter(|r| r.committed).count() as u64,
            recs.len() as u64,
        ),
    );

    let restarts = m.restart_records();
    values.insert("core.restart.ranks", restarts.len() as f64);
    values.insert(
        "core.restart.image_load_sim_s",
        restarts.iter().map(|r| r.image_load.as_secs_f64()).sum(),
    );
    values.insert("core.restart.resend_ops", m.total_resend_ops() as f64);
    values.insert(
        "core.restart.skip_mb",
        restarts.iter().map(|r| r.skip_bytes as f64).sum::<f64>() / MIB,
    );

    let b = &probes.backend;
    for (gen, (start, end)) in b.waves.borrow().iter() {
        spans.record(&format!("wave{gen}"), *start, *end, run_span);
    }
    values.insert("net.backend.writes", b.writes.get() as f64);
    values.insert("net.backend.reads", b.reads.get() as f64);
    values.insert("net.backend.write_mb", b.write_bytes.get() as f64 / MIB);
    values.insert("net.backend.read_mb", b.read_bytes.get() as f64 / MIB);
    values.insert(
        "net.backend.write_sim_ms",
        ratio(b.write_sim_ns.get(), b.writes.get()) / 1e6,
    );
    values.insert(
        "net.backend.read_sim_ms",
        ratio(b.read_sim_ns.get(), b.reads.get()) / 1e6,
    );
    values.insert("net.backend.poll_ns", ratio(b.poll_ns.get(), b.polls.get()));
    values.insert("net.backend.errors", b.errors.get() as f64);
    values.insert("net.backend.commits", b.commits.get() as f64);
    values.insert("net.backend.aborts", b.aborts.get() as f64);

    let store = &probes.store;
    let groups = rt.groups();
    values.insert(
        "net.ckptstore.committed_gens",
        (0..groups.group_count())
            .map(|g| store.committed_gens(g).len())
            .sum::<usize>() as f64,
    );
    values.insert("net.ckptstore.loads", store.loads().len() as f64);
    values.insert("net.ckptstore.invalid_loads", invalid_loads(store) as f64);
    values.insert("group.count", groups.group_count() as f64);
    values.insert("group.max_size", groups.max_group_size() as f64);
}
