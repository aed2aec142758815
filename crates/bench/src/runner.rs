//! Run one experiment end-to-end in a fresh simulation.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use gcr_chaos::{Built, ChaosBackend, Proto, Scenario, WorkloadSpec};
use gcr_ckpt::{check_recovery_line, CkptConfig, CkptRuntime, Mode, RecoveryStats};
use gcr_group::GroupDef;
use gcr_mpi::{World, WorldOpts};
use gcr_net::{Cluster, ClusterSpec, RestoreBackend, StorageTarget};
use gcr_sim::{Sim, SimDuration, SimTime};
use gcr_trace::{Trace, Tracer, Window};

use crate::spec::{RunResult, RunSpec, Schedule};

/// Resolve the group definition for a spec (profiling run for `Proto::Gp`
/// when no precomputed groups were supplied).
pub fn resolve_groups(spec: &RunSpec) -> GroupDef {
    match &spec.groups {
        Some(g) => g.clone(),
        None => spec.proto.groups(&spec.workload),
    }
}

/// A run plus its trace and per-wave checkpoint windows (Fig 2 inputs).
pub struct TracedRun {
    /// The summary numbers.
    pub result: RunResult,
    /// The full communication trace of the production run.
    pub trace: Trace,
    /// One window per checkpoint wave: `[min started, max finished]`.
    pub windows: Vec<Window>,
}

/// Execute one experiment. Deterministic given the spec.
pub fn run_one(spec: &RunSpec) -> RunResult {
    run_inner(spec, false).result
}

/// Execute one experiment while capturing a full trace.
pub fn run_traced(spec: &RunSpec) -> TracedRun {
    run_inner(spec, true)
}

fn run_inner(spec: &RunSpec, capture_trace: bool) -> TracedRun {
    let mut cluster = ClusterSpec::gideon300(spec.workload.n());
    if !spec.stragglers {
        cluster.straggler = gcr_net::StragglerSpec::disabled();
    }
    if let Some(p) = spec.straggler_prob {
        cluster.straggler.prob = p;
    }
    let scenario = Scenario {
        workload: spec.workload.clone(),
        proto: spec.proto,
        storage: spec.storage,
        backend: ChaosBackend::Disk,
        replication: 1,
        cluster,
        groups: spec.groups.clone(),
        seed: spec.seed,
        shards: 1,
        stragglers: spec.stragglers,
        piggyback_gc: spec.piggyback_gc,
        gc_overshoot: 0,
    };
    let mut tracer = None;
    let Built {
        sim,
        world,
        rt,
        groups,
        ..
    } = scenario.build_with(|world, wl| {
        if capture_trace {
            tracer = Some(Tracer::install(world, wl.name()));
        }
    });
    let n = world.n();
    let group_count = groups.group_count();

    let app_done_at = Rc::new(Cell::new(SimTime::ZERO));
    {
        let world = world.clone();
        let sim2 = sim.clone();
        let t = Rc::clone(&app_done_at);
        sim.spawn_named("exec-timer", async move {
            world.wait_all_ranks().await;
            t.set(sim2.now());
        });
    }
    {
        let rt = rt.clone();
        let world = world.clone();
        let schedule = spec.schedule;
        let restart = spec.restart;
        let staggered = spec.staggered;
        sim.spawn_named("controller", async move {
            match schedule {
                Schedule::None => {}
                Schedule::SingleAt(t) => {
                    rt.single_checkpoint_at(SimTime::from_secs_f64(t)).await;
                }
                Schedule::Interval { start_s, every_s } => {
                    if staggered {
                        rt.interval_schedule_staggered(
                            SimDuration::from_secs_f64(start_s),
                            SimDuration::from_secs_f64(every_s),
                        )
                        .await;
                    } else {
                        rt.interval_schedule(
                            SimDuration::from_secs_f64(start_s),
                            SimDuration::from_secs_f64(every_s),
                        )
                        .await;
                    }
                }
            }
            world.wait_all_ranks().await;
            rt.shutdown();
            if restart {
                rt.restart_all()
                    .await
                    .expect("quiescent full restart cannot fail");
            }
        });
    }
    sim.run()
        .unwrap_or_else(|d| panic!("experiment deadlocked: {d}"));

    // The recovery line left by the final wave must be consistent.
    if rt.mode() == Mode::Blocking && rt.metrics().waves() > 0 {
        if let Err(v) = check_recovery_line(&world, &rt) {
            panic!("recovery-line violation: {}", v[0]);
        }
    }

    let m = rt.metrics();
    let retained: u64 = (0..n as u32)
        .map(|r| rt.gp_state(r).retained_log_bytes())
        .sum();
    let logged: u64 = (0..n as u32)
        .map(|r| rt.gp_state(r).total_logged_bytes())
        .sum();
    let result = RunResult {
        exec_s: app_done_at.get().as_secs_f64(),
        waves: m.waves(),
        agg_ckpt_s: m.aggregate_ckpt_time(),
        agg_coord_s: m.aggregate_coordination_time(),
        agg_restart_s: m.aggregate_restart_time(),
        mean_ckpt_s: m.mean_ckpt_time(),
        phases: m.mean_phases(),
        resend_bytes: m.total_resend_bytes(),
        resend_ops: m.total_resend_ops(),
        retained_log_bytes: retained,
        total_logged_bytes: logged,
        group_count,
        sim_polls: sim.poll_count(),
    };

    // Per-wave windows for gap analysis (iterate the distinct wave ids in
    // the records — staggered rounds use one id per group).
    let mut windows = Vec::new();
    let all_recs = m.ckpt_records();
    let mut wave_ids: Vec<u64> = all_recs.iter().map(|r| r.wave).collect();
    wave_ids.sort_unstable();
    wave_ids.dedup();
    for wave in wave_ids {
        let recs: Vec<_> = all_recs.iter().filter(|r| r.wave == wave).collect();
        let start = recs.iter().map(|r| r.started.as_nanos()).min().unwrap();
        let end = recs.iter().map(|r| r.finished.as_nanos()).max().unwrap();
        windows.push(Window::new(start, end));
    }

    TracedRun {
        result,
        trace: tracer
            .map(|t| t.take())
            .unwrap_or_else(|| Trace::new(n, "untraced")),
        windows,
    }
}

/// A run that ended with group 0 failing and recovering.
pub struct Recovered {
    /// The recovery's summary.
    pub stats: RecoveryStats,
    /// Restart image reads served from peer memory (0 without a restore
    /// backend).
    pub peer_reads: u64,
    /// Simulated time when the recovery finished (s).
    pub end_s: f64,
    /// The runtime, for its metrics.
    pub rt: CkptRuntime,
}

/// Run `wl_spec` under `proto` with images on the remote servers,
/// checkpointing every `every` until the application finishes; then group
/// 0 fails and is recovered, from a restore backend with replication `k`
/// when one is given. The world is built by hand with default world
/// options, not through [`Scenario`], which keeps these runs'
/// calibration.
pub fn recover_after_run(
    wl_spec: WorkloadSpec,
    proto: Proto,
    every: SimDuration,
    restore_k: Option<usize>,
) -> Recovered {
    let n = wl_spec.n();
    let groups = proto.groups(&wl_spec);
    let sim = Sim::new();
    let cluster = Cluster::new(&sim, ClusterSpec::gideon300(n));
    let world = World::new(cluster, WorldOpts::default());
    let backend = restore_k.map(|k| {
        let group_of: Vec<usize> = (0..n as u32).map(|r| groups.group_of(r)).collect();
        RestoreBackend::install(world.cluster(), group_of, k)
    });
    let wl = wl_spec.build();
    let image = wl.image_bytes();
    wl.launch(&world);
    let mut cfg = CkptConfig::uniform(n, 0, StorageTarget::Remote);
    cfg.image_bytes = image;
    let rt = CkptRuntime::install(&world, Rc::new(groups), Mode::Blocking, cfg);
    let out = Rc::new(RefCell::new(None));
    {
        let (rt, world, out) = (rt.clone(), world.clone(), Rc::clone(&out));
        sim.spawn(async move {
            rt.interval_schedule(every, every).await;
            world.wait_all_ranks().await;
            rt.shutdown();
            let stats = rt
                .recover_group(0)
                .await
                .expect("quiescent group recovery cannot fail");
            *out.borrow_mut() = Some(stats);
        });
    }
    sim.run().expect("run failed");
    let stats = out.borrow().expect("recovery ran");
    Recovered {
        stats,
        peer_reads: backend.map_or(0, |b| b.peer_reads()),
        end_s: sim.now().as_secs_f64(),
        rt,
    }
}
