//! The paper-scenario workloads (`hpl128_gp`, `cg128_gp1`): one
//! `gcr_bench::RunSpec` run the way `gcr_bench::run_one` runs it, split
//! at `Sim::run` so set-up and the run are timed apart, with a seam to
//! install probes.
//!
//! `run_one` builds its simulation privately, so nothing can be hooked
//! into it from outside and its set-up cannot be timed apart from its
//! run; this module repeats its world and runtime configuration instead.
//! Every measured run checks the copy: after its samples, the workload
//! runs its spec once through `run_one` and requires the warm-up
//! sample's `RunResult` to equal it field for field ([`Paper::verify`]).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use gcr_bench::{
    profile_trace, resolve_groups, run_one, Proto, RunResult, RunSpec, Schedule, WorkloadSpec,
};
use gcr_ckpt::{check_recovery_line, CkptConfig, CkptRuntime, Mode, RecoveryError};
use gcr_group::form_groups;
use gcr_mpi::{World, WorldOpts};
use gcr_net::{Cluster, ClusterSpec, StragglerSpec};
use gcr_sim::{Sim, SimDuration, SimTime};
use gcr_workloads::{CgConfig, HplConfig};

use crate::pace::Clock;
use crate::probes::Probes;
use crate::run::Bench;
use crate::sample::{finish, layer_values, Sample};
use crate::spans::Spans;

/// `gcr_bench`'s runner world options (LAM/MPI-era eager threshold).
fn world_opts() -> WorldOpts {
    WorldOpts {
        compute_slice: SimDuration::from_millis(100),
        eager_threshold: 128 * 1024,
        ..WorldOpts::default()
    }
}

/// `gcr_bench`'s runner cluster for a spec.
fn cluster_spec(spec: &RunSpec) -> ClusterSpec {
    let mut c = ClusterSpec::gideon300(spec.workload.n());
    if !spec.stragglers {
        c.straggler = StragglerSpec::disabled();
    }
    if let Some(p) = spec.straggler_prob {
        c.straggler.prob = p;
    }
    c
}

/// `hpl128_gp`: HPL at `procs` ranks, GP groups of at most 8 from the
/// profiling run, one wave at t = 60 s, local disk, full restart.
pub fn hpl_gp(procs: usize, seed: u64) -> RunSpec {
    RunSpec::new(
        WorkloadSpec::Hpl(HplConfig::paper(procs)),
        Proto::Gp { max_size: 8 },
        Schedule::SingleAt(60.0),
    )
    .with_restart()
    .with_seed(seed)
}

/// `cg128_gp1`: CG class C at `procs` ranks (`niter` outer iterations),
/// GP1 singletons, waves every 3 s from t = 3 s, local disk, full
/// restart.
pub fn cg_gp1(procs: usize, niter: usize, seed: u64) -> RunSpec {
    RunSpec::new(
        WorkloadSpec::Cg(CgConfig {
            niter,
            ..CgConfig::class_c(procs)
        }),
        Proto::Gp1,
        Schedule::Interval {
            start_s: 3.0,
            every_s: 3.0,
        },
    )
    .with_restart()
    .with_seed(seed)
}

/// Run `spec` once, timing set-up and `Sim::run` with `clock`; with
/// `spans` enabled, probes are installed and the sample carries per-layer
/// values.
pub fn run_spec(spec: &RunSpec, spans: &Rc<Spans>, clock: &mut Clock) -> (RunResult, Sample) {
    let traced = spans.enabled();
    let mut sample = Sample::default();
    let start = clock.start();
    let setup = spans.enter("setup");
    let wl = spec.workload.build();
    let n = wl.n();
    let sim = Sim::new();
    let cluster = Cluster::new(&sim, cluster_spec(spec));
    let world = World::new(cluster, world_opts());
    let probes = traced.then(|| Probes::install_before(&world));
    wl.launch(&world);

    let groups = Rc::new(match (spec.proto, &spec.groups) {
        (Proto::Gp { max_size }, None) => {
            let t = Instant::now();
            let trace = spans.time("setup.profile_trace", || profile_trace(&spec.workload));
            let profile_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let groups = spans.time("setup.form_groups", || form_groups(&trace, max_size));
            if traced {
                let v = &mut sample.values;
                v.insert("trace.profile_s", profile_s);
                v.insert("group.form_s", t.elapsed().as_secs_f64());
                v.insert("trace.sends", trace.send_count() as f64);
                let (intra, total) = trace.sends().fold((0u64, 0u64), |(i, t), (s, d, b)| {
                    (i + if groups.is_intra(s, d) { b } else { 0 }, t + b)
                });
                v.insert("group.intra_share", intra as f64 / total.max(1) as f64);
            }
            groups
        }
        _ => resolve_groups(spec),
    });
    let group_count = groups.group_count();
    let mode = if spec.proto == Proto::Vcl {
        Mode::Vcl
    } else {
        Mode::Blocking
    };
    let mut cfg = CkptConfig::uniform(n, 0, spec.storage);
    cfg.image_bytes = wl.image_bytes();
    cfg.stragglers = spec.stragglers;
    cfg.piggyback_gc = spec.piggyback_gc;
    cfg.seed = spec.seed;
    let rt = spans.time("setup.install", || {
        CkptRuntime::install(&world, Rc::clone(&groups), mode, cfg)
    });
    if let Some(p) = &probes {
        p.install_after(&world);
    }

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
    let restart_wall = Rc::new(Cell::new(0.0));
    let restart_err: Rc<RefCell<Option<RecoveryError>>> = Rc::new(RefCell::new(None));
    {
        let rt = rt.clone();
        let world = world.clone();
        let (schedule, restart, staggered) = (spec.schedule, spec.restart, spec.staggered);
        let (spans, restart_wall, restart_err) = (
            Rc::clone(spans),
            Rc::clone(&restart_wall),
            Rc::clone(&restart_err),
        );
        sim.spawn_named("controller", async move {
            match schedule {
                Schedule::None => {}
                Schedule::SingleAt(t) => {
                    rt.single_checkpoint_at(SimTime::from_secs_f64(t)).await;
                }
                Schedule::Interval { start_s, every_s } => {
                    let (start, every) = (
                        SimDuration::from_secs_f64(start_s),
                        SimDuration::from_secs_f64(every_s),
                    );
                    if staggered {
                        rt.interval_schedule_staggered(start, every).await;
                    } else {
                        rt.interval_schedule(start, every).await;
                    }
                }
            }
            world.wait_all_ranks().await;
            rt.shutdown();
            if restart {
                let span = spans.enter("restart_all");
                let t = Instant::now();
                if let Err(e) = rt.restart_all().await {
                    *restart_err.borrow_mut() = Some(e);
                }
                restart_wall.set(t.elapsed().as_secs_f64());
                spans.exit(span);
            }
        });
    }
    spans.exit(setup);
    let (setup_lap, t) = clock.lap(start);
    sample.setup_s = setup_lap.scaled_s;

    let run = spans.enter("sim.run");
    let ran = sim.run();
    let lap = clock.stop(t);
    sample.wall_s = lap.scaled_s;
    spans.exit(run);

    finish(&mut sample, ran, &world, &rt, app_done_at.get());
    if let Some(e) = restart_err.borrow_mut().take() {
        sample.errors.push(format!("restart: {e}"));
    }
    if mode == Mode::Blocking && rt.metrics().waves() > 0 {
        if let Err(v) = check_recovery_line(&world, &rt) {
            sample.errors.push(format!("recovery line: {}", v[0]));
        }
    }
    if let Some(p) = &probes {
        let v = &mut sample.values;
        layer_values(v, spans, run, &sim, lap.host_s, &rt, p);
        v.insert("core.restart.wall_s", restart_wall.get());
    }

    let m = rt.metrics();
    let (retained, logged) = (0..n as u32).fold((0, 0), |(r, l), rank| {
        let gp = rt.gp_state(rank);
        (r + gp.retained_log_bytes(), l + gp.total_logged_bytes())
    });
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
    (result, sample)
}

/// Whether `ours`, a [`run_spec`] result, equals `gcr_bench::run_one`'s
/// result for the same `spec`, every field compared exactly.
///
/// # Errors
/// The two results differ; the message shows both.
pub fn same_as_run_one(spec: &RunSpec, ours: &RunResult) -> Result<(), String> {
    // `Debug` prints every field, floats in their shortest exact form, so
    // equal text is equal results, fields added later included.
    let (ours, theirs) = (format!("{ours:?}"), format!("{:?}", run_one(spec)));
    if ours == theirs {
        Ok(())
    } else {
        Err(format!(
            "the benchmark's runner differs from gcr_bench::run_one: {ours} vs {theirs}"
        ))
    }
}

/// A paper-scenario workload: every sample runs the same spec.
pub struct Paper {
    spec: RunSpec,
    min_samples: usize,
    /// The warm-up sample's result, for [`Bench::verify`].
    first: Option<RunResult>,
}

impl Paper {
    /// A workload running `spec`, taking at least `min_samples` samples.
    pub fn new(spec: RunSpec, min_samples: usize) -> Self {
        Paper {
            spec,
            min_samples,
            first: None,
        }
    }
}

impl Bench for Paper {
    fn min_samples(&self) -> usize {
        self.min_samples
    }

    fn sample(&mut self, spans: &Rc<Spans>, clock: &mut Clock) -> Sample {
        let (result, sample) = run_spec(&self.spec, spans, clock);
        self.first.get_or_insert(result);
        sample
    }

    /// The copied runner against the original: the warm-up sample's
    /// `RunResult` must equal `gcr_bench::run_one`'s.
    fn verify(&mut self) -> Result<(), String> {
        match &self.first {
            Some(first) => same_as_run_one(&self.spec, first),
            None => Err("no sample ran".to_string()),
        }
    }
}
