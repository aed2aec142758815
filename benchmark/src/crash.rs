//! `hpl5k_crash`: the `tests/scale.rs` scenario at a benchmark size — a
//! one-panel HPL skeleton on a `p × q` grid, contiguous groups of 8
//! pinned to 16 executor shards, one checkpoint wave at 2 ms, then the
//! middle group halts, drains, recovers group-locally and resumes. The
//! quadratic chaos oracles are skipped, as in the scale test.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use gcr_ckpt::{CkptConfig, CkptRuntime, Mode, RecoveryStats};
use gcr_group::contiguous;
use gcr_mpi::{Rank, World, WorldOpts};
use gcr_net::{Cluster, ClusterSpec, StorageTarget};
use gcr_sim::{Sim, SimDuration, SimTime};
use gcr_workloads::{Hpl, HplConfig, Workload};

use crate::pace::Clock;
use crate::probes::Probes;
use crate::run::Bench;
use crate::sample::{finish, layer_values, Sample};
use crate::spans::Spans;

const SHARDS: usize = 16;
const GROUP_RANKS: usize = 8;

/// The crash scenario on a `p × q` process grid.
pub struct Crash {
    p: usize,
    q: usize,
    seed: u64,
    min_samples: usize,
}

impl Crash {
    /// A `p × q` grid (`p · q` divisible by 8), taking at least
    /// `min_samples` samples.
    pub fn new(p: usize, q: usize, seed: u64, min_samples: usize) -> Self {
        assert!(
            (p * q).is_multiple_of(GROUP_RANKS),
            "groups of 8 must tile the grid"
        );
        Crash {
            p,
            q,
            seed,
            min_samples,
        }
    }

    fn run(&self, spans: &Rc<Spans>, clock: &mut Clock) -> Sample {
        let traced = spans.enabled();
        let mut sample = Sample::default();
        let start = clock.start();
        let setup = spans.enter("setup");
        let wl = Hpl::new(HplConfig {
            n_matrix: 120,
            nb: 120,
            p: self.p,
            q: self.q,
            efficiency: 0.75,
            pivot_rounds: 1,
            base_mem_bytes: 1 << 20,
        });
        let n = wl.n();
        let sim = Sim::with_shards(SHARDS);
        let cluster = Cluster::new(&sim, ClusterSpec::test(n));
        let world = World::new(cluster, WorldOpts::default());
        let groups = Rc::new(contiguous(n, n / GROUP_RANKS));
        let crashed = groups.group_count() / 2;
        world.set_shard_map((0..n as u32).map(|r| groups.group_of(r) as u32).collect());
        let probes = traced.then(|| Probes::install_before(&world));
        wl.launch(&world);
        let mut cfg = CkptConfig::uniform(n, 1 << 20, StorageTarget::Local).deterministic();
        cfg.seed = self.seed;
        let rt = spans.time("setup.install", || {
            CkptRuntime::install(&world, Rc::clone(&groups), Mode::Blocking, cfg)
        });
        if let Some(p) = &probes {
            p.install_after(&world);
        }

        let app_done_at = Rc::new(Cell::new(SimTime::ZERO));
        let committed = Rc::new(Cell::new(false));
        let recovery: Rc<RefCell<Option<Result<RecoveryStats, String>>>> =
            Rc::new(RefCell::new(None));
        let recover_wall = Rc::new(Cell::new(0.0));
        {
            let (sim2, world, rt, groups) =
                (sim.clone(), world.clone(), rt.clone(), Rc::clone(&groups));
            let (spans, app_done_at, committed, recovery, recover_wall) = (
                Rc::clone(spans),
                Rc::clone(&app_done_at),
                Rc::clone(&committed),
                Rc::clone(&recovery),
                Rc::clone(&recover_wall),
            );
            sim.spawn_named("scale-controller", async move {
                committed.set(rt.single_checkpoint_at(SimTime::from_millis(2)).await);
                for &m in groups.members(crashed) {
                    world.halt(Rank(m));
                }
                while rt.waves_in_flight() > 0 {
                    sim2.sleep(SimDuration::from_micros(200)).await;
                }
                let span = spans.enter("recover_group");
                let t = Instant::now();
                let stats = rt.recover_group(crashed).await.map_err(|e| e.to_string());
                recover_wall.set(t.elapsed().as_secs_f64());
                spans.exit(span);
                *recovery.borrow_mut() = Some(stats);
                for &m in groups.members(crashed) {
                    world.resume(Rank(m));
                }
                world.wait_all_ranks().await;
                app_done_at.set(sim2.now());
                rt.shutdown();
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
        let errors = &mut sample.errors;
        if !committed.get() || rt.metrics().waves() != 1 {
            errors.push("the wave at 2 ms must commit".to_string());
        }
        match recovery.borrow_mut().take() {
            Some(Ok(stats)) => {
                if stats.ranks_restarted != GROUP_RANKS || stats.generation.is_none() {
                    errors.push(format!(
                        "recovery must restore group {crashed} from the wave: {stats:?}"
                    ));
                }
            }
            Some(Err(e)) => errors.push(format!("recovery: {e}")),
            None => errors.push("recovery never ran".to_string()),
        }
        if let Some(p) = &probes {
            let v = &mut sample.values;
            layer_values(v, spans, run, &sim, lap.host_s, &rt, p);
            v.insert("core.restart.wall_s", recover_wall.get());
        }
        sample
    }
}

impl Bench for Crash {
    fn min_samples(&self) -> usize {
        self.min_samples
    }

    fn sample(&mut self, spans: &Rc<Spans>, clock: &mut Clock) -> Sample {
        self.run(spans, clock)
    }
}
