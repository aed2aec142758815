//! **Ablation** (the paper's §1/§7 motivation made concrete) — recovery
//! scope after a single-group failure: the group-based protocol rolls back
//! and restores only the failed group (live ranks serve replay from their
//! logs), while a globally-coordinated system must restart everyone.
//!
//! Reported: ranks rolled back, recovery downtime on shared checkpoint
//! servers, and bytes replayed into the recovered group. Plus the
//! trace-driven checkpoint-interval advice of §7 (Young's formula on the
//! measured per-checkpoint cost).

use std::cell::RefCell;
use std::rc::Rc;

use gcr_bench::table::{f1, f2, Table};
use gcr_bench::{Proto, WorkloadSpec};
use gcr_ckpt::{analyze_schedule, optimal_interval, CkptConfig, CkptRuntime, Mode, RecoveryStats};
use gcr_mpi::{World, WorldOpts};
use gcr_net::{Cluster, ClusterSpec, StorageTarget};
use gcr_sim::{Sim, SimDuration};
use gcr_workloads::HplConfig;

fn run(n: usize, proto: Proto) -> (RecoveryStats, usize, f64, CkptRuntime) {
    let wl_spec = WorkloadSpec::Hpl(HplConfig::paper(n));
    let groups = proto.groups(&wl_spec);
    let sim = Sim::new();
    let cluster = Cluster::new(&sim, ClusterSpec::gideon300(n));
    let world = World::new(cluster, WorldOpts::default());
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
            rt.interval_schedule(SimDuration::from_secs(60), SimDuration::from_secs(60))
                .await;
            world.wait_all_ranks().await;
            rt.shutdown();
            // One group "fails" right after the run; recover it.
            let stats = rt
                .recover_group(0)
                .await
                .expect("quiescent group recovery cannot fail");
            *out.borrow_mut() = Some(stats);
        });
    }
    sim.run().expect("run failed");
    let stats = out.borrow().expect("recovery ran");
    let rolled = rt.metrics().restart_records().len();
    (stats, rolled, sim.now().as_secs_f64(), rt)
}

fn main() {
    let n = 64;
    println!("Ablation: single-group failure recovery, HPL on {n} procs, remote storage\n");
    let mut t = Table::new(&["mode", "ranks rolled back", "downtime (s)", "replayed (KB)"]);
    for proto in [Proto::Gp { max_size: 8 }, Proto::Norm] {
        let (stats, rolled, _exec, _rt) = run(n, proto);
        t.row(vec![
            proto.label().to_uppercase(),
            rolled.to_string(),
            f1(stats.downtime.as_secs_f64()),
            f1(stats.replayed_into_group_bytes as f64 / 1024.0),
        ]);
    }
    println!("{}", t.render());
    println!("expected: GP rolls back one group and restores it quickly; NORM must roll");
    println!("back every rank and its restores contend on the shared servers\n");

    // §7: checkpoint-interval advice from measured costs.
    let (_stats, _rolled, exec, rt) = run(n, Proto::Gp { max_size: 8 });
    let report = analyze_schedule(rt.metrics(), exec, SimDuration::from_secs(6 * 3600));
    let tau = optimal_interval(
        SimDuration::from_secs_f64(report.mean_ckpt_s.max(0.1)),
        SimDuration::from_secs(6 * 3600),
    );
    println!("interval advice for a 6 h whole-system MTBF:");
    println!(
        "  measured mean ckpt cost {} s -> Young's optimum tau* = {} s",
        f2(report.mean_ckpt_s),
        f1(tau.as_secs_f64())
    );
    println!(
        "  executed schedule: {} ckpts, mean interval {} s, expected loss/failure {} s",
        report.checkpoints,
        f1(report.mean_interval_s),
        f1(report.expected_loss_per_failure_s)
    );
}
