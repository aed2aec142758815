//! Compare all four blocking protocols (GP / GP1 / GP4 / NORM) on a
//! stencil application: execution time, aggregate checkpoint/restart cost,
//! and replay volume.
//!
//! ```sh
//! cargo run --release --example compare_protocols
//! ```

use std::rc::Rc;

use gcr::prelude::*;

fn run(proto: Proto) -> (f64, f64, f64, u64) {
    let n = 16;
    let sim = Sim::new();
    let cluster = Cluster::new(&sim, ClusterSpec::gideon300(n));
    let world = World::new(cluster, WorldOpts::default());

    // Heavy east–west traffic → rows are the natural groups.
    let app = Stencil::new(app_config());

    // Trace-based groups need a short profiling run.
    let groups = proto.groups_with(n, || {
        let psim = Sim::new();
        let pcluster = Cluster::new(&psim, ClusterSpec::gideon300(n));
        let pworld = World::new(pcluster, WorldOpts::default());
        let tracer = Tracer::install(&pworld, "stencil-profile");
        Stencil::new(StencilConfig {
            iters: 5,
            ..app_config()
        })
        .launch(&pworld);
        psim.run().unwrap();
        tracer.take()
    });

    app.launch(&world);
    let cfg = CkptConfig::uniform(n, 96 << 20, StorageTarget::Local);
    let rt = CkptRuntime::install(&world, Rc::new(groups), proto.mode(), cfg);
    {
        let (rt, world) = (rt.clone(), world.clone());
        sim.spawn(async move {
            rt.interval_schedule(SimDuration::from_secs(8), SimDuration::from_secs(8))
                .await;
            world.wait_all_ranks().await;
            rt.shutdown();
            rt.restart_all().await.unwrap();
        });
    }
    sim.run().expect("run failed");
    let m = rt.metrics();
    (
        sim.now().as_secs_f64(),
        m.aggregate_ckpt_time(),
        m.aggregate_restart_time(),
        m.total_resend_bytes(),
    )
}

fn app_config() -> StencilConfig {
    StencilConfig {
        rows: 4,
        cols: 4,
        iters: 400,
        ew_bytes: 96 * 1024,
        ns_bytes: 8 * 1024,
        compute_ms: 40,
        image_bytes: 96 << 20,
    }
}

fn main() {
    println!("4x4 stencil, periodic group-based checkpoints, then a full restart\n");
    println!(
        "{:<6} {:>10} {:>14} {:>14} {:>12}",
        "mode", "exec (s)", "agg ckpt (s)", "agg restart", "resend (B)"
    );
    for proto in [
        Proto::Gp { max_size: 4 },
        Proto::Gp1,
        Proto::GpK { k: 4 },
        Proto::Norm,
    ] {
        let (exec, ckpt, restart, resend) = run(proto);
        println!(
            "{:<6} {:>10.1} {:>14.1} {:>14.1} {:>12}",
            proto.label().to_uppercase(),
            exec,
            ckpt,
            restart,
            resend
        );
    }
    println!("\nGP groups the heavy east–west rows; NORM pays global coordination;");
    println!("GP1 logs everything and replays the most on restart.");
}
