//! **Figure 9** — Average per-process checkpoint time broken into the four
//! phases (Lock MPI / Coordination / Checkpoint / Finalize), for 16 and 128
//! processes and each grouping mode.
//!
//! The paper: at 16 processes NORM's coordination roughly equals the image
//! write; at 128 the image shrinks (problem divided smaller) but NORM's
//! coordination explodes and dominates, while GP keeps it minimal.

use gcr_bench::table::{f2, Table};
use gcr_bench::{run_averaged, Proto, RunSpec, Schedule, WorkloadSpec};
use gcr_workloads::HplConfig;

fn main() {
    let protos = [
        Proto::Gp { max_size: 8 },
        Proto::Gp1,
        Proto::GpK { k: 4 },
        Proto::Norm,
    ];
    println!("Figure 9: mean per-process checkpoint phase breakdown (s), HPL\n");
    let mut t = Table::new(&[
        "procs",
        "mode",
        "lock",
        "coordination",
        "checkpoint",
        "finalize",
        "total",
    ]);
    for n in [16usize, 128] {
        let specs: Vec<RunSpec> = protos
            .iter()
            .map(|&p| {
                RunSpec::new(
                    WorkloadSpec::Hpl(HplConfig::paper(n)),
                    p,
                    Schedule::SingleAt(60.0),
                )
            })
            .collect();
        let results = run_averaged(&specs, 3);
        for (p, r) in protos.iter().zip(&results) {
            let (lock, coord, ckpt, fin) = r.phases;
            t.row(vec![
                n.to_string(),
                p.label().to_uppercase(),
                f2(lock),
                f2(coord),
                f2(ckpt),
                f2(fin),
                f2(lock + coord + ckpt + fin),
            ]);
        }
    }
    println!("{}", t.render());
    println!("paper shape: 'checkpoint' equal across modes at fixed n and shrinking with n;");
    println!("NORM's 'coordination' grows to dominate at 128 while GP keeps it minimal");
}
