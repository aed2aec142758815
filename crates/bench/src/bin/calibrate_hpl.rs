//! Calibration check: one small HPL run per protocol at three scales —
//! eyeball the orderings before trusting a long sweep.

use gcr_bench::{run_one, Proto, RunSpec, Schedule, WorkloadSpec};
use gcr_workloads::HplConfig;

fn main() {
    for n in [16usize, 64, 128] {
        let wl = WorkloadSpec::Hpl(HplConfig::paper(n));
        for proto in [
            Proto::Norm,
            Proto::Gp { max_size: 8 },
            Proto::Gp1,
            Proto::GpK { k: 4 },
        ] {
            let t0 = std::time::Instant::now();
            let spec = RunSpec::new(wl.clone(), proto, Schedule::SingleAt(60.0)).with_restart();
            let r = run_one(&spec);
            println!(
                "n={n:3} {:5} exec={:7.1}s agg_ckpt={:7.1}s agg_coord={:6.1}s agg_restart={:6.1}s resend={:8}B/{:3}ops groups={:3} wall={:.1}s",
                proto.label().to_uppercase(), r.exec_s, r.agg_ckpt_s, r.agg_coord_s, r.agg_restart_s,
                r.resend_bytes, r.resend_ops, r.group_count, t0.elapsed().as_secs_f64()
            );
        }
    }
}
