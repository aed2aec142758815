//! The shared HPL sweep behind Figures 5–9: N = 20000, NB = 120, P = 8,
//! 16–128 processes in steps of 8, one checkpoint at t = 60 s, protocols
//! GP / GP1 / GP4 / NORM.

use crate::spec::{RunResult, RunSpec, Schedule};
use crate::sweep::run_averaged;
use crate::{Proto, WorkloadSpec};
use gcr_workloads::HplConfig;

/// Process counts of the paper's §5.1 sweep.
pub fn paper_sizes() -> Vec<usize> {
    (16..=128).step_by(8).collect()
}

/// The four §5.1 protocols, in figure order.
pub fn paper_protos() -> Vec<Proto> {
    vec![
        Proto::Gp { max_size: 8 },
        Proto::Gp1,
        Proto::GpK { k: 4 },
        Proto::Norm,
    ]
}

/// Results of the sweep, indexed `[size][proto]`.
pub struct HplSweep {
    /// Process counts.
    pub sizes: Vec<usize>,
    /// Protocols.
    pub protos: Vec<Proto>,
    /// `results[i][j]` = averaged result for `sizes[i]` × `protos[j]`.
    pub results: Vec<Vec<RunResult>>,
}

/// Run the §5.1 sweep (in parallel across configurations).
pub fn hpl_paper_sweep(restart: bool, trials: u64) -> HplSweep {
    let sizes = paper_sizes();
    let protos = paper_protos();
    let mut specs = Vec::new();
    for &n in &sizes {
        for &proto in &protos {
            let mut s = RunSpec::new(
                WorkloadSpec::Hpl(HplConfig::paper(n)),
                proto,
                Schedule::SingleAt(60.0),
            );
            if restart {
                s = s.with_restart();
            }
            specs.push(s);
        }
    }
    let flat = run_averaged(&specs, trials);
    let results = flat.chunks(protos.len()).map(|c| c.to_vec()).collect();
    HplSweep {
        sizes,
        protos,
        results,
    }
}
