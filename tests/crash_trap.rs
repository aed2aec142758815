//! Crash-trap pins (tier-1): a `crashckpt` trap armed on group 0 fires at
//! each of the three points of the group two-phase commit — before the
//! coordinator's image write (phase 0), halfway through it (phase 1) and
//! between the last write acknowledgement and the commit record (phase 2)
//! — under the blocking group plane (`gp4`) and under CVC. Every run must
//! fall back past the aborted generation, and its report digest must
//! match the pin. The pins were captured while each plane still carried
//! its own copy of the commit protocol, so they hold the shared
//! `ctrlplane` helpers to both planes' original behaviour.

use gcr_chaos::{parse_schedule, run_chaos, ChaosBackend, ChaosSpec, Proto, WorkloadKind};
use gcr_net::StorageTarget;

/// `(protocol, trap phase, ChaosReport::digest)` for seed 61, ring
/// workload, local storage, 600 ms interval, `crashckpt:g0p<phase>@2000`.
const PINNED: [(Proto, u8, u64); 6] = [
    (Proto::GpK { k: 4 }, 0, 0xb76de9e4f2b7c38f),
    (Proto::GpK { k: 4 }, 1, 0x18b67676a799a22f),
    (Proto::GpK { k: 4 }, 2, 0x2e9e294f5950d2d3),
    (Proto::Cvc, 0, 0x81191d206ec82133),
    (Proto::Cvc, 1, 0x825c37d51ae648bc),
    (Proto::Cvc, 2, 0xfdef52ed6f9b7c69),
];

#[test]
fn crash_traps_fall_back_with_the_pinned_digests() {
    for (proto, phase, want) in PINNED {
        let schedule = format!("crashckpt:g0p{phase}@2000");
        let spec = ChaosSpec {
            seed: 61,
            workload: WorkloadKind::Ring,
            proto,
            storage: StorageTarget::Local,
            interval_ms: 600,
            gc_overshoot: 0,
            schedule: parse_schedule(&schedule).expect("literal schedule parses"),
            shards: 1,
            backend: ChaosBackend::Disk,
            replication: 2,
        };
        let r = run_chaos(&spec);
        let label = proto.label();
        assert!(
            r.violations.is_empty(),
            "{label} {schedule}: {:?}",
            r.violations
        );
        assert_eq!(
            r.events_applied, 1,
            "{label} {schedule}: the trap never armed"
        );
        assert!(
            r.recoveries.len() == 1 && r.recoveries.iter().all(|rec| rec.fell_back),
            "{label} {schedule}: restart must fall back past the aborted generation: {:?}",
            r.recoveries
        );
        let got = r.digest();
        assert_eq!(
            got, want,
            "{label} {schedule}: digest {got:#018x} != pin {want:#018x} — \
             observable behavior changed"
        );
    }
}
