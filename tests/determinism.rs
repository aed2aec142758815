//! Determinism regression gate: the same chaos scenario, run twice in the
//! same process, must produce bit-identical oracle reports for every
//! protocol — at every executor shard count, and identically *across*
//! shard counts. This is the dynamic counterpart of `gcr-lint`'s static
//! rules (D01/D02): if a hash-ordered iteration or wall-clock read slips
//! past the analyzer, the digest comparison catches it here before it
//! corrupts replay, shrinking, or a published figure. The cross-shard
//! half is the contract that makes the sharded kernel a refactor rather
//! than a semantics change: shard count is a layout knob, never an input.

use gcr_chaos::{parse_schedule, run_chaos, ChaosBackend, ChaosSpec, Proto, WorkloadKind};
use gcr_net::StorageTarget;

/// Shard counts exercised by the matrix.
const SHARD_MATRIX: [usize; 3] = [1, 4, 16];

/// A fixed scenario per protocol: ring workload (fast), one mid-run group
/// crash, local storage. The schedule exercises the full recovery path —
/// halt, volume exchange, replay — where nondeterminism likes to hide.
fn spec_for(proto: Proto, shards: usize) -> ChaosSpec {
    ChaosSpec {
        seed: 0xD1CE,
        workload: WorkloadKind::Ring,
        proto,
        storage: StorageTarget::Local,
        interval_ms: 700,
        gc_overshoot: 0,
        schedule: parse_schedule("crash:g1@2500").expect("literal schedule parses"),
        shards,
        backend: ChaosBackend::Disk,
        replication: 2,
    }
}

/// The conformance harness shared by every matrix test: run the
/// protocol's fixed scenario twice at the given shard count, require the
/// oracles to hold, and require the two reports to be bit-identical.
/// Returns the digest and the dumped report for cross-shard comparison.
/// Iterating [`Proto::ALL`] means a protocol added to the chaos
/// vocabulary is enrolled here automatically — there is no separate
/// registration step to forget.
fn assert_conformant(proto: Proto, shards: usize) -> (u64, String) {
    let spec = spec_for(proto, shards);
    let a = run_chaos(&spec);
    let b = run_chaos(&spec);
    assert!(
        a.passed(),
        "{} @ {shards} shard(s): oracle violation(s): {:?}",
        proto.label(),
        a.violations
    );
    assert_eq!(
        a.digest(),
        b.digest(),
        "{} @ {shards} shard(s): same spec, different report digest — a \
         nondeterministic input leaked into the simulation",
        proto.label()
    );
    // The digest covers the dumped report; compare the dumps too so a
    // failure here prints the actual divergence.
    assert_eq!(
        a.to_json().pretty(),
        b.to_json().pretty(),
        "{} @ {shards} shard(s): reports diverged",
        proto.label()
    );
    (a.digest(), a.to_json().pretty())
}

#[test]
fn every_protocol_is_bit_deterministic_under_chaos() {
    for proto in Proto::ALL {
        assert_conformant(proto, 1);
    }
}

/// The shard-count matrix: every protocol's scenario is digested twice at
/// shard counts 1, 4, and 16. Digests must be identical run-over-run at
/// each count AND identical across counts for the same seed.
#[test]
fn shard_count_matrix_is_bit_identical() {
    for proto in Proto::ALL {
        let mut baseline: Option<(u64, String)> = None;
        for &shards in &SHARD_MATRIX {
            let (digest, dump) = assert_conformant(proto, shards);
            match &baseline {
                None => baseline = Some((digest, dump)),
                Some((base_digest, base_dump)) => {
                    assert_eq!(
                        digest,
                        *base_digest,
                        "{}: digest changed between 1 and {shards} shard(s) — \
                         the cross-shard merge leaked shard layout into \
                         event order",
                        proto.label()
                    );
                    assert_eq!(
                        &dump,
                        base_dump,
                        "{} @ {shards} shard(s): reports diverged",
                        proto.label()
                    );
                }
            }
        }
    }
}
