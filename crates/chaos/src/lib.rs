//! # gcr-chaos — the run set-up and the deterministic fault-injection harness
//!
//! The crate names a run once for every caller: [`WorkloadKind`] and
//! [`WorkloadSpec`] for the application, [`Proto`] for the protocol
//! (NORM / GP / GP1 / GP4 / VCL / CVC / rblog), and [`Scenario`], whose
//! [`Scenario::build`] is the one place a simulation is assembled — for
//! [`run_chaos`], for `gcr-bench`'s `run_one` and so for `gcrsim run`.
//!
//! On top of it, the harness drives seeded-random failure schedules
//! against every protocol over every workload skeleton, then checks
//! invariant oracles after each recovery and at the end of the run:
//!
//! * **recovery line** — [`gcr_ckpt::check_recovery_line`],
//! * **quiescence** — [`gcr_ckpt::check_quiescent`],
//! * **exact byte-stream closure** — replay + skip reconstructs the
//!   sender stream `[RR, S_ckpt)` byte-for-byte, no holes, no excess,
//! * **durable-store loads** — no restart ever consumed an uncommitted
//!   or corrupt checkpoint image (two-phase commit + digest validation),
//! * **workload completion** — every rank finishes,
//! * **bit-determinism** — the same seed yields an identical report
//!   digest on a second run ([`run_chaos_verified`]).
//!
//! Injected faults ([`Fault`], each at a [`ChaosEvent`]'s instant):
//! rank-group crashes at any protocol phase (the engine halts the group,
//! waits for in-flight waves to drain, runs group recovery, and
//! resumes), straggler storms, storage-server
//! outages, per-node link degradation, torn image writes, corruption of
//! the newest committed image (restart must fall back a generation), and
//! crash-during-checkpoint traps that abort a pending generation before /
//! during / after the image write. Under the replicated in-memory
//! backend ([`ChaosBackend::Restore`]), `replica:` events evaporate a
//! group's held replica copies (optionally sabotaging the re-replication
//! pass), and a survivability oracle checks that every committed
//! generation stays reconstructible from surviving peers after any
//! schedule with at most `k − 1` concurrent group failures — restart
//! reads must never touch the remote servers unless the backend reported
//! a typed `DegradedRedundancy`. Everything — the schedule, the
//! injection instants, the simulation itself — derives from one `u64`
//! seed, so every run is replayable with
//! `gcrsim chaos --seed N [--schedule ...]`.
//!
//! On an oracle violation, [`shrink`] greedily minimizes the failing
//! schedule (fewer events, later injection times) and emits a one-line
//! repro command.

#![warn(missing_docs)]

mod engine;
mod scenario;
mod schedule;
mod shrink;
mod spec;

pub use engine::{run_chaos, run_chaos_verified, ChaosReport, RecoverySummary};
pub use scenario::{profile_trace, world_opts, Built, Proto, Scenario, WorkloadKind, WorkloadSpec};
pub use schedule::{format_schedule, parse_schedule, ChaosEvent, Fault};
pub use shrink::{shrink, ShrinkOutcome};
pub use spec::{repro_command, ChaosBackend, ChaosSpec};
