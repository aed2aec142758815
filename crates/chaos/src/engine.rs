//! The chaos engine: one seeded run under fault injection, with oracles.
//!
//! The engine builds a fresh simulation per run (workload, cluster, MPI
//! world, checkpoint runtime), spawns the periodic checkpoint controller,
//! and one injector task per scheduled event:
//!
//! * **crash** — halt every member of the target group (a dedicated halt
//!   gate, so an in-flight wave's own freeze/thaw cannot resurrect them),
//!   wait for in-flight checkpoint waves to drain, run the group-local
//!   recovery protocol, check the recovery-line and stream-closure
//!   oracles, resume. Crashes serialize with each other; storms, outages
//!   and slowdowns fire concurrently, so a second fault can land mid-drain,
//!   mid-image-write or mid-recovery-volume-exchange.
//! * **storm / outage / slow** — dial the injected knob up, sleep the
//!   window, dial it back.
//! * **torn** — the target node's next image writes tear mid-transfer;
//!   the affected generation must retry past the fault or abort.
//! * **corrupt** — flip a bit in the target group's newest committed
//!   image, then crash the group: restart must detect the digest mismatch
//!   and fall back to an older committed generation.
//! * **crashckpt** — arm a crash-during-checkpoint trap; the group dies at
//!   the chosen phase of its next wave (before / during / after the image
//!   write), the pending generation aborts, and recovery restarts from
//!   the last committed one.
//! * **replica** — (restore backend) the target group's held replica
//!   copies evaporate, then the bounded re-replication pass runs;
//!   optionally sabotaged (phase 0: one transient push fault the retry
//!   must absorb; phase 1: every push fails and the pass must degrade to
//!   the typed `DegradedRedundancy`, never abort).
//!
//! After the run, the end-of-run oracles check workload completion,
//! quiescence, the recovery line, exact byte-stream closure, and the
//! durable store's load ledger (no restart ever consumed an uncommitted
//! or corrupt image). A deadlocked simulation is reported as a violation,
//! not a panic — the harness's job is to catch protocol bugs, not to die
//! of them.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use gcr_ckpt::{check_quiescent, check_recovery_line, CkptRuntime, Mode};
use gcr_group::GroupDef;
use gcr_json::Json;
use gcr_mpi::Rank;
use gcr_net::{Cluster, GenState};
use gcr_sim::{fnv1a, SimDuration, SimTime};

use crate::scenario::Built;
use crate::schedule::{ChaosEvent, Fault};
use crate::spec::ChaosSpec;

/// Injector poll cadence while waiting for wave-idle or recovery turns.
const POLL: SimDuration = SimDuration::from_millis(1);

/// One group recovery performed during a chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoverySummary {
    /// The recovered group.
    pub group: usize,
    /// Ranks rolled back.
    pub ranks: usize,
    /// Injection instant of the crash (scheduled, simulated ms).
    pub at_ms: u64,
    /// Wall (simulated) recovery time in seconds.
    pub downtime_s: f64,
    /// Bytes replayed into the group from live ranks' logs.
    pub replayed_bytes: u64,
    /// Committed generation the group restarted from (`None`: initial
    /// state — no usable generation existed).
    pub generation: Option<u64>,
    /// Whether restart fell back past the newest attempted generation
    /// (it aborted mid-checkpoint, or its images failed validation).
    pub fell_back: bool,
    /// Restore backend only: whether this recovery recorded degraded
    /// replica redundancy (some read fell back to the disk path).
    pub degraded: bool,
}

/// Everything a chaos run reports. Fully deterministic given the spec:
/// two runs of the same spec produce byte-identical reports.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Root seed.
    pub seed: u64,
    /// Workload label.
    pub workload: String,
    /// Protocol label.
    pub proto: String,
    /// Storage target label.
    pub storage: String,
    /// Checkpoint interval (ms).
    pub interval_ms: u64,
    /// GC-overshoot fault knob.
    pub gc_overshoot: u64,
    /// The schedule in compact string form.
    pub schedule: String,
    /// Application completion time (s); 0 if it never completed.
    pub exec_s: f64,
    /// Completed checkpoint waves.
    pub waves: u64,
    /// Events that fired.
    pub events_applied: u64,
    /// Events skipped because the application had already finished.
    pub events_skipped: u64,
    /// Group recoveries, in injection order.
    pub recoveries: Vec<RecoverySummary>,
    /// Oracle violations (empty = the run passed).
    pub violations: Vec<String>,
    /// Digest over every metrics record (nanosecond-exact).
    pub metrics_digest: u64,
    /// Checkpoint image backend label (`disk` / `restore`).
    pub backend: String,
    /// Replication factor k (restore backend; 0 for disk).
    pub replication: usize,
    /// Restart reads served from peer memory (restore backend).
    pub peer_reads: u64,
    /// Restart reads that fell back to the disk path (restore backend).
    pub fallback_reads: u64,
    /// Degraded-redundancy events the backend recorded (restore backend).
    pub degraded_events: u64,
}

impl ChaosReport {
    /// Did every oracle hold?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The report as a JSON document (deterministic field order).
    ///
    /// Backend fields (`backend`, `replication`, `peer_reads`, …) and the
    /// per-recovery `degraded` flag are emitted **only for restore-backend
    /// runs**: disk-run reports stay byte-identical to the pre-backend
    /// format, which is what the pinned `--verify` digests check.
    pub fn to_json(&self) -> Json {
        let restore = self.backend == "restore";
        let mut fields = vec![
            ("seed", Json::from(self.seed)),
            ("workload", Json::from(self.workload.as_str())),
            ("proto", Json::from(self.proto.as_str())),
            ("storage", Json::from(self.storage.as_str())),
            ("interval_ms", Json::from(self.interval_ms)),
            ("gc_overshoot", Json::from(self.gc_overshoot)),
            ("schedule", Json::from(self.schedule.as_str())),
            ("exec_s", Json::from(self.exec_s)),
            ("waves", Json::from(self.waves)),
            ("events_applied", Json::from(self.events_applied)),
            ("events_skipped", Json::from(self.events_skipped)),
        ];
        if restore {
            fields.push(("backend", Json::from(self.backend.as_str())));
            fields.push(("replication", Json::from(self.replication)));
            fields.push(("peer_reads", Json::from(self.peer_reads)));
            fields.push(("fallback_reads", Json::from(self.fallback_reads)));
            fields.push(("degraded_events", Json::from(self.degraded_events)));
        }
        fields.push((
            "recoveries",
            Json::from(
                self.recoveries
                    .iter()
                    .map(|r| {
                        let mut rec = vec![
                            ("group", Json::from(r.group)),
                            ("ranks", Json::from(r.ranks)),
                            ("at_ms", Json::from(r.at_ms)),
                            ("downtime_s", Json::from(r.downtime_s)),
                            ("replayed_bytes", Json::from(r.replayed_bytes)),
                            // −1 encodes "restarted from the initial
                            // state" (no committed generation).
                            (
                                "generation",
                                Json::from(r.generation.map(|g| g as i64).unwrap_or(-1)),
                            ),
                            ("fell_back", Json::from(r.fell_back)),
                        ];
                        if restore {
                            rec.push(("degraded", Json::from(r.degraded)));
                        }
                        Json::obj(rec)
                    })
                    .collect::<Vec<_>>(),
            ),
        ));
        fields.push((
            "violations",
            Json::from(
                self.violations
                    .iter()
                    .map(|v| Json::from(v.as_str()))
                    .collect::<Vec<_>>(),
            ),
        ));
        fields.push(("metrics_digest", Json::from(self.metrics_digest)));
        Json::obj(fields)
    }

    /// FNV-1a digest of the serialized report — the unit of the
    /// bit-determinism oracle.
    pub fn digest(&self) -> u64 {
        fnv1a(self.to_json().dump().as_bytes())
    }
}

/// Execute one chaos run. Deterministic given the spec.
pub fn run_chaos(spec: &ChaosSpec) -> ChaosReport {
    let run = spec.scenario().build();
    let n = run.world.n();
    let sim = run.sim.clone();
    let cx = Rc::new(Injector {
        run,
        applied: Cell::new(0),
        skipped: Cell::new(0),
        violations: RefCell::new(Vec::new()),
        recoveries: RefCell::new(Vec::new()),
        recovering: Cell::new(false),
        app_done_at: Cell::new(SimTime::ZERO),
    });

    {
        let cx = Rc::clone(&cx);
        sim.spawn_named("chaos-exec-timer", async move {
            cx.run.world.wait_all_ranks().await;
            cx.app_done_at.set(cx.run.sim.now());
        });
    }
    {
        let cx = Rc::clone(&cx);
        let interval = SimDuration::from_millis(spec.interval_ms);
        sim.spawn_named("chaos-controller", async move {
            cx.run.rt.interval_schedule(interval, interval).await;
            cx.run.world.wait_all_ranks().await;
            cx.run.rt.shutdown();
        });
    }
    for (i, ev) in spec.schedule.iter().copied().enumerate() {
        let cx = Rc::clone(&cx);
        sim.spawn_named(
            ("chaos-inject", i as u32),
            async move { cx.inject(ev).await },
        );
    }

    if let Err(d) = sim.run() {
        cx.violate(format!("deadlock: {d}"));
    }

    // End-of-run oracles.
    let Built {
        world,
        cluster,
        rt,
        groups,
        restore,
        ..
    } = &cx.run;
    let mode = rt.mode();
    if world.ranks_finished() < n {
        cx.violate(format!(
            "completion: {}/{n} ranks finished",
            world.ranks_finished()
        ));
    }
    if let Err(v) = check_quiescent(world) {
        for v in v {
            cx.violate(format!("quiescence: {v}"));
        }
    }
    if mode == Mode::Blocking && rt.metrics().waves() > 0 {
        if let Err(vs) = check_recovery_line(world, rt) {
            for v in vs {
                cx.violate(format!("end-of-run {v}"));
            }
        }
        for v in stream_closure_violations(n, groups, rt) {
            cx.violate(format!("end-of-run {v}"));
        }
    }
    // CVC's consistency argument is orphan-freedom: no rank may consume a
    // message stamped with a cut epoch its own cut has not reached. The
    // runtime counts such receives; any nonzero count is a protocol bug.
    if mode == Mode::Cvc && rt.cvc_orphans() > 0 {
        cx.violate(format!(
            "cvc: {} orphaned receive(s) consumed ahead of the cut epoch",
            rt.cvc_orphans()
        ));
    }
    for v in store_load_violations(cluster) {
        cx.violate(format!("end-of-run {v}"));
    }
    // Survivability oracle (restore backend): unless the backend itself
    // reported degraded redundancy (too few groups for k, replica loss
    // that re-replication could not repair, …), every committed
    // generation must be reconstructible from surviving peer memory, and
    // no restart read may have fallen back to the remote servers. With a
    // non-empty degraded ledger the typed error IS the contract — the
    // run already proved the failure degraded instead of aborting.
    if let Some(rb) = restore.as_ref() {
        if rb.degraded_events().is_empty() && mode == Mode::Blocking {
            let store = cluster.ckpt_store();
            for gid in 0..groups.group_count() {
                let members = groups.members(gid);
                for gen in store.committed_gens(gid) {
                    if !rb.replicas().reconstructible(gid, gen, members) {
                        cx.violate(format!(
                            "restore: committed g{gid}/gen{gen} not reconstructible \
                             from peer memory (no degraded-redundancy report)"
                        ));
                    }
                }
            }
            if rb.remote_fallback_reads() > 0 {
                cx.violate(format!(
                    "restore: {} restart read(s) hit the remote servers with no \
                     degraded-redundancy report",
                    rb.remote_fallback_reads()
                ));
            }
        }
    }

    let violations = cx.violations.borrow().clone();
    let recoveries = cx.recoveries.borrow().clone();
    ChaosReport {
        seed: spec.seed,
        workload: spec.workload.label().to_string(),
        proto: spec.proto.label().to_string(),
        storage: spec.storage.label().to_string(),
        interval_ms: spec.interval_ms,
        gc_overshoot: spec.gc_overshoot,
        schedule: spec.schedule_string(),
        exec_s: cx.app_done_at.get().as_secs_f64(),
        waves: rt.metrics().waves(),
        events_applied: cx.applied.get(),
        events_skipped: cx.skipped.get(),
        recoveries,
        violations,
        metrics_digest: rt.metrics().digest(),
        backend: spec.backend.label().to_string(),
        replication: match restore {
            Some(rb) => rb.replication(),
            None => 0,
        },
        peer_reads: restore.as_ref().map(|rb| rb.peer_reads()).unwrap_or(0),
        fallback_reads: restore.as_ref().map(|rb| rb.fallback_reads()).unwrap_or(0),
        degraded_events: restore
            .as_ref()
            .map(|rb| rb.degraded_events().len() as u64)
            .unwrap_or(0),
    }
}

/// Run the spec twice and also check the bit-determinism oracle: the two
/// reports must be byte-identical. Returns the first run's report, with a
/// determinism violation appended if the digests differ.
pub fn run_chaos_verified(spec: &ChaosSpec) -> ChaosReport {
    let mut first = run_chaos(spec);
    let second = run_chaos(spec);
    if first.digest() != second.digest() {
        first.violations.push(format!(
            "determinism: seed {} produced digests {:#x} vs {:#x}",
            spec.seed,
            first.digest(),
            second.digest()
        ));
    }
    first
}

/// Everything the injector tasks of one run share: the simulated system,
/// the event tallies, the oracle findings and the crash-turn flag.
struct Injector {
    run: Built,
    applied: Cell<u64>,
    skipped: Cell<u64>,
    violations: RefCell<Vec<String>>,
    recoveries: RefCell<Vec<RecoverySummary>>,
    /// Crash injections serialize on this flag; other faults fire freely.
    recovering: Cell<bool>,
    /// When every rank finished (zero until then).
    app_done_at: Cell<SimTime>,
}

impl Injector {
    fn violate(&self, v: String) {
        self.violations.borrow_mut().push(v);
    }

    fn app_finished(&self) -> bool {
        self.run.world.ranks_finished() >= self.run.world.n()
    }

    /// The target group of a `g<group>` field.
    fn gid(&self, group: u64) -> usize {
        (group as usize) % self.run.groups.group_count()
    }

    /// One injector task: sleep to the event's instant, inject the fault,
    /// and count it as applied, or as skipped when it could not land.
    async fn inject(&self, ev: ChaosEvent) {
        self.run
            .sim
            .sleep_until(SimTime::ZERO + SimDuration::from_millis(ev.at_ms))
            .await;
        let applied = match ev.fault {
            Fault::Crash { group } | Fault::CorruptImage { group } => {
                let corrupt = matches!(ev.fault, Fault::CorruptImage { .. });
                self.crash_turn(self.gid(group), ev.at_ms, corrupt).await
            }
            _ if self.app_finished() => false,
            Fault::CrashCkpt { group, phase } => {
                let gid = self.gid(group);
                self.run.rt.arm_crash_trap(gid, phase as u8);
                // The trap fires inside the group's next blocking wave;
                // if the application finishes first (or the protocol
                // takes no further wave — e.g. VCL has no group-scoped
                // waves), the fault never lands.
                while !self.run.rt.crash_trap_fired(gid) && !self.app_finished() {
                    self.run.sim.sleep(POLL).await;
                }
                let fired = self.run.rt.crash_trap_fired(gid);
                if fired {
                    // The wave aborted its pending generation; now the
                    // group actually dies and recovery must restart it
                    // from the last *committed* generation.
                    self.crash_turn(gid, ev.at_ms, false).await;
                }
                self.run.rt.clear_crash_trap(gid);
                fired
            }
            Fault::TornWrite { node, count } => {
                // Arm the per-node counter; the node's next `count`
                // image writes tear mid-transfer as they happen.
                self.run.cluster.storage().inject_torn_writes(
                    (node as usize) % self.run.world.n(),
                    u32::try_from(count).unwrap_or(u32::MAX),
                );
                true
            }
            Fault::Storm { dur_ms, factor } => {
                self.run.cluster.set_straggler_storm(factor as f64);
                self.run.sim.sleep(SimDuration::from_millis(dur_ms)).await;
                self.run.cluster.set_straggler_storm(1.0);
                true
            }
            Fault::Outage { dur_ms, server } => {
                let storage = self.run.cluster.storage();
                let srv = (server as usize) % storage.remote_servers();
                storage.set_server_down(srv, true);
                self.run.sim.sleep(SimDuration::from_millis(dur_ms)).await;
                storage.set_server_down(srv, false);
                true
            }
            Fault::Slow {
                dur_ms,
                node,
                factor,
            } => {
                let network = self.run.cluster.network();
                let node = (node as usize) % network.nodes();
                network.set_node_slowdown(node, factor as f64);
                self.run.sim.sleep(SimDuration::from_millis(dur_ms)).await;
                network.set_node_slowdown(node, 1.0);
                true
            }
            // Replica loss only means something when replicas exist;
            // under the disk backend the event is a no-op.
            Fault::Replica { group, crash_phase } => match &self.run.restore {
                None => false,
                Some(rb) => {
                    rb.drop_group_holders(self.gid(group));
                    match crash_phase {
                        // Phase 0: one transient push fault — the bounded
                        // retry must absorb it. Phase 1: every push fails —
                        // the pass must degrade typed, never abort.
                        Some(0) => rb.inject_rebuild_faults(1),
                        Some(_) => rb.inject_rebuild_faults(u32::MAX),
                        None => {}
                    }
                    rb.rebuild().await;
                    rb.clear_rebuild_faults();
                    true
                }
            },
        };
        let tally = if applied {
            &self.applied
        } else {
            &self.skipped
        };
        tally.set(tally.get() + 1);
    }

    /// The crash turn: wait until no other recovery runs (a crash that
    /// queues behind an ongoing one models back-to-back group failures),
    /// then, unless the application has finished, crash group `gid` and
    /// recover it. Returns whether the crash ran.
    async fn crash_turn(&self, gid: usize, at_ms: u64, corrupt_image: bool) -> bool {
        while self.recovering.get() {
            self.run.sim.sleep(POLL).await;
        }
        if self.app_finished() {
            return false;
        }
        self.recovering.set(true);
        self.crash_and_recover(gid, at_ms, corrupt_image).await;
        self.recovering.set(false);
        true
    }

    /// The shared crash path: halt every member of the group, wait for
    /// any in-flight checkpoint wave to drain (`recover_group` needs a
    /// protocol-quiescent point; the halted ranks still execute protocol
    /// code — only the application plane is dead), run the group-local
    /// recovery, check the post-recovery oracles, and resume the group.
    /// The caller must already hold the `recovering` flag.
    ///
    /// A recovery error is a scenario violation, not an abort: the sweep
    /// keeps running and the oracle report carries the failure (the whole
    /// point of D03).
    async fn crash_and_recover(&self, gid: usize, at_ms: u64, corrupt_image: bool) {
        let Built {
            sim,
            world,
            cluster,
            rt,
            groups,
            restore,
        } = &self.run;
        for &m in groups.members(gid) {
            world.halt(Rank(m));
        }
        while rt.waves_in_flight() > 0 {
            sim.sleep(POLL).await;
        }
        // A whole-group crash evaporates the replica copies its members
        // were *holding* for other groups (its own images' replicas live
        // elsewhere by placement). Restart reads below must still be
        // servable from the surviving peers; the post-recovery rebuild
        // restores redundancy.
        let degraded_before = if let Some(rb) = restore {
            rb.drop_group_holders(gid);
            // Other groups keep committing (and may trigger commit-hook
            // rebuilds) while this one recovers; mark its nodes down so
            // those passes defer pushes aimed at them rather than
            // recording a degradation the post-recovery pass heals anyway.
            rb.set_down(groups.members(gid));
            rb.degraded_events().len()
        } else {
            0
        };
        // Corruption is injected at the protocol-quiescent point (after
        // the drain), so it hits the generation restart would otherwise
        // select — but only when an older committed generation is still
        // inside the retention window. The durable store guarantees
        // fallback by up to `W − 1` generations; corrupting the *only*
        // committed generation would demand an initial-state restart the
        // (already trimmed) peer logs no longer cover. In that case the
        // event degrades to a plain crash of the group.
        if corrupt_image {
            let store = cluster.ckpt_store();
            if store.committed_gens(gid).len() >= 2 {
                store.corrupt_newest_committed(gid);
            }
        }
        match rt.recover_group(gid).await {
            Ok(stats) => {
                self.recoveries.borrow_mut().push(RecoverySummary {
                    group: gid,
                    ranks: stats.ranks_restarted,
                    at_ms,
                    downtime_s: stats.downtime.as_secs_f64(),
                    replayed_bytes: stats.replayed_into_group_bytes,
                    generation: stats.generation,
                    fell_back: stats.fell_back,
                    degraded: restore
                        .as_ref()
                        .is_some_and(|rb| rb.degraded_events().len() > degraded_before),
                });
                // Post-recovery oracles, before the group resumes.
                if rt.mode() == Mode::Blocking {
                    if let Err(vs) = check_recovery_line(world, rt) {
                        for v in vs {
                            self.violate(format!("post-recovery(g{gid}) {v}"));
                        }
                    }
                    for v in stream_closure_violations(world.n(), groups, rt) {
                        self.violate(format!("post-recovery(g{gid}) {v}"));
                    }
                }
            }
            Err(e) => self.violate(format!("recovery(g{gid}) error: {e}")),
        }
        for &m in groups.members(gid) {
            world.resume(Rank(m));
        }
        // Re-replicate everything the crashed group was holding, now that
        // its members are back. A failure here degrades typed inside the
        // pass.
        if let Some(rb) = restore {
            rb.clear_down();
            rb.rebuild().await;
        }
    }
}

/// Durable-store oracle: every checkpoint-image load performed by a
/// restart must have hit a *committed* generation whose content digest
/// still validated. An uncommitted or corrupt load means generation
/// selection in the restart path is broken.
fn store_load_violations(cluster: &Cluster) -> Vec<String> {
    cluster
        .ckpt_store()
        .loads()
        .iter()
        .filter(|l| l.state != GenState::Committed || !l.valid)
        .map(|l| {
            format!(
                "store-load: rank {} loaded image (group {}, gen {}) with state {:?}, valid {}",
                l.rank, l.group, l.gen, l.state, l.valid
            )
        })
        .collect()
}

/// Exact byte-stream closure: for every inter-group pair `i → j`, replay
/// from `i`'s retained log plus `j`'s skip arithmetic must reconstruct the
/// checkpointed stream `S_ckpt` byte-for-byte.
///
/// Where the receiver's recorded `RR` trails the sender's checkpointed
/// `S` (`rr < ss`), the retained log entries must tile `[rr, ss)` without
/// a hole; otherwise the skip `rr - ss` must not exceed what the sender
/// actually sent past its snapshot.
fn stream_closure_violations(n: usize, groups: &GroupDef, rt: &CkptRuntime) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..n as u32 {
        for j in groups.out_of_group(i) {
            let rr = rt.gp_state(j).rr(i);
            let ss = rt.gp_state(i).ss(j);
            if rr < ss {
                let entries = rt.gp_state(i).replay_entries(j, rr);
                let mut cursor = rr;
                let mut holed = false;
                for e in &entries {
                    if e.offset > cursor {
                        out.push(format!(
                            "closure {i}->{j}: log hole at byte {cursor} (next retained entry starts at {})",
                            e.offset
                        ));
                        holed = true;
                        break;
                    }
                    cursor = cursor.max(e.end());
                }
                if !holed && cursor < ss {
                    out.push(format!(
                        "closure {i}->{j}: replay reconstructs only [{rr}, {cursor}) of [{rr}, {ss})"
                    ));
                }
            } else {
                let sent = rt.gp_state(i).sent_to(j);
                if rr > sent {
                    out.push(format!(
                        "closure {i}->{j}: receiver recorded {rr} bytes but sender only ever sent {sent}"
                    ));
                }
            }
        }
    }
    out
}
