//! Property-style tests over the core invariants.
//!
//! Randomised inputs are drawn from the deterministic [`DetRng`] so every
//! case is reproducible from its printed seed (no external property-test
//! framework; the container builds fully offline).

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use gcr::ckpt::{check_quiescent, check_recovery_line, CkptConfig, CkptRuntime, Mode};
use gcr::group::{form_groups_from_flows, GroupDef};
use gcr::mpi::{World, WorldOpts};
use gcr::net::{Cluster, ClusterSpec, StorageTarget};
use gcr::sim::{DetRng, Sim, SimTime};
use gcr::trace::PairFlow;
use gcr::workloads::{RandomConfig, RandomTraffic, Workload};
use gcr_ckpt::PeerLog;

/// Algorithm 2 always yields a partition of 0..n bounded by G, no matter
/// what flows it sees.
#[test]
fn algorithm2_yields_bounded_partition() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0xA160_0001).fork_idx(case);
        let n = rng.range_u64(2, 24) as usize;
        let g = rng.range_u64(1, 10) as usize;
        let raw_len = rng.range_u64(0, 60) as usize;
        let flows: Vec<PairFlow> = (0..raw_len)
            .map(|_| {
                (
                    rng.range_u64(0, 24) as u32,
                    rng.range_u64(0, 24) as u32,
                    rng.range_u64(1, 10_000),
                    rng.range_u64(1, 50),
                )
            })
            .filter(|(a, b, _, _)| (*a as usize) < n && (*b as usize) < n && a != b)
            .map(|(a, b, bytes, count)| PairFlow {
                a: a.min(b),
                b: a.max(b),
                bytes,
                count,
            })
            .collect();
        let def = form_groups_from_flows(&flows, n, g);
        assert_eq!(def.n(), n, "case {case}");
        // Algorithm 2 seeds every new tuple with a 2-process pair before
        // checking the bound (paper semantics), so the effective floor of
        // the bound is 2.
        assert!(def.max_group_size() <= g.max(2), "case {case}");
        // Partition: every rank in exactly one group.
        let mut seen = vec![false; n];
        for grp in def.groups() {
            for &r in grp {
                assert!(!seen[r as usize], "case {case}: rank {r} duplicated");
                seen[r as usize] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s), "case {case}: rank missing");
    }
}

/// GC never discards bytes a peer with `received >= gc_offset` could
/// still need, for arbitrary message sequences and GC points.
#[test]
fn log_gc_is_always_safe() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0xA160_0002).fork_idx(case);
        let sizes: Vec<u64> = (0..rng.range_u64(1, 40))
            .map(|_| rng.range_u64(1, 5_000))
            .collect();
        let gc_fracs: Vec<f64> = (0..rng.range_u64(1, 5)).map(|_| rng.f64()).collect();
        let mut log = PeerLog::default();
        for (i, &b) in sizes.iter().enumerate() {
            log.append(b, i as u64);
        }
        let total = log.appended_bytes();
        let mut floor = 0u64;
        for f in gc_fracs {
            let gc_to = (total as f64 * f) as u64;
            log.gc(gc_to);
            floor = floor.max(gc_to);
            // Any peer state at or beyond the GC offset is still fully
            // recoverable.
            for probe in [floor, (floor + total) / 2, total] {
                let entries = log.replay_range(probe, total);
                let mut cursor = probe;
                for e in &entries {
                    assert!(e.offset <= cursor, "case {case}: hole at {cursor}");
                    cursor = cursor.max(e.end());
                }
                assert!(cursor >= total, "case {case}");
            }
        }
    }
}

/// A message log's tallies close: after random appends, GCs and replays
/// on several peer streams, every appended byte was either dropped (as
/// the GCs reported) or is still retained, and each stream's retained
/// suffix replays `[floor, appended)` without a hole.
#[test]
fn msg_log_tallies_close_under_random_appends_and_gcs() {
    use gcr::ckpt::MsgLog;
    for case in 0..64u64 {
        let mut rng = DetRng::new(0xA160_000A).fork_idx(case);
        let mut log = MsgLog::new();
        let mut dropped = 0u64;
        for seq in 0..rng.range_u64(1, 80) {
            let peer = rng.index(3) as u32;
            match rng.index(4) {
                0 | 1 => {
                    log.append(peer, rng.range_u64(1, 5_000), seq);
                }
                2 => {
                    let end = log.logged_end(peer);
                    dropped += log.gc(peer, rng.range_u64(0, end + 1));
                }
                _ => {
                    let end = log.logged_end(peer);
                    let from = rng.range_u64(0, end + 1);
                    let replayed: u64 = log
                        .replay_range(peer, from, u64::MAX)
                        .iter()
                        .map(|e| e.bytes)
                        .sum();
                    let retained = log.peer(peer).map_or(0, |l| l.retained_bytes());
                    assert!(replayed <= retained, "case {case}: replay beyond the log");
                }
            }
            assert_eq!(
                log.appended_bytes(),
                dropped + log.retained_bytes(),
                "case {case}: appended != dropped + retained"
            );
            assert_eq!(log.gc_bytes(), dropped, "case {case}");
            for (peer, l) in log.iter() {
                let floor = l.appended_bytes() - l.retained_bytes();
                let mut cursor = floor;
                for e in l.replay_range(floor, u64::MAX) {
                    assert!(
                        e.offset <= cursor,
                        "case {case} peer {peer}: hole at {cursor}"
                    );
                    cursor = cursor.max(e.end());
                }
                assert_eq!(cursor, l.appended_bytes(), "case {case} peer {peer}");
            }
        }
    }
}

/// The `BTreeMap` layout the volume counters had before their tables
/// became sorted vectors: the reference every read is compared with.
#[derive(Default)]
struct VolumeModel {
    r: BTreeMap<u32, u64>,
    s: BTreeMap<u32, u64>,
    rr: BTreeMap<u32, u64>,
    epoch: u64,
    piggybacked: BTreeMap<u32, u64>,
}

impl VolumeModel {
    fn snapshot(counters: &BTreeMap<u32, u64>, peers: &[u32]) -> Vec<(u32, u64)> {
        counters
            .iter()
            .filter(|(q, _)| peers.contains(q))
            .map(|(&q, &v)| (q, v))
            .collect()
    }

    fn piggyback_for(&mut self, dst: u32) -> Option<u64> {
        if self.piggybacked.get(&dst).copied().unwrap_or(0) < self.epoch {
            self.piggybacked.insert(dst, self.epoch);
            Some(self.rr.get(&dst).copied().unwrap_or(0))
        } else {
            None
        }
    }

    fn active_partners(&self) -> Vec<u32> {
        let set: BTreeSet<u32> = self.r.keys().chain(self.s.keys()).copied().collect();
        set.into_iter().collect()
    }
}

/// The flat per-peer tables keep the map semantics: after seeded
/// sequences of sends and receives (zero-byte ones included), snapshots,
/// advertisements, floor resets and piggybacks, every read of
/// `VolumeCounters` equals the `BTreeMap` model's.
#[test]
fn volume_counters_read_like_their_btreemap_model() {
    use gcr::ckpt::VolumeCounters;
    for case in 0..128u64 {
        let mut rng = DetRng::new(0xF1A7_0001).fork_idx(case);
        let peers = rng.range_u64(1, 24) as u32;
        let mut v = VolumeCounters::new();
        let mut m = VolumeModel::default();
        let mut last_snap: Vec<(u32, u64)> = Vec::new();
        for step in 0..rng.range_u64(1, 200) {
            let q = rng.index(peers as usize) as u32;
            let bytes = if rng.chance(0.2) {
                0
            } else {
                rng.range_u64(1, 10_000)
            };
            let ctx = format!("case {case} step {step}");
            match rng.index(8) {
                0 | 1 => {
                    v.on_send(q, bytes);
                    *m.s.entry(q).or_insert(0) += bytes;
                }
                2 | 3 => {
                    v.on_recv(q, bytes);
                    *m.r.entry(q).or_insert(0) += bytes;
                }
                4 => {
                    let keep: Vec<u32> = (0..peers).filter(|_| rng.chance(0.6)).collect();
                    let rr = v.snapshot_received(|p| keep.contains(&p));
                    let ss = v.snapshot_sent(|p| keep.contains(&p));
                    assert_eq!(*rr, *VolumeModel::snapshot(&m.r, &keep), "{ctx}");
                    assert_eq!(*ss, *VolumeModel::snapshot(&m.s, &keep), "{ctx}");
                    last_snap = rr.to_vec();
                }
                5 => {
                    v.advertise(&last_snap);
                    m.rr.extend(last_snap.iter().copied());
                    m.epoch += 1;
                }
                6 => {
                    // Floors in any order, duplicates included: the map
                    // sorts them and the later value of a peer wins.
                    let floors: Vec<(u32, u64)> = (0..rng.range_u64(0, 6))
                        .map(|_| (rng.index(peers as usize) as u32, rng.range_u64(0, 5_000)))
                        .collect();
                    if rng.chance(0.5) {
                        v.reset_floors(&floors);
                        m.rr.clear();
                    } else {
                        v.advertise(&floors);
                    }
                    m.rr.extend(floors.iter().copied());
                    m.epoch += 1;
                }
                _ => assert_eq!(v.piggyback_for(q), m.piggyback_for(q), "{ctx}"),
            }
            assert_eq!(v.active_partners(), m.active_partners(), "{ctx}");
            for p in 0..peers {
                assert_eq!(v.sent_to(p), m.s.get(&p).copied().unwrap_or(0), "{ctx}");
                assert_eq!(
                    v.received_from(p),
                    m.r.get(&p).copied().unwrap_or(0),
                    "{ctx}"
                );
                assert_eq!(
                    v.recorded_received(p),
                    m.rr.get(&p).copied().unwrap_or(0),
                    "{ctx}"
                );
            }
        }
    }
}

/// `MsgLog`'s flat peer table keeps the map semantics: after seeded
/// appends (zero-byte ones included), GCs and replays, every read equals
/// a `BTreeMap<u32, PeerLog>` model's, and `iter` walks the same streams
/// in ascending peer order.
#[test]
fn msg_log_reads_like_its_btreemap_model() {
    use gcr::ckpt::MsgLog;
    for case in 0..128u64 {
        let mut rng = DetRng::new(0xF1A7_0002).fork_idx(case);
        let peers = rng.range_u64(1, 24) as u32;
        let mut log = MsgLog::new();
        let mut m: BTreeMap<u32, PeerLog> = BTreeMap::new();
        for seq in 0..rng.range_u64(1, 200) {
            let q = rng.index(peers as usize) as u32;
            let ctx = format!("case {case} seq {seq}");
            match rng.index(4) {
                0 | 1 => {
                    let bytes = if rng.chance(0.2) {
                        0
                    } else {
                        rng.range_u64(1, 5_000)
                    };
                    let e = log.append(q, bytes, seq);
                    assert_eq!(e, m.entry(q).or_default().append(bytes, seq), "{ctx}");
                }
                2 => {
                    let to = rng.range_u64(0, log.logged_end(q) + 2);
                    let want = m.get_mut(&q).map_or(0, |l| l.gc(to));
                    assert_eq!(log.gc(q, to), want, "{ctx}");
                }
                _ => {
                    let from = rng.range_u64(0, log.logged_end(q) + 2);
                    let to = rng.range_u64(from, from + 10_000);
                    let want = m
                        .get(&q)
                        .map(|l| l.replay_range(from, to))
                        .unwrap_or_default();
                    assert_eq!(log.replay_range(q, from, to), want, "{ctx}");
                }
            }
            let got: Vec<(u32, u64, u64, usize)> = log
                .iter()
                .map(|(p, l)| (p, l.appended_bytes(), l.retained_bytes(), l.len()))
                .collect();
            let want: Vec<(u32, u64, u64, usize)> = m
                .iter()
                .map(|(&p, l)| (p, l.appended_bytes(), l.retained_bytes(), l.len()))
                .collect();
            assert_eq!(got, want, "{ctx}");
            for p in 0..peers {
                assert_eq!(log.peer(p).is_some(), m.contains_key(&p), "{ctx}");
                assert_eq!(
                    log.logged_end(p),
                    m.get(&p).map_or(0, PeerLog::appended_bytes),
                    "{ctx}"
                );
            }
        }
    }
}

/// The protocol state's log tallies close under random inter-group
/// traffic with both trimming paths live — piggybacked `RR` GC after
/// committed checkpoints and receiver-log acknowledgement GC:
/// `total_logged_bytes == total_gc_bytes + retained_log_bytes` on every
/// rank after every step.
#[test]
fn gp_log_tallies_close_under_piggyback_and_ack_gc() {
    use gcr::ckpt::{GpState, RbState};
    use gcr::mpi::{Envelope, MpiHook, MsgId, MsgKind, Rank, Tag};

    fn env(src: u32, dst: u32, bytes: u64, seq: u64) -> Envelope {
        Envelope {
            src: Rank(src),
            dst: Rank(dst),
            tag: Tag::app(0),
            bytes,
            id: MsgId {
                src: Rank(src),
                seq,
            },
            kind: MsgKind::App,
            piggyback_rr: None,
            piggyback_epoch: None,
            piggyback_ack: None,
            payload: None,
            sent_at: SimTime::ZERO,
            arrived_at: SimTime::ZERO,
        }
    }

    let mut trimmed = 0u64;
    for case in 0..32u64 {
        let mut rng = DetRng::new(0xA160_000B).fork_idx(case);
        let groups = Rc::new(GroupDef::new(4, vec![vec![0, 1], vec![2, 3]]).unwrap());
        let gps: Vec<_> = (0..4)
            .map(|r| GpState::new(r, Rc::clone(&groups), true))
            .collect();
        // Half the cases add receiver-based logging, whose sends carry
        // the acknowledgement piggyback.
        let rbs: Vec<_> = gps
            .iter()
            .map(|gp| RbState::new(Rc::clone(gp), Rc::clone(&groups)))
            .collect();
        let ack = case % 2 == 1;
        let mut seq = 0u64;
        let mut gen = 0u64;
        for _ in 0..rng.range_u64(20, 120) {
            if rng.index(4) == 0 {
                let r = rng.index(4);
                gps[r].on_checkpoint(gen);
                if rng.chance(0.7) {
                    gps[r].on_commit(gen);
                    rbs[r].on_commit();
                } else {
                    gps[r].on_abort(gen);
                }
                gen += 1;
            } else {
                let src = rng.index(4);
                let dst = (src + 1 + rng.index(3)) % 4;
                let mut e = env(src as u32, dst as u32, rng.range_u64(1, 4096), seq);
                seq += 1;
                if ack {
                    rbs[src].on_send(&mut e);
                    rbs[dst].on_recv(&e);
                } else {
                    gps[src].on_send(&mut e);
                    gps[dst].on_recv(&e);
                }
            }
            for (r, gp) in gps.iter().enumerate() {
                assert_eq!(
                    gp.total_logged_bytes(),
                    gp.total_gc_bytes() + gp.retained_log_bytes(),
                    "case {case} rank {r}: logged != gc'd + retained"
                );
            }
        }
        trimmed += gps.iter().map(|gp| gp.total_gc_bytes()).sum::<u64>();
    }
    assert!(trimmed > 0, "no case ever trimmed its log");
}

/// The replay/skip arithmetic reconstructs the exact sender stream for
/// any (sender-ckpt, receiver-ckpt) cut positions.
#[test]
fn replay_skip_reconstructs_stream() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0xA160_0003).fork_idx(case);
        let sizes: Vec<u64> = (0..rng.range_u64(1, 30))
            .map(|_| rng.range_u64(1, 2_000))
            .collect();
        let s_cut_frac = rng.f64();
        let r_cut_frac = rng.f64();
        let mut log = PeerLog::default();
        for (i, &b) in sizes.iter().enumerate() {
            log.append(b, i as u64);
        }
        // Sender checkpointed having sent `ss`; receiver had consumed `rr`.
        // Both volume counters advance whole messages at a time, so the
        // cuts always fall on message boundaries of the stream.
        let boundaries: Vec<u64> = std::iter::once(0)
            .chain(sizes.iter().scan(0u64, |acc, &b| {
                *acc += b;
                Some(*acc)
            }))
            .collect();
        let pick = |frac: f64| -> u64 {
            let idx = (frac * (boundaries.len() - 1) as f64).round() as usize;
            boundaries[idx.min(boundaries.len() - 1)]
        };
        let ss = pick(s_cut_frac);
        let rr = pick(r_cut_frac);
        if rr < ss {
            // Replay must cover [rr, ss) entirely.
            let entries = log.replay_range(rr, ss);
            let mut cursor = rr;
            for e in &entries {
                assert!(e.offset <= cursor, "case {case}: hole at {cursor}");
                cursor = cursor.max(e.end());
            }
            assert!(cursor >= ss, "case {case}");
        } else {
            // Nothing to replay; the skip is rr - ss ≥ 0 by construction.
            assert!(log.replay_range(rr, ss).is_empty(), "case {case}");
        }
    }
}

/// Whole-system property: random traffic + random grouping + a random
/// checkpoint instant always leaves a consistent recovery line and a
/// quiescent world.
#[test]
fn random_runs_leave_consistent_recovery_lines() {
    for case in 0..16u64 {
        let mut rng = DetRng::new(0xA160_0004).fork_idx(case);
        let nprocs = rng.range_u64(3, 9) as usize;
        let msgs = rng.range_u64(5, 40) as usize;
        let bytes = rng.range_u64(64, 8_192);
        let seed = rng.range_u64(0, 1_000);
        let groups_k = rng.range_u64(1, 4) as usize;
        let ckpt_ms = rng.range_u64(1, 60);
        let app = RandomTraffic::new(RandomConfig {
            nprocs,
            msgs,
            bytes,
            compute_ms: 1,
            seed,
            image_bytes: 1 << 20,
        });
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::test(nprocs));
        let world = World::new(cluster, WorldOpts::default());
        app.launch(&world);
        let def = gcr::group::contiguous(nprocs, groups_k.min(nprocs));
        let cfg = CkptConfig::uniform(nprocs, 1 << 20, StorageTarget::Local).deterministic();
        let rt = CkptRuntime::install(&world, Rc::new(def), Mode::Blocking, cfg);
        {
            let (rt, world) = (rt.clone(), world.clone());
            sim.spawn(async move {
                rt.single_checkpoint_at(SimTime::from_millis(ckpt_ms)).await;
                world.wait_all_ranks().await;
                rt.shutdown();
                rt.restart_all().await.unwrap();
            });
        }
        sim.run().expect("deadlock");
        assert_eq!(world.ranks_finished(), nprocs, "case {case}");
        assert!(check_recovery_line(&world, &rt).is_ok(), "case {case}");
        assert!(check_quiescent(&world).is_ok(), "case {case}");
    }
}

/// Satellite property: log bytes trimmed by the RR piggyback never exceed
/// the bytes covered by a **committed** generation. Under random
/// interleavings of inter-group sends, committed checkpoints, aborted
/// checkpoints, and piggyback deliveries:
///
/// * the advertised GC floor always equals the lagged `RR` of a committed
///   generation (aborted/pending snapshots never advance it),
/// * the sender never trims more log bytes than that floor covers, and
/// * the retained log still closes the byte stream `[RR_g, S)` for every
///   committed generation inside the retention window (so a fallback
///   restart of up to `W − 1` generations replays without holes).
#[test]
fn piggyback_gc_never_outruns_committed_generations() {
    use gcr::ckpt::GpState;
    use gcr::mpi::{Envelope, MpiHook, MsgId, MsgKind, Rank, Tag};

    fn env(src: u32, dst: u32, bytes: u64, seq: u64) -> Envelope {
        Envelope {
            src: Rank(src),
            dst: Rank(dst),
            tag: Tag::app(0),
            bytes,
            id: MsgId {
                src: Rank(src),
                seq,
            },
            kind: MsgKind::App,
            piggyback_rr: None,
            piggyback_epoch: None,
            piggyback_ack: None,
            payload: None,
            sent_at: SimTime::ZERO,
            arrived_at: SimTime::ZERO,
        }
    }

    for case in 0..48u64 {
        let mut rng = DetRng::new(0xA160_0006).fork_idx(case);
        let groups = Rc::new(gcr::group::GroupDef::new(4, vec![vec![0, 1], vec![2, 3]]).unwrap());
        let retention = 1 + rng.index(3); // W ∈ {1, 2, 3}
        let mk = |rank| GpState::new(rank, Rc::clone(&groups), true);
        // Rank 2 (group 1) streams data to rank 0 (group 0); rank 0's
        // occasional replies carry the piggybacked GC floor back.
        let sender = mk(2);
        let receiver = mk(0);
        sender.set_gc_retention(retention);
        receiver.set_gc_retention(retention);

        let mut seq = 0u64;
        let mut gen = 0u64;
        // Mirror of the receiver's committed ledger: (generation, RR).
        let mut committed: Vec<(u64, u64)> = Vec::new();
        for _ in 0..rng.range_u64(10, 60) {
            match rng.index(4) {
                0 | 1 => {
                    let mut e = env(2, 0, rng.range_u64(1, 4096), seq);
                    seq += 1;
                    sender.on_send(&mut e);
                    receiver.on_recv(&e);
                }
                2 => {
                    // The receiver checkpoints; a random abort point models
                    // a member write failure or a crash mid-checkpoint.
                    receiver.on_checkpoint(gen);
                    if rng.chance(0.6) {
                        receiver.on_commit(gen);
                        committed.push((gen, receiver.rr(2)));
                    } else {
                        receiver.on_abort(gen);
                    }
                    gen += 1;
                }
                _ => {
                    // Reply toward the sender: first one after a commit
                    // carries the piggyback and triggers GC at the sender.
                    let mut e = env(0, 2, 16, seq);
                    seq += 1;
                    receiver.on_send(&mut e);
                    sender.on_recv(&e);
                }
            }

            let idx = committed.len().saturating_sub(retention);
            let floor = committed.get(idx).map_or(0, |&(_, rr)| rr);
            assert_eq!(
                receiver.gc_floor(2),
                floor,
                "case {case}: floor must track the lagged committed RR"
            );
            assert!(
                sender.total_gc_bytes() <= floor,
                "case {case}: trimmed {} bytes but only {floor} are covered \
                 by a committed generation",
                sender.total_gc_bytes()
            );
            let sent = sender.sent_to(0);
            for &(g, rr) in committed.iter().rev().take(retention) {
                let entries = sender.replay_entries_live(0, rr, sent);
                let mut cursor = rr;
                for e in &entries {
                    assert!(
                        e.offset <= cursor,
                        "case {case} gen {g}: log hole at byte {cursor}"
                    );
                    cursor = cursor.max(e.end());
                }
                assert!(
                    cursor >= sent,
                    "case {case} gen {g}: replay covers only [{rr}, {cursor}) of [{rr}, {sent})"
                );
            }
        }
    }
}

/// Sharded-executor property: under a randomized shard assignment the
/// cross-shard merge (a) never delivers an event before its timestamp
/// and (b) never reorders two events with the same `(time, tiebreak)`
/// key. The tiebreak is the global scheduling sequence, and the 1-shard
/// executor *is* that reference total order — so (b) reduces to "the
/// observed trace is bit-identical to the 1-shard trace of the same
/// program", which also covers events at distinct times.
#[test]
fn cross_shard_merge_preserves_time_and_tiebreak_order() {
    use gcr::sim::SimDuration;
    use std::cell::RefCell;

    for case in 0..32u64 {
        let mut rng = DetRng::new(0xA160_0007).fork_idx(case);
        let ntasks = rng.range_u64(2, 12) as usize;
        // Each task: a random program of sleep durations in µs. Zero is
        // included on purpose: same-instant wakes across shards are the
        // interesting tiebreak case.
        let programs: Vec<Vec<u64>> = (0..ntasks)
            .map(|_| {
                (0..rng.range_u64(1, 8))
                    .map(|_| rng.range_u64(0, 40))
                    .collect()
            })
            .collect();
        // Arbitrary shard ids — the executor folds them modulo the shard
        // count, so one assignment exercises every tested count.
        let assignment: Vec<usize> = (0..ntasks).map(|_| rng.index(64)).collect();
        // Plus bare scheduled calls at random future instants on random
        // shards (the mpi delivery path uses exactly this entry point).
        let calls: Vec<(u64, usize)> = (0..rng.range_u64(1, 6))
            .map(|_| (rng.range_u64(1, 120), rng.index(64)))
            .collect();

        let mut baseline: Option<Vec<(u64, String)>> = None;
        for shards in [1usize, 2 + rng.index(15)] {
            let sim = Sim::with_shards(shards);
            let log: Rc<RefCell<Vec<(u64, String)>>> = Rc::new(RefCell::new(Vec::new()));
            for (t, prog) in programs.iter().enumerate() {
                let s = sim.clone();
                let log = Rc::clone(&log);
                let prog = prog.clone();
                sim.spawn_named_on(assignment[t], ("t", t as u32), async move {
                    for (i, &d) in prog.iter().enumerate() {
                        let target = s.now() + SimDuration::from_micros(d);
                        s.sleep(SimDuration::from_micros(d)).await;
                        assert!(
                            s.now() >= target,
                            "case {case}: t{t}.{i} woke at {} before its {} deadline",
                            s.now(),
                            target
                        );
                        log.borrow_mut()
                            .push((s.now().as_nanos(), format!("t{t}.{i}")));
                    }
                });
            }
            for (j, &(at_us, sh)) in calls.iter().enumerate() {
                let s = sim.clone();
                let log = Rc::clone(&log);
                let at = SimTime::from_nanos(at_us * 1_000);
                sim.schedule_call_on(sh, at, move || {
                    assert!(
                        s.now() >= at,
                        "case {case}: call c{j} ran at {} before its {} deadline",
                        s.now(),
                        at
                    );
                    log.borrow_mut().push((s.now().as_nanos(), format!("c{j}")));
                });
            }
            sim.run().expect("property program deadlocked");

            let trace = Rc::try_unwrap(log).expect("all tasks done").into_inner();
            assert!(
                trace.windows(2).all(|w| w[0].0 <= w[1].0),
                "case {case} @ {shards} shard(s): simulated time went backward"
            );
            match &baseline {
                None => baseline = Some(trace),
                Some(reference) => assert_eq!(
                    &trace, reference,
                    "case {case}: {shards}-shard trace diverged from the \
                     1-shard reference order"
                ),
            }
        }
    }
}

/// CVC property: under randomized collective schedules — skewed clock
/// advancement across communicators, point-to-point traffic with
/// arbitrary in-flight delays, and waves armed at arbitrary instants —
/// the epoch piggyback always produces a **consistent cut**: no rank
/// ever consumes a message stamped ahead of its own (forced) cut epoch,
/// and every armed wave completes with all ranks on the same epoch. The
/// second half re-checks the same invariant whole-system: seeded chaos
/// runs with mid-run group crashes under `Mode::Cvc` must hold every
/// oracle, including the engine's orphan oracle.
#[test]
fn cvc_piggybacked_epochs_keep_every_cut_consistent() {
    use gcr::ckpt::CvcState;
    use gcr::mpi::{Envelope, MpiHook, MsgId, MsgKind, Rank, Tag};
    use std::collections::{BTreeMap, VecDeque};

    fn env(src: u32, dst: u32, tag: Tag, bytes: u64, seq: u64) -> Envelope {
        Envelope {
            src: Rank(src),
            dst: Rank(dst),
            tag,
            bytes,
            id: MsgId {
                src: Rank(src),
                seq,
            },
            kind: MsgKind::App,
            piggyback_rr: None,
            piggyback_epoch: None,
            piggyback_ack: None,
            payload: None,
            sent_at: SimTime::ZERO,
            arrived_at: SimTime::ZERO,
        }
    }

    for case in 0..24u64 {
        let mut rng = DetRng::new(0xA160_0008).fork_idx(case);
        let n = rng.range_u64(2, 8) as usize;
        let ranks: Vec<Rc<CvcState>> = (0..n).map(|_| CvcState::new()).collect();
        // Random communicators: each has ≥ 2 members and an op counter.
        // A collective "step" is one member's entry whose internal
        // traffic reaches one other member — so members of the same
        // communicator see arbitrarily skewed clocks mid-operation.
        let n_comms = rng.range_u64(1, 4) as usize;
        let comms: Vec<Vec<usize>> = (0..n_comms)
            .map(|_| {
                let mut members: Vec<usize> = (0..n).filter(|_| rng.chance(0.5)).collect();
                while members.len() < 2 {
                    let r = rng.index(n);
                    if !members.contains(&r) {
                        members.push(r);
                    }
                }
                members.sort_unstable();
                members
            })
            .collect();
        let mut ops = vec![0u64; n_comms];
        let mut flight: VecDeque<Envelope> = VecDeque::new();
        let mut seq = 0u64;

        // One random action: a collective entry, a p2p send into the
        // in-flight queue, or a FIFO delivery. Every delivery checks the
        // consistency invariant directly: after `on_recv` (which forces
        // the cut) the stamp can never still be ahead of the epoch.
        let step = |rng: &mut DetRng,
                    ops: &mut Vec<u64>,
                    flight: &mut VecDeque<Envelope>,
                    seq: &mut u64| {
            match rng.index(4) {
                0 => {
                    let c = rng.index(n_comms);
                    let m = &comms[c];
                    let from = m[rng.index(m.len())];
                    let to = m[rng.index(m.len())];
                    let tag = Tag::coll(((c as u64) << 16) | ops[c]);
                    let mut e = env(from as u32, to as u32, tag, 512, *seq);
                    *seq += 1;
                    ranks[from].on_send(&mut e);
                    if to != from {
                        ranks[to].on_recv(&e);
                        assert!(
                            e.piggyback_epoch.is_some_and(|s| s <= ranks[to].epoch()),
                            "case {case}: collective delivery left an orphan stamp"
                        );
                    }
                    if rng.chance(0.4) {
                        ops[c] += 1;
                    }
                }
                1 | 2 => {
                    let from = rng.index(n);
                    let to = (from + 1 + rng.index(n - 1)) % n;
                    let mut e = env(from as u32, to as u32, Tag::app(0), 1024, *seq);
                    *seq += 1;
                    ranks[from].on_send(&mut e);
                    flight.push_back(e);
                }
                _ => {
                    if let Some(e) = flight.pop_front() {
                        let to = e.dst.0 as usize;
                        ranks[to].on_recv(&e);
                        assert!(
                            e.piggyback_epoch.is_some_and(|s| s <= ranks[to].epoch()),
                            "case {case}: p2p delivery left an orphan stamp"
                        );
                    }
                }
            }
            for r in &ranks {
                assert_eq!(r.orphans(), 0, "case {case}: orphan receive recorded");
            }
        };

        let waves = rng.range_u64(1, 3);
        for wave in 0..waves {
            for _ in 0..rng.range_u64(0, 20) {
                step(&mut rng, &mut ops, &mut flight, &mut seq);
            }
            // Butterfly agreement: the target is the max-merge of every
            // rank's clock, identical at all ranks.
            let mut target: BTreeMap<u64, u64> = BTreeMap::new();
            for r in &ranks {
                for (c, v) in r.clock_snapshot() {
                    let e = target.entry(c).or_insert(0);
                    *e = (*e).max(v);
                }
            }
            for r in &ranks {
                r.arm(wave, target.clone());
            }
            for _ in 0..rng.range_u64(0, 30) {
                step(&mut rng, &mut ops, &mut flight, &mut seq);
            }
            // Drive the wave to completion: drain the channel, advance
            // every communicator, and let cut ranks' sends force the
            // rest. The loop bound is generous — a wave that fails to
            // complete is itself a protocol bug.
            let mut rounds = 0;
            while ranks.iter().any(|r| r.epoch() <= wave) {
                rounds += 1;
                assert!(rounds < 200, "case {case}: wave {wave} never completed");
                while let Some(e) = flight.pop_front() {
                    ranks[e.dst.0 as usize].on_recv(&e);
                }
                for (c, m) in comms.iter().enumerate() {
                    for &from in m {
                        let to = m[(m.iter().position(|&x| x == from).unwrap() + 1) % m.len()];
                        let tag = Tag::coll(((c as u64) << 16) | ops[c]);
                        let mut e = env(from as u32, to as u32, tag, 512, seq);
                        seq += 1;
                        ranks[from].on_send(&mut e);
                        if to != from {
                            ranks[to].on_recv(&e);
                        }
                    }
                    ops[c] += 1;
                }
                if let Some(cut) = (0..n).find(|&r| ranks[r].epoch() > wave) {
                    for r in 0..n {
                        if ranks[r].epoch() <= wave {
                            let mut e = env(cut as u32, r as u32, Tag::app(0), 64, seq);
                            seq += 1;
                            ranks[cut].on_send(&mut e);
                            ranks[r].on_recv(&e);
                        }
                    }
                }
            }
            for (i, r) in ranks.iter().enumerate() {
                assert_eq!(
                    r.epoch(),
                    wave + 1,
                    "case {case}: rank {i} finished wave {wave} on a different epoch"
                );
                assert_eq!(r.orphans(), 0, "case {case}: rank {i} recorded an orphan");
                r.end_wave();
            }
        }
    }

    // Whole-system half: a mid-run group crash under Mode::Cvc must
    // leave every oracle green — including the engine's orphan oracle.
    use gcr_chaos::{parse_schedule, run_chaos, ChaosBackend, ChaosSpec, Proto, WorkloadKind};
    use gcr_net::StorageTarget as ChaosStorage;
    for case in 0..6u64 {
        let mut rng = DetRng::new(0xA160_0008).fork("chaos").fork_idx(case);
        let at_ms = rng.range_u64(1500, 3500);
        let spec = ChaosSpec {
            seed: 0xC0C0 + case,
            workload: WorkloadKind::Ring,
            proto: Proto::Cvc,
            storage: ChaosStorage::Local,
            interval_ms: rng.range_u64(500, 900),
            gc_overshoot: 0,
            schedule: parse_schedule(&format!("crash:g0@{at_ms}")).expect("literal schedule"),
            shards: 1,
            backend: ChaosBackend::Disk,
            replication: 2,
        };
        let r = run_chaos(&spec);
        assert!(
            r.passed(),
            "case {case}: cvc chaos run violated oracles: {:?}",
            r.violations
        );
    }
}

/// Receiver-based logging property: a rank restarted from its last
/// committed checkpoint observes a **byte-identical** `(src, seq,
/// payload digest)` receive stream, for arbitrary interleavings of
/// sends, in-flight delays, acknowledgement piggybacks (which trim the
/// sender log), committed and aborted checkpoints (which trim the
/// receiver log), and an arbitrary crash point. The spliced replay —
/// local receiver log from the rolled-back `RR`, then the live sender's
/// unacked tail above the logged high-water mark — must reproduce the
/// original stream exactly: no hole, no duplicate, no reordering.
#[test]
fn rblog_restart_replays_a_byte_identical_receive_stream() {
    use gcr::ckpt::{digest_of, GpState, RbState};
    use gcr::mpi::{Envelope, MpiHook, MsgId, MsgKind, Rank, Tag};
    use std::collections::VecDeque;

    fn env(src: u32, dst: u32, bytes: u64, seq: u64) -> Envelope {
        Envelope {
            src: Rank(src),
            dst: Rank(dst),
            tag: Tag::app(0),
            bytes,
            id: MsgId {
                src: Rank(src),
                seq,
            },
            kind: MsgKind::App,
            piggyback_rr: None,
            piggyback_epoch: None,
            piggyback_ack: None,
            payload: None,
            sent_at: SimTime::ZERO,
            arrived_at: SimTime::ZERO,
        }
    }

    for case in 0..48u64 {
        let mut rng = DetRng::new(0xA160_0009).fork_idx(case);
        let groups = Rc::new(GroupDef::new(2, vec![vec![0], vec![1]]).unwrap());
        let retention = 1 + rng.index(3);
        let mk = |rank| GpState::new(rank, Rc::clone(&groups), true);
        let gp_r = mk(0);
        let gp_s = mk(1);
        gp_r.set_gc_retention(retention);
        gp_s.set_gc_retention(retention);
        let rb_r = RbState::new(Rc::clone(&gp_r), Rc::clone(&groups));
        let rb_s = RbState::new(Rc::clone(&gp_s), Rc::clone(&groups));

        // Full send history of the 1 → 0 stream: (offset, bytes, seq).
        let mut history: Vec<(u64, u64, u64)> = Vec::new();
        let mut offset = 0u64;
        let mut seq = 0u64;
        let mut ack_seq = 1_000_000u64;
        let mut gen = 0u64;
        let mut flight: VecDeque<Envelope> = VecDeque::new();

        // The random step count doubles as a random crash point: the
        // run simply stops mid-interleaving wherever it stops.
        for _ in 0..rng.range_u64(10, 60) {
            match rng.index(5) {
                0 | 1 => {
                    let bytes = rng.range_u64(1, 4096);
                    let mut e = env(1, 0, bytes, seq);
                    rb_s.on_send(&mut e);
                    history.push((offset, bytes, seq));
                    offset += bytes;
                    seq += 1;
                    flight.push_back(e);
                }
                2 => {
                    // FIFO delivery: the receiver consumes and logs.
                    if let Some(e) = flight.pop_front() {
                        rb_r.on_recv(&e);
                    }
                }
                3 => {
                    // A reply toward the sender carries the ack
                    // piggyback; the sender trims its log on receipt.
                    let mut e = env(0, 1, 16, ack_seq);
                    ack_seq += 1;
                    rb_r.on_send(&mut e);
                    rb_s.on_recv(&e);
                }
                _ => {
                    // Receiver checkpoints; an abort models a member
                    // write failure or a crash mid-checkpoint.
                    gp_r.on_checkpoint(gen);
                    if rng.chance(0.7) {
                        gp_r.on_commit(gen);
                        rb_r.on_commit();
                    } else {
                        gp_r.on_abort(gen);
                    }
                    gen += 1;
                }
            }
        }

        // Crash and restart from the newest committed generation: splice
        // the local receiver-log replay with the live sender's tail.
        let rr = gp_r.rr(1);
        let my_logged = rb_r.logged_end(1);
        let mut replayed: Vec<(u64, u32, u64, u64)> = Vec::new();
        for e in rb_r.replay_local(1, rr) {
            replayed.push((e.offset, 1, e.seq, digest_of(1, e.seq, e.bytes)));
        }
        for e in gp_s.replay_entries_live(0, my_logged, gp_s.sent_to(0)) {
            replayed.push((e.offset, 1, e.seq, digest_of(1, e.seq, e.bytes)));
        }
        let expected: Vec<(u64, u32, u64, u64)> = history
            .iter()
            .filter(|&&(off, bytes, _)| off + bytes > rr)
            .map(|&(off, bytes, s)| (off, 1, s, digest_of(1, s, bytes)))
            .collect();
        assert_eq!(
            replayed,
            expected,
            "case {case}: spliced replay diverged from the original stream \
             (rr={rr}, logged={my_logged}, sent={})",
            gp_s.sent_to(0)
        );
    }
}

/// Group definitions survive JSON round-trips for arbitrary valid
/// partitions.
#[test]
fn groupdef_json_roundtrip() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0xA160_0005).fork_idx(case);
        let n = rng.range_u64(1, 32) as usize;
        // Random partition: assign each rank a bucket.
        let k = 1 + rng.index(n);
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); k];
        for r in 0..n as u32 {
            buckets[rng.index(k)].push(r);
        }
        buckets.retain(|b| !b.is_empty());
        let def = GroupDef::new(n, buckets).unwrap();
        let json = def.to_json().dump();
        let back = GroupDef::from_json_str(&json).unwrap();
        assert_eq!(back, def, "case {case}");
    }
}

/// Replica placement (restore backend): over random world shapes and
/// group maps, `place_replicas` never co-locates a replica with the
/// owner's own group, spreads the k copies over k *distinct* groups, and
/// degrades to the typed error exactly when fewer than k non-owner
/// groups exist. The placement digest is a pure function of the group
/// map and k — bit-identical across repeated evaluation, so every
/// simulation node computes the same placement with no coordination.
#[test]
fn replica_placement_never_colocates_and_is_bit_stable() {
    use gcr::net::{place_replicas, placement_digest, StorageError};
    for case in 0..128u64 {
        let mut rng = DetRng::new(0x9E57_0003).fork_idx(case);
        let n = rng.range_u64(2, 40) as usize;
        let n_groups = rng.range_u64(1, 8) as usize;
        let group_of: Vec<usize> = (0..n)
            .map(|_| rng.range_u64(0, n_groups as u64) as usize)
            .collect();
        let k = rng.range_u64(1, 4) as usize;
        let distinct: std::collections::BTreeSet<usize> = group_of.iter().copied().collect();
        for owner in 0..n as u32 {
            let own = group_of[owner as usize];
            let non_owner_groups = distinct.iter().filter(|&&g| g != own).count();
            match place_replicas(&group_of, owner, k) {
                Ok(holders) => {
                    assert!(
                        non_owner_groups >= k,
                        "case {case}: owner {owner} got a full placement with only \
                         {non_owner_groups} non-owner group(s) for k={k}"
                    );
                    assert_eq!(holders.len(), k, "case {case}");
                    let mut groups_hit = std::collections::BTreeSet::new();
                    for &h in &holders {
                        let hg = group_of[h as usize];
                        assert_ne!(
                            hg, own,
                            "case {case}: replica of rank {owner} co-located in its \
                             own group {own} (holder {h})"
                        );
                        assert!(
                            groups_hit.insert(hg),
                            "case {case}: two replicas of rank {owner} landed in group {hg}"
                        );
                    }
                }
                Err(StorageError::DegradedRedundancy { have, need, .. }) => {
                    assert!(
                        non_owner_groups < k,
                        "case {case}: owner {owner} degraded with {non_owner_groups} \
                         non-owner group(s) available for k={k}"
                    );
                    assert_eq!(have, non_owner_groups, "case {case}");
                    assert_eq!(need, k, "case {case}");
                }
                Err(e) => panic!("case {case}: unexpected error {e}"),
            }
        }
        // Bit-identical digest: same inputs, same placement, twice.
        assert_eq!(
            placement_digest(&group_of, k),
            placement_digest(&group_of, k),
            "case {case}: placement digest is not a pure function of its inputs"
        );
    }
}
