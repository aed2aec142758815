//! End-to-end protocol tests: NORM / GP / GP1 checkpoint waves, restart
//! with replay, VCL waves, schedules, and determinism.

use std::rc::Rc;

use gcr_ckpt::{check_quiescent, check_recovery_line, CkptConfig, CkptRuntime, Mode};
use gcr_group::{contiguous, single, singletons};
use gcr_mpi::{Rank, World, WorldOpts};
use gcr_net::{Cluster, ClusterSpec, StorageTarget};
use gcr_sim::{Sim, SimDuration, SimTime};

fn make_world(n: usize) -> (Sim, World) {
    let sim = Sim::new();
    let cluster = Cluster::new(&sim, ClusterSpec::test(n));
    (sim.clone(), World::new(cluster, WorldOpts::default()))
}

/// A ring application: every rank alternates compute and a symmetric
/// neighbour exchange.
fn launch_ring(world: &World, iters: usize, bytes: u64, compute_ms: u64) {
    let n = world.n();
    for r in 0..n as u32 {
        world.launch(Rank(r), move |ctx| async move {
            let right = Rank((r + 1) % n as u32);
            let left = Rank((r + n as u32 - 1) % n as u32);
            for _ in 0..iters {
                ctx.busy(SimDuration::from_millis(compute_ms)).await;
                ctx.sendrecv(right, bytes, left, 1).await;
            }
        });
    }
}

fn cfg(n: usize) -> CkptConfig {
    CkptConfig::uniform(n, 8 << 20, StorageTarget::Local).deterministic()
}

#[test]
fn norm_global_checkpoint_completes_and_phases_are_recorded() {
    let (sim, world) = make_world(4);
    launch_ring(&world, 40, 10_000, 10);
    let groups = Rc::new(single(4));
    let rt = CkptRuntime::install(&world, groups, Mode::Blocking, cfg(4));
    {
        let rt = rt.clone();
        let world = world.clone();
        sim.spawn(async move {
            rt.single_checkpoint_at(SimTime::from_millis(100)).await;
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    assert_eq!(world.ranks_finished(), 4);
    let recs = rt.metrics().ckpt_records();
    assert_eq!(recs.len(), 4);
    for r in &recs {
        assert!(
            r.phases.checkpoint > SimDuration::ZERO,
            "image write took time"
        );
        assert!(r.finished > r.started);
        assert_eq!(r.log_flushed_bytes, 0, "NORM logs nothing");
    }
    assert_eq!(rt.metrics().waves(), 1);
    check_quiescent(&world).unwrap();
    check_recovery_line(&world, &rt).unwrap();
}

#[test]
fn gp_logs_only_inter_group_messages() {
    let (sim, world) = make_world(4);
    launch_ring(&world, 30, 5_000, 5);
    // Ring 0→1→2→3→0 with groups {0,1} and {2,3}: inter-group channels are
    // 1→2 and 3→0.
    let groups = Rc::new(contiguous(4, 2));
    let rt = CkptRuntime::install(&world, groups, Mode::Blocking, cfg(4));
    {
        let rt = rt.clone();
        let world = world.clone();
        sim.spawn(async move {
            rt.single_checkpoint_at(SimTime::from_millis(80)).await;
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    // Inter-group senders logged all their ring traffic (30 × 5000 plus
    // collective-free: exactly the sendrecv payloads).
    assert_eq!(rt.gp_state(1).total_logged_bytes(), 30 * 5_000);
    assert_eq!(rt.gp_state(3).total_logged_bytes(), 30 * 5_000);
    // Intra-group senders logged nothing.
    assert_eq!(rt.gp_state(0).total_logged_bytes(), 0);
    assert_eq!(rt.gp_state(2).total_logged_bytes(), 0);
    check_recovery_line(&world, &rt).unwrap();
}

#[test]
fn gp1_restart_replays_unconsumed_bytes() {
    let (sim, world) = make_world(2);
    // Rank 0 pushes 10 × 1000 B eagerly; rank 1 consumes them only after a
    // long compute, so a mid-stream checkpoint catches unconsumed bytes.
    world.launch(Rank(0), |ctx| async move {
        for _ in 0..10 {
            ctx.send(Rank(1), 1, 1000).await;
        }
    });
    world.launch(Rank(1), |ctx| async move {
        ctx.busy(SimDuration::from_millis(500)).await;
        for _ in 0..10 {
            ctx.recv(Rank(0), 1).await;
        }
    });
    let groups = Rc::new(singletons(2));
    let rt = CkptRuntime::install(&world, groups, Mode::Blocking, cfg(2));
    {
        let rt = rt.clone();
        let world = world.clone();
        sim.spawn(async move {
            rt.single_checkpoint_at(SimTime::from_millis(100)).await;
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    check_recovery_line(&world, &rt).unwrap();
    // At the checkpoint, rank 0 had sent all 10 000 B (eager, fast net) but
    // rank 1 had consumed none → S@ckpt = 10 000, RR@ckpt = 0.
    assert_eq!(rt.gp_state(0).ss(1), 10_000);
    assert_eq!(rt.gp_state(1).rr(0), 0);

    // Restart: rank 0 must replay all ten messages.
    {
        let rt = rt.clone();
        sim.spawn(async move {
            rt.restart_all().await.unwrap();
        });
    }
    sim.run().unwrap();
    let restarts = rt.metrics().restart_records();
    assert_eq!(restarts.len(), 2);
    let r0 = restarts.iter().find(|r| r.rank == 0).unwrap();
    assert_eq!(r0.resend_ops, 10);
    assert_eq!(r0.resend_bytes, 10_000);
    assert_eq!(rt.metrics().total_resend_ops(), 10);
}

#[test]
fn norm_restart_has_no_replay() {
    let (sim, world) = make_world(4);
    launch_ring(&world, 20, 8_000, 5);
    let rt = CkptRuntime::install(&world, Rc::new(single(4)), Mode::Blocking, cfg(4));
    {
        let rt = rt.clone();
        let world = world.clone();
        sim.spawn(async move {
            rt.single_checkpoint_at(SimTime::from_millis(50)).await;
            world.wait_all_ranks().await;
            rt.shutdown();
            rt.restart_all().await.unwrap();
        });
    }
    sim.run().unwrap();
    assert_eq!(rt.metrics().total_resend_ops(), 0);
    assert_eq!(rt.metrics().total_resend_bytes(), 0);
    assert_eq!(rt.metrics().restart_records().len(), 4);
}

#[test]
fn piggyback_gc_trims_logs_between_checkpoints() {
    let (sim, world) = make_world(2);
    // Continuous bidirectional traffic so piggybacks flow both ways.
    for r in 0..2u32 {
        world.launch(Rank(r), move |ctx| async move {
            let peer = Rank(1 - r);
            for _ in 0..200 {
                ctx.busy(SimDuration::from_millis(2)).await;
                ctx.sendrecv(peer, 2_000, peer, 1).await;
            }
        });
    }
    let rt = CkptRuntime::install(&world, Rc::new(singletons(2)), Mode::Blocking, cfg(2));
    {
        let rt = rt.clone();
        let world = world.clone();
        sim.spawn(async move {
            rt.interval_schedule(SimDuration::from_millis(50), SimDuration::from_millis(50))
                .await;
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    assert!(rt.metrics().waves() >= 2, "expected several waves");
    // GC happened: retained log is strictly smaller than everything logged.
    let logged = rt.gp_state(0).total_logged_bytes();
    let retained = rt.gp_state(0).retained_log_bytes();
    let gced = rt.gp_state(0).total_gc_bytes();
    assert!(logged > 0);
    assert!(gced > 0, "piggyback GC never fired");
    assert_eq!(retained + gced, logged);
    check_recovery_line(&world, &rt).unwrap();
}

#[test]
fn gc_disabled_retains_everything() {
    let (sim, world) = make_world(2);
    for r in 0..2u32 {
        world.launch(Rank(r), move |ctx| async move {
            let peer = Rank(1 - r);
            for _ in 0..50 {
                ctx.busy(SimDuration::from_millis(2)).await;
                ctx.sendrecv(peer, 1_000, peer, 1).await;
            }
        });
    }
    let mut config = cfg(2);
    config.piggyback_gc = false;
    let rt = CkptRuntime::install(&world, Rc::new(singletons(2)), Mode::Blocking, config);
    {
        let rt = rt.clone();
        let world = world.clone();
        sim.spawn(async move {
            rt.interval_schedule(SimDuration::from_millis(30), SimDuration::from_millis(30))
                .await;
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    let logged = rt.gp_state(0).total_logged_bytes();
    assert_eq!(rt.gp_state(0).retained_log_bytes(), logged);
    assert_eq!(rt.gp_state(0).total_gc_bytes(), 0);
}

#[test]
fn vcl_wave_completes_with_markers() {
    let (sim, world) = make_world(4);
    launch_ring(&world, 60, 4_000, 5);
    let mut config = cfg(4);
    config.storage = StorageTarget::Remote;
    let rt = CkptRuntime::install(&world, Rc::new(single(4)), Mode::Vcl, config);
    {
        let rt = rt.clone();
        let world = world.clone();
        sim.spawn(async move {
            rt.single_checkpoint_at(SimTime::from_millis(100)).await;
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    let recs = rt.metrics().ckpt_records();
    assert_eq!(recs.len(), 4);
    for r in &recs {
        assert!(r.phases.checkpoint > SimDuration::ZERO);
        // Lock/finalize are not part of the VCL model.
        assert_eq!(r.phases.lock, SimDuration::ZERO);
    }
    check_quiescent(&world).unwrap();
}

#[test]
#[should_panic(expected = "VCL model checkpoints globally")]
fn vcl_rejects_partitioned_groups() {
    let (_sim, world) = make_world(4);
    let _ = CkptRuntime::install(&world, Rc::new(contiguous(4, 2)), Mode::Vcl, cfg(4));
}

#[test]
fn interval_schedule_counts_waves() {
    let (sim, world) = make_world(2);
    launch_ring(&world, 100, 1_000, 10); // ~1 s of compute per rank
    let rt = CkptRuntime::install(&world, Rc::new(single(2)), Mode::Blocking, cfg(2));
    let waves = Rc::new(std::cell::Cell::new(0u64));
    {
        let rt = rt.clone();
        let world = world.clone();
        let w = Rc::clone(&waves);
        sim.spawn(async move {
            let count = rt
                .interval_schedule(SimDuration::from_millis(200), SimDuration::from_millis(200))
                .await;
            w.set(count);
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    assert!(
        waves.get() >= 3,
        "expected several waves, got {}",
        waves.get()
    );
    assert_eq!(rt.metrics().waves(), waves.get());
}

#[test]
fn checkpointing_extends_execution_time() {
    // Identical app, with and without a checkpoint: the checkpointed run
    // must take longer (blocking ckpt stops the app).
    let run = |do_ckpt: bool| -> f64 {
        let (sim, world) = make_world(4);
        launch_ring(&world, 50, 2_000, 5);
        let rt = CkptRuntime::install(&world, Rc::new(single(4)), Mode::Blocking, cfg(4));
        {
            let rt = rt.clone();
            let world = world.clone();
            sim.spawn(async move {
                if do_ckpt {
                    rt.single_checkpoint_at(SimTime::from_millis(60)).await;
                }
                world.wait_all_ranks().await;
                rt.shutdown();
            });
        }
        sim.run().unwrap();
        sim.now().as_secs_f64()
    };
    let base = run(false);
    let with_ckpt = run(true);
    assert!(with_ckpt > base, "ckpt run {with_ckpt} vs base {base}");
}

#[test]
fn same_seed_is_bit_deterministic() {
    let run = || -> (f64, f64, u64) {
        let (sim, world) = make_world(4);
        launch_ring(&world, 40, 3_000, 5);
        let mut config = CkptConfig::uniform(4, 8 << 20, StorageTarget::Local);
        config.stragglers = true; // exercise the random paths too
        let rt = CkptRuntime::install(&world, Rc::new(contiguous(4, 2)), Mode::Blocking, config);
        {
            let rt = rt.clone();
            let world = world.clone();
            sim.spawn(async move {
                rt.single_checkpoint_at(SimTime::from_millis(70)).await;
                world.wait_all_ranks().await;
                rt.shutdown();
                rt.restart_all().await.unwrap();
            });
        }
        sim.run().unwrap();
        (
            sim.now().as_secs_f64(),
            rt.metrics().aggregate_ckpt_time(),
            rt.metrics().total_resend_bytes(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn staggered_round_counts_one_wave_and_covers_everyone() {
    let (sim, world) = make_world(6);
    launch_ring(&world, 60, 3_000, 4);
    let groups = Rc::new(contiguous(6, 3));
    let rt = CkptRuntime::install(&world, groups, Mode::Blocking, cfg(6));
    {
        let rt = rt.clone();
        let world = world.clone();
        sim.spawn(async move {
            world.sim().sleep(SimDuration::from_millis(50)).await;
            rt.checkpoint_staggered().await;
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    assert_eq!(rt.metrics().waves(), 1, "a staggered round is one wave");
    let recs = rt.metrics().ckpt_records();
    assert_eq!(recs.len(), 6, "every rank checkpointed");
    // Groups went one after another: the per-group start times are ordered.
    let start_of = |rank: u32| recs.iter().find(|r| r.rank == rank).unwrap().started;
    assert!(start_of(0) < start_of(2));
    assert!(start_of(2) < start_of(4));
    check_recovery_line(&world, &rt).unwrap();
}

#[test]
fn targeted_checkpoint_skips_other_groups() {
    let (sim, world) = make_world(4);
    launch_ring(&world, 40, 2_000, 4);
    let groups = Rc::new(contiguous(4, 2));
    let rt = CkptRuntime::install(&world, groups, Mode::Blocking, cfg(4));
    {
        let rt = rt.clone();
        let world = world.clone();
        sim.spawn(async move {
            world.sim().sleep(SimDuration::from_millis(40)).await;
            // Only group 1 ({2, 3}) checkpoints.
            rt.checkpoint_groups(&[1]).await;
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    let recs = rt.metrics().ckpt_records();
    assert_eq!(recs.len(), 2);
    assert!(recs.iter().all(|r| r.rank >= 2));
}

#[test]
fn group_recovery_replays_only_into_failed_group() {
    let (sim, world) = make_world(4);
    // Ring with groups {0,1} and {2,3}; rank 1→2 and 3→0 are inter-group.
    launch_ring(&world, 40, 5_000, 4);
    let groups = Rc::new(contiguous(4, 2));
    let rt = CkptRuntime::install(&world, groups, Mode::Blocking, cfg(4));
    let stats = Rc::new(std::cell::RefCell::new(None));
    {
        let rt = rt.clone();
        let world = world.clone();
        let stats = Rc::clone(&stats);
        sim.spawn(async move {
            rt.single_checkpoint_at(SimTime::from_millis(60)).await;
            world.wait_all_ranks().await;
            rt.shutdown();
            // Group 0 ({0, 1}) "fails" and recovers; group 1 stays live.
            *stats.borrow_mut() = Some(rt.recover_group(0).await.unwrap());
        });
    }
    sim.run().unwrap();
    let stats = stats.borrow().expect("recovery ran");
    assert_eq!(stats.group, 0);
    assert_eq!(stats.ranks_restarted, 2);
    assert!(!stats.downtime.is_zero());
    // Only the failed group's members appear in the restart records.
    let recs = rt.metrics().restart_records();
    assert_eq!(recs.len(), 2);
    assert!(recs.iter().all(|r| r.rank < 2));
}

#[test]
fn group_recovery_is_cheaper_than_global_restart() {
    // The paper's motivation: a single failed group recovers with less
    // rollback (fewer ranks lose work) and — when checkpoint storage is a
    // shared, contended resource — less downtime than rolling back the
    // world.
    let run = |global: bool| -> (f64, usize) {
        let (sim, world) = make_world(8);
        launch_ring(&world, 60, 4_000, 4);
        let groups = Rc::new(contiguous(8, 4));
        // Shared remote checkpoint servers: restores contend.
        let config = CkptConfig::uniform(8, 256 << 20, StorageTarget::Remote).deterministic();
        let rt = CkptRuntime::install(&world, groups, Mode::Blocking, config);
        let downtime = Rc::new(std::cell::Cell::new(0.0f64));
        {
            let rt = rt.clone();
            let world = world.clone();
            let downtime = Rc::clone(&downtime);
            sim.spawn(async move {
                rt.single_checkpoint_at(SimTime::from_millis(60)).await;
                world.wait_all_ranks().await;
                rt.shutdown();
                let t0 = world.sim().now();
                if global {
                    rt.restart_all().await.unwrap();
                } else {
                    rt.recover_group(0).await.unwrap();
                }
                downtime.set(world.sim().now().saturating_since(t0).as_secs_f64());
            });
        }
        sim.run().unwrap();
        let rolled_back = rt.metrics().restart_records().len();
        (downtime.get(), rolled_back)
    };
    let (group_downtime, group_rolled) = run(false);
    let (global_downtime, global_rolled) = run(true);
    // Only the failed group loses work.
    assert_eq!(group_rolled, 2);
    assert_eq!(global_rolled, 8);
    // And the contended restore finishes sooner.
    assert!(
        group_downtime < global_downtime,
        "group {group_downtime}s vs global {global_downtime}s"
    );
}

#[test]
fn back_to_back_waves_use_distinct_tag_spaces() {
    let (sim, world) = make_world(4);
    launch_ring(&world, 80, 2_000, 4);
    let rt = CkptRuntime::install(&world, Rc::new(contiguous(4, 2)), Mode::Blocking, cfg(4));
    {
        let rt = rt.clone();
        let world = world.clone();
        sim.spawn(async move {
            world.sim().sleep(SimDuration::from_millis(30)).await;
            // Two waves with no pause between them.
            rt.checkpoint_now().await;
            rt.checkpoint_now().await;
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    assert_eq!(rt.metrics().waves(), 2);
    assert_eq!(rt.metrics().ckpt_records().len(), 8);
    check_recovery_line(&world, &rt).unwrap();
}

#[test]
fn work_lost_is_bounded_by_group_scope() {
    use gcr_ckpt::work_lost_at;
    let (sim, world) = make_world(8);
    launch_ring(&world, 100, 2_000, 4);
    let groups = Rc::new(contiguous(8, 4));
    let rt = CkptRuntime::install(&world, groups, Mode::Blocking, cfg(8));
    {
        let rt = rt.clone();
        let world = world.clone();
        sim.spawn(async move {
            rt.interval_schedule(SimDuration::from_millis(100), SimDuration::from_millis(100))
                .await;
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    let t_fail = sim.now().as_secs_f64();
    // A single-group failure loses at most the group's share of a global
    // failure's work loss.
    let group_loss = work_lost_at(rt.metrics(), rt.groups().members(0), t_fail);
    let all: Vec<u32> = (0..8).collect();
    let global_loss = work_lost_at(rt.metrics(), &all, t_fail);
    assert!(group_loss > 0.0);
    assert!(group_loss < global_loss);
    assert!(
        (global_loss / group_loss - 4.0).abs() < 1.0,
        "roughly 4 groups' worth"
    );
}

#[test]
fn staggered_interval_schedule_runs_rounds() {
    let (sim, world) = make_world(4);
    launch_ring(&world, 120, 2_000, 4);
    let groups = Rc::new(contiguous(4, 2));
    let rt = CkptRuntime::install(&world, groups, Mode::Blocking, cfg(4));
    let rounds = Rc::new(std::cell::Cell::new(0u64));
    {
        let rt = rt.clone();
        let world = world.clone();
        let rounds = Rc::clone(&rounds);
        sim.spawn(async move {
            let n = rt
                .interval_schedule_staggered(
                    SimDuration::from_millis(100),
                    SimDuration::from_millis(100),
                )
                .await;
            rounds.set(n);
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    assert!(rounds.get() >= 2);
    assert_eq!(rt.metrics().waves(), rounds.get());
    // Each round produced one record per rank.
    assert_eq!(rt.metrics().ckpt_records().len() as u64, 4 * rounds.get());
    check_recovery_line(&world, &rt).unwrap();
}

#[test]
fn cvc_wave_completes_and_commits_without_blocking() {
    let (sim, world) = make_world(4);
    launch_ring(&world, 60, 4_000, 5);
    let rt = CkptRuntime::install(&world, Rc::new(single(4)), Mode::Cvc, cfg(4));
    {
        let rt = rt.clone();
        let world = world.clone();
        sim.spawn(async move {
            rt.single_checkpoint_at(SimTime::from_millis(100)).await;
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    let recs = rt.metrics().ckpt_records();
    assert_eq!(recs.len(), 4);
    for r in &recs {
        assert!(r.committed, "CVC wave must commit");
        // Lock/finalize are not part of the CVC model: the application
        // is never frozen and sends are never suspended.
        assert_eq!(r.phases.lock, SimDuration::ZERO);
        assert_eq!(r.phases.finalize, SimDuration::ZERO);
    }
    // The cut protocol's own oracle: no message was ever consumed ahead
    // of the consumer's (forced) cut epoch.
    assert_eq!(rt.cvc_orphans(), 0);
    check_quiescent(&world).unwrap();
}

#[test]
#[should_panic(expected = "CVC model checkpoints globally")]
fn cvc_rejects_partitioned_groups() {
    let (_sim, world) = make_world(4);
    let _ = CkptRuntime::install(&world, Rc::new(contiguous(4, 2)), Mode::Cvc, cfg(4));
}

#[test]
fn rblog_ack_piggybacks_trim_the_sender_log_without_checkpoints() {
    let (sim, world) = make_world(2);
    // Continuous bidirectional traffic so acks flow both ways; no
    // checkpoint wave ever runs, so any sender-side GC is ack-driven.
    for r in 0..2u32 {
        world.launch(Rank(r), move |ctx| async move {
            let peer = Rank(1 - r);
            for _ in 0..100 {
                ctx.busy(SimDuration::from_millis(2)).await;
                ctx.sendrecv(peer, 2_000, peer, 1).await;
            }
        });
    }
    let rt = CkptRuntime::install(&world, Rc::new(singletons(2)), Mode::RbLog, cfg(2));
    {
        let rt = rt.clone();
        let world = world.clone();
        sim.spawn(async move {
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    let rb0 = rt.rb_state(0).expect("RbLog mode carries rb state").clone();
    // Every inter-group receive was logged on the receiver's node.
    assert_eq!(rb0.total_recv_logged_bytes(), 100 * 2_000);
    // The ack piggyback trimmed the sender-side log down to the unacked
    // tail — no committed generation exists, so this is purely ack GC.
    let gp0 = rt.gp_state(0);
    assert!(gp0.total_gc_bytes() > 0, "ack GC never fired");
    assert!(gp0.retained_log_bytes() < gp0.total_logged_bytes());
    check_quiescent(&world).unwrap();
}

#[test]
fn rblog_restart_replays_from_the_local_receiver_log() {
    let (sim, world) = make_world(2);
    // Same shape as the sender-based GP1 replay test: rank 0 pushes ten
    // eager messages, rank 1 consumes them only after the checkpoint.
    world.launch(Rank(0), |ctx| async move {
        for _ in 0..10 {
            ctx.send(Rank(1), 1, 1000).await;
        }
    });
    world.launch(Rank(1), |ctx| async move {
        ctx.busy(SimDuration::from_millis(500)).await;
        for _ in 0..10 {
            ctx.recv(Rank(0), 1).await;
        }
    });
    let rt = CkptRuntime::install(&world, Rc::new(singletons(2)), Mode::RbLog, cfg(2));
    {
        let rt = rt.clone();
        let world = world.clone();
        sim.spawn(async move {
            rt.single_checkpoint_at(SimTime::from_millis(100)).await;
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().unwrap();
    // Same checkpoint-time counters as the sender-based run…
    assert_eq!(rt.gp_state(0).ss(1), 10_000);
    assert_eq!(rt.gp_state(1).rr(0), 0);
    // …but by quiescence rank 1 has durably logged the whole stream.
    let rb1 = rt.rb_state(1).expect("RbLog mode carries rb state").clone();
    assert_eq!(rb1.logged_end(0), 10_000);

    {
        let rt = rt.clone();
        sim.spawn(async move {
            rt.restart_all().await.unwrap();
        });
    }
    sim.run().unwrap();
    let restarts = rt.metrics().restart_records();
    assert_eq!(restarts.len(), 2);
    // The sender-based protocol resends all ten messages here; the
    // receiver-based one replays them from rank 1's local log and
    // solicits nothing over the network.
    assert_eq!(rt.metrics().total_resend_ops(), 0);
    assert_eq!(rt.metrics().total_resend_bytes(), 0);
}

#[test]
fn rblog_recover_group_replays_only_the_unacked_tail() {
    // The shape of the local-receiver-log restart test above, but the
    // consumer's group recovers alone while the producer stays live and
    // serves it from its sender log.
    let replayed = |mode: Mode| -> u64 {
        let (sim, world) = make_world(2);
        world.launch(Rank(0), |ctx| async move {
            for _ in 0..10 {
                ctx.send(Rank(1), 1, 1000).await;
            }
        });
        world.launch(Rank(1), |ctx| async move {
            ctx.busy(SimDuration::from_millis(500)).await;
            for _ in 0..10 {
                ctx.recv(Rank(0), 1).await;
            }
        });
        let rt = CkptRuntime::install(&world, Rc::new(singletons(2)), mode, cfg(2));
        let stats = Rc::new(std::cell::RefCell::new(None));
        {
            let rt = rt.clone();
            let world = world.clone();
            let stats = Rc::clone(&stats);
            sim.spawn(async move {
                rt.single_checkpoint_at(SimTime::from_millis(100)).await;
                world.wait_all_ranks().await;
                rt.shutdown();
                *stats.borrow_mut() = Some(rt.recover_group(1).await.unwrap());
            });
        }
        sim.run().unwrap();
        let stats = stats.borrow().expect("recovery ran");
        assert_eq!(stats.ranks_restarted, 1);
        stats.replayed_into_group_bytes
    };
    // Sender-based logging: rank 1 rolled back to before the stream, so
    // the live producer resends all of it.
    let blocking = replayed(Mode::Blocking);
    // Receiver-based logging: rank 1 logged the whole stream itself, so
    // the unacked tail the producer has to serve is empty.
    let rblog = replayed(Mode::RbLog);
    assert_eq!(blocking, 10_000);
    assert_eq!(rblog, 0);
    assert!(rblog < blocking);
}
