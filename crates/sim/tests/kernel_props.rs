//! Property-style tests of the DES kernel's ordering guarantees.
//!
//! Randomised inputs come from the deterministic [`DetRng`] so every case
//! is reproducible from its seed (no external property-test framework).

use std::cell::RefCell;
use std::rc::Rc;

use gcr_sim::resource::FifoResource;
use gcr_sim::{DetRng, Sim, SimDuration, SimTime};

fn vec_u64(rng: &mut DetRng, lo: u64, hi: u64, min_len: u64, max_len: u64) -> Vec<u64> {
    (0..rng.range_u64(min_len, max_len))
        .map(|_| rng.range_u64(lo, hi))
        .collect()
}

/// Tasks sleeping arbitrary durations wake exactly at their deadline
/// and fire in (deadline, spawn-order) order.
#[test]
fn timers_fire_in_deadline_then_spawn_order() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x51B0_0001).fork_idx(case);
        let delays = vec_u64(&mut rng, 0, 10_000, 1, 50);
        let sim = Sim::new();
        // (observed wake time, requested deadline, spawn index)
        let fired: Rc<RefCell<Vec<(u64, u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &d) in delays.iter().enumerate() {
            let s = sim.clone();
            let f = Rc::clone(&fired);
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(d)).await;
                f.borrow_mut().push((s.now().as_nanos(), d, i));
            });
        }
        sim.run().unwrap();
        let fired = fired.borrow();
        assert_eq!(fired.len(), delays.len(), "case {case}");
        for &(woke_ns, d, _) in fired.iter() {
            assert_eq!(
                woke_ns,
                d * 1_000,
                "case {case}: woke at the exact deadline"
            );
        }
        // Firing order: by deadline, ties by spawn order.
        let observed: Vec<(u64, usize)> = fired.iter().map(|&(_, d, i)| (d, i)).collect();
        let mut sorted = observed.clone();
        sorted.sort();
        assert_eq!(observed, sorted, "case {case}");
    }
}

/// Sequential sleeps inside one task accumulate exactly.
#[test]
fn sequential_sleeps_accumulate() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x51B0_0002).fork_idx(case);
        let steps = vec_u64(&mut rng, 1, 1_000, 1, 30);
        let sim = Sim::new();
        let total: u64 = steps.iter().sum();
        let s = sim.clone();
        sim.spawn(async move {
            for &d in &steps {
                s.sleep(SimDuration::from_micros(d)).await;
            }
        });
        sim.run().unwrap();
        assert_eq!(
            sim.now(),
            SimTime::ZERO + SimDuration::from_micros(total),
            "case {case}"
        );
    }
}

/// FIFO resources serve backlogged reservations contiguously and in
/// order (work conservation).
#[test]
fn fifo_resource_work_conserving() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x51B0_0003).fork_idx(case);
        let services = vec_u64(&mut rng, 1, 500, 1, 40);
        let sim = Sim::new();
        let r = FifoResource::new(&sim);
        let mut expected_end = 0u64;
        for &s in &services {
            expected_end += s;
            let done = r.reserve(SimDuration::from_micros(s));
            assert_eq!(
                done,
                SimTime::ZERO + SimDuration::from_micros(expected_end),
                "case {case}"
            );
        }
        assert_eq!(
            r.busy_time(),
            SimDuration::from_micros(expected_end),
            "case {case}"
        );
        assert_eq!(r.ops(), services.len() as u64, "case {case}");
    }
}

/// Determinism: two simulations with identical task structure produce
/// identical completion orders.
#[test]
fn identical_programs_identical_schedules() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x51B0_0004).fork_idx(case);
        let delays = vec_u64(&mut rng, 0, 5_000, 1, 30);
        let run = |delays: &[u64]| -> Vec<usize> {
            let sim = Sim::new();
            let order: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
            for (i, &d) in delays.iter().enumerate() {
                let s = sim.clone();
                let o = Rc::clone(&order);
                sim.spawn(async move {
                    s.sleep(SimDuration::from_micros(d)).await;
                    s.yield_now().await;
                    o.borrow_mut().push(i);
                });
            }
            sim.run().unwrap();
            Rc::try_unwrap(order).unwrap().into_inner()
        };
        assert_eq!(run(&delays), run(&delays), "case {case}");
    }
}
