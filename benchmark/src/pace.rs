//! The host's pace: how fast the host is running this process right now.
//!
//! On a shared host the whole machine speeds up and slows down by 10–40%
//! over seconds to minutes, so two runs of identical code, minutes apart,
//! read different host times. A [`Clock`] times a fixed reference loop
//! just before and just after each stretch of code it times, and scales
//! the stretch's host time by the reference loop's time on the reference
//! host over its mean time around the stretch, raised to
//! [`SENSITIVITY`].
//!
//! The reference loop is a miniature discrete-event loop: a binary heap
//! of pending events, each popped, charged to a slot of a state array and
//! pushed back at a later time. Like the simulator, it is branchy and
//! works in the second-level cache, so host contention slows it much as
//! it slows the workloads, if somewhat less; a pure arithmetic loop
//! tracked them about half as well (`BENCHMARK.md`). It calls no repository code and allocates
//! nothing after [`Clock::new`], so its work is the same in every process
//! state and under every commit, and only the host's speed changes its
//! time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::FNV_OFFSET;

/// Events pending in the reference loop at any time.
const EVENTS: u32 = 4096;
/// Events the reference loop fires per pass.
const STEPS: u32 = 150_000;
/// Slots of the state array the events charge.
const SLOTS: usize = 1 << 16;

/// Seconds one pass of the reference loop takes on the host the bounds
/// were set on (a 2-vCPU VM; see `BENCHMARK.md`) at its usual speed. A
/// scaled time is what a sample would have taken at that pace.
pub const REFERENCE_S: f64 = 0.011;

/// The reference loop's preallocated state.
struct Pace {
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    state: Vec<u64>,
}

impl Pace {
    /// Allocate the loop's queue and state once.
    fn new() -> Self {
        Pace {
            queue: BinaryHeap::with_capacity(EVENTS as usize + 1),
            state: vec![0; SLOTS],
        }
    }

    /// Host seconds of one pass of the reference loop.
    fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.pass());
        t.elapsed().as_secs_f64()
    }

    fn pass(&mut self) -> u64 {
        let mut x = black_box(FNV_OFFSET);
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 1000
        };
        self.queue.clear();
        self.state.fill(0);
        for id in 0..EVENTS {
            self.queue.push(Reverse((next(), id)));
        }
        let mut h = 0u64;
        for _ in 0..STEPS {
            let Some(Reverse((t, id))) = self.queue.pop() else {
                break;
            };
            let slot = (id as usize).wrapping_mul(2_654_435_761) % SLOTS;
            self.state[slot] = self.state[slot].wrapping_add(t);
            h ^= self.state[slot];
            self.queue.push(Reverse((t + 1 + next(), id)));
        }
        h
    }
}

/// How much harder than the reference loop a busy host slows the
/// workloads: over 20 runs of each workload on the reference host, their
/// host times grew as the loop's time to a power between 1.07 and 1.36
/// (`BENCHMARK.md`). A stretch is scaled by the loop's slowdown to this
/// power. It only removes host drift: at one pace, two commits' scaled
/// times stand in the ratio of their host times.
pub const SENSITIVITY: f64 = 1.2;

/// `host_s` scaled to the reference pace, given the reference loop's
/// time `pace_s` around it.
pub fn scale(host_s: f64, pace_s: f64) -> f64 {
    host_s * (REFERENCE_S / pace_s).powf(SENSITIVITY)
}

/// One timed stretch of code: host seconds, and the same scaled to the
/// reference pace with the reference loop's times just before and just
/// after it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    /// Host seconds.
    pub host_s: f64,
    /// Seconds at the reference pace.
    pub scaled_s: f64,
}

/// A stopwatch that reads the host's pace around what it times.
pub struct Clock {
    pace: Pace,
    readings: Vec<f64>,
}

/// A stretch of code being timed by [`Clock::start`].
pub struct Started {
    pace_s: f64,
    at: Instant,
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock {
    /// A clock with no readings yet.
    pub fn new() -> Self {
        Clock {
            pace: Pace::new(),
            readings: Vec::new(),
        }
    }

    /// One pass of the reference loop, in host seconds.
    pub fn reading(&mut self) -> f64 {
        let p = self.pace.time();
        self.readings.push(p);
        p
    }

    /// Every reading taken so far.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }

    /// Read the pace, then start timing.
    pub fn start(&mut self) -> Started {
        let pace_s = self.reading();
        Started {
            pace_s,
            at: Instant::now(),
        }
    }

    /// Stop timing, then read the pace again.
    pub fn stop(&mut self, started: Started) -> Lap {
        self.lap(started).0
    }

    /// Stop timing one stretch and start timing the next: the one reading
    /// between them closes the first and opens the second.
    pub fn lap(&mut self, started: Started) -> (Lap, Started) {
        let host_s = started.at.elapsed().as_secs_f64();
        let pace_s = self.reading();
        let lap = Lap {
            host_s,
            scaled_s: scale(host_s, (started.pace_s + pace_s) / 2.0),
        };
        (
            lap,
            Started {
                pace_s,
                at: Instant::now(),
            },
        )
    }
}
