//! Phase-aware group formation (the paper's §7 future work: "the change in
//! communication pattern in different stages of the application may lead to
//! a change in group formation").
//!
//! The trace is cut into fixed-length time windows; Algorithm 2 runs per
//! window; adjacent windows with identical formations are merged into
//! *phases*. The result both detects phase changes and suggests a
//! per-phase group schedule.

use gcr_trace::pair_flows;
use gcr_trace::record::{Trace, TraceEvent};

use crate::def::GroupDef;
use crate::formation::form_groups_from_flows;

/// One detected communication phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Start of the phase (ns).
    pub start: u64,
    /// End of the phase (ns, exclusive).
    pub end: u64,
    /// The formation that holds during the phase.
    pub groups: GroupDef,
    /// Number of send records the formation was derived from.
    pub sends: usize,
}

/// Slice a trace into `[t0, t1)` sub-traces by send time.
fn window_trace(trace: &Trace, t0: u64, t1: u64) -> Trace {
    let mut w = Trace::new(trace.meta.n, format!("{}[{t0},{t1})", trace.meta.workload));
    w.events.extend(
        trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Send { t, .. } if *t >= t0 && *t < t1))
            .cloned(),
    );
    w
}

/// Run Algorithm 2 over fixed windows of `window_ns` and merge adjacent
/// windows with identical formations into phases. Windows with no traffic
/// extend the preceding phase.
///
/// # Panics
/// Panics if `window_ns == 0`.
pub fn detect_phases(trace: &Trace, window_ns: u64, max_group_size: usize) -> Vec<Phase> {
    assert!(window_ns > 0, "window must be positive");
    let end = trace.end_time();
    // Send times in order, so a window with no sends can jump straight to
    // the window of the next send instead of stepping through the gap.
    let mut send_times: Vec<u64> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Send { t, .. } => Some(*t),
            _ => None,
        })
        .collect();
    send_times.sort_unstable();
    let mut phases: Vec<Phase> = Vec::new();
    let mut t0 = 0u64;
    while t0 <= end {
        let t1 = t0.saturating_add(window_ns);
        let next_send = send_times
            .get(send_times.partition_point(|&t| t < t0))
            .copied();
        if next_send.is_some_and(|t| t < t1) {
            let w = window_trace(trace, t0, t1);
            let sends = w.send_count();
            let def = form_groups_from_flows(&pair_flows(&w), trace.meta.n, max_group_size);
            match phases.last_mut() {
                Some(last) if last.groups == def => {
                    last.end = t1;
                    last.sends += sends;
                }
                _ => phases.push(Phase {
                    start: t0,
                    end: t1,
                    groups: def,
                    sends,
                }),
            }
        } else {
            // No send in [t0, t1): every window up to the one holding the
            // next send is empty too, and each would extend the open phase
            // to its own end. Resume at that window; with no send left
            // (or none a window can hold before the clock saturates), the
            // last window is the one holding `end`.
            let resume = next_send
                .filter(|_| t1 < u64::MAX)
                .map(|t| t - t % window_ns);
            let extended_to =
                resume.unwrap_or_else(|| (end - end % window_ns).saturating_add(window_ns));
            if let Some(last) = phases.last_mut() {
                last.end = extended_to;
            }
            match resume {
                Some(start) => {
                    t0 = start;
                    continue;
                }
                None => break,
            }
        }
        if t1 == u64::MAX {
            break;
        }
        t0 = t1;
    }
    phases
}

/// True when the application's formation is stable across the whole trace
/// (a single phase).
pub fn is_stationary(trace: &Trace, window_ns: u64, max_group_size: usize) -> bool {
    detect_phases(trace, window_ns, max_group_size).len() <= 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(t: u64, src: u32, dst: u32, bytes: u64) -> TraceEvent {
        TraceEvent::Send {
            t,
            src,
            dst,
            tag: 0,
            bytes,
        }
    }

    /// Two phases: pairs (0,1)/(2,3) early, then (0,2)/(1,3).
    fn two_phase_trace() -> Trace {
        let mut tr = Trace::new(4, "two-phase");
        for i in 0..50 {
            tr.events.push(send(i * 10, 0, 1, 1000));
            tr.events.push(send(i * 10 + 5, 2, 3, 1000));
        }
        for i in 0..50 {
            tr.events.push(send(1000 + i * 10, 0, 2, 1000));
            tr.events.push(send(1005 + i * 10, 1, 3, 1000));
        }
        tr
    }

    #[test]
    fn detects_a_formation_change() {
        let tr = two_phase_trace();
        let phases = detect_phases(&tr, 500, 2);
        assert_eq!(phases.len(), 2, "{phases:#?}");
        assert!(phases[0].groups.is_intra(0, 1));
        assert!(phases[0].groups.is_intra(2, 3));
        assert!(phases[1].groups.is_intra(0, 2));
        assert!(phases[1].groups.is_intra(1, 3));
        assert!(!is_stationary(&tr, 500, 2));
    }

    #[test]
    fn stationary_trace_is_one_phase() {
        let mut tr = Trace::new(4, "stationary");
        for i in 0..100 {
            tr.events.push(send(i * 13, 0, 1, 500));
            tr.events.push(send(i * 13 + 3, 2, 3, 500));
        }
        let phases = detect_phases(&tr, 200, 2);
        assert_eq!(phases.len(), 1);
        assert!(is_stationary(&tr, 200, 2));
        assert_eq!(phases[0].sends, 200);
    }

    #[test]
    fn silent_windows_extend_the_phase() {
        let mut tr = Trace::new(2, "bursty");
        tr.events.push(send(0, 0, 1, 100));
        tr.events.push(send(10_000, 0, 1, 100)); // long silence between
        let phases = detect_phases(&tr, 100, 2);
        assert_eq!(phases.len(), 1);
        assert!(phases[0].end >= 10_000);
    }

    #[test]
    fn a_lone_send_far_out_is_reached_in_one_jump() {
        // 10^12 empty one-millisecond windows precede the send.
        let mut tr = Trace::new(2, "far");
        tr.events.push(send(1_000_000_000_000_000_000, 0, 1, 100));
        let phases = detect_phases(&tr, 1_000_000, 2);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].start, 1_000_000_000_000_000_000);
        assert_eq!(phases[0].end, 1_000_000_000_001_000_000);
        assert_eq!(phases[0].sends, 1);
    }

    /// The window-by-window loop that `detect_phases` shortens: it steps
    /// through every window, empty or not.
    fn stepped_phases(trace: &Trace, window_ns: u64, max_group_size: usize) -> Vec<Phase> {
        let end = trace.end_time();
        let mut phases: Vec<Phase> = Vec::new();
        let mut t0 = 0u64;
        while t0 <= end {
            let t1 = t0.saturating_add(window_ns);
            let w = window_trace(trace, t0, t1);
            let sends = w.send_count();
            if sends > 0 {
                let def = form_groups_from_flows(&pair_flows(&w), trace.meta.n, max_group_size);
                match phases.last_mut() {
                    Some(last) if last.groups == def => {
                        last.end = t1;
                        last.sends += sends;
                    }
                    _ => phases.push(Phase {
                        start: t0,
                        end: t1,
                        groups: def,
                        sends,
                    }),
                }
            } else if let Some(last) = phases.last_mut() {
                last.end = t1;
            }
            if t1 == u64::MAX {
                break;
            }
            t0 = t1;
        }
        phases
    }

    #[test]
    fn jumping_over_empty_windows_matches_stepping_through_them() {
        // xorshift64: a fixed stream of small traces with bursts, gaps,
        // receives past the last send, and sends near the clock's end.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        for case in 0..300 {
            let mut tr = Trace::new(4, "random");
            // Every tenth trace sits at the top of the clock, with windows
            // wide enough that the last one saturates.
            let near_end = case % 10 == 0;
            let base = if near_end { u64::MAX - 3_000 } else { 0 };
            for _ in 0..next(12) {
                let t = base + next(400) + 1_000 * next(3);
                let (src, dst) = (next(4) as u32, next(4) as u32);
                if src == dst {
                    continue;
                }
                if next(4) == 0 {
                    tr.events.push(TraceEvent::Recv {
                        t_sent: t,
                        t: t.saturating_add(next(3_000)),
                        src,
                        dst,
                        tag: 0,
                        bytes: 10,
                    });
                } else {
                    tr.events.push(send(t, src, dst, 1 + next(1_000)));
                }
            }
            let window = if near_end {
                (1 << 62) + next(1 << 62)
            } else {
                1 + next(300)
            };
            assert_eq!(
                detect_phases(&tr, window, 2),
                stepped_phases(&tr, window, 2),
                "case {case}, window {window}: {tr:?}"
            );
        }
    }

    #[test]
    fn empty_trace_yields_no_phases() {
        let tr = Trace::new(4, "empty");
        assert!(detect_phases(&tr, 100, 2).is_empty());
        assert!(is_stationary(&tr, 100, 2));
    }
}
