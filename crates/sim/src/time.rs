//! Simulated time: a nanosecond-resolution monotonic clock.
//!
//! All of `gcr` runs on simulated time. Using integer nanoseconds (rather
//! than `f64` seconds) keeps event ordering total and deterministic: two
//! runs with the same seed produce bit-identical schedules.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, measured in nanoseconds since the start of
/// the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    ns: u64,
}

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration {
    ns: u64,
}

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime { ns: 0 };
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime { ns: u64::MAX };

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime { ns }
    }

    /// Construct from whole simulated seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime {
            ns: s * 1_000_000_000,
        }
    }

    /// Construct from whole simulated milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime { ns: ms * 1_000_000 }
    }

    /// Construct from fractional seconds (rounds to nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s >= 0.0 && s.is_finite(),
            "SimTime must be non-negative and finite"
        );
        SimTime {
            ns: (s * 1e9).round() as u64,
        }
    }

    /// Raw nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.ns
    }

    /// Seconds since the epoch as `f64` (lossy above ~2^53 ns).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.ns as f64 / 1e9
    }

    /// Time elapsed since `earlier`; saturates to zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration {
            ns: self.ns.saturating_sub(earlier.ns),
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration { ns: 0 };
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration { ns: u64::MAX };

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration { ns }
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration { ns: us * 1_000 }
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration { ns: ms * 1_000_000 }
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration {
            ns: s * 1_000_000_000,
        }
    }

    /// Construct from fractional seconds (rounds to nearest nanosecond).
    ///
    /// # Panics
    /// Panics if `s` is negative, NaN, or infinite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s >= 0.0 && s.is_finite(),
            "SimDuration must be non-negative and finite"
        );
        SimDuration {
            ns: (s * 1e9).round() as u64,
        }
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.ns
    }

    /// Length in seconds as `f64`.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.ns as f64 / 1e9
    }

    /// True when this duration is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.ns == 0
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            ns: self.ns.saturating_add(rhs.ns),
        }
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            ns: self.ns.saturating_sub(rhs.ns),
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime {
            ns: self.ns.checked_add(rhs.ns).expect("SimTime overflow"),
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime {
            ns: self.ns.checked_sub(rhs.ns).expect("SimTime underflow"),
        }
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration {
            ns: self.ns.checked_sub(rhs.ns).expect("negative SimDuration"),
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            ns: self.ns.checked_add(rhs.ns).expect("SimDuration overflow"),
        }
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            ns: self.ns.checked_sub(rhs.ns).expect("negative SimDuration"),
        }
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration {
            ns: self.ns.checked_mul(rhs).expect("SimDuration overflow"),
        }
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration { ns: self.ns / rhs }
    }
}

fn fmt_ns(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns == u64::MAX {
        write!(f, "inf")
    } else if ns >= 1_000_000_000 {
        write!(f, "{:.6}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{}ns", ns)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t=")?;
        fmt_ns(self.ns, f)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.ns, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.ns, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.ns, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimDuration::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert!((SimTime::from_secs_f64(2.25).as_secs_f64() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!((t + d).as_nanos(), 14_000_000_000);
        assert_eq!((t - d).as_nanos(), 6_000_000_000);
        assert_eq!(((t + d) - t).as_nanos(), d.as_nanos());
        assert_eq!((d * 3).as_nanos(), 12_000_000_000);
        assert_eq!((d / 2).as_nanos(), 2_000_000_000);
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::MAX.saturating_add(SimDuration::from_secs(1)),
            SimDuration::MAX
        );
    }

    #[test]
    #[should_panic(expected = "negative SimDuration")]
    fn negative_duration_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![SimTime::from_secs(3), SimTime::ZERO, SimTime::from_nanos(5)];
        v.sort();
        assert_eq!(
            v,
            vec![SimTime::ZERO, SimTime::from_nanos(5), SimTime::from_secs(3)]
        );
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000000s");
        assert_eq!(format!("{}", SimDuration::MAX), "inf");
    }
}
