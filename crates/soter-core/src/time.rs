//! Discrete time for the timeout-based discrete-event semantics.
//!
//! The paper models the real-time system as a discrete transition system
//! using calendar automata: each node has a time-table of the instants at
//! which it fires, and time progresses to the earliest pending entry
//! (Sec. III-A and Fig. 11).  To make calendars totally ordered and free of
//! floating-point comparison hazards, time is represented as an integer
//! number of microseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An absolute instant of simulated time, in microseconds since the start of
/// the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A non-negative span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Time {
    /// The start of the run.
    pub const ZERO: Time = Time(0);

    /// Creates a time from a raw microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        Time(us)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000)
    }

    /// Creates a time from seconds expressed as a float.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "seconds must be finite and non-negative"
        );
        Time((secs * 1e6).round() as u64)
    }

    /// The raw microsecond count.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// The time in seconds, as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(&self, earlier: Time) -> Duration {
        assert!(
            earlier.0 <= self.0,
            "duration_since called with a later time ({} > {})",
            earlier,
            self
        );
        Duration(self.0 - earlier.0)
    }

    /// Saturating difference, returning zero if `earlier` is later.
    pub fn saturating_duration_since(&self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The zero duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Creates a duration from seconds expressed as a float.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "seconds must be finite and non-negative"
        );
        Duration((secs * 1e6).round() as u64)
    }

    /// The raw microsecond count.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// The duration in seconds, as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` for the zero duration.
    pub const fn is_zero(&self) -> bool {
        self.0 == 0
    }

    /// Checked integer division of durations (how many whole `rhs` fit in
    /// `self`); returns `None` if `rhs` is zero.
    pub fn checked_div_duration(&self, rhs: Duration) -> Option<u64> {
        self.0.checked_div(rhs.0)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(Time::from_millis(5).as_micros(), 5_000);
        assert_eq!(Duration::from_secs(2).as_micros(), 2_000_000);
        assert!((Time::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
        assert!((Duration::from_secs_f64(0.25).as_secs_f64() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t, Time::from_millis(15));
        assert_eq!(t - Duration::from_millis(5), Time::from_millis(10));
        assert_eq!(
            Duration::from_millis(3) + Duration::from_millis(4),
            Duration::from_millis(7)
        );
        assert_eq!(
            Duration::from_millis(10) - Duration::from_millis(4),
            Duration::from_millis(6)
        );
        assert_eq!(Duration::from_millis(10) * 3, Duration::from_millis(30));
    }

    #[test]
    fn subtraction_saturates() {
        assert_eq!(Time::from_millis(1) - Duration::from_millis(5), Time::ZERO);
        assert_eq!(
            Duration::from_millis(1) - Duration::from_millis(5),
            Duration::ZERO
        );
        assert_eq!(
            Time::from_millis(1).saturating_duration_since(Time::from_millis(5)),
            Duration::ZERO
        );
    }

    #[test]
    fn duration_since_measures_elapsed_time() {
        let a = Time::from_millis(100);
        let b = Time::from_millis(250);
        assert_eq!(b.duration_since(a), Duration::from_millis(150));
    }

    #[test]
    #[should_panic]
    fn duration_since_panics_on_negative_span() {
        let _ = Time::from_millis(1).duration_since(Time::from_millis(2));
    }

    #[test]
    #[should_panic]
    fn negative_seconds_panics() {
        let _ = Duration::from_secs_f64(-1.0);
    }

    #[test]
    fn ordering_matches_microseconds() {
        assert!(Time::from_micros(1) < Time::from_micros(2));
        assert!(Duration::from_millis(1) < Duration::from_secs(1));
    }

    #[test]
    fn checked_div_counts_whole_periods() {
        assert_eq!(
            Duration::from_millis(100).checked_div_duration(Duration::from_millis(30)),
            Some(3)
        );
        assert_eq!(
            Duration::from_millis(100).checked_div_duration(Duration::ZERO),
            None
        );
    }

    #[test]
    fn display_is_in_seconds() {
        assert_eq!(format!("{}", Time::from_millis(1500)), "1.500000s");
        assert_eq!(format!("{}", Duration::from_millis(20)), "0.020000s");
    }

    proptest! {
        #[test]
        fn prop_roundtrip_secs(us in 0u64..10_000_000_000) {
            let d = Duration::from_micros(us);
            let back = Duration::from_secs_f64(d.as_secs_f64());
            // Round-trip through f64 is exact for values far below 2^53 µs.
            prop_assert_eq!(d, back);
        }

        #[test]
        fn prop_add_then_subtract_is_identity(t in 0u64..1_000_000_000, d in 0u64..1_000_000) {
            let time = Time::from_micros(t);
            let dur = Duration::from_micros(d);
            prop_assert_eq!((time + dur) - dur, time);
            prop_assert_eq!((time + dur).duration_since(time), dur);
        }
    }
}
