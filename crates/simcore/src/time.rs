//! Simulation clock types.
//!
//! The whole reproduction uses a single time base: integer **milliseconds**
//! since the start of the simulated day. A millisecond granularity is three
//! orders of magnitude finer than any timing constant in the paper (idle
//! timeout 60 s, wake-up 60 s, BH2 epoch 150 s, TDMA period 100 ms) while
//! keeping arithmetic exact — no accumulated floating point drift across a
//! 24-hour run, which matters for determinism across repetitions.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in milliseconds since time zero.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000)
    }

    /// Builds an instant from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000)
    }

    /// Builds an instant from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600_000)
    }

    /// Builds an instant from fractional seconds, rounding to the nearest
    /// millisecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1_000.0).round() as u64)
    }

    /// Milliseconds since time zero.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since time zero, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Whole seconds since time zero (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Hours since time zero, as a float (used for daily plots).
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// The hour-of-day bucket (0..=23 for a 24 h horizon; larger values are
    /// possible if the simulation runs longer than a day).
    pub const fn hour_of_day(self) -> u64 {
        self.0 / 3_600_000
    }

    /// Elapsed time since `earlier`; saturates at zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000)
    }

    /// Builds a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000)
    }

    /// Builds a duration from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000)
    }

    /// Builds a duration from fractional seconds, rounding to the nearest
    /// millisecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1_000.0).round() as u64)
    }

    /// Milliseconds in this duration.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds in this duration, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Hours in this duration, as a float.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 % 1_000;
        let s = (self.0 / 1_000) % 60;
        let m = (self.0 / 60_000) % 60;
        let h = self.0 / 3_600_000;
        if ms == 0 {
            write!(f, "{h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000) {
            write!(f, "{}s", self.0 / 1_000)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimTime::from_hours(24).as_millis(), 86_400_000);
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_millis(), 10_500);
        assert_eq!((t - SimTime::from_secs(10)).as_millis(), 500);
        assert_eq!(t - SimDuration::from_secs(20), SimTime::ZERO); // saturates
    }

    #[test]
    fn fractional_seconds_round() {
        assert_eq!(SimTime::from_secs_f64(1.2345).as_millis(), 1_235);
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.0004).as_millis(), 0);
    }

    #[test]
    fn hour_of_day_buckets() {
        assert_eq!(SimTime::from_hours(15).hour_of_day(), 15);
        assert_eq!((SimTime::from_hours(15) + SimDuration::from_mins(59)).hour_of_day(), 15);
        assert_eq!(SimTime::from_hours(16).hour_of_day(), 16);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_hours(15).to_string(), "15:00:00");
        assert_eq!(
            (SimTime::from_hours(1) + SimDuration::from_millis(61_500)).to_string(),
            "01:01:01.500"
        );
        assert_eq!(SimDuration::from_secs(90).to_string(), "90s");
        assert_eq!(SimDuration::from_millis(1_500).to_string(), "1500ms");
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(8);
        assert_eq!(b.since(a), SimDuration::from_secs(3));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }
}
