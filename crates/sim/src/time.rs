//! Nanosecond-resolution simulated time.
//!
//! Two newtypes keep instants and durations from being mixed up:
//! [`Time`] is an absolute instant (nanoseconds since simulation start) and
//! [`Dur`] is a span. Arithmetic is saturating on subtraction so that clock
//! skew bugs surface as zero spans rather than panics in release builds.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// An absolute instant in simulated time, in nanoseconds since start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Time(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Dur(u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Returns the instant as raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as (fractional) seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the span since `earlier`, or [`Dur::ZERO`] if `earlier` is later.
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);
    /// The largest representable span.
    pub const MAX: Dur = Dur(u64::MAX);

    /// Creates a span from nanoseconds.
    pub const fn nanos(ns: u64) -> Self {
        Dur(ns)
    }

    /// Creates a span from microseconds.
    pub const fn micros(us: u64) -> Self {
        Dur(us * 1_000)
    }

    /// Creates a span from milliseconds.
    pub const fn millis(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }

    /// Creates a span from seconds.
    pub const fn secs(s: u64) -> Self {
        Dur(s * 1_000_000_000)
    }

    /// Creates a span from fractional seconds, rounding to whole nanoseconds.
    ///
    /// Negative or non-finite inputs yield [`Dur::ZERO`].
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_finite() && s > 0.0 {
            Dur((s * 1e9).round() as u64)
        } else {
            Dur::ZERO
        }
    }

    /// Returns the span in raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the span in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns whether this is the empty span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the larger of two spans.
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// Returns the smaller of two spans.
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by a dimensionless fraction, rounding to nanoseconds.
    ///
    /// Negative or non-finite factors yield [`Dur::ZERO`].
    pub fn mul_f64(self, factor: f64) -> Dur {
        if factor.is_finite() && factor > 0.0 {
            Dur((self.0 as f64 * factor).round() as u64)
        } else {
            Dur::ZERO
        }
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs.max(1))
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", format_ns(self.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Formats a nanosecond count with a human-friendly unit.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::from_nanos(1_500);
        assert_eq!((t + Dur::micros(1)).as_nanos(), 2_500);
        assert_eq!((t - Dur::nanos(500)).as_nanos(), 1_000);
        assert_eq!(Time::from_nanos(3_000) - t, Dur::nanos(1_500));
    }

    #[test]
    fn subtraction_saturates_instead_of_panicking() {
        let early = Time::from_nanos(10);
        let late = Time::from_nanos(20);
        assert_eq!(early - late, Dur::ZERO);
        assert_eq!(early.saturating_since(late), Dur::ZERO);
        assert_eq!(Dur::nanos(5).saturating_sub(Dur::nanos(9)), Dur::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Dur::micros(1), Dur::nanos(1_000));
        assert_eq!(Dur::millis(1), Dur::micros(1_000));
        assert_eq!(Dur::secs(1), Dur::millis(1_000));
        assert_eq!(Dur::from_secs_f64(0.5), Dur::millis(500));
    }

    #[test]
    fn from_secs_f64_rejects_garbage() {
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::NAN), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::INFINITY), Dur::ZERO);
    }

    #[test]
    fn mul_div_behave() {
        assert_eq!(Dur::nanos(100) * 3, Dur::nanos(300));
        assert_eq!(Dur::nanos(300) / 3, Dur::nanos(100));
        // Division by zero is clamped to division by one.
        assert_eq!(Dur::nanos(300) / 0, Dur::nanos(300));
        assert_eq!(Dur::nanos(100).mul_f64(2.5), Dur::nanos(250));
    }

    #[test]
    fn display_picks_reasonable_units() {
        assert_eq!(format!("{}", Dur::nanos(12)), "12ns");
        assert_eq!(format!("{}", Dur::micros(12)), "12.000us");
        assert_eq!(format!("{}", Dur::millis(12)), "12.000ms");
        assert_eq!(format!("{}", Dur::secs(12)), "12.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Dur = [Dur::nanos(1), Dur::nanos(2), Dur::nanos(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Dur::nanos(6));
    }
}
