//! Integer time.

use serde::Serialize;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in (or span of) discrete time, measured in integer ticks.
///
/// All task parameters (periods, deadlines, execution budgets) and all
/// schedulability analyses in this workspace use `Time`, so demand-bound
/// and response-time computations are exact — no floating-point drift in
/// correctness-critical code.
///
/// `Time` is a transparent newtype over `u64` implementing the arithmetic
/// a scheduling analysis needs. Subtraction saturates at zero
/// ([`Time::saturating_sub`] is also provided explicitly); plain `-` panics
/// on underflow in debug builds like `u64` does, so analyses use
/// `saturating_sub` where an underflow is a legitimate "clamp to zero".
///
/// # Example
///
/// ```
/// use mcsched_model::Time;
///
/// let period = Time::new(10);
/// let deadline = Time::new(7);
/// assert!(deadline < period);
/// assert_eq!((period - deadline).as_ticks(), 3);
/// assert_eq!(period.saturating_sub(Time::new(12)), Time::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct Time(u64);

impl Time {
    /// The zero instant / empty span.
    pub const ZERO: Time = Time(0);
    /// One tick.
    pub const ONE: Time = Time(1);
    /// The maximum representable time.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a `Time` from raw ticks.
    ///
    /// ```
    /// use mcsched_model::Time;
    /// assert_eq!(Time::new(5).as_ticks(), 5);
    /// ```
    #[inline]
    pub const fn new(ticks: u64) -> Self {
        Time(ticks)
    }

    /// Returns the raw tick count.
    #[inline]
    pub const fn as_ticks(self) -> u64 {
        self.0
    }

    /// Returns this time as an `f64` (for utilization-style statistics only;
    /// never used inside exact analyses).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// `true` if this is the zero instant.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction clamped at zero.
    #[inline]
    pub const fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Addition clamped at `u64::MAX`.
    #[inline]
    pub const fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// Multiplication by a scalar job count, clamped at `u64::MAX`.
    ///
    /// Demand terms are `WCET × ⌈·⌉` products; outside the certified
    /// fast kernels they must saturate rather than wrap at 2^64 — a
    /// saturated demand keeps a violation a violation, a wrapped one
    /// can fake schedulability.
    #[inline]
    pub const fn saturating_mul(self, rhs: u64) -> Time {
        Time(self.0.saturating_mul(rhs))
    }

    /// Checked multiplication by a scalar job count; `None` on overflow.
    #[inline]
    pub fn checked_mul(self, k: u64) -> Option<Time> {
        self.0.checked_mul(k).map(Time)
    }

    /// Integer division rounding up: `ceil(self / rhs)`.
    ///
    /// This is the `⌈t/T⌉` that appears throughout response-time analysis.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    ///
    /// ```
    /// use mcsched_model::Time;
    /// assert_eq!(Time::new(10).div_ceil(Time::new(4)), 3);
    /// assert_eq!(Time::new(8).div_ceil(Time::new(4)), 2);
    /// assert_eq!(Time::ZERO.div_ceil(Time::new(4)), 0);
    /// ```
    #[inline]
    pub const fn div_ceil(self, rhs: Time) -> u64 {
        self.0.div_ceil(rhs.0)
    }

    /// Integer division rounding down: `floor(self / rhs)`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    pub const fn div_floor(self, rhs: Time) -> u64 {
        self.0 / rhs.0
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Time {
    fn from(ticks: u64) -> Self {
        Time(ticks)
    }
}

impl From<u32> for Time {
    fn from(ticks: u32) -> Self {
        Time(u64::from(ticks))
    }
}

impl From<Time> for u64 {
    fn from(t: Time) -> Self {
        t.0
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Mul<Time> for u64 {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: Time) -> Time {
        Time(self * rhs.0)
    }
}

impl Div<Time> for Time {
    type Output = u64;
    #[inline]
    fn div(self, rhs: Time) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Time> for Time {
    type Output = Time;
    #[inline]
    fn rem(self, rhs: Time) -> Time {
        Time(self.0 % rhs.0)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Time> for Time {
    fn sum<I: Iterator<Item = &'a Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(Time::new(42).as_ticks(), 42);
        assert_eq!(Time::ZERO.as_ticks(), 0);
        assert_eq!(Time::ONE.as_ticks(), 1);
        assert!(Time::ZERO.is_zero());
        assert!(!Time::ONE.is_zero());
        assert_eq!(Time::default(), Time::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Time::new(10);
        let b = Time::new(3);
        assert_eq!(a + b, Time::new(13));
        assert_eq!(a - b, Time::new(7));
        assert_eq!(a * 2, Time::new(20));
        assert_eq!(3 * b, Time::new(9));
        assert_eq!(a / b, 3);
        assert_eq!(a % b, Time::new(1));
    }

    #[test]
    fn assign_ops() {
        let mut t = Time::new(5);
        t += Time::new(2);
        assert_eq!(t, Time::new(7));
        t -= Time::new(3);
        assert_eq!(t, Time::new(4));
    }

    #[test]
    fn saturating() {
        assert_eq!(Time::new(3).saturating_sub(Time::new(5)), Time::ZERO);
        assert_eq!(Time::new(5).saturating_sub(Time::new(3)), Time::new(2));
        assert_eq!(Time::MAX.saturating_add(Time::ONE), Time::MAX);
    }

    #[test]
    fn checked() {
        assert_eq!(Time::MAX.checked_add(Time::ONE), None);
        assert_eq!(Time::new(2).checked_add(Time::new(3)), Some(Time::new(5)));
        assert_eq!(Time::MAX.checked_mul(2), None);
        assert_eq!(Time::new(4).checked_mul(3), Some(Time::new(12)));
    }

    #[test]
    fn div_rounding() {
        assert_eq!(Time::new(10).div_ceil(Time::new(3)), 4);
        assert_eq!(Time::new(9).div_ceil(Time::new(3)), 3);
        assert_eq!(Time::new(10).div_floor(Time::new(3)), 3);
        assert_eq!(Time::ZERO.div_ceil(Time::new(3)), 0);
    }

    #[test]
    fn min_max() {
        let a = Time::new(2);
        let b = Time::new(7);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(b.min(b), b);
    }

    #[test]
    fn ordering_and_display() {
        assert!(Time::new(1) < Time::new(2));
        assert_eq!(format!("{}", Time::new(17)), "17");
        assert_eq!(format!("{:?}", Time::new(17)), "Time(17)");
    }

    #[test]
    fn conversions() {
        assert_eq!(Time::from(7u64), Time::new(7));
        assert_eq!(Time::from(7u32), Time::new(7));
        assert_eq!(u64::from(Time::new(9)), 9);
        assert_eq!(Time::new(3).as_f64(), 3.0);
    }

    #[test]
    fn sums() {
        let v = [Time::new(1), Time::new(2), Time::new(3)];
        let owned: Time = v.iter().copied().sum();
        let borrowed: Time = v.iter().sum();
        assert_eq!(owned, Time::new(6));
        assert_eq!(borrowed, Time::new(6));
    }
}
