//! Discrete time measured in processor clock cycles.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A non-negative duration or instant, measured in processor clock cycles.
///
/// All quantities in the analysis — worst-case execution times (`PD_i`),
/// periods, deadlines, response times and the memory access latency `d_mem` —
/// share this single discrete timebase, matching the paper's evaluation where
/// benchmark parameters are given in clock cycles and `d_mem` (default 5 µs)
/// is converted to cycles.
///
/// Arithmetic uses plain operators for the common, obviously-in-range cases
/// and dedicated methods ([`Time::saturating_sub`], [`Time::checked_mul`])
/// where analysis equations can transiently underflow or overflow (e.g. the
/// numerator of Eq. (6), which is negative for small window lengths).
///
/// # Example
///
/// ```
/// use cpa_model::Time;
///
/// let period = Time::from_cycles(250);
/// let window = Time::from_cycles(1_000);
/// assert_eq!(window.div_ceil(period), 4);
/// assert_eq!((period * 3).cycles(), 750);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Time(u64);

impl Time {
    /// The zero duration.
    pub const ZERO: Time = Time(0);

    /// The largest representable time; used as an "unschedulable" sentinel
    /// by fixed-point iterations that diverge.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from a cycle count.
    ///
    /// ```
    /// use cpa_model::Time;
    /// assert_eq!(Time::from_cycles(42).cycles(), 42);
    /// ```
    #[must_use]
    pub const fn from_cycles(cycles: u64) -> Self {
        Time(cycles)
    }

    /// Returns the cycle count.
    #[must_use]
    pub const fn cycles(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is the zero duration.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    ///
    /// Several terms of the analysis (e.g. `t + R_l - (MD_l + γ)·d_mem` in
    /// Eq. (5)/(6) of the paper) are negative for small `t`; their clamped
    /// value is always what the surrounding equation needs.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition, clamping at [`Time::MAX`].
    #[must_use]
    pub const fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Saturating multiplication by a scalar count, clamping at [`Time::MAX`].
    #[must_use]
    pub const fn saturating_mul(self, count: u64) -> Time {
        Time(self.0.saturating_mul(count))
    }

    /// Checked multiplication by a scalar count; `None` on overflow.
    #[must_use]
    pub const fn checked_mul(self, count: u64) -> Option<Time> {
        match self.0.checked_mul(count) {
            Some(v) => Some(Time(v)),
            None => None,
        }
    }

    /// Ceiling division by another duration: `⌈self / divisor⌉`.
    ///
    /// This is the request-bound shape `⌈t / T_j⌉` ubiquitous in
    /// response-time analysis (Eq. (1), Lemma 1).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[must_use]
    pub const fn div_ceil(self, divisor: Time) -> u64 {
        assert!(divisor.0 != 0, "division of Time by zero duration");
        self.0.div_ceil(divisor.0)
    }

    /// Returns the larger of two times.
    #[must_use]
    pub const fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[must_use]
    pub const fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Time {
    type Output = Time;

    fn add(self, rhs: Time) -> Time {
        Time(
            self.0
                .checked_add(rhs.0)
                .expect("Time addition overflowed u64 cycles"),
        )
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;

    /// # Panics
    ///
    /// Panics on underflow; use [`Time::saturating_sub`] where a clamped
    /// result is intended.
    fn sub(self, rhs: Time) -> Time {
        Time(
            self.0
                .checked_sub(rhs.0)
                .expect("Time subtraction underflowed; use saturating_sub"),
        )
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Time {
    type Output = Time;

    fn mul(self, rhs: u64) -> Time {
        Time(
            self.0
                .checked_mul(rhs)
                .expect("Time multiplication overflowed u64 cycles"),
        )
    }
}

impl Mul<Time> for u64 {
    type Output = Time;

    fn mul(self, rhs: Time) -> Time {
        rhs * self
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl From<u64> for Time {
    fn from(cycles: u64) -> Self {
        Time(cycles)
    }
}

impl From<Time> for u64 {
    fn from(time: Time) -> Self {
        time.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Time::from_cycles(7).cycles(), 7);
        assert_eq!(u64::from(Time::from(9u64)), 9);
        assert_eq!(Time::default(), Time::ZERO);
        assert!(Time::ZERO.is_zero());
        assert!(!Time::from_cycles(1).is_zero());
    }

    #[test]
    fn basic_arithmetic() {
        let a = Time::from_cycles(10);
        let b = Time::from_cycles(4);
        assert_eq!(a + b, Time::from_cycles(14));
        assert_eq!(a - b, Time::from_cycles(6));
        assert_eq!(a * 3, Time::from_cycles(30));
        assert_eq!(3 * a, Time::from_cycles(30));
        let mut c = a;
        c += b;
        c -= Time::from_cycles(2);
        assert_eq!(c, Time::from_cycles(12));
    }

    #[test]
    fn saturating_and_checked() {
        let a = Time::from_cycles(3);
        let b = Time::from_cycles(5);
        assert_eq!(a.saturating_sub(b), Time::ZERO);
        assert_eq!(b.saturating_sub(a), Time::from_cycles(2));
        assert_eq!(Time::MAX.saturating_add(a), Time::MAX);
        assert_eq!(Time::MAX.saturating_mul(2), Time::MAX);
        assert_eq!(Time::MAX.checked_mul(2), None);
        assert_eq!(a.checked_mul(2), Some(Time::from_cycles(6)));
    }

    #[test]
    fn division_shapes() {
        let t = Time::from_cycles(10);
        let p = Time::from_cycles(4);
        assert_eq!(t.div_ceil(p), 3);
        assert_eq!(Time::ZERO.div_ceil(p), 0);
        assert_eq!(Time::from_cycles(8).div_ceil(p), 2);
    }

    #[test]
    #[should_panic(expected = "division of Time by zero")]
    fn div_ceil_by_zero_panics() {
        let _ = Time::from_cycles(1).div_ceil(Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflowed")]
    fn sub_underflow_panics() {
        let _ = Time::from_cycles(1) - Time::from_cycles(2);
    }

    #[test]
    fn min_max_sum_display() {
        let a = Time::from_cycles(3);
        let b = Time::from_cycles(5);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let total: Time = [a, b, Time::from_cycles(2)].into_iter().sum();
        assert_eq!(total, Time::from_cycles(10));
        assert_eq!(a.to_string(), "3cy");
    }

    #[test]
    fn serde_round_trip_is_transparent() {
        let t = Time::from_cycles(123);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, "123");
        let back: Time = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    proptest! {
        #[test]
        fn div_ceil_matches_definition(t in 0u64..1_000_000, p in 1u64..10_000) {
            let q = Time::from_cycles(t).div_ceil(Time::from_cycles(p));
            prop_assert!(q * p >= t);
            prop_assert!(q.saturating_sub(1) * p < t || q == 0);
        }

        #[test]
        fn saturating_sub_never_underflows(a in any::<u64>(), b in any::<u64>()) {
            let r = Time::from_cycles(a).saturating_sub(Time::from_cycles(b));
            prop_assert_eq!(r.cycles(), a.saturating_sub(b));
        }
    }
}
