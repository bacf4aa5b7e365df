//! Exact utilization sums.
//!
//! A schedulability verdict that compares a utilization against 1 must
//! not depend on floating-point rounding: three tasks of period 30 with
//! demands 6, 23 and 1 sum to exactly 1, but the `f64` sum of their
//! quotients is `1.0000000000000002`. [`UtilizationSum`] keeps the sum
//! `Σ demand / period` as an exact `u128` fraction, and reports overflow
//! instead of guessing, so each caller decides its own conservative
//! fallback.

/// An exact running sum `Σ demand_k / period_k`, or *unknown* once the
/// `u128` fraction overflows.
///
/// The sum is kept *unreduced*: `u128` headroom covers any realistic
/// period product, and skipping the gcd pass keeps a hot accumulation
/// loop division-free. Only when a checked multiply would overflow is
/// the fraction gcd-reduced and the addition retried; the represented
/// rational is identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UtilizationSum {
    /// `Some((num, den))` for the exact sum `num / den`; `None` once it
    /// overflowed (or a zero period was added).
    frac: Option<(u128, u128)>,
}

impl UtilizationSum {
    /// The empty sum.
    pub const ZERO: UtilizationSum = UtilizationSum { frac: Some((0, 1)) };

    /// Adds `demand / period`. A zero period, or a sum that no longer
    /// fits a `u128` fraction, makes the sum unknown for good.
    #[inline]
    pub fn add(&mut self, demand: u128, period: u64) {
        fn raw(num: u128, den: u128, add: u128, per: u128) -> Option<(u128, u128)> {
            let num = num.checked_mul(per)?.checked_add(add.checked_mul(den)?)?;
            let den = den.checked_mul(per)?;
            Some((num, den))
        }
        self.frac = self.frac.and_then(|(num, den)| {
            if period == 0 {
                return None;
            }
            let per = u128::from(period);
            raw(num, den, demand, per).or_else(|| {
                let g = gcd(num, den);
                raw(num / g, den / g, demand, per)
            })
        });
    }

    /// Whether the sum is strictly greater than 1; `None` when unknown.
    #[inline]
    #[must_use]
    pub fn exceeds_one(&self) -> Option<bool> {
        self.frac.map(|(num, den)| num > den)
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sum(terms: &[(u128, u64)]) -> UtilizationSum {
        let mut s = UtilizationSum::ZERO;
        for &(demand, period) in terms {
            s.add(demand, period);
        }
        s
    }

    #[test]
    fn exactly_one_does_not_exceed_one() {
        // The f64 sum of these quotients is 1.0000000000000002.
        let f: f64 = [6.0, 23.0, 1.0].iter().map(|d| d / 30.0).sum();
        assert!(f > 1.0);
        assert_eq!(
            sum(&[(6, 30), (23, 30), (1, 30)]).exceeds_one(),
            Some(false)
        );
        assert_eq!(sum(&[(6, 30), (24, 30), (1, 30)]).exceeds_one(), Some(true));
        assert_eq!(UtilizationSum::ZERO.exceeds_one(), Some(false));
    }

    #[test]
    fn overflow_and_zero_periods_are_unknown() {
        // Pairwise-coprime periods near 2^62: the exact denominator needs
        // more than 128 bits even after reduction.
        let periods = [(1u64 << 62) - 57, (1u64 << 62) - 87, (1u64 << 62) - 117];
        let terms: Vec<(u128, u64)> = periods.iter().map(|&p| (1, p)).collect();
        assert_eq!(sum(&terms).exceeds_one(), None);
        assert_eq!(sum(&[(1, 2), (1, 0)]).exceeds_one(), None);
    }

    #[test]
    fn reduction_keeps_the_sum_exact() {
        // Equal large periods share every factor: reduction on overflow
        // keeps the fraction representable and the verdict exact.
        let p = (1u64 << 62) - 57;
        let half = u128::from(p / 2);
        let terms = [(half, p), (half, p), (1, p), (1, p)];
        assert_eq!(sum(&terms).exceeds_one(), Some(true));
        assert_eq!(sum(&terms[..3]).exceeds_one(), Some(false));
    }

    proptest! {
        /// The boundary itself: random terms, topped up by the exact
        /// remainder to a sum of exactly 1 (never exceeds), and by one
        /// more unit of demand (always exceeds).
        #[test]
        fn sums_of_exactly_one_sit_on_the_boundary(
            // At most 3 · 60/200 < 1, so a positive remainder is left.
            terms in proptest::collection::vec((0u64..60, 200u64..1_000), 0..4),
        ) {
            let (mut num, mut den) = (0u128, 1u128);
            for &(d, p) in &terms {
                num = num * u128::from(p) + u128::from(d) * den;
                den *= u128::from(p);
            }
            let g = gcd(den - num, den);
            let (rest, per) = ((den - num) / g, u64::try_from(den / g).unwrap());
            let mut terms: Vec<(u128, u64)> =
                terms.iter().map(|&(d, p)| (u128::from(d), p)).collect();
            terms.push((rest, per));
            prop_assert_eq!(sum(&terms).exceeds_one(), Some(false));
            terms.last_mut().unwrap().0 += 1;
            prop_assert_eq!(sum(&terms).exceeds_one(), Some(true));
        }
    }
}
