//! Exact utilization sums.
//!
//! A schedulability verdict that compares a utilization against 1 must
//! not depend on floating-point rounding: three tasks of period 30 with
//! demands 6, 23 and 1 sum to exactly 1, but the `f64` sum of their
//! quotients is `1.0000000000000002`. [`UtilizationSum`] keeps the sum
//! as an exact fraction in arbitrary precision: the product of a whole
//! task set's periods does not fit any fixed width.

/// An exact running sum `Σ demand_k · scale_k / period_k` of `u64`
/// operands.
///
/// ```
/// use cpa_model::UtilizationSum;
///
/// let mut sum = UtilizationSum::new();
/// for demand in [6, 23, 1] {
///     sum.add(demand, 1, 30);
/// }
/// assert!(!sum.exceeds_one()); // exactly 1
/// sum.add(1, 1, u64::MAX);
/// assert!(sum.exceeds_one());
/// ```
#[derive(Debug)]
pub struct UtilizationSum {
    /// The sum is `num / den`, unreduced.
    num: Natural,
    den: Natural,
}

impl UtilizationSum {
    /// The empty sum.
    #[must_use]
    pub fn new() -> Self {
        UtilizationSum {
            num: Natural::from(0),
            den: Natural::from(1),
        }
    }

    /// Adds `demand · scale / period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero (task periods are positive).
    pub fn add(&mut self, demand: u64, scale: u64, period: u64) {
        assert!(period > 0, "a utilization term needs a positive period");
        // num/den + demand·scale/period = (num·period + demand·scale·den) / (den·period)
        let mut share = self.den.clone();
        share.mul(demand);
        share.mul(scale);
        self.num.mul(period);
        self.num.add(&share);
        self.den.mul(period);
    }

    /// Whether the sum is strictly greater than 1.
    #[must_use]
    pub fn exceeds_one(&self) -> bool {
        self.num > self.den
    }
}

impl Default for UtilizationSum {
    fn default() -> Self {
        UtilizationSum::new()
    }
}

/// A natural number in little-endian base-2^64 digits with no leading
/// zero digit: just enough arithmetic for an exact fraction.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Natural(Vec<u64>);

impl Natural {
    fn from(v: u64) -> Self {
        let mut n = Natural(vec![v]);
        n.trim();
        n
    }

    fn trim(&mut self) {
        while self.0.last() == Some(&0) {
            self.0.pop();
        }
    }

    fn mul(&mut self, m: u64) {
        let mut carry = 0u128;
        for digit in &mut self.0 {
            let p = u128::from(*digit) * u128::from(m) + carry;
            *digit = p as u64; // the low 64 bits
            carry = p >> 64;
        }
        if carry > 0 {
            self.0.push(carry as u64);
        }
        self.trim();
    }

    fn add(&mut self, other: &Natural) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        let mut carry = false;
        for (k, digit) in self.0.iter_mut().enumerate() {
            let rhs = other.0.get(k).copied().unwrap_or(0);
            let (sum, c1) = digit.overflowing_add(rhs);
            let (sum, c2) = sum.overflowing_add(u64::from(carry));
            *digit = sum;
            carry = c1 || c2;
        }
        if carry {
            self.0.push(1);
        }
    }
}

impl PartialOrd for Natural {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Natural {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .len()
            .cmp(&other.0.len())
            .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sum(terms: &[(u64, u64)]) -> UtilizationSum {
        let mut s = UtilizationSum::new();
        for &(demand, period) in terms {
            s.add(demand, 1, period);
        }
        s
    }

    #[test]
    fn exactly_one_does_not_exceed_one() {
        // The f64 sum of these quotients is 1.0000000000000002.
        let f: f64 = [6.0, 23.0, 1.0].iter().map(|d| d / 30.0).sum();
        assert!(f > 1.0);
        assert!(!sum(&[(6, 30), (23, 30), (1, 30)]).exceeds_one());
        assert!(sum(&[(6, 30), (24, 30), (1, 30)]).exceeds_one());
        assert!(!UtilizationSum::new().exceeds_one());
    }

    #[test]
    fn sums_past_u128_are_exact() {
        // Pairwise-coprime periods near 2^62: the denominator needs more
        // than 128 bits, and the verdict turns on a difference of
        // 1/p1 − 1/p0 ≈ 2^-120.
        let [p0, p1, p2] = [(1u64 << 62) - 57, (1u64 << 62) - 87, (1u64 << 62) - 117];
        assert!(sum(&[(p0 - 1, p0), (0, p2), (1, p1)]).exceeds_one());
        assert!(!sum(&[(p1 - 1, p1), (0, p2), (1, p0)]).exceeds_one());
        // A numerator factor pair past u64.
        let mut s = UtilizationSum::new();
        s.add(u64::MAX, u64::MAX, u64::MAX);
        assert!(s.exceeds_one());
        let mut s = UtilizationSum::new();
        s.add(1, u64::MAX, u64::MAX);
        assert!(!s.exceeds_one());
    }

    #[test]
    fn reduction_keeps_the_sum_exact() {
        // Equal large periods share every factor, which the unreduced
        // fraction never divides out; the verdict is exact all the same.
        let p = (1u64 << 62) - 57;
        let half = p / 2;
        let terms = [(half, p), (half, p), (1, p), (1, p)];
        assert!(sum(&terms).exceeds_one());
        assert!(!sum(&terms[..3]).exceeds_one());
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
            let (mut num, mut den) = (0u64, 1u64);
            for &(d, p) in &terms {
                num = num * p + d * den;
                den *= p;
            }
            let mut terms = terms;
            terms.push((den - num, den));
            prop_assert!(!sum(&terms).exceeds_one());
            terms.last_mut().unwrap().0 += 1;
            prop_assert!(sum(&terms).exceeds_one());
        }
    }
}
