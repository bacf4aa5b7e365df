//! Lazily-materialised monotone step functions ("demand curves").
//!
//! Every bound in this crate — `BAS_i(t)`, `BAO_k^y(t)`, the same-core
//! preemption interference of Eq. (19) — is a monotone non-decreasing step
//! function of the window length `t`: its value only changes at discrete
//! events (job releases, carry-out `d_mem` boundaries). A [`StepCurve`]
//! caches such a function as the set of *constancy intervals* already
//! visited: evaluating at `t` either hits a stored segment (a binary
//! search) or computes the value once together with the maximal interval
//! `[lo, hi] ∋ t` on which it stays constant ([`Span`]) and stores it.
//! `BAO` needs a finer-grained variant — its exact carry-out steps on the
//! `d_mem` grid, far too fine for scalar segments to pay — so the engine
//! caches it as [`crate::bao::BaoSegment`]s instead: per-member terms on a
//! period-scale span, re-evaluated in a handful of operations per hit.
//!
//! The fixed-point solvers of [`crate::engine`] revisit overlapping
//! windows constantly — bracket and refine phases walk the same
//! neighbourhood, and outer rounds re-evaluate windows whose inputs did
//! not move — so the hit rate is high and each hit replaces a full
//! re-derivation of the bound with one lookup.

use cpa_model::Time;

/// A closed window interval `[lo, hi]` on which a demand bound is constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Smallest window length of the interval.
    pub lo: Time,
    /// Largest window length of the interval.
    pub hi: Time,
}

impl Span {
    /// The whole window axis `[0, Time::MAX]`.
    #[must_use]
    pub fn full() -> Self {
        Span {
            lo: Time::ZERO,
            hi: Time::from_cycles(u64::MAX),
        }
    }

    /// The degenerate interval `[t, t]`.
    #[must_use]
    pub fn point(t: Time) -> Self {
        Span { lo: t, hi: t }
    }

    /// Intersection of two intervals (may be empty: `lo > hi`).
    #[must_use]
    pub fn intersect(self, other: Span) -> Span {
        Span {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Whether `t` lies in the interval.
    #[must_use]
    pub fn contains(&self, t: Time) -> bool {
        self.lo <= t && t <= self.hi
    }
}

/// One stored constancy segment, in cycles.
#[derive(Debug, Clone, Copy)]
struct Seg<V> {
    lo: u64,
    hi: u64,
    value: V,
}

/// A partially-materialised monotone step function: disjoint, sorted
/// constancy segments, filled in lazily as windows are visited.
///
/// Generic over the cached value so bounds sharing one event grid can be
/// stored together (the engine keeps the same-core interference and `BAS`
/// pair — both constant between the task's own higher-priority releases —
/// in a single `StepCurve<(u64, u64)>`: one lookup, one span, one insert).
#[derive(Debug, Clone)]
pub struct StepCurve<V = u64> {
    segs: Vec<Seg<V>>,
}

impl<V> Default for StepCurve<V> {
    fn default() -> Self {
        StepCurve::new()
    }
}

impl<V> StepCurve<V> {
    /// An empty curve (no segments materialised yet).
    #[must_use]
    pub const fn new() -> Self {
        StepCurve { segs: Vec::new() }
    }

    /// Drops every materialised segment (cache invalidation).
    pub fn clear(&mut self) {
        self.segs.clear();
    }

    /// Number of materialised segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segs.len()
    }

    /// Whether no segment has been materialised.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }
}

impl<V: Copy> StepCurve<V> {
    /// The cached value at window length `t`, if its segment has been
    /// materialised.
    #[must_use]
    pub fn lookup(&self, t: Time) -> Option<V> {
        let t = t.cycles();
        let idx = self.segs.partition_point(|s| s.lo <= t);
        if idx == 0 {
            return None;
        }
        let s = &self.segs[idx - 1];
        (t <= s.hi).then_some(s.value)
    }

    /// Stores `value` as constant on `span` (which must contain `t`, the
    /// window the value was computed at). The span is clipped against
    /// already-stored neighbours so segments stay disjoint and sorted.
    pub fn insert(&mut self, t: Time, span: Span, value: V) {
        debug_assert!(span.contains(t), "constancy span must contain its seed");
        let t = t.cycles();
        let mut lo = span.lo.cycles();
        let mut hi = span.hi.cycles();
        let idx = self.segs.partition_point(|s| s.lo <= t);
        if idx > 0 {
            lo = lo.max(self.segs[idx - 1].hi.saturating_add(1));
        }
        if idx < self.segs.len() {
            hi = hi.min(self.segs[idx].lo.saturating_sub(1));
        }
        if lo > hi {
            return;
        }
        self.segs.insert(idx, Seg { lo, hi, value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(c: u64) -> Time {
        Time::from_cycles(c)
    }

    #[test]
    fn lookup_hits_only_materialised_segments() {
        let mut c = StepCurve::new();
        assert!(c.is_empty());
        assert_eq!(c.lookup(t(5)), None);
        c.insert(t(5), Span { lo: t(3), hi: t(9) }, 42);
        assert_eq!(c.lookup(t(3)), Some(42));
        assert_eq!(c.lookup(t(5)), Some(42));
        assert_eq!(c.lookup(t(9)), Some(42));
        assert_eq!(c.lookup(t(2)), None);
        assert_eq!(c.lookup(t(10)), None);
        assert_eq!(c.segments(), 1);
    }

    #[test]
    fn insert_clips_against_neighbours() {
        let mut c = StepCurve::new();
        c.insert(t(5), Span { lo: t(0), hi: t(9) }, 1);
        c.insert(
            t(20),
            Span {
                lo: t(15),
                hi: t(30),
            },
            3,
        );
        // A span overlapping both neighbours is clipped to the gap.
        c.insert(
            t(12),
            Span {
                lo: t(4),
                hi: t(40),
            },
            2,
        );
        assert_eq!(c.lookup(t(9)), Some(1));
        assert_eq!(c.lookup(t(10)), Some(2));
        assert_eq!(c.lookup(t(14)), Some(2));
        assert_eq!(c.lookup(t(15)), Some(3));
        assert_eq!(c.segments(), 3);
    }

    #[test]
    fn clear_invalidates() {
        let mut c = StepCurve::new();
        c.insert(t(0), Span::point(t(0)), 7);
        assert_eq!(c.lookup(t(0)), Some(7));
        c.clear();
        assert_eq!(c.lookup(t(0)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn span_algebra() {
        let a = Span {
            lo: t(2),
            hi: t(10),
        };
        let b = Span {
            lo: t(5),
            hi: t(20),
        };
        let i = a.intersect(b);
        assert_eq!(
            i,
            Span {
                lo: t(5),
                hi: t(10)
            }
        );
        assert!(i.contains(t(5)) && i.contains(t(10)) && !i.contains(t(11)));
        assert!(Span::full().contains(t(u64::MAX)));
        assert_eq!(Span::point(t(4)), Span { lo: t(4), hi: t(4) });
    }
}
