//! Counters and the metrics snapshot they aggregate into.

use crate::json::write_json_string;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// A named monotonic counter.
///
/// Counters are **always on** — they are the one `cpa-obs` primitive that
/// records regardless of [`crate::events_enabled`] / [`crate::timing_enabled`],
/// because cheap cumulative totals are what progress reporting and `--metrics`
/// share (one `fetch_add` per increment, no locking). Obtain a handle once via
/// [`crate::counter`] and keep it; `Counter` is `Copy`.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    pub(crate) name: &'static str,
    pub(crate) cell: &'static AtomicU64,
}

impl Counter {
    /// The counter's registered name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Reads the current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Point-in-time copy of every registered counter.
///
/// Entries are sorted by name, so the JSON encoding of two snapshots taken at
/// the same logical point of two same-seed runs is identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every registered counter, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// Counter-delta snapshot: every counter's value minus its value in
    /// `baseline` (saturating; counters absent from the baseline keep their
    /// full value). This is what per-stage attribution
    /// (`cpa_telemetry::StageReport`) consumes.
    #[must_use]
    pub fn delta_since(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let base_counter = |name: &str| -> u64 {
            baseline
                .counters
                .binary_search_by(|(n, _)| n.as_str().cmp(name))
                .map(|i| baseline.counters[i].1)
                .unwrap_or(0)
        };
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), value.saturating_sub(base_counter(name))))
            .collect();
        MetricsSnapshot { counters }
    }

    /// Encodes the snapshot as a single JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(name, &mut out);
            let _ = write!(out, ":{value}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_deltas_subtract_the_baseline() {
        let baseline = MetricsSnapshot {
            counters: vec![("a".into(), 10), ("b".into(), 5)],
        };
        let now = MetricsSnapshot {
            counters: vec![("a".into(), 17), ("b".into(), 5), ("c".into(), 3)],
        };
        let delta = now.delta_since(&baseline);
        assert_eq!(
            delta.counters,
            vec![("a".into(), 7), ("b".into(), 0), ("c".into(), 3)]
        );
        // A snapshot is a zero delta of itself.
        let zero = now.delta_since(&now);
        assert!(zero.counters.iter().all(|(_, v)| *v == 0));
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let snapshot = MetricsSnapshot {
            counters: vec![("a.x".into(), 1), ("b.y".into(), 2)],
        };
        assert_eq!(snapshot.to_json(), "{\"counters\":{\"a.x\":1,\"b.y\":2}}");
    }
}
