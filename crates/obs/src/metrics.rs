//! Counters, histograms, and the metrics snapshot they aggregate into.

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

/// Power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `b` covers values in `[2^(b-1), 2^b)` (bucket 0 holds exactly the
/// value 0), which keeps recording allocation-free and the snapshot encoding
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest recorded sample (meaningless when `count == 0`).
    pub min: u64,
    /// Largest recorded sample.
    pub max: u64,
    /// `buckets[b]` counts samples whose bucket index is `b`.
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

/// Bucket index for a sample: 0 for 0, otherwise `bit_length(value)`.
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Mean of the recorded samples, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0..=1.0`) of the recorded samples: the
    /// inclusive upper bound of the bucket holding the `ceil(q * count)`-th
    /// sample, clamped to the observed `[min, max]` range. Returns 0 when
    /// empty; exact whenever a bucket holds a single distinct value (so a
    /// single-sample histogram reports that sample at every quantile).
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                let upper = if b == 0 {
                    0
                } else if b >= 64 {
                    u64::MAX
                } else {
                    (1u64 << b) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Appends the JSON encoding (`{"count":..,"sum":..,"min":..,"max":..,
    /// "buckets":[[floor,count],..]}`) to `out`. Only non-empty buckets are
    /// encoded, as `[inclusive_lower_bound, count]` pairs.
    pub fn write_json(&self, out: &mut String) {
        let min = if self.count == 0 { 0 } else { self.min };
        let _ = write!(
            out,
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
            self.count, self.sum, min, self.max
        );
        let mut first = true;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let floor: u64 = if b == 0 { 0 } else { 1u64 << (b - 1) };
            let _ = write!(out, "[{floor},{n}]");
        }
        out.push_str("]}");
    }
}

/// Point-in-time copy of every registered counter and histogram.
///
/// Entries are sorted by name, so the JSON encoding of two snapshots taken at
/// the same logical point of two same-seed runs is identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every registered counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` for every registered histogram, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Counter-delta snapshot: every counter's value minus its value in
    /// `baseline` (saturating; counters absent from the baseline keep their
    /// full value). Histogram counts/sums/buckets are subtracted bucket-wise;
    /// `min`/`max` stay the cumulative values, since extrema cannot be
    /// un-recorded. This is what per-stage attribution
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
        let histograms = self
            .histograms
            .iter()
            .map(|(name, hist)| {
                let mut delta = hist.clone();
                if let Ok(i) = baseline
                    .histograms
                    .binary_search_by(|(n, _)| n.as_str().cmp(name))
                {
                    let base = &baseline.histograms[i].1;
                    delta.count = delta.count.saturating_sub(base.count);
                    delta.sum = delta.sum.saturating_sub(base.sum);
                    for (bucket, base_bucket) in delta.buckets.iter_mut().zip(&base.buckets) {
                        *bucket = bucket.saturating_sub(*base_bucket);
                    }
                }
                (name.clone(), delta)
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
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
        out.push_str("},\"histograms\":{");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(name, &mut out);
            out.push(':');
            hist.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot as aligned human-readable text.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name:width$}  {value}");
        }
        for (name, hist) in &self.histograms {
            let _ = writeln!(
                out,
                "{name:width$}  n={} mean={:.2} min={} max={}",
                hist.count,
                hist.mean(),
                if hist.count == 0 { 0 } else { hist.min },
                hist.max
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1034);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2..=3
        assert_eq!(h.buckets[3], 1); // 4..=7
        assert_eq!(h.buckets[11], 1); // 1024..=2047
        let mut json = String::new();
        h.write_json(&mut json);
        assert_eq!(
            json,
            "{\"count\":6,\"sum\":1034,\"min\":0,\"max\":1024,\
             \"buckets\":[[0,1],[1,1],[2,2],[4,1],[1024,1]]}"
        );
    }

    #[test]
    fn empty_histogram_exports_cleanly() {
        let h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(1.0), 0);
        let mut json = String::new();
        h.write_json(&mut json);
        assert_eq!(
            json,
            "{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]}"
        );
        let snapshot = MetricsSnapshot {
            counters: vec![],
            histograms: vec![("empty".into(), h)],
        };
        let text = snapshot.render_text();
        assert!(text.contains("n=0"), "render_text: {text}");
    }

    #[test]
    fn single_sample_percentiles_report_the_sample() {
        let mut h = Histogram::default();
        h.record(7);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 7, "q={q}");
        }
        let mut zero = Histogram::default();
        zero.record(0);
        assert_eq!(zero.percentile(0.5), 0);
    }

    #[test]
    fn bucket_boundary_values_land_in_the_right_bucket() {
        let mut h = Histogram::default();
        // Powers of two sit at the *lower* edge of their bucket: bucket b
        // covers [2^(b-1), 2^b).
        for v in [1u64, 2, 4, 8, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 1); // 2..=3
        assert_eq!(h.buckets[3], 1); // 4..=7
        assert_eq!(h.buckets[4], 1); // 8..=15
        assert_eq!(h.buckets[64], 1); // top bucket
        assert_eq!(h.percentile(1.0), u64::MAX);
        // p20 = 1st of 5 samples -> bucket 1, upper bound 1.
        assert_eq!(h.percentile(0.2), 1);
        // p40 = 2nd sample -> bucket 2, upper bound 3, clamped to [1, MAX].
        assert_eq!(h.percentile(0.4), 3);
    }

    #[test]
    fn counter_deltas_subtract_the_baseline() {
        let baseline = MetricsSnapshot {
            counters: vec![("a".into(), 10), ("b".into(), 5)],
            histograms: vec![],
        };
        let now = MetricsSnapshot {
            counters: vec![("a".into(), 17), ("b".into(), 5), ("c".into(), 3)],
            histograms: vec![],
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
    fn histogram_deltas_subtract_counts_and_buckets() {
        let mut before = Histogram::default();
        before.record(2);
        let mut after = before.clone();
        after.record(1024);
        after.record(3);
        let baseline = MetricsSnapshot {
            counters: vec![],
            histograms: vec![("h".into(), before)],
        };
        let now = MetricsSnapshot {
            counters: vec![],
            histograms: vec![("h".into(), after)],
        };
        let delta = now.delta_since(&baseline);
        let h = &delta.histograms[0].1;
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1027);
        assert_eq!(h.buckets[2], 1); // the new 3; the old 2 subtracted out
        assert_eq!(h.buckets[11], 1); // 1024
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let snapshot = MetricsSnapshot {
            counters: vec![("a.x".into(), 1), ("b.y".into(), 2)],
            histograms: vec![],
        };
        assert_eq!(
            snapshot.to_json(),
            "{\"counters\":{\"a.x\":1,\"b.y\":2},\"histograms\":{}}"
        );
    }
}
