//! OpenMetrics text exposition for `cpa-obs` counters and histograms.
//!
//! The exposition is a pure function of a [`MetricsSnapshot`]: snapshot
//! entries are already name-sorted, metric names are sanitized
//! deterministically, and histogram buckets expand to cumulative `le` series
//! with power-of-two upper bounds matching `cpa_obs::Histogram`'s bucketing
//! (bucket `b` covers `[2^(b-1), 2^b)`, so its inclusive upper bound is
//! `2^b - 1`). In [`ExportScope::Deterministic`] the scheduling meters
//! (chunk-claim and scratch-reuse counters, whose values depend on
//! the thread count and pool chunk size) are omitted so the bytes depend
//! only on the seed.

use crate::{is_scheduling_meter, ExportScope};
use cpa_obs::{Histogram, MetricsSnapshot};
use std::fmt::Write as _;

/// Renders the snapshot as an OpenMetrics text exposition, terminated by
/// `# EOF`.
#[must_use]
pub fn openmetrics(snapshot: &MetricsSnapshot, scope: ExportScope) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        if scope == ExportScope::Deterministic && is_scheduling_meter(name) {
            continue;
        }
        let metric = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric}_total {value}");
    }
    for (name, hist) in &snapshot.histograms {
        if scope == ExportScope::Deterministic && is_scheduling_meter(name) {
            continue;
        }
        write_histogram(&sanitize_metric_name(name), hist, &mut out);
    }
    out.push_str("# EOF\n");
    out
}

fn write_histogram(metric: &str, hist: &Histogram, out: &mut String) {
    let _ = writeln!(out, "# TYPE {metric} histogram");
    let mut cumulative = 0u64;
    for (b, &n) in hist.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        cumulative += n;
        // Bucket 0 holds exactly the value 0; bucket b>0 covers
        // [2^(b-1), 2^b), inclusive upper bound 2^b - 1 (saturating at the
        // top bucket, which holds everything up to u64::MAX).
        let le: u64 = if b == 0 {
            0
        } else if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        };
        let _ = writeln!(out, "{metric}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", hist.count);
    let _ = writeln!(out, "{metric}_sum {}", hist.sum);
    let _ = writeln!(out, "{metric}_count {}", hist.count);
}

/// Maps a dotted `cpa-obs` meter name onto the OpenMetrics name charset
/// (`[a-zA-Z0-9_:]`, not starting with a digit).
#[must_use]
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Structurally validates an OpenMetrics exposition: every line is a comment
/// or a `name{labels} value` sample, and the document ends with `# EOF`.
/// Returns the number of sample lines.
pub fn validate(exposition: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut saw_eof = false;
    for (lineno, line) in exposition.lines().enumerate() {
        if saw_eof {
            return Err(format!("line {}: content after # EOF", lineno + 1));
        }
        if line == "# EOF" {
            saw_eof = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let (name, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            if name.is_empty() || !matches!(kind, "counter" | "histogram" | "gauge") {
                return Err(format!("line {}: malformed TYPE line", lineno + 1));
            }
            continue;
        }
        let Some((name, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: expected `name value`", lineno + 1));
        };
        let bare = name.split('{').next().unwrap_or("");
        if bare.is_empty()
            || !bare
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: invalid metric name `{bare}`", lineno + 1));
        }
        if value.parse::<f64>().is_err() {
            return Err(format!(
                "line {}: invalid sample value `{value}`",
                lineno + 1
            ));
        }
        samples += 1;
    }
    if !saw_eof {
        return Err("missing # EOF terminator".to_string());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_render_as_total_samples() {
        let snapshot = MetricsSnapshot {
            counters: vec![("sim.runs".into(), 42)],
            histograms: vec![],
        };
        let text = openmetrics(&snapshot, ExportScope::Deterministic);
        assert_eq!(text, "# TYPE sim_runs counter\nsim_runs_total 42\n# EOF\n");
        assert_eq!(validate(&text), Ok(1));
    }

    #[test]
    fn deterministic_scope_drops_scheduling_meters() {
        let snapshot = MetricsSnapshot {
            counters: vec![("pool.chunks_claimed".into(), 9), ("sim.runs".into(), 1)],
            histograms: vec![],
        };
        let det = openmetrics(&snapshot, ExportScope::Deterministic);
        assert!(!det.contains("pool_chunks_claimed"));
        assert!(det.contains("sim_runs_total 1"));
        let full = openmetrics(&snapshot, ExportScope::Full);
        assert!(full.contains("pool_chunks_claimed_total 9"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_power_of_two_bounds() {
        let mut hist = Histogram::default();
        for v in [0u64, 1, 2, 3, 1000] {
            hist.record(v);
        }
        let snapshot = MetricsSnapshot {
            counters: vec![],
            histograms: vec![("sim.queue".into(), hist)],
        };
        let text = openmetrics(&snapshot, ExportScope::Deterministic);
        assert!(text.contains("sim_queue_bucket{le=\"0\"} 1"));
        assert!(text.contains("sim_queue_bucket{le=\"1\"} 2"));
        assert!(text.contains("sim_queue_bucket{le=\"3\"} 4"));
        assert!(text.contains("sim_queue_bucket{le=\"1023\"} 5"));
        assert!(text.contains("sim_queue_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("sim_queue_sum 1006"));
        assert!(text.contains("sim_queue_count 5"));
        assert_eq!(validate(&text), Ok(7));
    }

    #[test]
    fn sanitizer_covers_dots_and_leading_digits() {
        assert_eq!(
            sanitize_metric_name("wcrt.outer_cap_hits"),
            "wcrt_outer_cap_hits"
        );
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
    }

    #[test]
    fn validator_rejects_truncated_expositions() {
        assert!(validate("# TYPE x counter\nx_total 1\n").is_err());
        assert!(validate("x_total notanumber\n# EOF\n").is_err());
    }
}
