//! OpenMetrics text exposition for `cpa-obs` counters.
//!
//! The exposition is a pure function of a [`MetricsSnapshot`]: snapshot
//! entries are already name-sorted and metric names are sanitized
//! deterministically. The scheduling meters (chunk-claim and scratch-reuse
//! counters, whose values depend on the thread count and pool chunk size)
//! are omitted, so the bytes depend only on the seed.

use crate::is_scheduling_meter;
use cpa_obs::MetricsSnapshot;
use std::fmt::Write as _;

/// Renders the snapshot as an OpenMetrics text exposition, terminated by
/// `# EOF`.
#[must_use]
pub fn openmetrics(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        if is_scheduling_meter(name) {
            continue;
        }
        let metric = sanitize_metric_name(name);
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric}_total {value}");
    }
    out.push_str("# EOF\n");
    out
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
        };
        let text = openmetrics(&snapshot);
        assert_eq!(text, "# TYPE sim_runs counter\nsim_runs_total 42\n# EOF\n");
        assert_eq!(validate(&text), Ok(1));
    }

    #[test]
    fn deterministic_scope_drops_scheduling_meters() {
        let snapshot = MetricsSnapshot {
            counters: vec![("pool.chunks_claimed".into(), 9), ("sim.runs".into(), 1)],
        };
        let text = openmetrics(&snapshot);
        assert!(!text.contains("pool_chunks_claimed"));
        assert!(text.contains("sim_runs_total 1"));
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
