//! Per-stage pipeline attribution.
//!
//! A [`StageReport`] folds the span-tree self-profile and a counter-delta
//! snapshot into the pipeline phases of a run — workload generation,
//! cache/CFG extraction, context (CRPD/CPRO table) fill, the analysis fixed
//! point, simulation, oracle/shrink validation, candidate assembly,
//! optimizer moves, and the optimizer result cache — answering
//! "where did the time go and how fast was each stage" in one table.
//!
//! Attribution is prefix-driven: every profile node contributes its **self**
//! wall time to the first [`StageSpec`] whose span prefix matches the node
//! name, and every positive counter delta lands in the first stage whose
//! counter prefix matches. Unmatched time/counters fall into the `other` row,
//! so the table always sums to the observed total.

use cpa_obs::json::{write_json_f64, write_json_string};
use cpa_obs::{format_nanos, MetricsSnapshot, ProfileNode};
use std::fmt::Write as _;

/// One pipeline stage: its display name and the meter-name prefixes that
/// attribute spans and counters to it.
#[derive(Debug, Clone, Copy)]
pub struct StageSpec {
    /// Stage label used in tables and JSON.
    pub name: &'static str,
    /// Span-name prefixes whose self time belongs to this stage.
    pub span_prefixes: &'static [&'static str],
    /// Counter-name prefixes whose deltas belong to this stage.
    pub counter_prefixes: &'static [&'static str],
    /// The counter whose delta is this stage's unit of work (drives the
    /// throughput column), if it has a natural one.
    pub work_counter: Option<&'static str>,
}

/// The pipeline stages, in attribution order (first matching prefix wins, so
/// the more specific `analysis.context`, `optimize.cache` and
/// `optimize.assemble` rows precede the general `analysis.` and `optimize.`
/// rows).
pub const PIPELINE_STAGES: &[StageSpec] = &[
    StageSpec {
        name: "workload-gen",
        span_prefixes: &["workload."],
        counter_prefixes: &["workload."],
        work_counter: Some("workload.sets_generated"),
    },
    StageSpec {
        name: "extraction",
        span_prefixes: &["cfg.", "cache."],
        counter_prefixes: &["cfg.", "cache."],
        work_counter: None,
    },
    StageSpec {
        name: "context",
        span_prefixes: &["analysis.context"],
        counter_prefixes: &["analysis.context"],
        work_counter: None,
    },
    StageSpec {
        name: "analysis",
        span_prefixes: &["wcrt."],
        counter_prefixes: &["wcrt.", "engine.", "analysis."],
        work_counter: Some("engine.tasks_solved"),
    },
    StageSpec {
        name: "simulation",
        span_prefixes: &["sim."],
        counter_prefixes: &["sim."],
        work_counter: Some("sim.runs"),
    },
    StageSpec {
        name: "oracle-shrink",
        span_prefixes: &["oracle.", "shrink.", "campaign."],
        counter_prefixes: &["oracle.", "shrink.", "campaign."],
        work_counter: Some("campaign.checked_sets"),
    },
    StageSpec {
        name: "result-cache",
        span_prefixes: &["optimize.cache"],
        counter_prefixes: &["optimize.cache_"],
        work_counter: Some("optimize.cache_hits"),
    },
    StageSpec {
        name: "assembly",
        span_prefixes: &["optimize.assemble"],
        counter_prefixes: &[],
        work_counter: None,
    },
    StageSpec {
        name: "optimizer",
        span_prefixes: &["optimize."],
        counter_prefixes: &["optimize."],
        work_counter: Some("optimize.candidates"),
    },
    StageSpec {
        name: "sweep-driver",
        span_prefixes: &["experiments."],
        counter_prefixes: &["experiments."],
        work_counter: Some("experiments.sets_evaluated"),
    },
    StageSpec {
        name: "pool",
        span_prefixes: &["pool."],
        counter_prefixes: &["pool."],
        work_counter: Some("pool.items"),
    },
];

/// Aggregated activity of one pipeline stage.
#[derive(Debug, Clone, Default)]
pub struct StageRow {
    /// Stage label (one of [`PIPELINE_STAGES`], or `"other"`).
    pub stage: &'static str,
    /// Self wall time attributed to the stage, in nanoseconds.
    pub wall_nanos: u64,
    /// Completed span executions attributed to the stage.
    pub calls: u64,
    /// Work-unit count (delta of the stage's work counter).
    pub work_items: u64,
    /// Positive counter deltas attributed to the stage, name-sorted.
    pub counters: Vec<(String, u64)>,
}

impl StageRow {
    /// Work items per second of attributed wall time, when both are known.
    #[must_use]
    pub fn throughput_per_s(&self) -> Option<f64> {
        if self.work_items > 0 && self.wall_nanos > 0 {
            Some(self.work_items as f64 * 1e9 / self.wall_nanos as f64)
        } else {
            None
        }
    }

    fn is_active(&self) -> bool {
        self.wall_nanos > 0 || self.calls > 0 || self.work_items > 0 || !self.counters.is_empty()
    }
}

/// The per-stage breakdown of a run: one row per active stage plus `other`.
#[derive(Debug, Clone, Default)]
pub struct StageReport {
    /// Active stages, in pipeline order; `other` last when non-empty.
    pub rows: Vec<StageRow>,
    /// Total profiled wall time (sum of all span self times).
    pub total_nanos: u64,
}

impl StageReport {
    /// Builds a report from a counter-delta snapshot and a span-tree profile.
    #[must_use]
    pub fn from_parts(delta: &MetricsSnapshot, profile: &ProfileNode) -> StageReport {
        let mut rows: Vec<StageRow> = PIPELINE_STAGES
            .iter()
            .map(|spec| StageRow {
                stage: spec.name,
                ..StageRow::default()
            })
            .collect();
        let mut other = StageRow {
            stage: "other",
            ..StageRow::default()
        };
        let mut total_nanos = 0u64;
        attribute_spans(profile, true, &mut rows, &mut other, &mut total_nanos);
        for (name, value) in &delta.counters {
            if *value == 0 {
                continue;
            }
            let row = match stage_for_counter(name) {
                Some(i) => &mut rows[i],
                None => &mut other,
            };
            row.counters.push((name.clone(), *value));
        }
        for (i, spec) in PIPELINE_STAGES.iter().enumerate() {
            if let Some(work) = spec.work_counter {
                rows[i].work_items = delta
                    .counters
                    .iter()
                    .find(|(name, _)| name == work)
                    .map_or(0, |(_, v)| *v);
            }
        }
        let mut rows: Vec<StageRow> = rows.into_iter().filter(StageRow::is_active).collect();
        if other.is_active() {
            rows.push(other);
        }
        StageReport { rows, total_nanos }
    }

    /// Renders the breakdown as an aligned text table.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let total = self.total_nanos.max(1);
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>6} {:>10} {:>12} {:>12}",
            "stage", "wall", "%", "calls", "items", "items/s"
        );
        for row in &self.rows {
            let throughput = row
                .throughput_per_s()
                .map_or_else(|| "-".to_string(), format_rate);
            let _ = writeln!(
                out,
                "{:<14} {:>10} {:>5.1}% {:>10} {:>12} {:>12}",
                row.stage,
                format_nanos(row.wall_nanos),
                100.0 * row.wall_nanos as f64 / total as f64,
                row.calls,
                row.work_items,
                throughput
            );
        }
        let _ = writeln!(
            out,
            "total wall (self times): {}",
            format_nanos(self.total_nanos)
        );
        out
    }

    /// Encodes the report as a standalone JSON document (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"total_nanos\":{},\"stages\":[", self.total_nanos);
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"stage\":");
            write_json_string(row.stage, &mut out);
            let _ = write!(
                out,
                ",\"wall_nanos\":{},\"calls\":{},\"items\":{}",
                row.wall_nanos, row.calls, row.work_items
            );
            if let Some(rate) = row.throughput_per_s() {
                out.push_str(",\"items_per_s\":");
                write_json_f64(rate, &mut out);
            }
            out.push_str(",\"counters\":{");
            for (j, (name, value)) in row.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_json_string(name, &mut out);
                let _ = write!(out, ":{value}");
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

fn attribute_spans(
    node: &ProfileNode,
    is_root: bool,
    rows: &mut [StageRow],
    other: &mut StageRow,
    total_nanos: &mut u64,
) {
    if !is_root {
        let self_nanos = node.self_nanos();
        *total_nanos += self_nanos;
        let row = match stage_for_span(&node.name) {
            Some(i) => &mut rows[i],
            None => other,
        };
        row.wall_nanos += self_nanos;
        row.calls += node.calls;
    }
    for child in &node.children {
        attribute_spans(child, false, rows, other, total_nanos);
    }
}

/// Index of the first stage whose span prefixes match `name`.
#[must_use]
pub fn stage_for_span(name: &str) -> Option<usize> {
    PIPELINE_STAGES.iter().position(|spec| {
        spec.span_prefixes
            .iter()
            .any(|prefix| name.starts_with(prefix))
    })
}

/// Index of the first stage whose counter prefixes match `name`.
#[must_use]
pub fn stage_for_counter(name: &str) -> Option<usize> {
    PIPELINE_STAGES.iter().position(|spec| {
        spec.counter_prefixes
            .iter()
            .any(|prefix| name.starts_with(prefix))
    })
}

fn format_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2}M/s", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.2}k/s", rate / 1e3)
    } else {
        format!("{rate:.1}/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta_fixture() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("engine.tasks_solved".into(), 200),
                ("optimize.cache_hits".into(), 7),
                ("optimize.candidates".into(), 50),
                ("sim.runs".into(), 12),
                ("unmapped.counter".into(), 3),
                ("wcrt.outer_cap_hits".into(), 0),
            ],
        }
    }

    fn profile_fixture() -> ProfileNode {
        let mut root = ProfileNode::new("");
        root.record(&["pool.chunk", "wcrt.analyze"], 1_000);
        root.record(&["pool.chunk", "wcrt.analyze", "wcrt.bracket"], 400);
        root.record(&["sim.run"], 500);
        root.record(&["mystery.step"], 250);
        root
    }

    #[test]
    fn cache_counters_outrank_the_general_optimizer_row() {
        assert_eq!(
            stage_for_counter("optimize.cache_hits").map(|i| PIPELINE_STAGES[i].name),
            Some("result-cache")
        );
        assert_eq!(
            stage_for_counter("optimize.candidates").map(|i| PIPELINE_STAGES[i].name),
            Some("optimizer")
        );
    }

    #[test]
    fn context_and_assembly_spans_outrank_their_general_rows() {
        let stage_of = |span| stage_for_span(span).map(|i| PIPELINE_STAGES[i].name);
        assert_eq!(stage_of("analysis.context"), Some("context"));
        assert_eq!(stage_of("wcrt.analyze"), Some("analysis"));
        assert_eq!(stage_of("wcrt.certify"), Some("analysis"));
        assert_eq!(stage_of("optimize.assemble"), Some("assembly"));
        assert_eq!(stage_of("optimize.cache"), Some("result-cache"));
        assert_eq!(stage_of("optimize.search"), Some("optimizer"));
    }

    #[test]
    fn report_attributes_spans_counters_and_work() {
        let report = StageReport::from_parts(&delta_fixture(), &profile_fixture());
        let analysis = report.rows.iter().find(|r| r.stage == "analysis").unwrap();
        // wcrt.analyze self = 1000 - 400 (child) = 600, plus wcrt.bracket 400.
        assert_eq!(analysis.wall_nanos, 1_000);
        assert_eq!(analysis.calls, 2);
        assert_eq!(analysis.work_items, 200);
        assert!(analysis.throughput_per_s().unwrap() > 0.0);

        let cache = report
            .rows
            .iter()
            .find(|r| r.stage == "result-cache")
            .unwrap();
        assert_eq!(cache.work_items, 7);
        assert_eq!(cache.counters, vec![("optimize.cache_hits".to_string(), 7)]);

        // pool.chunk self time (0 here) and the unmatched span/counter land in
        // `other`; zero-delta counters are dropped.
        let other = report.rows.iter().find(|r| r.stage == "other").unwrap();
        assert_eq!(other.wall_nanos, 250);
        assert_eq!(other.counters, vec![("unmapped.counter".to_string(), 3)]);
        assert!(!report
            .rows
            .iter()
            .any(|r| r.counters.iter().any(|(n, _)| n == "wcrt.outer_cap_hits")));

        assert_eq!(report.total_nanos, 1_750);
    }

    #[test]
    fn empty_inputs_produce_an_empty_report() {
        let report = StageReport::from_parts(&MetricsSnapshot::default(), &ProfileNode::new(""));
        assert!(report.rows.is_empty());
        assert_eq!(report.total_nanos, 0);
        assert_eq!(report.to_json(), "{\"total_nanos\":0,\"stages\":[]}");
    }

    #[test]
    fn json_encoding_is_stable_and_parses() {
        let report = StageReport::from_parts(&delta_fixture(), &profile_fixture());
        let doc: serde_json::Value = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(doc.get("total_nanos").unwrap().as_u64(), Some(1_750));
        let stages = doc.get("stages").unwrap().as_seq().unwrap();
        assert!(stages.len() >= 4);
        let analysis = stages
            .iter()
            .find(|s| s.get("stage").and_then(serde_json::Value::as_str) == Some("analysis"))
            .unwrap();
        let keys: Vec<&str> = analysis
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "stage",
                "wall_nanos",
                "calls",
                "items",
                "items_per_s",
                "counters"
            ]
        );
        assert_eq!(
            analysis.get("counters").unwrap().get("engine.tasks_solved"),
            Some(&serde_json::Value::U64(200))
        );
    }
}
