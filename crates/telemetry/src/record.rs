//! Versioned bench records, the bench-trajectory history, and the regression
//! diff behind `cpa-trace bench diff`.
//!
//! Every bench gate (the five `BENCH_*.json` emitters) serializes one
//! [`BenchRecord`]: schema version, bench id, workload description, git
//! revision, date, harness config, informational metrics, **throughput**
//! entries (higher-is-better, the values the regression gate compares), gate
//! results, and an optional per-stage breakdown. Records append as JSON lines
//! to `results/bench_history.jsonl`, building a trajectory across PRs;
//! [`diff_records`] compares the latest record per bench and flags any
//! throughput entry that dropped by more than the threshold (default 15%).

use crate::json::{parse, JsonValue};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Current `BenchRecord` schema version.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Default relative throughput drop that counts as a regression.
pub const DEFAULT_REGRESSION_THRESHOLD: f64 = 0.15;

/// One gate evaluated by a bench harness.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// Gate label (e.g. `speedup_vs_reference`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Threshold the harness enforces.
    pub gate: f64,
    /// Whether the harness considered the gate passed.
    pub pass: bool,
}

/// One bench run, in the unified schema shared by all `BENCH_*.json` files
/// and `results/bench_history.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Stable bench id (`sim_engine`, `optimize`, `obs_overhead`).
    pub bench: String,
    /// Human description of the measured workload.
    pub workload: String,
    /// `git rev-parse --short=12 HEAD`, or `unknown` outside a checkout.
    pub git_rev: String,
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date: String,
    /// Harness configuration knobs, insertion-ordered.
    pub config: Vec<(String, JsonValue)>,
    /// Informational measurements (not diffed).
    pub metrics: Vec<(String, JsonValue)>,
    /// Higher-is-better throughput figures; `bench diff` compares these.
    pub throughput: Vec<(String, f64)>,
    /// Gate outcomes.
    pub gates: Vec<GateCheck>,
    /// Optional per-stage breakdown (see [`crate::StageReport::to_json_value`]).
    pub stages: Option<JsonValue>,
}

impl BenchRecord {
    /// Starts a record for `bench` measuring `workload`, stamped with the
    /// current git revision and date (overridable via `CPA_BENCH_GIT_REV` /
    /// `CPA_BENCH_DATE` for reproducible fixtures).
    #[must_use]
    pub fn new(bench: &str, workload: &str) -> Self {
        BenchRecord {
            schema: BENCH_SCHEMA_VERSION,
            bench: bench.to_string(),
            workload: workload.to_string(),
            git_rev: git_rev(),
            date: utc_date(),
            config: Vec::new(),
            metrics: Vec::new(),
            throughput: Vec::new(),
            gates: Vec::new(),
            stages: None,
        }
    }

    /// Adds a config knob.
    pub fn push_config(&mut self, key: &str, value: impl Into<JsonValue>) {
        self.config.push((key.to_string(), value.into()));
    }

    /// Adds an informational metric.
    pub fn push_metric(&mut self, key: &str, value: impl Into<JsonValue>) {
        self.metrics.push((key.to_string(), value.into()));
    }

    /// Adds a throughput figure (higher is better; diffed by `bench diff`).
    pub fn push_throughput(&mut self, key: &str, value: f64) {
        self.throughput.push((key.to_string(), value));
    }

    /// Adds a gate outcome.
    pub fn push_gate(&mut self, name: &str, value: f64, gate: f64, pass: bool) {
        self.gates.push(GateCheck {
            name: name.to_string(),
            value,
            gate,
            pass,
        });
    }

    /// Whether every recorded gate passed.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.gates.iter().all(|g| g.pass)
    }

    /// Encodes the record as a [`JsonValue`] with stable key order.
    #[must_use]
    pub fn to_json_value(&self) -> JsonValue {
        let pairs = |items: &[(String, JsonValue)]| JsonValue::Object(items.to_vec());
        let mut fields = vec![
            ("schema".to_string(), JsonValue::U64(self.schema)),
            ("bench".to_string(), JsonValue::from(self.bench.clone())),
            (
                "workload".to_string(),
                JsonValue::from(self.workload.clone()),
            ),
            ("git_rev".to_string(), JsonValue::from(self.git_rev.clone())),
            ("date".to_string(), JsonValue::from(self.date.clone())),
            ("config".to_string(), pairs(&self.config)),
            ("metrics".to_string(), pairs(&self.metrics)),
            (
                "throughput".to_string(),
                JsonValue::Object(
                    self.throughput
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::F64(*v)))
                        .collect(),
                ),
            ),
            (
                "gates".to_string(),
                JsonValue::Array(
                    self.gates
                        .iter()
                        .map(|g| {
                            JsonValue::Object(vec![
                                ("name".to_string(), JsonValue::from(g.name.clone())),
                                ("value".to_string(), JsonValue::F64(g.value)),
                                ("gate".to_string(), JsonValue::F64(g.gate)),
                                ("pass".to_string(), JsonValue::Bool(g.pass)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(stages) = &self.stages {
            fields.push(("stages".to_string(), stages.clone()));
        }
        JsonValue::Object(fields)
    }

    /// Encodes the record as a single-line JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Decodes a record from a parsed JSON value.
    pub fn from_json_value(value: &JsonValue) -> Result<BenchRecord, String> {
        let str_field = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("bench record missing string field `{key}`"))
        };
        let schema = value
            .get("schema")
            .and_then(JsonValue::as_u64)
            .ok_or("bench record missing `schema`")?;
        if schema > BENCH_SCHEMA_VERSION {
            return Err(format!(
                "bench record schema {schema} is newer than supported {BENCH_SCHEMA_VERSION}"
            ));
        }
        let object_pairs = |key: &str| -> Vec<(String, JsonValue)> {
            match value.get(key) {
                Some(JsonValue::Object(fields)) => fields.clone(),
                _ => Vec::new(),
            }
        };
        let throughput = match value.get("throughput") {
            Some(JsonValue::Object(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("non-numeric throughput entry `{k}`"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => Vec::new(),
        };
        let gates = match value.get("gates") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|g| {
                    Ok(GateCheck {
                        name: g
                            .get("name")
                            .and_then(JsonValue::as_str)
                            .ok_or("gate missing `name`")?
                            .to_string(),
                        value: g
                            .get("value")
                            .and_then(JsonValue::as_f64)
                            .ok_or("gate missing `value`")?,
                        gate: g
                            .get("gate")
                            .and_then(JsonValue::as_f64)
                            .ok_or("gate missing `gate`")?,
                        pass: g
                            .get("pass")
                            .and_then(JsonValue::as_bool)
                            .ok_or("gate missing `pass`")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => Vec::new(),
        };
        Ok(BenchRecord {
            schema,
            bench: str_field("bench")?,
            workload: str_field("workload")?,
            git_rev: str_field("git_rev")?,
            date: str_field("date")?,
            config: object_pairs("config"),
            metrics: object_pairs("metrics"),
            throughput,
            gates,
            stages: value.get("stages").cloned(),
        })
    }

    /// Parses a record from a JSON document.
    pub fn from_json(text: &str) -> Result<BenchRecord, String> {
        BenchRecord::from_json_value(&parse(text)?)
    }

    /// Writes the record (plus trailing newline) to `path`, replacing any
    /// existing file — the `BENCH_*.json` convention.
    pub fn write_json_file(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json()))
    }

    /// Appends the record as one JSON line to the history file at `path`,
    /// creating parent directories as needed.
    pub fn append_history(&self, path: &str) -> std::io::Result<()> {
        if let Some(parent) = Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(file, "{}", self.to_json())
    }
}

/// Loads bench records from `text`: either a JSON array of records or JSON
/// lines (one record per non-empty line) — `BENCH_*.json` files are a
/// one-line special case of the latter. Lines starting with `#` are
/// comments: baseline files use them to annotate re-baselining events
/// (when and why the reference numbers jumped).
pub fn parse_records(text: &str) -> Result<Vec<BenchRecord>, String> {
    let trimmed = text.trim_start();
    if trimmed.starts_with('[') {
        let doc = parse(text)?;
        let items = doc.as_array().ok_or("expected a JSON array")?;
        return items.iter().map(BenchRecord::from_json_value).collect();
    }
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let stripped = line.trim();
        if stripped.is_empty() || stripped.starts_with('#') {
            continue;
        }
        let record =
            BenchRecord::from_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        records.push(record);
    }
    if records.is_empty() {
        return Err("no bench records found".to_string());
    }
    Ok(records)
}

/// Reads and parses bench records from a file.
pub fn load_records(path: &str) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_records(&text).map_err(|e| format!("{path}: {e}"))
}

/// Keeps the latest record per bench id (last occurrence wins, matching
/// append-order history files).
#[must_use]
pub fn latest_per_bench(records: &[BenchRecord]) -> Vec<&BenchRecord> {
    let mut latest: Vec<&BenchRecord> = Vec::new();
    for record in records {
        if let Some(slot) = latest.iter_mut().find(|r| r.bench == record.bench) {
            *slot = record;
        } else {
            latest.push(record);
        }
    }
    latest
}

/// One compared throughput entry.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Bench id.
    pub bench: String,
    /// Throughput key.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (0.0 when the metric disappeared).
    pub current: f64,
    /// Whether the drop exceeds the threshold (or the metric disappeared).
    pub regressed: bool,
}

impl DiffEntry {
    /// Relative change, `current / baseline - 1`.
    #[must_use]
    pub fn change(&self) -> f64 {
        if self.baseline == 0.0 {
            0.0
        } else {
            self.current / self.baseline - 1.0
        }
    }
}

/// Result of diffing current records against a baseline.
#[derive(Debug, Clone, Default)]
pub struct BenchDiff {
    /// Relative-drop threshold used.
    pub threshold: f64,
    /// Compared entries, baseline order.
    pub entries: Vec<DiffEntry>,
    /// Bench ids present in the baseline but absent from the current set.
    pub missing_benches: Vec<String>,
    /// `bench/gate` labels for gates failing in the current records.
    pub failed_gates: Vec<String>,
    /// Violated `--min-speedup STAGE=K` floors (see
    /// [`BenchDiff::enforce_minimums`]).
    pub failed_minimums: Vec<String>,
}

impl BenchDiff {
    /// Entries that regressed.
    #[must_use]
    pub fn regressions(&self) -> Vec<&DiffEntry> {
        self.entries.iter().filter(|e| e.regressed).collect()
    }

    /// Whether the diff passes (no regressions, no missing benches, no
    /// failed gates, no violated minimums).
    #[must_use]
    pub fn pass(&self) -> bool {
        self.regressions().is_empty()
            && self.missing_benches.is_empty()
            && self.failed_gates.is_empty()
            && self.failed_minimums.is_empty()
    }

    /// Enforces declarative floors on the *current* records (the
    /// `bench diff --min-speedup STAGE=K` flag): for each `(name, bound)`
    /// pair the latest current record carrying a throughput entry or gate
    /// named `name` must report a value `≥ bound`. A missing name fails —
    /// a floor that silently stops being measured is not a passing floor.
    pub fn enforce_minimums(&mut self, current: &[BenchRecord], minimums: &[(String, f64)]) {
        let current = latest_per_bench(current);
        for (name, bound) in minimums {
            let mut found: Option<(&str, f64)> = None;
            for record in &current {
                if let Some((_, v)) = record.throughput.iter().find(|(k, _)| k == name) {
                    found = Some((&record.bench, *v));
                } else if let Some(g) = record.gates.iter().find(|g| &g.name == name) {
                    found = Some((&record.bench, g.value));
                }
            }
            match found {
                Some((_, value)) if value >= *bound => {}
                Some((bench, value)) => self.failed_minimums.push(format!(
                    "{bench}/{name}: {value:.3} below required minimum {bound}"
                )),
                None => self.failed_minimums.push(format!(
                    "{name}: not found in current records (required >= {bound})"
                )),
            }
        }
    }

    /// Renders the diff as an aligned text table plus a verdict line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:<28} {:>12} {:>12} {:>8}  verdict",
            "bench", "metric", "baseline", "current", "change"
        );
        for entry in &self.entries {
            let _ = writeln!(
                out,
                "{:<16} {:<28} {:>12.3} {:>12.3} {:>+7.1}%  {}",
                entry.bench,
                entry.metric,
                entry.baseline,
                entry.current,
                entry.change() * 100.0,
                if entry.regressed { "REGRESSED" } else { "ok" }
            );
        }
        for bench in &self.missing_benches {
            let _ = writeln!(out, "{bench:<16} (bench missing from current records)");
        }
        for gate in &self.failed_gates {
            let _ = writeln!(out, "gate failed in current records: {gate}");
        }
        for min in &self.failed_minimums {
            let _ = writeln!(out, "minimum violated: {min}");
        }
        let _ = writeln!(
            out,
            "verdict: {} ({} compared, {} regressed, threshold {:.0}%)",
            if self.pass() { "PASS" } else { "FAIL" },
            self.entries.len(),
            self.regressions().len(),
            self.threshold * 100.0
        );
        out
    }

    /// Encodes the diff as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                JsonValue::Object(vec![
                    ("bench".to_string(), JsonValue::from(e.bench.clone())),
                    ("metric".to_string(), JsonValue::from(e.metric.clone())),
                    ("baseline".to_string(), JsonValue::F64(e.baseline)),
                    ("current".to_string(), JsonValue::F64(e.current)),
                    ("change".to_string(), JsonValue::F64(e.change())),
                    ("regressed".to_string(), JsonValue::Bool(e.regressed)),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("threshold".to_string(), JsonValue::F64(self.threshold)),
            ("pass".to_string(), JsonValue::Bool(self.pass())),
            ("entries".to_string(), JsonValue::Array(entries)),
            (
                "missing_benches".to_string(),
                JsonValue::Array(
                    self.missing_benches
                        .iter()
                        .map(|b| JsonValue::from(b.clone()))
                        .collect(),
                ),
            ),
            (
                "failed_gates".to_string(),
                JsonValue::Array(
                    self.failed_gates
                        .iter()
                        .map(|g| JsonValue::from(g.clone()))
                        .collect(),
                ),
            ),
            (
                "failed_minimums".to_string(),
                JsonValue::Array(
                    self.failed_minimums
                        .iter()
                        .map(|m| JsonValue::from(m.clone()))
                        .collect(),
                ),
            ),
        ])
        .to_json()
    }
}

/// Diffs the latest current record per bench against the latest baseline
/// record per bench. A throughput entry regresses when
/// `current < baseline * (1 - threshold)`; a throughput key or whole bench
/// that disappeared also fails.
#[must_use]
pub fn diff_records(
    baseline: &[BenchRecord],
    current: &[BenchRecord],
    threshold: f64,
) -> BenchDiff {
    let baseline = latest_per_bench(baseline);
    let current = latest_per_bench(current);
    let mut diff = BenchDiff {
        threshold,
        ..BenchDiff::default()
    };
    for base in &baseline {
        let Some(cur) = current.iter().find(|r| r.bench == base.bench) else {
            diff.missing_benches.push(base.bench.clone());
            continue;
        };
        for (metric, base_value) in &base.throughput {
            let cur_value = cur
                .throughput
                .iter()
                .find(|(name, _)| name == metric)
                .map(|(_, v)| *v);
            let (cur_value, regressed) = match cur_value {
                Some(v) => (v, v < base_value * (1.0 - threshold)),
                None => (0.0, true),
            };
            diff.entries.push(DiffEntry {
                bench: base.bench.clone(),
                metric: metric.clone(),
                baseline: *base_value,
                current: cur_value,
                regressed,
            });
        }
    }
    for record in &current {
        for gate in &record.gates {
            if !gate.pass {
                diff.failed_gates
                    .push(format!("{}/{}", record.bench, gate.name));
            }
        }
    }
    diff
}

/// Parses one `--min-speedup` spec of the form `STAGE=K` (e.g.
/// `fig2_fp_panel_speedup=5.0`) into a `(name, bound)` pair for
/// [`BenchDiff::enforce_minimums`].
pub fn parse_min_speedup(spec: &str) -> Result<(String, f64), String> {
    let (name, bound) = spec
        .split_once('=')
        .ok_or_else(|| format!("--min-speedup expects STAGE=K, got `{spec}`"))?;
    let name = name.trim();
    if name.is_empty() {
        return Err(format!("--min-speedup expects STAGE=K, got `{spec}`"));
    }
    let bound: f64 = bound
        .trim()
        .parse()
        .map_err(|_| format!("--min-speedup expects a numeric bound, got `{spec}`"))?;
    if !bound.is_finite() {
        return Err(format!("--min-speedup bound must be finite, got `{spec}`"));
    }
    Ok((name.to_string(), bound))
}

/// Resolves the git revision for bench stamping. Honors `CPA_BENCH_GIT_REV`
/// (used by fixtures), falls back to `git rev-parse`, then `"unknown"`.
#[must_use]
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("CPA_BENCH_GIT_REV") {
        return rev;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Current UTC date as `YYYY-MM-DD`. Honors `CPA_BENCH_DATE` for fixtures.
#[must_use]
pub fn utc_date() -> String {
    if let Ok(date) = std::env::var("CPA_BENCH_DATE") {
        return date;
    }
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    civil_from_epoch_secs(secs)
}

/// Converts Unix seconds to a `YYYY-MM-DD` UTC date (Howard Hinnant's
/// `civil_from_days`).
#[must_use]
pub fn civil_from_epoch_secs(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(bench: &str, throughput: &[(&str, f64)]) -> BenchRecord {
        let mut r = BenchRecord::new(bench, "test workload");
        r.git_rev = "abc123".to_string();
        r.date = "2026-01-01".to_string();
        for (k, v) in throughput {
            r.push_throughput(k, *v);
        }
        r
    }

    #[test]
    fn record_round_trips_through_json() {
        let mut r = record("analysis_engine", &[("speedup", 2.5)]);
        r.push_config("sets", JsonValue::U64(25));
        r.push_metric("tasks", JsonValue::U64(400));
        r.push_gate("speedup", 2.5, 2.0, true);
        r.stages = Some(JsonValue::Object(vec![(
            "total_nanos".to_string(),
            JsonValue::U64(7),
        )]));
        let parsed = BenchRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        assert!(parsed.pass());
    }

    #[test]
    fn rejects_newer_schema_and_garbage() {
        assert!(BenchRecord::from_json("{\"schema\":999,\"bench\":\"x\"}").is_err());
        assert!(BenchRecord::from_json("not json").is_err());
        assert!(BenchRecord::from_json("{}").is_err());
    }

    #[test]
    fn history_keeps_last_record_per_bench() {
        let records = vec![
            record("a", &[("t", 1.0)]),
            record("b", &[("t", 5.0)]),
            record("a", &[("t", 2.0)]),
        ];
        let latest = latest_per_bench(&records);
        assert_eq!(latest.len(), 2);
        assert_eq!(latest[0].throughput[0].1, 2.0);
    }

    #[test]
    fn diff_flags_large_drops_only() {
        let baseline = vec![record("a", &[("t", 100.0), ("u", 10.0)])];
        let current = vec![record("a", &[("t", 90.0), ("u", 8.0)])];
        let diff = diff_records(&baseline, &current, 0.15);
        assert_eq!(diff.entries.len(), 2);
        assert!(!diff.entries[0].regressed, "-10% is within threshold");
        assert!(diff.entries[1].regressed, "-20% exceeds threshold");
        assert!(!diff.pass());
        assert!(diff.render_text().contains("REGRESSED"));
    }

    #[test]
    fn diff_fails_on_missing_bench_metric_or_gate() {
        let baseline = vec![record("a", &[("t", 1.0)]), record("b", &[("t", 1.0)])];
        let mut cur_a = record("a", &[]);
        cur_a.push_gate("dominance", 0.0, 1.0, false);
        let diff = diff_records(&baseline, &[cur_a], 0.15);
        assert_eq!(diff.missing_benches, vec!["b".to_string()]);
        assert_eq!(diff.entries.len(), 1);
        assert!(diff.entries[0].regressed, "missing metric regresses");
        assert_eq!(diff.failed_gates, vec!["a/dominance".to_string()]);
        assert!(!diff.pass());
    }

    #[test]
    fn identical_records_pass() {
        let baseline = vec![record("a", &[("t", 3.0)])];
        let diff = diff_records(&baseline, &baseline, 0.15);
        assert!(diff.pass());
        let doc = parse(&diff.to_json()).unwrap();
        assert_eq!(doc.get("pass").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parse_records_accepts_jsonl_and_arrays() {
        let a = record("a", &[("t", 1.0)]).to_json();
        let b = record("b", &[("t", 2.0)]).to_json();
        let jsonl = format!("{a}\n{b}\n");
        assert_eq!(parse_records(&jsonl).unwrap().len(), 2);
        let array = format!("[{a},{b}]");
        assert_eq!(parse_records(&array).unwrap().len(), 2);
        assert!(parse_records("").is_err());
        assert!(parse_records("{\"schema\":1}\n").is_err());
    }

    #[test]
    fn parse_records_skips_comment_lines() {
        let a = record("a", &[("t", 1.0)]).to_json();
        let text = format!(
            "# re-baselined 2026-08-09: warm-start engine landed\n{a}\n  # indented comment\n"
        );
        let records = parse_records(&text).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].bench, "a");
        assert!(parse_records("# only comments\n").is_err());
    }

    #[test]
    fn min_speedup_specs_parse_and_enforce() {
        assert_eq!(
            parse_min_speedup("stage=2.5").unwrap(),
            ("stage".to_string(), 2.5)
        );
        assert!(parse_min_speedup("no-equals").is_err());
        assert!(parse_min_speedup("=3").is_err());
        assert!(parse_min_speedup("stage=abc").is_err());

        let mut rec = record("sweep_e2e", &[("sets_per_sec", 100.0)]);
        rec.push_gate("fig2_fp_panel_speedup", 3.0, 1.5, true);
        let current = vec![rec];
        // Throughput floor met, gate floor met.
        let mut diff = BenchDiff::default();
        diff.enforce_minimums(
            &current,
            &[
                ("sets_per_sec".to_string(), 90.0),
                ("fig2_fp_panel_speedup".to_string(), 2.0),
            ],
        );
        assert!(diff.pass(), "{:?}", diff.failed_minimums);
        // Gate floor violated.
        let mut diff = BenchDiff::default();
        diff.enforce_minimums(&current, &[("fig2_fp_panel_speedup".to_string(), 5.0)]);
        assert_eq!(diff.failed_minimums.len(), 1);
        assert!(!diff.pass());
        assert!(diff.render_text().contains("minimum violated"));
        assert!(diff.to_json().contains("failed_minimums"));
        // Missing metric fails.
        let mut diff = BenchDiff::default();
        diff.enforce_minimums(&current, &[("nonexistent".to_string(), 1.0)]);
        assert!(!diff.pass());
    }

    #[test]
    fn civil_dates_are_correct() {
        assert_eq!(civil_from_epoch_secs(0), "1970-01-01");
        assert_eq!(civil_from_epoch_secs(951_782_400), "2000-02-29");
        assert_eq!(civil_from_epoch_secs(1_754_697_600), "2025-08-09");
    }
}
