//! `cpa-telemetry`: deterministic exporters and per-stage attribution over
//! [`cpa-obs`](cpa_obs).
//!
//! Two layers (see DESIGN.md §14):
//!
//! * **Exporters** — [`chrome_trace`] renders the structured event stream and
//!   span-tree self-profile as a Chrome Trace Event / Perfetto JSON document;
//!   [`openmetrics`] renders counters and histograms as an OpenMetrics text
//!   exposition. In [`ExportScope::Deterministic`] both are byte-identical
//!   for the same seed at any `--threads`/`--chunk` setting.
//! * **Stage attribution** — [`StageReport`] folds a counter-delta snapshot
//!   and the self-profile into per-pipeline-stage rows (wall time, calls,
//!   work items, throughput), the breakdown shown by `cpa-trace`.
//!
//! The [`json`] module's value type also prints the one-line verdicts of
//! the two guard binaries, `obs_overhead` and `sim_speedup`.
//!
//! ## Determinism contract
//!
//! Events are deterministic by construction (the `(scope, seq)` canonical
//! order), but two meter families are **scheduling artifacts**: counters that
//! measure the worker pool itself ([`SCHEDULING_METERS`] — chunk claims,
//! steals, scratch reuses vary with `--threads`/`--chunk`), and `pool.*`
//! spans (chunk counts vary with `--chunk`). Deterministic exports drop the
//! former and hoist the latter, and never carry wall-clock values; the span
//! timeline uses logical call-count ticks instead. [`ExportScope::Full`]
//! keeps everything (and is correspondingly not byte-stable).
//!
//! Like `cpa-obs`, this crate has no external dependencies.

mod chrome;
pub mod json;
mod openmetrics;
mod stage;

pub use chrome::chrome_trace;
pub use json::{parse as parse_json, JsonValue};
pub use openmetrics::{openmetrics, sanitize_metric_name, validate as validate_openmetrics};
pub use stage::{
    stage_for_counter, stage_for_span, StageReport, StageRow, StageSpec, PIPELINE_STAGES,
};

/// How much of the observed state an export includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExportScope {
    /// Only seed-deterministic meters: byte-identical output across thread
    /// counts and chunk sizes for the same seed.
    #[default]
    Deterministic,
    /// Everything, including scheduling meters and wall-clock nanoseconds.
    Full,
}

/// Counters whose values depend on scheduling (`--threads`/`--chunk`), not on
/// the workload: excluded from deterministic exports. Buffer recycling
/// counts depend on how many items each worker claimed.
pub const SCHEDULING_METERS: &[&str] = &[
    "analysis.context_recycles",
    "engine.scratch_reuses",
    "pool.chunks_claimed",
    "pool.chunks_stolen",
];

/// Whether a counter/histogram name is a scheduling artifact.
#[must_use]
pub fn is_scheduling_meter(name: &str) -> bool {
    SCHEDULING_METERS.contains(&name)
}

/// Whether a span name is a scheduling artifact (the pool's chunk machinery —
/// its call counts depend on `--chunk`).
#[must_use]
pub fn is_scheduling_span(name: &str) -> bool {
    name.starts_with("pool.")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduling_meter_classification() {
        assert!(is_scheduling_meter("pool.chunks_claimed"));
        assert!(is_scheduling_meter("engine.scratch_reuses"));
        assert!(is_scheduling_meter("analysis.context_recycles"));
        assert!(!is_scheduling_meter("experiments.sets_evaluated"));
        assert!(!is_scheduling_meter("optimize.audsley_probes"));
        assert!(!is_scheduling_meter("engine.curve_hit"));
        assert!(!is_scheduling_meter("pool.items"));
        assert!(!is_scheduling_meter("sim.runs"));
        assert!(is_scheduling_span("pool.chunk"));
        assert!(!is_scheduling_span("wcrt.analyze"));
    }
}
