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
//! ## Determinism contract
//!
//! Events are deterministic by construction (the `(scope, seq)` canonical
//! order), but counters that measure the worker pool itself
//! ([`SCHEDULING_METERS`] — chunk claims, steals, scratch reuses vary with
//! `--threads`/`--chunk`) are **scheduling artifacts**. Deterministic
//! exports drop them and never carry wall-clock values; the span timeline
//! uses logical call-count ticks instead. [`ExportScope::Full`] keeps
//! everything (and is correspondingly not byte-stable).
//!
//! Like `cpa-obs`, this crate has no external dependencies: every export is
//! written with `cpa-obs`'s one JSON writer. Its tests read the exports
//! back with the vendored `serde_json`, a dev-dependency only.

mod chrome;
mod openmetrics;
mod stage;

pub use chrome::chrome_trace;
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
        assert!(!is_scheduling_meter("engine.bao_hit"));
        assert!(!is_scheduling_meter("pool.items"));
        assert!(!is_scheduling_meter("sim.runs"));
    }
}
