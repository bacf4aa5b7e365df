//! The traced event stream of a pooled sweep is byte-identical across
//! worker counts: every event is stamped with a `(scope, seq)` key where
//! the scope is `cpa_pool::scope_key(epoch, set)` — assigned per task set,
//! not per worker — so the drained, canonically-sorted stream does not
//! depend on how the pool interleaved its chunks.
//!
//! This lives in its own integration-test binary (single test) because it
//! toggles the process-wide `cpa-obs` subscriber and rewinds the global
//! scope-epoch allocator with `cpa_obs::reset()`.

use cpa_analysis::{AnalysisConfig, BusPolicy, CrpdApproach, PersistenceMode};
use cpa_experiments::runner::{evaluate_population, Evaluation};
use cpa_experiments::SweepOptions;
use cpa_workload::GeneratorConfig;

fn traced_sweep(threads: usize) -> String {
    cpa_obs::reset();
    cpa_obs::enable();
    let gen = GeneratorConfig::paper_default().with_per_core_utilization(0.4);
    let configs = [
        AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware),
        AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Oblivious),
    ];
    let opts = SweepOptions::quick()
        .with_sets_per_point(8)
        .with_seed(0xFEED)
        .with_threads(threads);
    let evaluation = Evaluation::new(gen.d_mem, CrpdApproach::EcbUnion, configs.to_vec());
    let point = evaluate_population(&gen, &[evaluation], &opts, 1).remove(0);
    cpa_obs::disable();
    assert_eq!(point.config(0).samples(), 8);
    cpa_obs::events_to_json_lines(&cpa_obs::take_events())
}

#[test]
fn sweep_event_stream_bytes_are_worker_count_invariant() {
    let single = traced_sweep(1);
    let parallel = traced_sweep(4);
    assert!(!single.is_empty(), "traced sweep produced no events");
    assert!(
        single.lines().any(|l| l.contains("wcrt.")),
        "expected per-analysis events in the stream"
    );
    assert_eq!(
        single, parallel,
        "same seed must produce byte-identical traces across worker counts"
    );
}
