//! End-to-end sweep benchmark: the pooled, scratch-recycling evaluation
//! path ([`evaluate_point`]) against the pre-refactor reference
//! ([`evaluate_point_reference`]: static worker striping, per-pair
//! O(n³) context fill, one fresh scratch per analysis) on the Fig. 2
//! fixed-priority panel workload.
//!
//! Hand-rolled harness (like `analysis_engine`) rather than criterion's,
//! because this bench is also a CI gate: it writes the measured numbers to
//! `BENCH_e2e.json` and exits non-zero unless the pooled path is at least
//! [`SPEEDUP_GATE`]× faster end to end — the PR's headline acceptance
//! criterion. Both paths are cross-checked for agreement while
//! benchmarking, so a speedup obtained by diverging from the reference
//! semantics fails loudly here too.
//!
//! Both paths run on one worker thread: the gate measures the
//! algorithmic wins (incremental context fill, scratch reuse), not
//! parallel scaling, so it holds on single-core CI machines.

use std::hint::black_box;
use std::time::Instant;

use cpa_analysis::{AnalysisConfig, BusPolicy, CrpdApproach, PersistenceMode};
use cpa_experiments::runner::{evaluate_point, evaluate_point_reference, PointStats};
use cpa_experiments::SweepOptions;
use cpa_telemetry::{BenchRecord, JsonValue};
use cpa_workload::GeneratorConfig;

/// The Fig. 2 sweep's utilization grid, reduced to the span where the
/// analysis does real work (low = trivially schedulable, high = mostly
/// deadline misses; both paths are exercised).
const UTILS: &[f64] = &[0.3, 0.5, 0.7];
/// Task sets per utilization point.
const SETS_PER_POINT: usize = 16;
/// Required end-to-end speedup of the pooled path (the acceptance gate).
///
/// Honest number, measured, not aspirational: the incremental context
/// fill and scratch recycling together hold
/// ~2.0–2.2× end to end on a single-core CI machine (both legs share the
/// same analysis engine, so engine-level wins cancel out of the ratio —
/// this gate isolates the runner-level work). Pinned below the typical
/// measurement to absorb shared-machine noise that the paired-ratio
/// timing cannot.
const SPEEDUP_GATE: f64 = 1.8;

/// The Fig. 2 fixed-priority panel's configuration triple.
fn panel_configs() -> [AnalysisConfig; 3] {
    [
        AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware),
        AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Oblivious),
        AnalysisConfig::new(BusPolicy::Perfect, PersistenceMode::Aware),
    ]
}

fn main() {
    // `cargo bench` passes flags like `--bench`; this harness ignores them.
    let configs = panel_configs();
    let opts = SweepOptions::paper()
        .with_sets_per_point(SETS_PER_POINT)
        .with_threads(1);
    let points: Vec<(u64, GeneratorConfig)> = UTILS
        .iter()
        .enumerate()
        .map(|(id, &util)| {
            let gen = GeneratorConfig::paper_default().with_per_core_utilization(util);
            (id as u64, gen)
        })
        .collect();

    // Semantics first: the pooled path must agree with the reference on
    // every point (exact tallies, weighted sums to rounding).
    for (point_id, gen) in &points {
        let pooled = evaluate_point(gen, &configs, &opts, *point_id);
        let reference =
            evaluate_point_reference(gen, &configs, &opts, *point_id, CrpdApproach::EcbUnion);
        for i in 0..configs.len() {
            assert_eq!(
                pooled.config(i).samples(),
                reference.config(i).samples(),
                "point {point_id} config {i}: sample counts diverged"
            );
            assert_eq!(
                pooled.config(i).schedulable_count(),
                reference.config(i).schedulable_count(),
                "point {point_id} config {i}: pooled path diverged from reference"
            );
            assert!(
                (pooled.config(i).value() - reference.config(i).value()).abs() < 1e-9,
                "point {point_id} config {i}: weighted sums diverged"
            );
        }
    }

    let (reference_ns, pooled_ns, speedup) = time_paired(&points, &configs, &opts);
    eprintln!(
        "fig2 FP panel   reference {reference_ns:>12.0} ns/panel   \
         pooled {pooled_ns:>12.0} ns/panel   speedup {speedup:.2}x (median of paired ratios)"
    );

    let pass = speedup >= SPEEDUP_GATE;
    let panels_per_sec = 1e9 / pooled_ns;
    let mut record = BenchRecord::new("sweep_e2e", "fig2_fp_panel");
    record.push_config(
        "utils",
        JsonValue::Array(UTILS.iter().map(|&u| JsonValue::F64(u)).collect()),
    );
    record.push_config("sets_per_point", SETS_PER_POINT as u64);
    record.push_config("threads", 1u64);
    record.push_metric("reference_ns", reference_ns.round());
    record.push_metric("pooled_ns", pooled_ns.round());
    record.push_throughput("panels_per_sec", panels_per_sec);
    record.push_throughput("fig2_fp_panel_speedup", speedup);
    record.push_gate("fig2_fp_panel_speedup", speedup, SPEEDUP_GATE, pass);
    // Anchor to the workspace root: `cargo bench` sets the CWD to the
    // crate directory, but the gate artifact belongs next to ci.sh.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e2e.json");
    record.write_json_file(out).expect("write BENCH_e2e.json");
    record
        .append_history(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/bench_history.jsonl"
        ))
        .expect("append bench history");
    eprintln!("wrote {out}");
    if !pass {
        eprintln!("FAIL: e2e panel speedup {speedup:.2}x below the {SPEEDUP_GATE}x gate");
        std::process::exit(1);
    }
}

/// Times both paths as *interleaved pairs* — reference panel, then pooled
/// panel, five times after one untimed warm-up of each — and reports the
/// medians plus the median of the five per-pair speedups. A machine-wide
/// slow phase (this runs on shared single-core CI boxes) hits the two
/// legs of a pair roughly equally, so the ratio survives noise that would
/// poison independently-timed medians.
fn time_paired(
    points: &[(u64, GeneratorConfig)],
    configs: &[AnalysisConfig],
    opts: &SweepOptions,
) -> (f64, f64, f64) {
    const PAIRS: usize = 5;
    let panel = |f: fn(&GeneratorConfig, &[AnalysisConfig], &SweepOptions, u64) -> PointStats| {
        let start = Instant::now();
        for (point_id, gen) in points {
            black_box(f(
                black_box(gen),
                black_box(configs),
                black_box(opts),
                *point_id,
            ));
        }
        start.elapsed().as_nanos() as f64
    };
    let reference = |gen: &GeneratorConfig, configs: &[AnalysisConfig], opts: &SweepOptions, id| {
        evaluate_point_reference(gen, configs, opts, id, CrpdApproach::EcbUnion)
    };
    let pooled = |gen: &GeneratorConfig, configs: &[AnalysisConfig], opts: &SweepOptions, id| {
        evaluate_point(gen, configs, opts, id)
    };
    panel(reference);
    panel(pooled);
    let mut ref_runs = [0.0f64; PAIRS];
    let mut pool_runs = [0.0f64; PAIRS];
    let mut ratios = [0.0f64; PAIRS];
    for i in 0..PAIRS {
        ref_runs[i] = panel(reference);
        pool_runs[i] = panel(pooled);
        ratios[i] = ref_runs[i] / pool_runs[i];
    }
    ref_runs.sort_by(f64::total_cmp);
    pool_runs.sort_by(f64::total_cmp);
    ratios.sort_by(f64::total_cmp);
    (ref_runs[PAIRS / 2], pool_runs[PAIRS / 2], ratios[PAIRS / 2])
}
