//! Differential pin: the memoized, worklist-driven engine behind
//! [`analyze_with`] must be *byte-identical* to the literal oracle
//! [`spec::analyze`] — same response times, same schedulability verdict,
//! same outer-round count, same cap flag — across every bus policy ×
//! persistence mode on seeded paper-style campaigns. The spec must never
//! overflow on these inputs, so no case is skipped.
//!
//! The utilization grid deliberately spans schedulable, borderline and
//! overloaded sets so the deadline-miss partial snapshots and the
//! convergence paths are both exercised.

use cpa_analysis::{
    analyze_with, spec, AnalysisConfig, AnalysisContext, AnalysisScratch, BusPolicy,
    PersistenceMode,
};
use cpa_model::{CacheGeometry, Platform};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn platform_for(config: &GeneratorConfig) -> Platform {
    Platform::builder()
        .cores(config.cores)
        .cache(CacheGeometry::direct_mapped(config.cache_sets, 32))
        .memory_latency(config.d_mem)
        .build()
        .expect("valid platform")
}

fn policies() -> Vec<BusPolicy> {
    vec![
        BusPolicy::FixedPriority,
        BusPolicy::RoundRobin { slots: 1 },
        BusPolicy::RoundRobin { slots: 2 },
        BusPolicy::Tdma { slots: 2 },
        BusPolicy::Perfect,
    ]
}

fn assert_equivalent(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    scratch: &mut AnalysisScratch,
    tag: &str,
) {
    let engine = analyze_with(ctx, config, scratch);
    let reference = spec::analyze(ctx, config)
        .unwrap_or_else(|overflow| panic!("{tag}: the spec overflowed: {overflow}"));
    assert_eq!(
        engine.response_times(),
        reference.response_times(),
        "{tag}: response times diverged"
    );
    assert_eq!(
        engine.is_schedulable(),
        reference.is_schedulable(),
        "{tag}: schedulability verdict diverged"
    );
    assert_eq!(
        engine.outer_iterations(),
        reference.outer_iterations(),
        "{tag}: outer round count diverged"
    );
    assert_eq!(
        engine.hit_outer_iteration_cap(),
        reference.hit_outer_iteration_cap(),
        "{tag}: cap flag diverged"
    );
}

fn campaign(cores: usize, tasks_per_core: usize, utils: &[f64], seeds: std::ops::Range<u64>) {
    for &util in utils {
        let gen_cfg = GeneratorConfig {
            cores,
            tasks_per_core,
            ..GeneratorConfig::paper_default()
        }
        .with_per_core_utilization(util);
        let generator = TaskSetGenerator::new(gen_cfg.clone()).expect("generator");
        let platform = platform_for(&gen_cfg);
        let mut scratch = AnalysisScratch::new();
        for seed in seeds.clone() {
            let tasks = generator
                .generate(&mut ChaCha8Rng::seed_from_u64(seed))
                .expect("task set");
            let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
            for bus in policies() {
                for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                    let config = AnalysisConfig::new(bus, mode);
                    let tag = format!("cores={cores} util={util} seed={seed} {bus:?} {mode:?}");
                    assert_equivalent(&ctx, &config, &mut scratch, &tag);
                }
            }
        }
    }
}

#[test]
fn engine_matches_reference_on_two_core_campaign() {
    campaign(2, 4, &[0.2, 0.4, 0.6], 0..8);
}

#[test]
fn engine_matches_reference_on_overloaded_sets() {
    // High utilization: most sets miss deadlines, pinning the partial
    // snapshot the engine returns on a miss against the spec's.
    campaign(2, 5, &[0.85, 0.95], 0..6);
}

#[test]
fn engine_matches_reference_on_four_cores() {
    campaign(4, 3, &[0.3, 0.5], 0..4);
}
