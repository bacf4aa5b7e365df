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
    let shape = GeneratorConfig {
        cores,
        tasks_per_core,
        ..GeneratorConfig::paper_default()
    };
    campaign_on(&shape, utils, seeds);
}

fn campaign_on(shape: &GeneratorConfig, utils: &[f64], seeds: std::ops::Range<u64>) {
    let (cores, sets) = (shape.cores, shape.cache_sets);
    for &util in utils {
        let gen_cfg = shape.clone().with_per_core_utilization(util);
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
                    let tag = format!(
                        "cores={cores} cache_sets={sets} util={util} seed={seed} {bus:?} {mode:?}"
                    );
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

/// The Fig. 3a shapes: 8 tasks per core on up to 10 cores, so the
/// engine's `(core, split)` BAO slots are pinned with many remote cores.
#[test]
fn engine_matches_reference_at_fig3a_core_counts() {
    for cores in [8, 10] {
        campaign(cores, 8, &[0.1, 0.3, 0.6], 0..2);
    }
}

/// The Fig. 3c extremes: the paper-default 4 x 8 shape with 32 and
/// 1 024 cache sets (heavy and light cache contention).
#[test]
fn engine_matches_reference_at_fig3c_cache_sizes() {
    for sets in [32, 1_024] {
        let shape = GeneratorConfig::paper_default().with_cache_sets(sets);
        campaign_on(&shape, &[0.1, 0.3, 0.6], 0..2);
    }
}
