//! Span budget of one analysis (DESIGN.md §9): spans mark `StageReport`
//! layers, not solver phases. An engine run opens one span,
//! `wcrt.analyze`, however many tasks it solves; a verdict opens one
//! `wcrt.certify` and at most one `wcrt.analyze`, for the solve a failed
//! certificate falls back to; the literal spec opens none, so an oracle's
//! spec solves are booked to the oracle's own span.
//! The profile is process-global, so this is its own test binary with one
//! test.

use cpa_analysis::{
    analyze_with, spec, verdict_with, AnalysisConfig, AnalysisContext, AnalysisScratch, BusPolicy,
    PersistenceMode,
};
use cpa_model::{CacheGeometry, Platform};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn an_engine_run_opens_one_span_and_the_spec_none() {
    // A schedulable paper-default 4 × 8 set.
    let gen = GeneratorConfig::paper_default().with_per_core_utilization(0.3);
    let platform = Platform::builder()
        .cores(gen.cores)
        .cache(CacheGeometry::direct_mapped(gen.cache_sets, 32))
        .memory_latency(gen.d_mem)
        .build()
        .unwrap();
    let tasks = TaskSetGenerator::new(gen)
        .unwrap()
        .generate(&mut ChaCha8Rng::seed_from_u64(1))
        .unwrap();
    assert_eq!(tasks.len(), 32);
    let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
    let config = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware);

    cpa_obs::reset();
    cpa_obs::enable_metrics();
    let result = analyze_with(&ctx, &config, &mut AnalysisScratch::new());
    assert!(result.is_schedulable());
    let solves = cpa_obs::counter("engine.tasks_solved").get();
    assert!(solves >= 32, "{solves} task solves");
    let profile = cpa_obs::profile_snapshot();
    let [analyze] = profile.children.as_slice() else {
        panic!("one root span expected: {}", profile.to_json());
    };
    assert_eq!((analyze.name.as_str(), analyze.calls), ("wcrt.analyze", 1));
    assert!(analyze.children.is_empty(), "{}", profile.to_json());

    // One verdict per configuration: some certified, some solved after
    // the certificate failed.
    let (mut certified, mut solved) = (0, 0);
    for bus in [
        BusPolicy::FixedPriority,
        BusPolicy::RoundRobin { slots: 2 },
        BusPolicy::Tdma { slots: 2 },
        BusPolicy::Tdma { slots: 6 },
        BusPolicy::Perfect,
    ] {
        for mode in [PersistenceMode::Aware, PersistenceMode::Oblivious] {
            cpa_obs::reset();
            let config = AnalysisConfig::new(bus, mode);
            let _ = verdict_with(&ctx, &config, &mut AnalysisScratch::new());
            let profile = cpa_obs::profile_snapshot();
            let mut spans: Vec<_> = profile
                .children
                .iter()
                .map(|span| {
                    assert!(span.children.is_empty(), "{}", profile.to_json());
                    (span.name.as_str(), span.calls)
                })
                .collect();
            spans.sort_unstable();
            match spans[..] {
                [("wcrt.certify", 1)] => certified += 1,
                [("wcrt.analyze", 1), ("wcrt.certify", 1)] => solved += 1,
                _ => panic!("{bus:?} {mode:?}: {}", profile.to_json()),
            }
        }
    }
    assert!(
        certified > 0 && solved > 0,
        "{certified} certified, {solved} solved"
    );

    cpa_obs::reset();
    assert!(spec::analyze(&ctx, &config).unwrap().is_schedulable());
    let profile = cpa_obs::profile_snapshot();
    cpa_obs::disable();
    assert!(profile.children.is_empty(), "{}", profile.to_json());
}
