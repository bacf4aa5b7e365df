//! Fig. 2 — schedulable task sets vs core utilization (FP / RR / TDMA).
//!
//! Prints a reduced-scale version of each panel's series (the regeneration
//! artefact: same rows as the paper's plot, fewer samples), then measures
//! the per-point evaluation cost that dominates the full-scale run.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cpa_analysis::{
    analyze, AnalysisConfig, AnalysisContext, BusPolicy, CrpdApproach, PersistenceMode,
};
use cpa_experiments::runner::{evaluate_population, platform_for, ChainState, Evaluation};
use cpa_experiments::{fig2, report, SweepOptions};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_fig2(c: &mut Criterion) {
    // Regeneration artefact at reduced scale.
    let opts = SweepOptions::quick()
        .with_sets_per_point(25)
        .with_utilization_grid(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
    for result in fig2::fig2(&opts) {
        println!("{}", report::to_markdown(&result));
    }

    let mut group = c.benchmark_group("fig2");
    group.sample_size(10);

    // One utilization point, all three Fig. 2 series, 10 task sets.
    let micro = SweepOptions::quick().with_sets_per_point(10);
    let gen = GeneratorConfig::paper_default().with_per_core_utilization(0.3);
    let evaluation = [Evaluation::new(
        gen.d_mem,
        CrpdApproach::EcbUnion,
        vec![
            AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware),
            AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Oblivious),
            AnalysisConfig::new(BusPolicy::Perfect, PersistenceMode::Aware),
        ],
    )];
    group.bench_function("evaluate_point_fp_u0.3_10sets", |b| {
        b.iter(|| {
            black_box(evaluate_population(
                &gen,
                &evaluation,
                &micro,
                0,
                &mut ChainState::default(),
            ))
        });
    });

    // Single task-set analysis across the six paper configurations.
    let generator = TaskSetGenerator::new(gen.clone()).expect("generator");
    let platform = platform_for(&gen);
    let tasks = generator
        .generate(&mut ChaCha8Rng::seed_from_u64(5))
        .expect("task set");
    let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
    for cfg in AnalysisConfig::paper_matrix(2) {
        group.bench_function(
            format!("analyze_{}_{}", cfg.bus.label(), cfg.persistence),
            |b| {
                b.iter(|| black_box(analyze(black_box(&ctx), &cfg)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
