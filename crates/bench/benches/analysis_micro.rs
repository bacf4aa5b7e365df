//! Microbenchmarks of the analysis building blocks: context construction
//! (the CRPD/CPRO tables), the WCRT fixed point and a table lookup — the
//! cost model behind every figure's runtime. The individual bounds are
//! evaluated inside the engine's caches, so they are timed through the
//! fixed point (perfbench reports the engine's per-layer metrics).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cpa_analysis::{analyze, AnalysisConfig, AnalysisContext, BusPolicy, PersistenceMode};
use cpa_experiments::runner::platform_for;
use cpa_model::TaskId;
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_analysis(c: &mut Criterion) {
    let gen = GeneratorConfig::paper_default().with_per_core_utilization(0.3);
    let generator = TaskSetGenerator::new(gen.clone()).expect("generator");
    let platform = platform_for(&gen);
    let tasks = generator
        .generate(&mut ChaCha8Rng::seed_from_u64(11))
        .expect("task set");

    let mut group = c.benchmark_group("analysis_micro");
    group.sample_size(30);

    group.bench_function("context_build_32_tasks", |b| {
        b.iter(|| {
            black_box(AnalysisContext::new(
                black_box(&platform),
                black_box(&tasks),
            ))
        });
    });

    let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
    let lowest = tasks.lowest_priority_id();
    group.bench_function("wcrt_full_fp_aware", |b| {
        let cfg = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware);
        b.iter(|| black_box(analyze(&ctx, &cfg)));
    });
    group.bench_function("gamma_lookup", |b| {
        b.iter(|| black_box(ctx.gamma(black_box(lowest), black_box(TaskId::new(0)))));
    });
    group.finish();
}

criterion_group!(benches, bench_analysis);
criterion_main!(benches);
