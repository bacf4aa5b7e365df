//! Pinned bounds: the WCRT of Eq. (19) is its *least* fixed point.
//!
//! Each per-task solve iterates `r ← rhs(r)` upward from the current
//! estimate until the value repeats, so the reported bound is the least
//! fixed point at or above the initial estimate `PD_i + MD_i · d_mem`.
//! A solver that stops at some pre-fixed point (`rhs(r) ≤ r`) is sound
//! but looser: on these two generated tasks the earlier two-phase solver
//! (an upward bracket with the carry-out at its cap, then at most 64
//! exact steps down) reported 304 796 and 1 769 332 cycles. Both values
//! below are pinned for the engine and the literal spec, and each is
//! checked to be a fixed point of the spec's own right-hand side.

use cpa_analysis::{analyze, spec, AnalysisConfig, AnalysisContext, BusPolicy, PersistenceMode};
use cpa_model::{CacheGeometry, Platform, TaskId, TaskSet, Time};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A Fig. 3b-style set: the paper's defaults at 4 tasks per core, periods
/// sized for `d_mem = 5` and analysed at `d_mem = 2`, on the platform
/// `cpa_experiments::runner::platform_for` builds for the configuration.
fn fig3b_set(cores: usize, util: f64, seed: u64) -> (Platform, TaskSet) {
    let config = GeneratorConfig {
        cores,
        tasks_per_core: 4,
        ..GeneratorConfig::paper_default()
    }
    .with_per_core_utilization(util)
    .with_period_d_mem(Time::from_cycles(5))
    .with_d_mem(Time::from_cycles(2));
    let platform = Platform::builder()
        .cores(config.cores)
        .cache(CacheGeometry::direct_mapped(config.cache_sets, 32))
        .memory_latency(config.d_mem)
        .build()
        .expect("valid platform");
    let tasks = TaskSetGenerator::new(config)
        .expect("generator")
        .generate(&mut ChaCha8Rng::seed_from_u64(seed))
        .expect("task set");
    (platform, tasks)
}

/// Eq. (19)'s right-hand side for `τi` at window `r`, from the spec's
/// literal `BAT`: `PD_i + Σ_{j ∈ hp(i) on i's core} ⌈r / T_j⌉ · PD_j +
/// BAT_i(r) · d_mem`.
fn spec_rhs(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    i: TaskId,
    r: Time,
    resp: &[Time],
) -> u64 {
    let tasks = ctx.tasks();
    let interference: u64 = tasks
        .hp_on(i, tasks[i].core())
        .map(|j| spec::releases(r, tasks[j].period()) * tasks[j].processing_demand().cycles())
        .sum();
    let bat = spec::bat(ctx, i, r, resp, config).expect("no overflow");
    tasks[i].processing_demand().cycles() + interference + bat * ctx.d_mem().cycles()
}

/// Runs engine and spec on the set and checks task `task`'s bound is
/// `expected` in both, and a fixed point of the spec's right-hand side at
/// the converged estimates.
fn assert_least_fixed_point(
    (cores, util, seed): (usize, f64, u64),
    config: AnalysisConfig,
    task: usize,
    expected: u64,
) {
    let (platform, tasks) = fig3b_set(cores, util, seed);
    let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
    let engine = analyze(&ctx, &config);
    let reference = spec::analyze(&ctx, &config).expect("no overflow");
    assert_eq!(engine, reference, "engine and spec agree");
    assert!(engine.is_schedulable());

    let i = TaskId::new(task);
    assert_eq!(engine.response_time(i), Some(Time::from_cycles(expected)));
    let resp: Vec<Time> = engine
        .response_times()
        .iter()
        .map(|r| r.expect("schedulable"))
        .collect();
    let r = resp[i.index()];
    assert_eq!(
        spec_rhs(&ctx, &config, i, r, &resp),
        expected,
        "fixed point"
    );
}

#[test]
fn rr_aware_bound_is_the_least_fixed_point() {
    let config = AnalysisConfig::new(BusPolicy::RoundRobin { slots: 2 }, PersistenceMode::Aware);
    assert_least_fixed_point((2, 0.3, 4), config, 7, 304_700);
}

#[test]
fn fp_oblivious_bound_is_the_least_fixed_point() {
    let config = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Oblivious);
    assert_least_fixed_point((4, 0.5, 10), config, 13, 1_766_452);
}
