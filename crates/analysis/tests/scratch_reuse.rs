//! Property pin for scratch reuse: an [`AnalysisScratch`] that has just
//! solved *something else* — a different task set, a different bus
//! policy, a different persistence mode — must produce results **bitwise
//! identical** to a fresh scratch, on every field of [`AnalysisResult`]
//! (response times including deadline-miss partial snapshots,
//! schedulability, outer round count, per-task inner iteration tallies,
//! cap flag). `AnalysisResult` is `Eq`, so one comparison pins all of
//! them at once.
//!
//! A reused scratch must also score the `BAO` cache exactly like a fresh
//! one: [`AnalysisScratch::bao_tallies`] (the scratch's own share of
//! `engine.bao_hit` / `engine.bao_miss`) is compared after every reused
//! solve, so no `(core, split)` slot (DESIGN.md §17) may leak from one
//! solve into the next.

use cpa_analysis::{
    analyze_with, AnalysisConfig, AnalysisContext, AnalysisResult, AnalysisScratch, BusPolicy,
    PersistenceMode,
};
use cpa_model::{CacheBlockSet, CacheGeometry, CoreId, Platform, Priority, Task, TaskSet, Time};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use proptest::prelude::*;
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

fn generate(seed: u64, util: f64) -> (TaskSet, Platform) {
    generate_on(seed, 2, util)
}

fn generate_on(seed: u64, cores: usize, util: f64) -> (TaskSet, Platform) {
    let gen_cfg = GeneratorConfig {
        cores,
        tasks_per_core: 4,
        ..GeneratorConfig::paper_default()
    }
    .with_per_core_utilization(util);
    let generator = TaskSetGenerator::new(gen_cfg.clone()).expect("generator");
    let platform = platform_for(&gen_cfg);
    let tasks = generator
        .generate(&mut ChaCha8Rng::seed_from_u64(seed))
        .expect("task set");
    (tasks, platform)
}

/// Every bus policy the engine distinguishes, crossed with both modes.
fn configs() -> Vec<AnalysisConfig> {
    let mut out = Vec::new();
    for bus in [
        BusPolicy::FixedPriority,
        BusPolicy::RoundRobin { slots: 1 },
        BusPolicy::RoundRobin { slots: 2 },
        BusPolicy::Tdma { slots: 2 },
        BusPolicy::Perfect,
    ] {
        for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
            out.push(AnalysisConfig::new(bus, mode));
        }
    }
    out
}

/// A solve on a fresh scratch, with that scratch's `BAO` tallies.
fn fresh_solve(ctx: &AnalysisContext<'_>, config: &AnalysisConfig) -> (AnalysisResult, (u64, u64)) {
    let mut scratch = AnalysisScratch::new();
    let result = analyze_with(ctx, config, &mut scratch);
    (result, scratch.bao_tallies())
}

/// `tasks` with the memory demand of the task at `victim` raised by
/// `extra` accesses — an input of every `BAO` member record of that task
/// — while every task before it, and every core whose tasks all precede
/// it, stays the same.
fn bump(tasks: &TaskSet, victim: usize, extra: u64) -> TaskSet {
    let rebuilt: Vec<Task> = tasks
        .iter()
        .enumerate()
        .map(|(idx, t)| {
            let extra = if idx == victim { extra } else { 0 };
            Task::builder(t.name())
                .processing_demand(t.processing_demand())
                .memory_demand(t.memory_demand() + extra)
                .residual_memory_demand(t.residual_memory_demand())
                .period(t.period())
                .deadline(t.deadline())
                .core(t.core())
                .priority(t.priority())
                .ecb(t.ecb().clone())
                .ucb(t.ucb().clone())
                .pcb(t.pcb().clone())
                .build()
                .expect("bumped task stays valid")
        })
        .collect();
    TaskSet::new(rebuilt).expect("bumped set stays valid")
}

fn assert_bitwise(reused: &AnalysisResult, fresh: &AnalysisResult, tag: &str) {
    // `AnalysisResult: Eq` covers every field; the per-field asserts
    // below only exist to make a failure readable.
    assert_eq!(
        reused.response_times(),
        fresh.response_times(),
        "{tag}: response times (incl. deadline-miss snapshots)"
    );
    assert_eq!(
        reused.outer_iterations(),
        fresh.outer_iterations(),
        "{tag}: outer round count"
    );
    assert_eq!(
        reused.inner_iteration_counts(),
        fresh.inner_iteration_counts(),
        "{tag}: inner iteration tallies"
    );
    assert_eq!(reused, fresh, "{tag}: full result");
}

/// The paper's Fig. 1 worked example (τ1, τ2 on core x; τ3 on core y).
fn fig1() -> (Platform, TaskSet) {
    let platform = Platform::builder()
        .cores(2)
        .memory_latency(Time::from_cycles(1))
        .build()
        .unwrap();
    let tau1 = Task::builder("tau1")
        .processing_demand(Time::from_cycles(4))
        .memory_demand(6)
        .residual_memory_demand(1)
        .period(Time::from_cycles(20))
        .deadline(Time::from_cycles(20))
        .core(CoreId::new(0))
        .priority(Priority::new(1))
        .ecb(CacheBlockSet::from_blocks(256, 5..=10).unwrap())
        .pcb(CacheBlockSet::from_blocks(256, [5, 6, 7, 8, 10]).unwrap())
        .build()
        .unwrap();
    let tau2 = Task::builder("tau2")
        .processing_demand(Time::from_cycles(32))
        .memory_demand(8)
        .period(Time::from_cycles(200))
        .deadline(Time::from_cycles(200))
        .core(CoreId::new(0))
        .priority(Priority::new(2))
        .ecb(CacheBlockSet::from_blocks(256, 1..=6).unwrap())
        .ucb(CacheBlockSet::from_blocks(256, [5, 6]).unwrap())
        .build()
        .unwrap();
    let tau3 = Task::builder("tau3")
        .processing_demand(Time::from_cycles(4))
        .memory_demand(6)
        .residual_memory_demand(1)
        .period(Time::from_cycles(15))
        .deadline(Time::from_cycles(15))
        .core(CoreId::new(1))
        .priority(Priority::new(3))
        .ecb(CacheBlockSet::from_blocks(256, 5..=10).unwrap())
        .pcb(CacheBlockSet::from_blocks(256, [5, 6, 7, 8, 10]).unwrap())
        .build()
        .unwrap();
    (platform, TaskSet::new(vec![tau1, tau2, tau3]).unwrap())
}

/// Scratch reuse on the paper's own worked example: the deterministic
/// anchor of this suite (the proptests randomize around it). Chains every
/// config on one scratch.
#[test]
fn fig1_reused_scratch_matches_fresh() {
    let (platform, tasks) = fig1();
    let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
    let mut reused = AnalysisScratch::new();
    for config in configs() {
        let r = analyze_with(&ctx, &config, &mut reused);
        let (f, fresh_bao) = fresh_solve(&ctx, &config);
        assert_bitwise(&r, &f, &format!("fig1 {config:?}"));
        assert_eq!(
            reused.bao_tallies(),
            fresh_bao,
            "fig1 {config:?}: BAO hit/miss"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One scratch chained across every BusPolicy × PersistenceMode of
    /// two different task sets must match a fresh scratch on every solve.
    /// The utilization range deliberately reaches overload so
    /// deadline-miss partial snapshots are compared too.
    #[test]
    fn reused_scratch_matches_fresh_bitwise(
        seed in any::<u64>(),
        util in 0.1f64..0.9,
    ) {
        let (tasks_a, platform) = generate(seed, util);
        let (tasks_b, _) = generate(seed.wrapping_add(1), util);
        let mut reused = AnalysisScratch::new();
        for tasks in [&tasks_a, &tasks_b] {
            let ctx = AnalysisContext::new(&platform, tasks).expect("context");
            for config in configs() {
                let r = analyze_with(&ctx, &config, &mut reused);
                let (f, fresh_bao) = fresh_solve(&ctx, &config);
                let tag = format!("seed={seed} util={util} {config:?}");
                assert_bitwise(&r, &f, &tag);
                prop_assert_eq!(reused.bao_tallies(), fresh_bao, "{}: BAO hit/miss", tag);
            }
        }
    }

    /// Neighbour chains at 2–6 cores: each set is followed by a
    /// neighbour with one task bumped, then by the set again, so the
    /// scratch's `(core, split)` `BAO` slots are reused across nearly
    /// identical problems. Results and `BAO` hit/miss tallies must match
    /// fresh solves exactly.
    #[test]
    fn neighbour_chain_matches_fresh_bitwise(
        seed in any::<u64>(),
        cores in 2usize..7,
        util in 0.1f64..0.8,
        victim_back in 0usize..4,
        extra in 1u64..50,
    ) {
        let (tasks_a, platform) = generate_on(seed, cores, util);
        let victim = tasks_a.len() - 1 - victim_back.min(tasks_a.len() - 1);
        let tasks_b = bump(&tasks_a, victim, extra);
        let mut reused = AnalysisScratch::new();
        for config in configs() {
            for tasks in [&tasks_a, &tasks_b, &tasks_a] {
                let ctx = AnalysisContext::new(&platform, tasks).expect("context");
                let r = analyze_with(&ctx, &config, &mut reused);
                let (f, fresh_bao) = fresh_solve(&ctx, &config);
                let tag = format!("seed={seed} cores={cores} victim={victim} {config:?}");
                assert_bitwise(&r, &f, &tag);
                prop_assert_eq!(reused.bao_tallies(), fresh_bao, "{}: BAO hit/miss", tag);
            }
        }
    }
}
