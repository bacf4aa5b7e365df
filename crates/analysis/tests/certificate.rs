//! Pin of the deadline certificate behind [`verdict_with`] (DESIGN.md
//! §10): with every estimate at its deadline, one exact right-hand side
//! per task. When every `rhs_i(D_i; D) ≤ D_i`, `D` is a post-fixed point
//! of Eq. (19), so the least fixed point lies at or below it.
//!
//! - The verdict always equals [`analyze_with`]'s: a passed certificate
//!   is never contradicted by a solve, and a failed one falls back to it.
//! - A passed certificate implies the literal [`spec::analyze`] is
//!   schedulable.
//! - The fallback, the perfect-bus gate and the outer-cap caveat are
//!   pinned on fixed sets; `saturation` covers deadlines near `u64::MAX`.
//!
//! A fresh scratch tells which path decided: the certificate alone uses
//! it once, a fallback twice.

use cpa_analysis::{
    analyze_with, spec, verdict_with, AnalysisConfig, AnalysisContext, AnalysisScratch, BusPolicy,
    CrpdApproach, PersistenceMode,
};
use cpa_model::{CacheBlockSet, CacheGeometry, CoreId, Platform, Priority, Task, TaskSet, Time};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FP, RR and TDMA at s = 1..6 and the perfect bus, each aware and
/// oblivious.
fn configs() -> Vec<AnalysisConfig> {
    let mut buses = vec![BusPolicy::FixedPriority, BusPolicy::Perfect];
    for slots in 1..=6 {
        buses.push(BusPolicy::RoundRobin { slots });
        buses.push(BusPolicy::Tdma { slots });
    }
    buses
        .into_iter()
        .flat_map(|bus| {
            [PersistenceMode::Aware, PersistenceMode::Oblivious]
                .map(|mode| AnalysisConfig::new(bus, mode))
        })
        .collect()
}

/// [`verdict_with`] on a fresh scratch, and whether the run stopped at
/// the certificate (or the gate) without a fallback solve.
fn verdict(ctx: &AnalysisContext<'_>, config: &AnalysisConfig) -> (bool, bool) {
    let mut scratch = AnalysisScratch::new();
    let schedulable = verdict_with(ctx, config, &mut scratch);
    (schedulable, scratch.reuses() == 0)
}

fn platform(cores: usize, d_mem: u64) -> Platform {
    Platform::builder()
        .cores(cores)
        .memory_latency(Time::from_cycles(d_mem))
        .build()
        .expect("valid platform")
}

/// A task with `D = deadline ≤ T = period`, `MD^r = md_r` and 8 PCBs
/// among 10 ECBs placed by priority.
fn task(
    prio: u32,
    core: usize,
    pd: u64,
    (md, md_r): (u64, u64),
    period: u64,
    deadline: u64,
) -> Task {
    Task::builder(format!("t{prio}"))
        .processing_demand(Time::from_cycles(pd))
        .memory_demand(md)
        .residual_memory_demand(md_r)
        .period(Time::from_cycles(period))
        .deadline(Time::from_cycles(deadline))
        .core(CoreId::new(core))
        .priority(Priority::new(prio))
        .ecb(CacheBlockSet::contiguous(256, (prio as usize) * 20, 10))
        .pcb(CacheBlockSet::contiguous(256, (prio as usize) * 20, 8))
        .build()
        .expect("valid task")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_verdict_is_the_engine_verdict_and_a_certificate_the_spec_verdict(
        seed in any::<u64>(),
        cores in 2usize..11,
        util in 0.05f64..0.9,
        d_mem in 2u64..11,
        approach in 0usize..3,
    ) {
        let gen_cfg = GeneratorConfig {
            cores,
            tasks_per_core: 3,
            ..GeneratorConfig::paper_default()
        }
        .with_per_core_utilization(util);
        let platform = Platform::builder()
            .cores(cores)
            .cache(CacheGeometry::direct_mapped(gen_cfg.cache_sets, 32))
            .memory_latency(Time::from_cycles(d_mem))
            .build()
            .expect("valid platform");
        let tasks = TaskSetGenerator::new(gen_cfg)
            .expect("generator")
            .generate(&mut ChaCha8Rng::seed_from_u64(seed))
            .expect("task set");
        let crpd = [CrpdApproach::EcbUnion, CrpdApproach::UcbUnion, CrpdApproach::EcbOnly][approach];
        let ctx = AnalysisContext::with_crpd_approach(&platform, &tasks, crpd).expect("context");
        let mut scratch = AnalysisScratch::new();
        for config in configs() {
            let (schedulable, decided) = verdict(&ctx, &config);
            let engine = analyze_with(&ctx, &config, &mut scratch).is_schedulable();
            prop_assert_eq!(schedulable, engine, "{:?}: verdict != analyze_with", config);
            // Reused and fresh scratches agree.
            prop_assert_eq!(verdict_with(&ctx, &config, &mut scratch), schedulable);
            if schedulable && decided {
                let reference = spec::analyze(&ctx, &config).expect("no overflow");
                prop_assert!(
                    reference.is_schedulable(),
                    "{:?}: certified, but the spec misses a deadline",
                    config
                );
            }
        }
    }
}

/// A certificate fails, yet the set is schedulable: the verdict is the
/// fallback solve's. `lo`'s window at its deadline (101) holds two jobs
/// of `hi`, so `rhs_lo(101; D) = 10 + 2 · 90 = 190 > 101`, while its
/// least fixed point is `10 + 90 = 100`, with one.
#[test]
fn a_failed_certificate_falls_back_to_the_solve() {
    let platform = platform(1, 5);
    let tasks = TaskSet::new(vec![
        task(1, 0, 90, (0, 0), 100, 100),
        task(2, 0, 10, (0, 0), 1_000, 101),
    ])
    .unwrap();
    let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
    for config in configs() {
        assert_eq!(verdict(&ctx, &config), (true, false), "{config:?}");
        let result = analyze_with(&ctx, &config, &mut AnalysisScratch::new());
        assert!(result.is_schedulable(), "{config:?}");
        assert_eq!(
            result.response_times()[1],
            Some(Time::from_cycles(100)),
            "{config:?}"
        );
    }
}

/// The perfect-bus gate decides before any right-hand side: a bus loaded
/// past 1 by residual demand (`2 · 12 · 5 / 100 = 1.2`) is unschedulable
/// without a right-hand side or a solve.
#[test]
fn the_perfect_bus_gate_decides_first() {
    let platform = platform(2, 5);
    let tasks = TaskSet::new(vec![
        task(1, 0, 10, (12, 12), 100, 100),
        task(2, 1, 10, (12, 12), 100, 100),
    ])
    .unwrap();
    let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
    for mode in [PersistenceMode::Aware, PersistenceMode::Oblivious] {
        let config = AnalysisConfig::new(BusPolicy::Perfect, mode);
        assert_eq!(verdict(&ctx, &config), (false, true), "{mode:?}");
        let result = analyze_with(&ctx, &config, &mut AnalysisScratch::new());
        assert!(!result.is_schedulable());
        assert_eq!(result.outer_iterations(), 0, "the gate ran no round");
    }
}

/// The documented caveat: a certified set is schedulable by Eq. (19)
/// however many outer rounds its fixed point takes, so at
/// `max_outer_iterations = 1` the certificate says schedulable while
/// [`analyze_with`] stops at the cap and reports unschedulable.
#[test]
fn a_certificate_is_not_bound_by_the_outer_cap() {
    let platform = platform(2, 20);
    let tasks = TaskSet::new(vec![
        task(1, 0, 100, (20, 2), 4_000, 4_000),
        task(2, 1, 100, (20, 2), 4_000, 4_000),
    ])
    .unwrap();
    let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
    let config = AnalysisConfig::new(BusPolicy::RoundRobin { slots: 2 }, PersistenceMode::Aware);
    let capped = AnalysisConfig {
        max_outer_iterations: 1,
        ..config
    };
    let result = analyze_with(&ctx, &capped, &mut AnalysisScratch::new());
    assert!(!result.is_schedulable());
    assert!(result.hit_outer_iteration_cap());
    assert_eq!(verdict(&ctx, &capped), (true, true));

    // With the default cap, the solve agrees.
    assert!(analyze_with(&ctx, &config, &mut AnalysisScratch::new()).is_schedulable());
    assert!(spec::analyze(&ctx, &config).unwrap().is_schedulable());
}
