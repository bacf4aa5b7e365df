//! Property pin for the partial re-solve contract: [`analyze_with_parent`]
//! — a solve certified against a converged [`ParentSolution`] of a
//! *related* task set — must produce results **bitwise identical** to a
//! cold [`analyze`], on every field of [`AnalysisResult`] (response times
//! including deadline-miss partial snapshots, schedulability, outer round
//! count, per-task inner iteration tallies, cap flag), across every
//! [`BusPolicy`] × [`PersistenceMode`] combination.
//!
//! The three certification regimes are all exercised:
//!
//! * identical sets → full replay, any policy;
//! * TDMA/perfect bus with a genuinely perturbed set → per-task
//!   certification of the untouched cores;
//! * FP/RR with a perturbed set, and environment mismatches (different
//!   config than the parent's) → the parent is rejected and the run
//!   degrades to a plain engine solve.
//!
//! Under `CPA_WARM_CROSS_CHECK=1` (the ci.sh smoke) every
//! `analyze_with_parent` call additionally re-solves cold *inside* the
//! library and asserts equality there too.

use cpa_analysis::{
    analyze, analyze_with_parent, AnalysisConfig, AnalysisContext, AnalysisResult, AnalysisScratch,
    BusPolicy, ParentSolution, PersistenceMode,
};
use cpa_model::{CacheGeometry, CoreId, Platform, Task, TaskSet, Time};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// `certification_paths_are_taken` reads the process-global
/// `engine.tasks_certified` / `engine.parent_replays` counters, which
/// every test in this file moves. Tests of one binary run in parallel,
/// so each holds this lock while it solves.
static PARENT_COUNTERS: Mutex<()> = Mutex::new(());

fn counters_lock() -> MutexGuard<'static, ()> {
    PARENT_COUNTERS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn platform_for(config: &GeneratorConfig) -> Platform {
    Platform::builder()
        .cores(config.cores)
        .cache(CacheGeometry::direct_mapped(config.cache_sets, 32))
        .memory_latency(config.d_mem)
        .build()
        .expect("valid platform")
}

fn generate(seed: u64, util: f64) -> (TaskSet, Platform) {
    let gen_cfg = GeneratorConfig {
        cores: 2,
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

fn assert_bitwise(partial: &AnalysisResult, cold: &AnalysisResult, tag: &str) {
    assert_eq!(
        partial.response_times(),
        cold.response_times(),
        "{tag}: response times (incl. deadline-miss snapshots)"
    );
    assert_eq!(
        partial.outer_iterations(),
        cold.outer_iterations(),
        "{tag}: outer round count"
    );
    assert_eq!(
        partial.inner_iteration_counts(),
        cold.inner_iteration_counts(),
        "{tag}: inner iteration tallies"
    );
    assert_eq!(partial, cold, "{tag}: full result");
}

/// Rebuilds `tasks` with one task perturbed: its processing demand grows
/// by `extra` cycles and, when `move_core`, it hops to the next core —
/// the shape of an optimizer `Reassign` move.
fn perturb(tasks: &TaskSet, victim: usize, extra: u64, move_core: bool, cores: usize) -> TaskSet {
    let rebuilt: Vec<Task> = tasks
        .iter()
        .enumerate()
        .map(|(idx, t)| {
            let mut b = Task::builder(t.name())
                .processing_demand(t.processing_demand())
                .memory_demand(t.memory_demand())
                .residual_memory_demand(t.residual_memory_demand())
                .period(t.period())
                .deadline(t.deadline())
                .core(t.core())
                .priority(t.priority())
                .ecb(t.ecb().clone())
                .ucb(t.ucb().clone())
                .pcb(t.pcb().clone());
            if idx == victim {
                b = b.processing_demand(
                    t.processing_demand()
                        .saturating_add(Time::from_cycles(extra)),
                );
                if move_core {
                    b = b.core(CoreId::new((t.core().index() + 1) % cores));
                }
            }
            b.build().expect("perturbed task stays valid")
        })
        .collect();
    TaskSet::new(rebuilt).expect("perturbed set stays valid")
}

/// Identical sets: the parent is replayed outright under every policy and
/// every mode, and a parent captured under a *different* configuration is
/// rejected without influencing the result — the full cross matrix.
#[test]
fn identical_replay_and_env_mismatch_matrix() {
    let _counters = counters_lock();
    let (tasks, platform) = generate(7, 0.3);
    let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
    let parents: Vec<Option<ParentSolution>> = configs()
        .iter()
        .map(|config| ParentSolution::capture(&ctx, config, &analyze(&ctx, config)))
        .collect();
    for (pi, parent_cfg) in configs().iter().enumerate() {
        let Some(parent) = &parents[pi] else {
            continue;
        };
        for child_cfg in configs() {
            let cold = analyze(&ctx, &child_cfg);
            let partial =
                analyze_with_parent(&ctx, &child_cfg, &mut AnalysisScratch::new(), parent);
            assert_bitwise(
                &partial,
                &cold,
                &format!("parent={parent_cfg:?} child={child_cfg:?}"),
            );
        }
    }
}

/// The per-task certification path genuinely fires: under TDMA, a
/// perturbation confined to one core must certify every task on the
/// other core (observable through `engine.tasks_certified`), and the
/// replay path must light `engine.parent_replays`.
#[test]
fn certification_paths_are_taken() {
    let _counters = counters_lock();
    let (tasks, platform) = generate(11, 0.3);
    let perturbed = perturb(&tasks, 0, 17, false, 2);
    let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
    let ctx_b = AnalysisContext::new(&platform, &perturbed).expect("context b");
    let config = AnalysisConfig::new(BusPolicy::Tdma { slots: 2 }, PersistenceMode::Aware);
    let cold = analyze(&ctx, &config);
    let parent = ParentSolution::capture(&ctx, &config, &cold).expect("schedulable parent");

    let certified = cpa_obs::counter("engine.tasks_certified");
    let replays = cpa_obs::counter("engine.parent_replays");
    let (c0, r0) = (certified.get(), replays.get());
    let partial = analyze_with_parent(&ctx_b, &config, &mut AnalysisScratch::new(), &parent);
    assert_bitwise(&partial, &analyze(&ctx_b, &config), "tdma certified");
    let untouched_core_tasks = tasks
        .iter()
        .filter(|t| t.core() != tasks.iter().next().expect("nonempty").core())
        .count() as u64;
    assert!(untouched_core_tasks > 0, "fixture needs two occupied cores");
    assert_eq!(
        certified.get() - c0,
        untouched_core_tasks,
        "every task on the untouched core must be certified"
    );

    let replayed = analyze_with_parent(&ctx, &config, &mut AnalysisScratch::new(), &parent);
    assert_bitwise(&replayed, &cold, "tdma replay");
    assert_eq!(
        replays.get() - r0,
        1,
        "identical set must take the replay path"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A parent solve certified against a one-task perturbation (the
    /// optimizer's move shapes: a content change in place, or a core
    /// move) must match the cold solve of the perturbed set bitwise, for
    /// every policy × mode. The utilization range deliberately reaches
    /// overload so certified materialization is also compared across
    /// deadline-miss aborts, and the scratch is chained across configs
    /// so partial re-solve composes with warm retention.
    #[test]
    fn partial_resolve_matches_cold_bitwise(
        seed in any::<u64>(),
        util in 0.1f64..0.9,
        victim in 0usize..8,
        extra in 1u64..200,
        move_core in any::<bool>(),
    ) {
        let _counters = counters_lock();
        let (tasks_a, platform) = generate(seed, util);
        let victim = victim % tasks_a.len();
        let tasks_b = perturb(&tasks_a, victim, extra, move_core, 2);
        let ctx_a = AnalysisContext::new(&platform, &tasks_a).expect("context a");
        let ctx_b = AnalysisContext::new(&platform, &tasks_b).expect("context b");
        let mut scratch = AnalysisScratch::new();
        for config in configs() {
            let cold_a = analyze(&ctx_a, &config);
            let cold_b = analyze(&ctx_b, &config);
            let Some(parent) = ParentSolution::capture(&ctx_a, &config, &cold_a) else {
                // Unschedulable parents certify nothing; the API refuses
                // them at capture time.
                continue;
            };
            let partial = analyze_with_parent(&ctx_b, &config, &mut scratch, &parent);
            assert_bitwise(
                &partial,
                &cold_b,
                &format!("seed={seed} util={util} victim={victim} move={move_core} {config:?}"),
            );
            // And the degenerate "move that changed nothing" case: the
            // parent replays over its own set mid-chain.
            let replay = analyze_with_parent(&ctx_a, &config, &mut scratch, &parent);
            assert_bitwise(&replay, &cold_a, &format!("replay seed={seed} {config:?}"));
        }
    }
}
