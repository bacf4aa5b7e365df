//! Property pin for the engine's `BAO` slot key (DESIGN.md §17): a
//! segment term for member `l` of remote core `y` reads the level `k`
//! only through `ctx.gamma(k, l)` and `ctx.cpro_overlap(l, k)`, and both
//! depend on `k` only through the split — the number of tasks on `y`
//! with id ≤ `k`. So the two tables must agree for every two levels with
//! the same split on `y`, whatever core the levels themselves sit on,
//! under every [`CrpdApproach`]. The engine shares one cached slot between
//! all of them and refreshes its terms at whichever of those levels is
//! queried; this is the identity that makes both sound.

use cpa_analysis::bao::{BaoSegment, PriorityBand};
use cpa_analysis::{
    analyze, spec, AnalysisConfig, AnalysisContext, BusPolicy, CrpdApproach, PersistenceMode,
};
use cpa_model::{CacheGeometry, CoreId, Platform, TaskId, TaskSet, Time};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const APPROACHES: [CrpdApproach; 3] = [
    CrpdApproach::EcbUnion,
    CrpdApproach::UcbUnion,
    CrpdApproach::EcbOnly,
];

fn generate(seed: u64, cores: usize, tasks_per_core: usize, util: f64) -> (TaskSet, Platform) {
    let config = GeneratorConfig {
        cores,
        tasks_per_core,
        ..GeneratorConfig::paper_default()
    }
    .with_per_core_utilization(util);
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
    (tasks, platform)
}

/// Every `(core y, y's ids, split, first level, later level)` whose two
/// levels share a split on `y`. Levels in id order have non-decreasing
/// splits, so each split's levels form one run; every level is paired
/// with its run's first.
fn shared_splits(
    tasks: &TaskSet,
    cores: usize,
) -> Vec<(CoreId, Vec<TaskId>, usize, TaskId, TaskId)> {
    let mut pairs = Vec::new();
    for y in (0..cores).map(CoreId::new) {
        let on_core: Vec<TaskId> = tasks.ids().filter(|&l| tasks[l].core() == y).collect();
        let mut first: Option<(usize, TaskId)> = None;
        for k in tasks.ids() {
            let split = on_core.iter().filter(|l| l.index() <= k.index()).count();
            match first {
                Some((s, k0)) if s == split => pairs.push((y, on_core.clone(), split, k0, k)),
                _ => first = Some((split, k)),
            }
        }
    }
    pairs
}

/// Checks every core of `tasks` under `approach`; returns how many level
/// pairs shared a split (so callers can assert the check is not vacuous).
fn check_split_identity(tasks: &TaskSet, platform: &Platform, approach: CrpdApproach) -> usize {
    let ctx = AnalysisContext::with_crpd_approach(platform, tasks, approach).expect("context");
    let pairs = shared_splits(tasks, platform.cores());
    for (_, on_core, split, k0, k) in &pairs {
        for &l in on_core {
            let tables = |k| (ctx.gamma(k, l), ctx.cpro_overlap(l, k));
            let tag = format!("{approach:?}: member {l:?}, split {split}");
            assert_eq!(tables(*k), tables(*k0), "{tag}, levels {k:?} and {k0:?}");
        }
    }
    pairs.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn levels_with_equal_split_have_identical_members(
        seed in any::<u64>(),
        cores in 2usize..11,
        tasks_per_core in 1usize..7,
        util in 0.1f64..0.9,
    ) {
        let (tasks, platform) = generate(seed, cores, tasks_per_core, util);
        for approach in APPROACHES {
            let shared = check_split_identity(&tasks, &platform, approach);
            // Every level on another core repeats the split of the level
            // before it on `y`'s axis, so sharing is the common case.
            prop_assert!(shared > 0, "{approach:?}: no two levels shared a split");
        }
    }
}

/// The paper's default population shape (4 cores × 8 tasks), one fixed
/// seed per approach: a deterministic anchor for the proptest above.
#[test]
fn paper_default_sets_share_members_per_split() {
    for (seed, approach) in APPROACHES.into_iter().enumerate() {
        let (tasks, platform) = generate(seed as u64, 4, 8, 0.5);
        // 32 levels × 4 cores = 128 (level, core) pairs, but only 35
        // distinct splits: 0..=8 on the three cores without the top
        // priority task, 1..=8 on the core that has it.
        assert_eq!(check_split_identity(&tasks, &platform, approach), 128 - 35);
    }
}

/// What the engine does with the identity: a segment built at one level,
/// then refreshed at another with the same split after a window move and
/// an estimate move, equals the literal `BAO` of the first level.
#[test]
fn segment_refreshed_at_one_level_matches_the_spec_at_another() {
    let (tasks, platform) = generate(7, 4, 8, 0.5);
    let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
    let config = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware);
    let result = analyze(&ctx, &config);
    let resp: Vec<Time> = tasks
        .ids()
        .map(|i| result.response_time(i).unwrap_or(tasks[i].deadline()))
        .collect();
    let mut moved = resp.clone();
    moved[0] = moved[0].saturating_add(Time::from_cycles(1_000));
    for (y, on_core, split, k0, k) in shared_splits(&tasks, platform.cores()) {
        let t = tasks[k].deadline();
        for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
            let mut seg = BaoSegment::default();
            seg.rebuild(&ctx, k0, &on_core, split, tasks[k0].deadline(), &resp, mode);
            seg.refresh(&ctx, k, &on_core, split, t, &moved, mode);
            let spec = |band| spec::bao(&ctx, k0, y, t, &moved, mode, band);
            let (hep, lower) = seg.eval(t, ctx.d_mem());
            assert_eq!(
                (Ok(hep), Ok(lower)),
                (spec(PriorityBand::HigherOrEqual), spec(PriorityBand::Lower)),
                "{y:?} levels {k0:?} -> {k:?} {mode:?}"
            );
        }
    }
}
