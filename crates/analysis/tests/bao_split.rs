//! Property pin for the engine's `BAO` slot key (DESIGN.md §17): the
//! member records of level `k` on remote core `y` depend on `k` only
//! through the split — the number of tasks on `y` with id ≤ `k`. So
//! [`bao_members_on`] must return identical records for every two levels
//! with the same split on `y`, whatever core the levels themselves sit on,
//! under every [`CrpdApproach`]. The engine shares one cached slot between
//! all of them; this is the identity that makes the sharing sound.

use cpa_analysis::bao::bao_members_on;
use cpa_analysis::{AnalysisContext, CrpdApproach};
use cpa_model::{CacheGeometry, Platform, TaskId, TaskSet};
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

/// Checks every core of `tasks` under `approach`; returns how many level
/// pairs shared a split (so callers can assert the check is not vacuous).
fn check_split_identity(tasks: &TaskSet, platform: &Platform, approach: CrpdApproach) -> usize {
    let ctx = AnalysisContext::with_crpd_approach(platform, tasks, approach).expect("context");
    let mut shared = 0;
    for y in 0..platform.cores() {
        let on_core: Vec<TaskId> = tasks
            .ids()
            .filter(|&l| tasks[l].core().index() == y)
            .collect();
        // Levels in id order have non-decreasing splits, so each split's
        // levels form one run; compare every level against the run's
        // first.
        let mut first: Option<(usize, TaskId, _)> = None;
        for k in tasks.ids() {
            let members = bao_members_on(&ctx, k, &on_core);
            let split = on_core.iter().filter(|l| l.index() <= k.index()).count();
            match &first {
                Some((s, k0, m0)) if *s == split => {
                    assert_eq!(
                        &members, m0,
                        "{approach:?}: core {y} levels {k0:?} and {k:?} share split {split}"
                    );
                    shared += 1;
                }
                _ => first = Some((split, k, members)),
            }
        }
    }
    shared
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
