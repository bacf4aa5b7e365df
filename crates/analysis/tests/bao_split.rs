//! Property pin for the engine's `BAO` slot key (DESIGN.md §17): a
//! segment term for member `l` of remote core `y` reads the level `k`
//! only through `ctx.gamma(k, l)` and `ctx.cpro_overlap(l, k)`, and both
//! depend on `k` only through the split — the number of tasks on `y`
//! with id ≤ `k`. So the two tables must agree for every two levels with
//! the same split on `y`, whatever core the levels themselves sit on,
//! under every [`CrpdApproach`]. The engine shares one cached slot between
//! all of them and re-derives its terms at whichever of those levels is
//! queried; this is the identity that makes both sound. The last test
//! drives such shared slots through an engine-like lookup sequence.

use cpa_analysis::bao::{BaoSegment, PriorityBand};
use cpa_analysis::{
    analyze, spec, AnalysisConfig, AnalysisContext, BusPolicy, CrpdApproach, PersistenceMode,
};
use cpa_model::{CacheGeometry, CoreId, Platform, TaskId, TaskSet, Time};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
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
/// then evaluated at another with the same split after a window move and
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
            let _ = seg.eval(&ctx, k0, &on_core, split, tasks[k0].deadline(), &resp, mode);
            let ((hep, lower), _) = seg.eval(&ctx, k, &on_core, split, t, &moved, mode);
            let spec = |band| spec::bao(&ctx, k0, y, t, &moved, mode, band);
            assert_eq!(
                (Ok(hep), Ok(lower)),
                (spec(PriorityBand::HigherOrEqual), spec(PriorityBand::Lower)),
                "{y:?} levels {k0:?} -> {k:?} {mode:?}"
            );
        }
    }
}

/// One segment per `(core, split)`, as the engine keeps them, driven
/// through a seeded lookup sequence on paper-default 4 × 8 sets. Two
/// sweeps solve every level in id order: before each solve one estimate
/// grows, the solve's windows climb from the level's own estimate (often
/// below the previous solve's last window, as between consecutive tasks'
/// solves and in `decompose`), and each window looks up the level's split
/// on every remote core — so the levels that share a split take turns on
/// its slot. Every pair must equal the literal `BAO`, and repeating a
/// lookup must reuse every term and return the same pair.
#[test]
fn shared_slots_follow_the_spec_through_a_lookup_sequence() {
    for seed in 0..2u64 {
        let (tasks, platform) = generate(seed, 4, 8, 0.5);
        let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
        let cores = platform.cores();
        let on_core: Vec<Vec<TaskId>> = (0..cores)
            .map(|y| {
                tasks
                    .ids()
                    .filter(|&l| tasks[l].core().index() == y)
                    .collect()
            })
            .collect();
        let periods: Vec<u64> = tasks.ids().map(|i| tasks[i].period().cycles()).collect();
        let shortest = *periods.iter().min().unwrap();
        for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // The engine's initial estimates `PD + MD · d_mem`.
            let mut resp: Vec<Time> = tasks
                .iter()
                .map(|task| {
                    let bus = ctx.d_mem().saturating_mul(task.memory_demand());
                    task.processing_demand().saturating_add(bus)
                })
                .collect();
            let mut slots: Vec<Vec<BaoSegment>> = on_core
                .iter()
                .map(|ids| vec![BaoSegment::default(); ids.len() + 1])
                .collect();
            let (mut lookups, mut reused) = (0usize, 0usize);
            for k in tasks.ids().chain(tasks.ids()) {
                let grown = rng.gen_range(0..tasks.len());
                let step = rng.gen_range(1..=periods[grown]);
                resp[grown] = resp[grown].saturating_add(Time::from_cycles(step));
                let mut t = resp[k.index()].cycles();
                for _ in 0..2 {
                    let w = Time::from_cycles(t);
                    for y in (0..cores).filter(|&y| y != tasks[k].core().index()) {
                        let ids = &on_core[y];
                        let split = ids.iter().filter(|l| l.index() <= k.index()).count();
                        let seg = &mut slots[y][split];
                        let (pair, kept) = seg.eval(&ctx, k, ids, split, w, &resp, mode);
                        let spec = |band| spec::bao(&ctx, k, CoreId::new(y), w, &resp, mode, band);
                        assert_eq!(
                            (Ok(pair.0), Ok(pair.1)),
                            (spec(PriorityBand::HigherOrEqual), spec(PriorityBand::Lower)),
                            "seed {seed} {mode:?}: level {k:?} core {y} split {split} t={t}"
                        );
                        let repeat = seg.eval(&ctx, k, ids, split, w, &resp, mode);
                        assert_eq!(repeat, (pair, true), "repeat at t={t}");
                        lookups += 1;
                        reused += usize::from(kept);
                    }
                    t = t.saturating_add(rng.gen_range(0..shortest / 4));
                }
            }
            // Neither all reuse nor none: both paths of `eval` were taken.
            assert!(
                0 < reused && reused < lookups,
                "{reused} of {lookups} reused"
            );
        }
    }
}
