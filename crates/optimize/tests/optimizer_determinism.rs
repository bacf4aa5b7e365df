//! The optimizer's determinism contract, end to end:
//!
//! * same seed + same batch ⇒ byte-identical response JSON at 1 worker
//!   thread and at N;
//! * a repeated batch is served entirely from the result cache, byte for
//!   byte;
//! * local search agrees with exhaustive enumeration on a toy space;
//! * on a misconfigured seeded set the optimizer strictly improves on the
//!   default configuration, flipping it to schedulable;
//! * the delta-scoped fast path (solve memo + slot-patched assembly)
//!   and the independent full-evaluation path produce
//!   byte-identical responses, and admission pruning decides identically
//!   in both.

use cpa_analysis::{AnalysisConfig, BusPolicy, PersistenceMode};
use cpa_model::{CacheBlockSet, CacheGeometry, CoreId, Platform, Priority, Task, TaskSet, Time};
use cpa_optimize::{
    gen_batch, optimize, process_batch, GenOptions, ResultCache, SearchKnobs, ServiceOptions,
};
use cpa_pool::PoolOptions;

fn toy_batch() -> String {
    let opts = GenOptions {
        sets: 3,
        seed: 42,
        cores: 2,
        tasks_per_core: 3,
        cache_sets: 32,
        util: 0.5,
        toy: true,
        ..GenOptions::default()
    };
    gen_batch(&opts).expect("toy batch generates")
}

#[test]
fn responses_are_invariant_in_the_thread_count() {
    let batch = toy_batch();
    let run = |threads: usize| {
        let mut cache = ResultCache::in_memory();
        let opts = ServiceOptions {
            threads,
            ..ServiceOptions::default()
        };
        process_batch(&batch, &opts, &mut cache).expect("batch processes")
    };
    let (single, single_stats) = run(1);
    let (parallel, parallel_stats) = run(4);
    assert_eq!(single, parallel, "1-thread and 4-thread bytes must match");
    assert_eq!(single_stats.cache_misses, 3);
    assert_eq!(parallel_stats.cache_misses, 3);
    // And a different chunking must not matter either.
    let mut cache = ResultCache::in_memory();
    let odd_chunk = ServiceOptions {
        threads: 3,
        chunk: 5,
        ..ServiceOptions::default()
    };
    let (chunked, _) = process_batch(&batch, &odd_chunk, &mut cache).expect("batch processes");
    assert_eq!(single, chunked, "chunk size must not reach the output");
}

#[test]
fn repeated_batches_are_served_from_the_cache() {
    let batch = toy_batch();
    let opts = ServiceOptions::default();
    let mut cache = ResultCache::in_memory();
    let (cold, cold_stats) = process_batch(&batch, &opts, &mut cache).expect("cold run");
    assert_eq!(cold_stats.cache_hits, 0);
    assert_eq!(cold_stats.cache_misses, cold_stats.requests);
    assert!(cold_stats.candidates > 0, "cold run searches");

    let (warm, warm_stats) = process_batch(&batch, &opts, &mut cache).expect("warm run");
    assert_eq!(
        warm_stats.cache_hits, warm_stats.requests,
        "every request must hit the cache on the second run"
    );
    assert_eq!(warm_stats.cache_misses, 0);
    assert_eq!(warm_stats.candidates, 0, "warm run does no search");
    assert_eq!(cold, warm, "cached replay must be byte-identical");
    // Verdict tallies are recomputed from the cached documents.
    assert_eq!(warm_stats.strictly_improved, cold_stats.strictly_improved);
    assert_eq!(
        warm_stats.schedulable_optimized,
        cold_stats.schedulable_optimized
    );
}

#[test]
fn zero_slot_requests_fail_with_a_per_request_error() {
    // A slotted bus needs s ≥ 1: a zero-slot TDMA request used to be
    // analysed with no wait slots at all and come back schedulable.
    for bus in ["rr", "tdma"] {
        let batch = gen_batch(&GenOptions {
            sets: 1,
            cores: 2,
            tasks_per_core: 3,
            cache_sets: 32,
            util: 0.5,
            bus: bus.to_string(),
            slots: 0,
            toy: true,
            ..GenOptions::default()
        })
        .expect("generation does not analyse");
        let err = process_batch(
            &batch,
            &ServiceOptions::default(),
            &mut ResultCache::in_memory(),
        )
        .expect_err("zero slots must be rejected");
        assert!(err.starts_with("request 'req-000'"), "{err}");
        assert!(
            err.contains(&format!("bus `{bus}` needs at least one slot")),
            "{err}"
        );
    }
}

/// A 3-task fixture on a 16-set cache, small enough that the full space
/// (2³ partitionings × 3! orders × 2³ colorings = 384 points) enumerates
/// quickly.
fn tiny_set() -> (TaskSet, Platform) {
    let mk = |name: &str, prio: u32, core: usize, pd: u64, md: u64, deadline: u64, start| {
        Task::builder(name)
            .processing_demand(Time::from_cycles(pd))
            .memory_demand(md)
            .residual_memory_demand(md / 4)
            .period(Time::from_cycles(deadline))
            .deadline(Time::from_cycles(deadline))
            .core(CoreId::new(core))
            .priority(Priority::new(prio))
            .ecb(CacheBlockSet::contiguous(16, start, 8))
            .ucb(CacheBlockSet::contiguous(16, start, 4))
            .pcb(CacheBlockSet::contiguous(16, start + 4, 3))
            .build()
            .unwrap()
    };
    // Deliberately misordered: the urgent task sits at the lowest
    // priority behind two heavy tasks sharing its core and footprint.
    let tasks = TaskSet::new(vec![
        mk("heavy-a", 0, 0, 4_000, 24, 40_000, 0),
        mk("heavy-b", 1, 0, 4_000, 24, 40_000, 0),
        mk("urgent", 2, 0, 500, 8, 5_000, 0),
    ])
    .unwrap();
    let platform = Platform::builder()
        .cores(2)
        .cache(CacheGeometry::direct_mapped(16, 32))
        .memory_latency(Time::from_cycles(50))
        .build()
        .unwrap();
    (tasks, platform)
}

#[test]
fn local_search_agrees_with_exhaustive_on_a_toy_space() {
    let (tasks, platform) = tiny_set();
    let config = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware);
    let mut knobs = SearchKnobs::toy();
    knobs.colors = 2;

    knobs.exhaustive_limit = 1_000; // 2³·3!·2³ = 384 < 1000: forced exhaustive
    let exhaustive = optimize(&tasks, &platform, &config, &knobs, 42, PoolOptions::new());
    assert_eq!(exhaustive.stats.strategy, "exhaustive");

    knobs.exhaustive_limit = 0; // forced local search
    knobs.restarts = 4;
    knobs.max_rounds = 20;
    knobs.neighbors = 16;
    knobs.patience = 5;
    let local = optimize(&tasks, &platform, &config, &knobs, 42, PoolOptions::new());
    assert_eq!(local.stats.strategy, "local-search");

    assert_eq!(local.default_score, exhaustive.default_score);
    assert!(
        exhaustive.best_score >= local.best_score,
        "exhaustive is the global optimum"
    );
    assert_eq!(
        local.best_score.schedulable, exhaustive.best_score.schedulable,
        "local search must reach schedulability whenever it exists here"
    );
    assert_eq!(
        local.best_score, exhaustive.best_score,
        "on this space the seeded local search finds the global optimum"
    );
}

#[test]
fn optimizer_strictly_improves_a_misordered_set() {
    let (tasks, platform) = tiny_set();
    let config = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware);
    let knobs = SearchKnobs::toy();
    let outcome = optimize(&tasks, &platform, &config, &knobs, 42, PoolOptions::new());
    assert!(
        !outcome.default_score.schedulable,
        "fixture: the default order misses the urgent deadline"
    );
    assert!(
        outcome.best_score.schedulable,
        "reordering/partitioning/coloring makes the set schedulable"
    );
    assert!(outcome.best_score > outcome.default_score);
    // The urgent task cannot stay at the bottom of the priority order.
    let urgent_rank = outcome.best.ranks[2];
    assert!(
        urgent_rank < 2,
        "urgent task must be promoted, got rank {urgent_rank}"
    );
}

#[test]
fn full_evaluation_and_delta_scoped_paths_agree_byte_for_byte() {
    let batch = toy_batch();
    let run = |full_eval: bool, threads: usize| {
        let mut cache = ResultCache::in_memory();
        let opts = ServiceOptions {
            threads,
            full_eval,
            ..ServiceOptions::default()
        };
        process_batch(&batch, &opts, &mut cache).expect("batch processes")
    };
    let (full, full_stats) = run(true, 1);
    let (fast, fast_stats) = run(false, 4);
    assert_eq!(
        full, fast,
        "independent full evaluation and the delta-scoped pipeline must agree byte for byte"
    );
    assert_eq!(full_stats.candidates, fast_stats.candidates);
    // And the fast path is itself thread-invariant under full_eval too.
    let (full4, _) = run(true, 4);
    assert_eq!(full, full4);
}

#[test]
fn admission_pruning_fires_identically_in_both_modes() {
    // Overloaded per-core utilization: any Reassign move that doubles up
    // a core trips the residual-utilization bound, so the walk genuinely
    // prunes.
    let opts = GenOptions {
        sets: 2,
        seed: 9,
        cores: 2,
        tasks_per_core: 3,
        cache_sets: 32,
        util: 0.95,
        toy: true,
        ..GenOptions::default()
    };
    let batch = gen_batch(&opts).expect("batch generates");
    let run = |full_eval: bool| {
        let mut cache = ResultCache::in_memory();
        let service = ServiceOptions {
            full_eval,
            ..ServiceOptions::default()
        };
        process_batch(&batch, &service, &mut cache).expect("batch processes")
    };
    let (fast, _) = run(false);
    let (full, _) = run(true);
    // `stats.pruned` is part of the response document, so byte equality
    // pins the pruning decisions across modes.
    assert_eq!(fast, full);
    assert!(fast.contains("\"pruned\":"), "stats must report pruning");
    let some_pruned = fast
        .split("\"pruned\":")
        .skip(1)
        .any(|rest| !rest.starts_with('0'));
    assert!(some_pruned, "fixture must actually prune candidates");
}

#[test]
fn same_seed_same_outcome_different_seed_may_differ() {
    let (tasks, platform) = tiny_set();
    let config = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware);
    let mut knobs = SearchKnobs::toy();
    knobs.exhaustive_limit = 0; // seed only matters for local search
    let a = optimize(&tasks, &platform, &config, &knobs, 7, PoolOptions::new());
    let b = optimize(&tasks, &platform, &config, &knobs, 7, PoolOptions::new());
    assert_eq!(a.best, b.best);
    assert_eq!(a.best_score, b.best_score);
    assert_eq!(a.stats.candidates, b.stats.candidates);
    assert_eq!(a.stats.moves_accepted, b.stats.moves_accepted);
}
