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
//!   byte-identical responses, also for a request no configuration can
//!   make schedulable;
//! * over a utilization panel straddling the schedulability cliff, no
//!   optimized configuration loses the default's schedulability and at
//!   least one is strictly improved;
//! * in-batch repeats are served as cache hits, and a batch is validated
//!   whole before any search runs.

use cpa_analysis::{AnalysisConfig, BusPolicy, PersistenceMode};
use cpa_model::{CacheBlockSet, CacheGeometry, CoreId, Platform, Priority, Task, TaskSet, Time};
use cpa_optimize::{
    gen_batch, optimize, process_batch, request_key, GenOptions, OptimizeRequest, ResultCache,
    SearchKnobs, ServiceOptions,
};
use serde::Deserialize;

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

/// Result-cache entries are named by `request_key`, so the key is an
/// on-disk format: cache directories written by earlier builds must keep
/// hitting.
#[test]
fn request_keys_are_pinned() {
    let opts = GenOptions {
        sets: 1,
        seed: 42,
        toy: true,
        ..GenOptions::default()
    };
    let request = &requests(&opts)[0];
    let tasks = TaskSet::new(request.tasks.clone()).expect("generated tasks are valid");
    assert_eq!(request_key(request, &tasks), 0x5fd4_8f43_2744_10a2);
}

#[test]
fn zero_slot_requests_fail_with_a_per_request_error() {
    // A slotted bus needs s ≥ 1: a zero-slot TDMA request used to be
    // analysed with no wait slots at all and come back schedulable. `gen`
    // refuses to write one, so the batch is edited by hand.
    for bus in ["rr", "tdma"] {
        let opts = GenOptions {
            sets: 1,
            cores: 2,
            tasks_per_core: 3,
            cache_sets: 32,
            util: 0.5,
            bus: bus.to_string(),
            toy: true,
            ..GenOptions::default()
        };
        let refused = gen_batch(&GenOptions {
            slots: 0,
            ..opts.clone()
        })
        .expect_err("gen applies the per-request check");
        assert!(
            refused.contains(&format!("bus `{bus}` needs at least one slot")),
            "{refused}"
        );
        let mut batch = requests(&opts);
        batch[0].slots = 0;
        let err = process_batch(
            &serde_json::to_string(&batch).unwrap(),
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

/// The requests of a generated batch, for tests that edit or rearrange
/// them.
fn requests(opts: &GenOptions) -> Vec<OptimizeRequest> {
    serde_json::from_str(&gen_batch(opts).expect("batch generates")).expect("batch parses")
}

fn run_with_threads(
    batch: &str,
    threads: usize,
) -> Result<(String, cpa_optimize::BatchStats), String> {
    let opts = ServiceOptions {
        threads,
        ..ServiceOptions::default()
    };
    process_batch(batch, &opts, &mut ResultCache::in_memory())
}

#[test]
fn oversized_core_counts_fail_with_a_per_request_error() {
    // A core count far beyond the task count used to abort the process
    // while the analysis sized its per-core tables.
    let mut batch = requests(&GenOptions {
        sets: 1,
        cores: 2,
        tasks_per_core: 3,
        cache_sets: 32,
        toy: true,
        ..GenOptions::default()
    });
    let tasks = batch[0].tasks.len();
    for cores in [10_000_000_000_000, tasks + 1] {
        batch[0].cores = cores;
        let json = serde_json::to_string(&batch).unwrap();
        let err = run_with_threads(&json, 1).expect_err("more cores than tasks is rejected");
        assert!(err.starts_with("request 'req-000'"), "{err}");
        assert!(
            err.contains(&format!("{cores} cores exceed the {tasks} tasks")),
            "{err}"
        );
    }
    // One core per task is still a valid request.
    batch[0].cores = tasks;
    let json = serde_json::to_string(&batch).unwrap();
    let (_, stats) = run_with_threads(&json, 1).expect("one core per task is accepted");
    assert_eq!(stats.cache_misses, 1);
}

#[test]
fn in_batch_repeats_are_cache_hits_and_thread_invariant() {
    let mut unique = Vec::new();
    for bus in ["fp", "rr", "tdma", "perfect"] {
        unique.extend(requests(&GenOptions {
            sets: 2,
            seed: 11,
            cores: 2,
            tasks_per_core: 3,
            cache_sets: 32,
            util: 0.5,
            bus: bus.to_string(),
            toy: true,
            ..GenOptions::default()
        }));
    }
    for (k, request) in unique.iter_mut().enumerate() {
        request.name = format!("unique-{k}");
    }
    // Repeat every third request right away, and the first one at the end.
    let mut repeated = Vec::new();
    for (k, request) in unique.iter().enumerate() {
        repeated.push(request.clone());
        if k % 3 == 2 {
            repeated.push(unique[k - 1].clone());
        }
    }
    repeated.push(unique[0].clone());
    let repeats = (repeated.len() - unique.len()) as u64;

    let unique_json = serde_json::to_string(&unique).unwrap();
    let repeated_json = serde_json::to_string(&repeated).unwrap();
    let (unique_body, unique_stats) = run_with_threads(&unique_json, 1).unwrap();
    let (body, stats) = run_with_threads(&repeated_json, 1).unwrap();
    for threads in [2, 4] {
        let (other, other_stats) = run_with_threads(&repeated_json, threads).unwrap();
        assert_eq!(
            body, other,
            "1-thread and {threads}-thread bytes must match"
        );
        assert_eq!(other_stats.cache_hits, stats.cache_hits);
    }
    assert_eq!(stats.cache_hits, repeats, "every repeat is a cache hit");
    assert_eq!(stats.cache_misses, unique.len() as u64);
    assert_eq!(
        stats.candidates, unique_stats.candidates,
        "repeats must not search again"
    );
    // Each repeat's response is its first occurrence's, byte for byte.
    let line = |body: &str, name: &str| -> String {
        body.lines()
            .find(|l| l.contains(&format!("\"name\":\"{name}\"")))
            .expect("every request has a response")
            .trim_end_matches(',')
            .to_string()
    };
    let lines: Vec<&str> = body.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(lines.len(), repeated.len());
    for (request, got) in repeated.iter().zip(&lines) {
        assert_eq!(got.trim_end_matches(','), line(&unique_body, &request.name));
    }
}

#[test]
fn the_first_invalid_request_fails_the_batch_before_any_search() {
    let mut batch = requests(&GenOptions {
        sets: 5,
        cores: 2,
        tasks_per_core: 3,
        cache_sets: 32,
        util: 0.5,
        toy: true,
        ..GenOptions::default()
    });
    batch[1].mode = "forgetful".to_string();
    batch[3].bus = "crossbar".to_string();
    let json = serde_json::to_string(&batch).unwrap();
    let dir = std::env::temp_dir().join(format!("cpa-optimize-error-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut messages = Vec::new();
    for threads in [1, 4] {
        let mut cache = ResultCache::persistent(&dir).unwrap();
        let opts = ServiceOptions {
            threads,
            ..ServiceOptions::default()
        };
        let err = process_batch(&json, &opts, &mut cache).expect_err("the batch is invalid");
        assert!(err.starts_with("request 'req-001'"), "{err}");
        assert!(
            err.contains("unknown persistence mode `forgetful`"),
            "{err}"
        );
        assert!(cache.is_empty());
        messages.push(err);
    }
    assert_eq!(messages[0], messages[1]);
    let written = std::fs::read_dir(&dir).unwrap().count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        written, 0,
        "validation runs before any search or cache write"
    );
}

/// The bench's utilization panel: per-core utilizations straddling the
/// schedulability cliff, so it holds easy, marginal and hopeless
/// defaults.
const PANEL_UTILS: [f64; 6] = [0.4, 0.5, 0.6, 0.8, 0.9, 0.95];

#[test]
fn the_utilization_panel_dominates_improves_and_matches_full_evaluation() {
    let (mut improved, mut violations) = (0, Vec::new());
    for util in PANEL_UTILS {
        let batch = gen_batch(&GenOptions {
            sets: 3,
            seed: 42,
            cores: 2,
            tasks_per_core: 3,
            cache_sets: 32,
            util,
            toy: true,
            ..GenOptions::default()
        })
        .expect("panel batch generates");
        let run = |full_eval: bool| {
            let opts = ServiceOptions {
                full_eval,
                ..ServiceOptions::default()
            };
            process_batch(&batch, &opts, &mut ResultCache::in_memory()).expect("panel processes")
        };
        let (fast, fast_stats) = run(false);
        let (full, full_stats) = run(true);
        assert_eq!(
            fast, full,
            "util {util}: full evaluation and fast path differ"
        );
        assert_eq!(fast_stats.candidates, full_stats.candidates, "util {util}");
        // Weak dominance: a schedulable default stays schedulable.
        assert!(fast_stats.schedulable_optimized >= fast_stats.schedulable_default);
        for line in fast.lines().filter(|l| l.starts_with('{')) {
            if line.contains("\"schedulable_default\":true")
                && !line.contains("\"schedulable_optimized\":true")
            {
                violations.push(format!("util {util}: {line}"));
            }
        }
        improved += fast_stats.strictly_improved;
    }
    assert!(
        violations.is_empty(),
        "weak dominance violated: {violations:?}"
    );
    assert!(
        improved >= 1,
        "the panel must strictly improve some request"
    );
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
    let exhaustive = optimize(&tasks, &platform, &config, &knobs, 42, false);
    assert_eq!(exhaustive.stats.strategy, "exhaustive");

    knobs.exhaustive_limit = 0; // forced local search
    knobs.restarts = 4;
    knobs.max_rounds = 20;
    knobs.neighbors = 16;
    knobs.patience = 5;
    let local = optimize(&tasks, &platform, &config, &knobs, 42, false);
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
    let outcome = optimize(&tasks, &platform, &config, &knobs, 42, false);
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
fn a_request_with_an_infeasible_task_is_searched_identically_in_both_modes() {
    // One task's own demand `PD + MD · d_mem` exceeds its deadline, so no
    // configuration is schedulable. The search still scores every
    // candidate with the full analysis, whose partial slack ranks them.
    let mut batch = requests(&GenOptions {
        sets: 3,
        seed: 9,
        cores: 2,
        tasks_per_core: 3,
        cache_sets: 32,
        util: 0.5,
        toy: true,
        ..GenOptions::default()
    });
    for request in [0, 2] {
        let d_mem = batch[request].d_mem;
        let t = &batch[request].tasks[1];
        let own = t.processing_demand().cycles() + t.memory_demand() * d_mem;
        let infeasible = Task::builder(t.name())
            .processing_demand(t.processing_demand())
            .memory_demand(t.memory_demand())
            .residual_memory_demand(t.residual_memory_demand())
            .period(t.period())
            .deadline(Time::from_cycles(own - 1))
            .core(t.core())
            .priority(t.priority())
            .ecb(t.ecb().clone())
            .ucb(t.ucb().clone())
            .pcb(t.pcb().clone())
            .build()
            .expect("a deadline below the own demand is still a valid task");
        batch[request].tasks[1] = infeasible;
    }
    let batch = serde_json::to_string(&batch).unwrap();
    let run = |full_eval: bool, threads: usize| {
        let service = ServiceOptions {
            threads,
            full_eval,
            ..ServiceOptions::default()
        };
        process_batch(&batch, &service, &mut ResultCache::in_memory()).expect("batch processes")
    };
    let (fast, _) = run(false, 1);
    assert_eq!(
        fast,
        run(false, 4).0,
        "1-thread and 4-thread bytes must match"
    );
    assert_eq!(
        fast,
        run(true, 1).0,
        "full evaluation must match byte for byte"
    );
    /// `Score` as serialized, fields in the order of its derived `Ord`.
    #[derive(Debug, Deserialize, PartialEq, Eq, PartialOrd, Ord)]
    struct Score {
        schedulable: bool,
        converged: u32,
        min_slack: u64,
        total_slack: u64,
    }
    #[derive(Deserialize)]
    struct Response {
        default_score: Score,
        optimized_score: Score,
        stats: Stats,
    }
    #[derive(Deserialize)]
    struct Stats {
        candidates: u64,
    }
    let responses: Vec<Response> = serde_json::from_str(&fast).expect("responses parse");
    for (k, response) in responses.iter().enumerate() {
        let (default, optimized) = (&response.default_score, &response.optimized_score);
        assert!(
            optimized >= default,
            "response {k}: {optimized:?} < {default:?}"
        );
        if k != 1 {
            assert!(
                !optimized.schedulable,
                "response {k}: an infeasible task is never schedulable"
            );
            assert!(
                response.stats.candidates > 1,
                "response {k}: the search must run"
            );
        }
    }
}

#[test]
fn same_seed_same_outcome_different_seed_may_differ() {
    let (tasks, platform) = tiny_set();
    let config = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware);
    let mut knobs = SearchKnobs::toy();
    knobs.exhaustive_limit = 0; // seed only matters for local search
    let a = optimize(&tasks, &platform, &config, &knobs, 7, false);
    let b = optimize(&tasks, &platform, &config, &knobs, 7, false);
    assert_eq!(a.best, b.best);
    assert_eq!(a.best_score, b.best_score);
    assert_eq!(a.stats.candidates, b.stats.candidates);
    assert_eq!(a.stats.moves_accepted, b.stats.moves_accepted);
}
