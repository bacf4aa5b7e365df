//! Shared sweep machinery: deterministic seeding, parallel evaluation,
//! result containers.

use cpa_analysis::{
    analyze_with, AnalysisConfig, AnalysisContext, AnalysisScratch, ContextBuffers, CrpdApproach,
    WeightedAccumulator,
};
use cpa_model::{CacheGeometry, Platform, Time};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Options shared by every experiment sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepOptions {
    /// Random task sets per (x-value, utilization) point.
    pub sets_per_point: usize,
    /// Base seed; everything downstream derives deterministically from it.
    pub seed: u64,
    /// RR/TDMA memory access slots per core (`s`, paper default 2).
    pub slots: u64,
    /// Worker threads (0 = auto-detect, capped at
    /// [`cpa_pool::MAX_AUTO_THREADS`]; the one shared policy of
    /// [`cpa_pool::resolve_threads`]).
    pub threads: usize,
    /// Pool chunk size (0 = pool default). Results are byte-identical at
    /// any chunk size; the knob exists for benchmarks and tests.
    pub chunk: usize,
    /// Core-utilization grid (paper: 0.05 to 1.0 in steps of 0.05).
    pub utilization_grid: Vec<f64>,
}

impl SweepOptions {
    /// Paper-scale options: 1000 sets per point, the full utilization grid.
    #[must_use]
    pub fn paper() -> Self {
        SweepOptions {
            sets_per_point: 1_000,
            seed: 0x0DA7_E202_0000,
            slots: 2,
            threads: 0,
            chunk: 0,
            utilization_grid: default_grid(),
        }
    }

    /// Reduced options for smoke tests and Criterion benches: 50 sets per
    /// point on the full grid.
    #[must_use]
    pub fn quick() -> Self {
        SweepOptions {
            sets_per_point: 50,
            ..SweepOptions::paper()
        }
    }

    /// Returns a copy with a different number of sets per point.
    #[must_use]
    pub fn with_sets_per_point(mut self, sets: usize) -> Self {
        self.sets_per_point = sets;
        self
    }

    /// Returns a copy with a different utilization grid.
    #[must_use]
    pub fn with_utilization_grid(mut self, grid: Vec<f64>) -> Self {
        self.utilization_grid = grid;
        self
    }

    /// Returns a copy with a different base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different worker thread count (0 = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy with a different pool chunk size (0 = default).
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    fn pool_options(&self) -> cpa_pool::PoolOptions {
        cpa_pool::PoolOptions::new()
            .with_threads(self.threads)
            .with_chunk(self.chunk)
    }
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions::paper()
    }
}

/// The paper's utilization grid: 0.05 to 1.0 in steps of 0.05.
#[must_use]
pub fn default_grid() -> Vec<f64> {
    (1..=20).map(|i| f64::from(i) * 0.05).collect()
}

/// One point of one experiment series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CurvePoint {
    /// Swept x-value (core utilization, cores, `d_mem` µs, ...).
    pub x: f64,
    /// Task sets deemed schedulable at this point.
    pub schedulable: u64,
    /// Task sets evaluated at this point.
    pub total: u64,
    /// Utilization-weighted schedulability at this point.
    pub weighted: f64,
}

/// A labelled experiment curve (e.g. "FP aware").
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Series {
    /// Human-readable curve label.
    pub label: String,
    /// Points in x order.
    pub points: Vec<CurvePoint>,
}

/// One regenerated figure or table panel.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentResult {
    /// Stable experiment id (`fig2a`, `fig3c`, ...).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// All curves of the panel.
    pub series: Vec<Series>,
}

/// Per-configuration tallies for one evaluated point.
#[derive(Debug, Clone, Default)]
pub struct PointStats {
    accumulators: Vec<WeightedAccumulator>,
}

impl PointStats {
    fn new(configs: usize) -> Self {
        PointStats {
            accumulators: vec![WeightedAccumulator::new(); configs],
        }
    }

    /// Accumulator of the `i`-th analysis configuration.
    #[must_use]
    pub fn config(&self, i: usize) -> &WeightedAccumulator {
        &self.accumulators[i]
    }
}

/// SplitMix64-style seed derivation: decorrelates per-set RNG streams from
/// `(base seed, point id, set index)` without any cross-thread state.
#[must_use]
pub fn derive_seed(base: u64, point: u64, set: u64) -> u64 {
    let mut z = base
        .wrapping_add(point.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(set.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the [`Platform`] matching a generator configuration (32-byte
/// lines, direct-mapped, as in the paper).
#[must_use]
pub fn platform_for(config: &GeneratorConfig) -> Platform {
    platform(config, config.d_mem)
}

/// [`platform_for`] with the memory latency overridden.
fn platform(config: &GeneratorConfig, d_mem: Time) -> Platform {
    Platform::builder()
        .cores(config.cores)
        .cache(CacheGeometry::direct_mapped(config.cache_sets, 32))
        .memory_latency(d_mem)
        .build()
        .expect("generator configs always map to valid platforms")
}

/// One panel or x-value of an experiment, evaluated over a population
/// shared with the experiment's other panels: the memory latency and
/// CRPD approach its [`AnalysisContext`] is built with, and the analysis
/// configurations it reports (one accumulator each).
///
/// The population's generator fixes the task sets, the core count and
/// the cache geometry; an evaluation only varies what the analysis sees.
/// That is exactly what separates Fig. 2's panels (bus policy), Fig. 3b's
/// x-values (`d_mem`, with periods sized by `period_d_mem`), Fig. 3d's
/// (slot count) and the CRPD ablation's series (CRPD approach).
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Memory latency of the analysed platform (and of the reported
    /// utilization).
    pub d_mem: Time,
    /// CRPD bound the context's `γ` table is filled with.
    pub crpd: CrpdApproach,
    /// Configurations solved and reported, in report order.
    pub configs: Vec<AnalysisConfig>,
}

impl Evaluation {
    /// An evaluation of `configs` at latency `d_mem` under `crpd`.
    #[must_use]
    pub fn new(d_mem: Time, crpd: CrpdApproach, configs: Vec<AnalysisConfig>) -> Self {
        Evaluation {
            d_mem,
            crpd,
            configs,
        }
    }
}

/// Which work one set of a population costs: every distinct context
/// built once, every distinct (context, configuration) solved once, and
/// the route from each evaluation's configurations back to those solves.
#[derive(Debug)]
struct SolvePlan {
    /// Distinct `(d_mem, CRPD approach)` contexts, in first-use order.
    contexts: Vec<(Time, CrpdApproach)>,
    /// Distinct `(context, configuration)` solves, in first-use order; a
    /// solve's index is its bit in a set's schedulability mask.
    solves: Vec<(usize, AnalysisConfig)>,
    /// Per evaluation: its context index and, per configuration, the
    /// index of the solve that answers it.
    routes: Vec<(usize, Vec<usize>)>,
}

impl SolvePlan {
    fn new(evaluations: &[Evaluation]) -> Self {
        let mut contexts = Vec::new();
        let mut solves = Vec::new();
        let routes = evaluations
            .iter()
            .map(|e| {
                let context = index_or_push(&mut contexts, (e.d_mem, e.crpd));
                let bits = e
                    .configs
                    .iter()
                    .map(|&cfg| index_or_push(&mut solves, (context, cfg)))
                    .collect();
                (context, bits)
            })
            .collect();
        assert!(solves.len() <= 64, "schedulability mask is 64 bits");
        SolvePlan {
            contexts,
            solves,
            routes,
        }
    }
}

/// Index of `item` in `items`, appending it first if it is new.
fn index_or_push<T: PartialEq>(items: &mut Vec<T>, item: T) -> usize {
    items.iter().position(|x| *x == item).unwrap_or_else(|| {
        items.push(item);
        items.len() - 1
    })
}

/// Evaluates one utilization point's population under every
/// [`Evaluation`] at once, returning one [`PointStats`] per evaluation.
///
/// Each of the `sets_per_point` task sets is generated once from
/// `gen_config` (deterministically in `opts.seed`, `point_id` and the set
/// index); one [`AnalysisContext`] is built per distinct
/// `(d_mem, CRPD approach)`, each distinct configuration of a context is
/// solved once, and its verdict is recorded for every evaluation that
/// lists it. The tallies are exactly those of one call per evaluation,
/// each with its own generator — the population depends only on the
/// generator, not on the analysed latency or configurations.
///
/// Work is scheduled on the deterministic [`cpa_pool`] chunk-claiming
/// pool; each worker keeps one [`AnalysisScratch`] plus recycled
/// [`ContextBuffers`], and the per-set outcomes are folded into each
/// evaluation's [`PointStats`] in set-index order — so every tally,
/// including the non-associative `f64` utilization sums, is
/// byte-identical at any thread count and chunk size.
///
/// Each worker's buffers survive across its sets and configurations.
/// Each solve is an independent [`analyze_with`] call, so every result
/// and every engine meter is the same at any thread count.
///
/// `experiments.sets_evaluated` counts reported samples (set ×
/// evaluation); `workload.sets_generated` and `pool.items` count sets.
///
/// # Panics
///
/// Panics if `gen_config` is invalid (the experiment definitions in this
/// crate only produce valid ones) or if the evaluations need more than
/// 64 distinct solves (per-set outcomes travel as a schedulability
/// bitmask).
#[must_use]
pub fn evaluate_population(
    gen_config: &GeneratorConfig,
    evaluations: &[Evaluation],
    opts: &SweepOptions,
    point_id: u64,
) -> Vec<PointStats> {
    let plan = SolvePlan::new(evaluations);
    let generator = TaskSetGenerator::new(gen_config.clone()).expect("valid generator config");
    let platforms: Vec<Platform> = plan
        .contexts
        .iter()
        .map(|&(d_mem, _)| platform(gen_config, d_mem))
        .collect();

    let _span = cpa_obs::span!("experiments.evaluate_point");
    let evaluated = cpa_obs::counter("experiments.sets_evaluated");
    // Evaluations run sequentially from the driver, so a process-wide epoch
    // gives each call a scope block of its own even when point ids repeat
    // across experiments.
    let epoch = cpa_obs::next_scope_epoch();
    let outcomes: Vec<(Vec<f64>, u64)> = cpa_pool::map(
        opts.sets_per_point,
        opts.pool_options(),
        epoch,
        |_worker| (AnalysisScratch::new(), ContextBuffers::new()),
        |(scratch, buffers), set| {
            let set_seed = derive_seed(opts.seed, point_id, set as u64);
            let mut rng = ChaCha8Rng::seed_from_u64(set_seed);
            let tasks = generator.generate(&mut rng).expect("generation succeeds");
            let mut utilizations = Vec::with_capacity(plan.contexts.len());
            let mut schedulable_mask = 0u64;
            for (context, (platform, &(d_mem, crpd))) in
                platforms.iter().zip(&plan.contexts).enumerate()
            {
                let ctx =
                    AnalysisContext::with_crpd_approach_buffers(platform, &tasks, crpd, buffers)
                        .expect("task set fits platform");
                utilizations.push(tasks.total_utilization(d_mem));
                for (bit, (_, cfg)) in plan
                    .solves
                    .iter()
                    .enumerate()
                    .filter(|(_, (c, _))| *c == context)
                {
                    if analyze_with(&ctx, cfg, scratch).is_schedulable() {
                        schedulable_mask |= 1 << bit;
                    }
                }
                ctx.recycle(buffers);
            }
            evaluated.add(evaluations.len() as u64);
            (utilizations, schedulable_mask)
        },
    );

    plan.routes
        .iter()
        .map(|(context, bits)| {
            let mut stats = PointStats::new(bits.len());
            for (utilizations, mask) in &outcomes {
                for (acc, &bit) in stats.accumulators.iter_mut().zip(bits) {
                    acc.record(utilizations[*context], mask & (1 << bit) != 0);
                }
            }
            stats
        })
        .collect()
}

/// Runs `evaluations` over the population of every point of
/// `opts.utilization_grid` (`base` at that per-core utilization, point id
/// = grid index), handing each point's per-evaluation stats to `visit`
/// in grid order.
///
/// # Panics
///
/// Same conditions as [`evaluate_population`].
pub(crate) fn sweep_utilization(
    opts: &SweepOptions,
    base: &GeneratorConfig,
    evaluations: &[Evaluation],
    mut visit: impl FnMut(f64, &[PointStats]),
) {
    for (ui, &utilization) in opts.utilization_grid.iter().enumerate() {
        let gen = base.clone().with_per_core_utilization(utilization);
        let stats = evaluate_population(&gen, evaluations, opts, ui as u64);
        visit(utilization, &stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_analysis::{BusPolicy, PersistenceMode};

    #[test]
    fn default_grid_matches_paper() {
        let g = default_grid();
        assert_eq!(g.len(), 20);
        assert!((g[0] - 0.05).abs() < 1e-12);
        assert!((g[19] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn derive_seed_decorrelates() {
        let a = derive_seed(1, 2, 3);
        assert_ne!(a, derive_seed(1, 2, 4));
        assert_ne!(a, derive_seed(1, 3, 3));
        assert_ne!(a, derive_seed(2, 2, 3));
        assert_eq!(a, derive_seed(1, 2, 3));
    }

    /// One evaluation of `configs` at the generator's own latency.
    fn evaluate(
        gen: &GeneratorConfig,
        configs: &[AnalysisConfig],
        opts: &SweepOptions,
        point_id: u64,
    ) -> PointStats {
        let evaluation = Evaluation::new(gen.d_mem, CrpdApproach::EcbUnion, configs.to_vec());
        evaluate_population(gen, &[evaluation], opts, point_id).remove(0)
    }

    #[test]
    fn evaluation_is_thread_count_invariant() {
        let gen = GeneratorConfig::paper_default().with_per_core_utilization(0.3);
        let configs = [
            AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware),
            AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Oblivious),
        ];
        let base = SweepOptions::quick().with_sets_per_point(6);
        let a = evaluate(&gen, &configs, &base.clone().with_threads(1), 7);
        let b = evaluate(&gen, &configs, &base.with_threads(4), 7);
        for i in 0..configs.len() {
            assert_eq!(a.config(i).samples(), 6);
            assert_eq!(
                a.config(i).schedulable_count(),
                b.config(i).schedulable_count()
            );
            // Outcomes fold in set-index order on every thread count, so
            // even the f64 sums are bit-identical, not merely close.
            assert_eq!(a.config(i).value().to_bits(), b.config(i).value().to_bits());
        }
    }

    /// The pooled, buffer-recycling evaluation against the reference path:
    /// each set recomputed on its own through the literal spec — the same
    /// sets (by seed), the same verdicts, folded in the same order.
    #[test]
    fn pooled_evaluation_matches_reference_path() {
        let gen = GeneratorConfig::paper_default().with_per_core_utilization(0.5);
        let configs = [
            AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware),
            AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Oblivious),
            AnalysisConfig::new(BusPolicy::RoundRobin { slots: 2 }, PersistenceMode::Aware),
            AnalysisConfig::new(BusPolicy::Perfect, PersistenceMode::Aware),
        ];
        let opts = SweepOptions::quick().with_sets_per_point(8).with_threads(2);
        let pooled = evaluate(&gen, &configs, &opts, 3);

        let generator = TaskSetGenerator::new(gen.clone()).unwrap();
        let platform = platform_for(&gen);
        let mut expected = vec![WeightedAccumulator::new(); configs.len()];
        for set in 0..opts.sets_per_point {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(opts.seed, 3, set as u64));
            let tasks = generator.generate(&mut rng).unwrap();
            let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
            let utilization = tasks.total_utilization(gen.d_mem);
            for (acc, cfg) in expected.iter_mut().zip(&configs) {
                let result = cpa_analysis::spec::analyze(&ctx, cfg).expect("no overflow");
                acc.record(utilization, result.is_schedulable());
            }
        }
        for (i, want) in expected.iter().enumerate() {
            let got = pooled.config(i);
            assert_eq!(got.samples(), want.samples(), "config {i}");
            assert_eq!(
                got.schedulable_count(),
                want.schedulable_count(),
                "config {i}"
            );
            assert_eq!(got.value().to_bits(), want.value().to_bits(), "config {i}");
        }
    }

    #[test]
    fn aware_dominates_oblivious_in_aggregate() {
        let gen = GeneratorConfig::paper_default().with_per_core_utilization(0.5);
        let configs = [
            AnalysisConfig::new(BusPolicy::RoundRobin { slots: 2 }, PersistenceMode::Aware),
            AnalysisConfig::new(
                BusPolicy::RoundRobin { slots: 2 },
                PersistenceMode::Oblivious,
            ),
        ];
        let opts = SweepOptions::quick().with_sets_per_point(10);
        let stats = evaluate(&gen, &configs, &opts, 1);
        assert!(stats.config(0).schedulable_count() >= stats.config(1).schedulable_count());
    }
}
