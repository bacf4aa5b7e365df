//! Random task-set construction following §V of the paper.

use cpa_model::{CacheBlockSet, CoreId, ModelError, Priority, Task, TaskSet, Time, MAX_TASKS};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::malardalen::{benchmarks, BenchmarkParams};
use crate::uunifast::uunifast;

/// How a task's period is derived from its utilization share.
///
/// The paper prints `T_i = D_i = (PD_i + MD_i)/U_i`; dimensionally the
/// memory term must be a *time*, and the companion papers (ECRTS 2016,
/// RTSS 2017) spell the formula out as `(PD_i + MD_i · d_mem)/U_i`. Both
/// conventions are provided; [`UtilizationModel::MemoryScaled`] is the
/// default and is what makes the utilization sweep of Fig. 2 meaningful
/// (with `Raw`, memory-dominated benchmarks exceed 100% actual load at any
/// nominal utilization once `d_mem` is in the thousands of cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum UtilizationModel {
    /// `T_i = (PD_i + MD_i · d_mem) / U_i` — memory demand converted to
    /// time (default).
    #[default]
    MemoryScaled,
    /// `T_i = (PD_i + MD_i) / U_i` — the formula exactly as printed.
    Raw,
}

/// Configuration of the random task-set generator.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GeneratorConfig {
    /// Number of cores (`m`); the paper's default is 4.
    pub cores: usize,
    /// Tasks per core; the paper's default is 8.
    pub tasks_per_core: usize,
    /// Target utilization of each core (equal split across cores, as in
    /// the paper).
    pub per_core_utilization: f64,
    /// Number of cache sets of the private instruction caches
    /// (default 256).
    pub cache_sets: usize,
    /// Cache geometry the benchmark parameters were extracted for
    /// (default 256 sets). When [`GeneratorConfig::cache_sets`] differs,
    /// the per-task persistence parameters are re-scaled — see
    /// [`scale_persistence`].
    pub reference_cache_sets: usize,
    /// Worst-case memory access latency `d_mem` (default 5).
    ///
    /// The benchmark tables give `PD`/`MD` in abstract "cycles" whose scale
    /// the paper never ties to the microsecond `d_mem` axis; the only
    /// reading that keeps the published `PD:MD` balance meaningful (and
    /// reproduces the paper's schedulability ranges) is one benchmark-table
    /// cycle ≙ 1 µs, hence `d_mem = 5` time units for the paper's default
    /// 5 µs (see DESIGN.md §4 "Units").
    pub d_mem: Time,
    /// Period derivation convention.
    pub utilization_model: UtilizationModel,
    /// Memory latency used for *period sizing* when it should differ from
    /// the analysed `d_mem`. The Fig. 3b sweep varies the platform latency
    /// while keeping the task-set population fixed: periods stay sized for
    /// the paper's default latency while the analysis sees the swept one.
    /// `None` (default) sizes periods with [`GeneratorConfig::d_mem`].
    pub period_d_mem: Option<Time>,
    /// The benchmark pool tasks are drawn from.
    pub pool: Vec<BenchmarkParams>,
}

impl GeneratorConfig {
    /// The paper's default evaluation setting: 4 cores × 8 tasks, 256 cache
    /// sets, `d_mem` = 5 µs (≙ 5 benchmark-table cycles; see
    /// [`GeneratorConfig::d_mem`]), full benchmark pool.
    #[must_use]
    pub fn paper_default() -> Self {
        GeneratorConfig {
            cores: 4,
            tasks_per_core: 8,
            per_core_utilization: 0.5,
            cache_sets: 256,
            reference_cache_sets: 256,
            d_mem: Time::from_cycles(5),
            utilization_model: UtilizationModel::MemoryScaled,
            period_d_mem: None,
            pool: benchmarks().to_vec(),
        }
    }

    /// Returns a copy with a different per-core utilization target.
    #[must_use]
    pub fn with_per_core_utilization(mut self, utilization: f64) -> Self {
        self.per_core_utilization = utilization;
        self
    }

    /// Returns a copy with a different core count (Fig. 3a sweep).
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Returns a copy with a different memory latency (Fig. 3b sweep).
    #[must_use]
    pub fn with_d_mem(mut self, d_mem: Time) -> Self {
        self.d_mem = d_mem;
        self
    }

    /// Returns a copy whose periods are sized for `d_mem_ref` regardless of
    /// the analysed latency (see [`GeneratorConfig::period_d_mem`]).
    #[must_use]
    pub fn with_period_d_mem(mut self, d_mem_ref: Time) -> Self {
        self.period_d_mem = Some(d_mem_ref);
        self
    }

    /// Returns a copy with a different cache-set count (Fig. 3c sweep).
    /// Benchmark footprints larger than the cache are clamped by the
    /// direct-mapped wrap-around placement.
    #[must_use]
    pub fn with_cache_sets(mut self, cache_sets: usize) -> Self {
        self.cache_sets = cache_sets;
        self
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig::paper_default()
    }
}

/// Random task-set generator reproducing the paper's methodology:
/// UUnifast per-core utilizations, benchmark-sampled task parameters,
/// implicit deadlines `T_i = D_i = demand/U_i`, deadline-monotonic unique
/// priorities, contiguous cache footprints at a uniformly random offset.
#[derive(Debug, Clone)]
pub struct TaskSetGenerator {
    config: GeneratorConfig,
}

impl TaskSetGenerator {
    /// Creates a generator after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTaskSet`] if the configuration is
    /// degenerate: zero cores or tasks, more than [`MAX_TASKS`] tasks in
    /// all, non-positive utilization, empty or inconsistent benchmark pool,
    /// or a zero-sized cache.
    pub fn new(config: GeneratorConfig) -> Result<Self, ModelError> {
        let invalid = |reason: String| ModelError::InvalidTaskSet { reason };
        if config.cores == 0 {
            return Err(invalid("generator needs at least one core".into()));
        }
        if config.tasks_per_core == 0 {
            return Err(invalid("generator needs at least one task per core".into()));
        }
        match config.cores.checked_mul(config.tasks_per_core) {
            Some(n) if n <= MAX_TASKS => {}
            _ => {
                return Err(invalid(format!(
                    "{} cores x {} tasks per core exceed the limit of {MAX_TASKS} tasks per set",
                    config.cores, config.tasks_per_core
                )))
            }
        }
        if config.per_core_utilization <= 0.0 || !config.per_core_utilization.is_finite() {
            return Err(invalid(format!(
                "per-core utilization must be positive and finite, got {}",
                config.per_core_utilization
            )));
        }
        if config.cache_sets == 0 {
            return Err(invalid("cache must have at least one set".into()));
        }
        if config.d_mem.is_zero() {
            return Err(invalid("d_mem must be positive".into()));
        }
        if config.pool.is_empty() {
            return Err(invalid("benchmark pool is empty".into()));
        }
        if let Some(bad) = config.pool.iter().find(|b| !b.is_consistent()) {
            return Err(invalid(format!(
                "benchmark `{}` violates invariants",
                bad.name
            )));
        }
        Ok(TaskSetGenerator { config })
    }

    /// The validated configuration.
    #[must_use]
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates one random task set.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`]s from task construction; with a validated
    /// configuration this only fires on pathological utilization values
    /// that collapse a period to zero.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<TaskSet, ModelError> {
        let _span = cpa_obs::span!("workload.generate");
        let cfg = &self.config;
        // (deadline, creation index) pairs for deadline-monotonic priority
        // assignment after all tasks are drawn.
        let mut drafts: Vec<TaskDraft> = Vec::with_capacity(cfg.cores * cfg.tasks_per_core);
        for core in 0..cfg.cores {
            let utilizations = uunifast(cfg.tasks_per_core, cfg.per_core_utilization, rng);
            for (slot, utilization) in utilizations.into_iter().enumerate() {
                let bench = cfg.pool[rng.gen_range(0..cfg.pool.len())];
                let offset = rng.gen_range(0..cfg.cache_sets);
                let sizing_d_mem = cfg.period_d_mem.unwrap_or(cfg.d_mem);
                let demand = match cfg.utilization_model {
                    UtilizationModel::MemoryScaled => bench
                        .pd
                        .saturating_add(bench.md.saturating_mul(sizing_d_mem.cycles())),
                    UtilizationModel::Raw => bench.pd.saturating_add(bench.md),
                };
                let period = period_for(demand, utilization);
                drafts.push(TaskDraft {
                    name: format!("{}#{}.{}", bench.name, core, slot),
                    bench,
                    core,
                    offset,
                    period,
                });
            }
        }

        // Deadline-monotonic: shorter deadline ⇒ higher priority; ties
        // broken by draft order for determinism.
        drafts.sort_by_key(|d| d.period);

        let mut tasks = Vec::with_capacity(drafts.len());
        for (rank, draft) in drafts.into_iter().enumerate() {
            let b = draft.bench;
            let ecb_len = b.ecb.min(cfg.cache_sets);
            let (md_r, pcb_len) = scale_persistence(
                b.md,
                b.md_r,
                b.pcb,
                ecb_len,
                cfg.reference_cache_sets,
                cfg.cache_sets,
            );
            let task = Task::builder(draft.name)
                .processing_demand(Time::from_cycles(b.pd))
                .memory_demand(b.md)
                .residual_memory_demand(md_r)
                .period(Time::from_cycles(draft.period))
                .deadline(Time::from_cycles(draft.period))
                .core(CoreId::new(draft.core))
                .priority(Priority::new(rank as u32))
                .ecb(CacheBlockSet::contiguous(
                    cfg.cache_sets,
                    draft.offset,
                    ecb_len,
                ))
                .pcb(CacheBlockSet::contiguous(
                    cfg.cache_sets,
                    draft.offset,
                    pcb_len,
                ))
                .ucb(CacheBlockSet::contiguous(
                    cfg.cache_sets,
                    draft.offset,
                    b.ucb.min(ecb_len),
                ))
                .build()?;
            tasks.push(task);
        }
        let set = TaskSet::new(tasks)?;
        cpa_obs::counter("workload.sets_generated").incr();
        Ok(set)
    }
}

struct TaskDraft {
    name: String,
    bench: BenchmarkParams,
    core: usize,
    offset: usize,
    period: u64,
}

/// Re-scales a benchmark's persistence parameters from the extraction
/// geometry to the analysed cache geometry.
///
/// The paper re-ran Heptane per cache size and observed that "by increasing
/// the cache size the number of PCBs of each task also increases" (§V.4).
/// Re-extraction is not reproducible offline, so this function models the
/// stated mechanism directly:
///
/// * the PCB count scales linearly with the cache-size ratio
///   `cache_sets / reference_sets`, capped by the task's (clamped) ECB
///   count — a bigger direct-mapped cache removes intra-task conflicts and
///   lets more blocks persist, while the cache can never hold more
///   persistent blocks than the task touches;
/// * the per-job persistence saving `MD − MD^r` scales with the same PCB
///   ratio: each persistent block is a main-memory access that later jobs
///   skip.
///
/// Returns the scaled `(MD^r, |PCB|)` pair. At the reference geometry this
/// is the identity.
#[must_use]
pub fn scale_persistence(
    md: u64,
    md_r: u64,
    pcb: usize,
    ecb_len: usize,
    reference_sets: usize,
    cache_sets: usize,
) -> (u64, usize) {
    if pcb == 0 || reference_sets == 0 {
        return (md_r.min(md), 0);
    }
    let ratio = cache_sets as f64 / reference_sets as f64;
    let pcb_scaled = ((pcb as f64 * ratio).round() as usize).clamp(0, ecb_len);
    let savings = md.saturating_sub(md_r);
    let savings_scaled = (savings as f64 * pcb_scaled as f64 / pcb as f64).round() as u64;
    let md_r_scaled = md.saturating_sub(savings_scaled);
    (md_r_scaled, pcb_scaled)
}

/// `T = ⌈demand / utilization⌉`, clamped to at least 1 cycle and saturating
/// for vanishing utilizations.
fn period_for(demand: u64, utilization: f64) -> u64 {
    if demand == 0 {
        return 1;
    }
    let raw = demand as f64 / utilization.max(f64::MIN_POSITIVE);
    if raw >= u64::MAX as f64 {
        u64::MAX
    } else {
        (raw.ceil() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_model::Platform;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn generator(util: f64) -> TaskSetGenerator {
        TaskSetGenerator::new(GeneratorConfig::paper_default().with_per_core_utilization(util))
            .unwrap()
    }

    #[test]
    fn paper_default_shape() {
        let ts = generator(0.5)
            .generate(&mut ChaCha8Rng::seed_from_u64(1))
            .unwrap();
        assert_eq!(ts.len(), 32);
        for core in 0..4 {
            assert_eq!(ts.on_core(CoreId::new(core)).count(), 8);
        }
        assert_eq!(ts.cache_sets(), 256);
    }

    #[test]
    fn utilization_hits_target() {
        let gen = generator(0.5);
        let d_mem = gen.config().d_mem;
        let ts = gen.generate(&mut ChaCha8Rng::seed_from_u64(2)).unwrap();
        for core in 0..4 {
            let u: f64 = ts
                .on_core(CoreId::new(core))
                .map(|id| ts[id].utilization(d_mem))
                .sum();
            // Ceil-rounding of periods only makes utilization smaller.
            assert!(u <= 0.5 + 1e-9, "core {core}: {u}");
            assert!(u > 0.45, "core {core}: {u}");
        }
    }

    #[test]
    fn deadline_monotonic_priorities() {
        let ts = generator(0.3)
            .generate(&mut ChaCha8Rng::seed_from_u64(3))
            .unwrap();
        // TaskSet sorts by priority; DM means deadlines are non-decreasing.
        let deadlines: Vec<u64> = ts.iter().map(|t| t.deadline().cycles()).collect();
        let mut sorted = deadlines.clone();
        sorted.sort_unstable();
        assert_eq!(deadlines, sorted);
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = generator(0.4);
        let a = gen.generate(&mut ChaCha8Rng::seed_from_u64(7)).unwrap();
        let b = gen.generate(&mut ChaCha8Rng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
        let c = gen.generate(&mut ChaCha8Rng::seed_from_u64(8)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn generated_sets_fit_the_platform() {
        let gen = generator(0.6);
        let ts = gen.generate(&mut ChaCha8Rng::seed_from_u64(4)).unwrap();
        let platform = Platform::builder()
            .cores(4)
            .memory_latency(gen.config().d_mem)
            .build()
            .unwrap();
        assert!(ts.validate_against(&platform).is_ok());
    }

    #[test]
    fn small_cache_clamps_footprints() {
        let cfg = GeneratorConfig::paper_default()
            .with_cache_sets(32)
            .with_per_core_utilization(0.3);
        let ts = TaskSetGenerator::new(cfg)
            .unwrap()
            .generate(&mut ChaCha8Rng::seed_from_u64(5))
            .unwrap();
        assert_eq!(ts.cache_sets(), 32);
        for t in ts.iter() {
            assert!(t.ecb().len() <= 32);
            assert!(t.pcb().is_subset(t.ecb()));
            assert!(t.ucb().is_subset(t.ecb()));
        }
    }

    #[test]
    fn raw_model_gives_shorter_periods() {
        let mk = |model| {
            let mut cfg = GeneratorConfig::paper_default().with_per_core_utilization(0.5);
            cfg.utilization_model = model;
            TaskSetGenerator::new(cfg)
                .unwrap()
                .generate(&mut ChaCha8Rng::seed_from_u64(6))
                .unwrap()
        };
        let scaled = mk(UtilizationModel::MemoryScaled);
        let raw = mk(UtilizationModel::Raw);
        let sum = |ts: &TaskSet| ts.iter().map(|t| t.period().cycles() as u128).sum::<u128>();
        assert!(sum(&raw) < sum(&scaled));
    }

    #[test]
    fn config_validation() {
        let base = GeneratorConfig::paper_default;
        assert!(TaskSetGenerator::new(base().with_cores(0)).is_err());
        assert!(TaskSetGenerator::new(base().with_per_core_utilization(0.0)).is_err());
        assert!(TaskSetGenerator::new(base().with_per_core_utilization(f64::NAN)).is_err());
        assert!(TaskSetGenerator::new(base().with_cache_sets(0)).is_err());
        let mut cfg = base();
        cfg.tasks_per_core = 0;
        assert!(TaskSetGenerator::new(cfg).is_err());
        let mut cfg = base();
        cfg.pool.clear();
        assert!(TaskSetGenerator::new(cfg).is_err());
        let mut cfg = base();
        cfg.d_mem = Time::ZERO;
        assert!(TaskSetGenerator::new(cfg).is_err());
    }

    #[test]
    fn task_count_ceiling_is_checked_before_any_draw() {
        let shape = |cores, tasks_per_core| GeneratorConfig {
            cores,
            tasks_per_core,
            ..GeneratorConfig::paper_default()
        };
        assert!(TaskSetGenerator::new(shape(4, MAX_TASKS / 4)).is_ok());
        assert!(TaskSetGenerator::new(shape(1, MAX_TASKS)).is_ok());
        for (cores, tasks_per_core) in [(1, MAX_TASKS + 1), (MAX_TASKS + 1, 1), (usize::MAX, 2)] {
            let err = TaskSetGenerator::new(shape(cores, tasks_per_core)).unwrap_err();
            assert!(matches!(err, ModelError::InvalidTaskSet { .. }));
            assert!(err.to_string().contains("limit of 4096"), "{err}");
        }
    }

    #[test]
    fn scale_persistence_identity_at_reference() {
        assert_eq!(scale_persistence(100, 20, 30, 100, 256, 256), (20, 30));
        // nsichneu-style: no PCBs, nothing to scale.
        assert_eq!(scale_persistence(100, 100, 0, 256, 256, 1024), (100, 0));
    }

    #[test]
    fn scale_persistence_small_cache_loses_pcbs() {
        // 8× smaller cache: PCBs shrink 8×, savings shrink accordingly.
        let (md_r, pcb) = scale_persistence(1_000, 200, 40, 32, 256, 32);
        assert_eq!(pcb, 5);
        assert_eq!(md_r, 1_000 - 100); // savings 800 × 5/40 = 100
        assert!(md_r > 200);
    }

    #[test]
    fn scale_persistence_large_cache_gains_pcbs_up_to_ecb() {
        let (md_r, pcb) = scale_persistence(1_000, 200, 40, 100, 256, 1024);
        assert_eq!(pcb, 100, "4× scaling capped at the ECB count");
        // Savings 800 × 100/40 = 2000 > MD ⇒ residual clamps to 0.
        assert_eq!(md_r, 0);
    }

    #[test]
    fn generated_tasks_respect_scaled_invariants() {
        use rand::SeedableRng;
        for sets in [32usize, 128, 512, 1024] {
            let cfg = GeneratorConfig::paper_default()
                .with_cache_sets(sets)
                .with_per_core_utilization(0.3);
            let ts = TaskSetGenerator::new(cfg)
                .unwrap()
                .generate(&mut ChaCha8Rng::seed_from_u64(11))
                .unwrap();
            for t in ts.iter() {
                assert!(t.residual_memory_demand() <= t.memory_demand());
                assert!(t.pcb().is_subset(t.ecb()));
            }
        }
    }

    #[test]
    fn period_for_edge_cases() {
        assert_eq!(period_for(0, 0.5), 1);
        assert_eq!(period_for(100, 0.5), 200);
        assert_eq!(period_for(100, 1e-300), u64::MAX);
        // demand/utilization rounded up.
        assert_eq!(period_for(10, 0.3), 34);
    }

    proptest! {
        #[test]
        fn arbitrary_configs_generate_valid_sets(
            cores in 1usize..6,
            tpc in 1usize..10,
            util in 0.05f64..1.0,
            cache in prop::sample::select(vec![32usize, 64, 128, 256, 512, 1024]),
            seed in any::<u64>(),
        ) {
            let cfg = GeneratorConfig::paper_default()
                .with_cores(cores)
                .with_per_core_utilization(util)
                .with_cache_sets(cache);
            let cfg = GeneratorConfig { tasks_per_core: tpc, ..cfg };
            let gen = TaskSetGenerator::new(cfg).unwrap();
            let ts = gen.generate(&mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
            prop_assert_eq!(ts.len(), cores * tpc);
            for t in ts.iter() {
                prop_assert!(t.deadline() <= t.period());
                prop_assert!(t.residual_memory_demand() <= t.memory_demand());
            }
            // Priorities are unique by TaskSet construction; all cores used.
            prop_assert_eq!(ts.cores().len(), cores);
        }
    }
}
