//! Shared analysis context with precomputed CRPD/CPRO tables.

use cpa_model::{CacheBlockSet, ModelError, Platform, TaskId, TaskSet, Time};

use crate::cpro;
use crate::crpd::CrpdApproach;

/// An analysis context binding a [`TaskSet`] to a [`Platform`] with the
/// quadratic CRPD (`γ_{i,j}`) and CPRO-overlap tables precomputed.
///
/// Every bound in this crate is evaluated many times per WCRT fixed point,
/// so the block-set intersections behind Eq. (2) and Eq. (14) are computed
/// once here and then served as table lookups. The tables are flat
/// row-major `n × n` arrays filled by an incremental sweep (see
/// `fill_tables`): evictor unions grow monotonically along the priority
/// order, so each entry costs one word-parallel set operation instead of
/// re-folding a union per pair — `O(n²)` set operations and a handful of
/// allocations for the whole context, where the definitional per-pair
/// evaluation (the tables [`crate::spec`] fills per call, differentially
/// pinned in this module's tests) costs `O(n³)`.
///
/// Construct with [`AnalysisContext::new`]; the context borrows the platform
/// and task set, making it cheap to build one per (platform, task set) pair
/// and share it across the six policy/persistence analysis configurations.
#[derive(Debug)]
pub struct AnalysisContext<'a> {
    platform: &'a Platform,
    tasks: &'a TaskSet,
    /// `gamma[i * n + j]` = `γ_{i,j}` (Eq. (2)), core taken from `τj`.
    gamma: Vec<u64>,
    /// `cpro_overlap[p * n + w]` = per-job CPRO overlap of persistent task
    /// `p` within the response window of task `w` (Eq. (14) without the
    /// `(n−1)` factor).
    cpro_overlap: Vec<u64>,
    /// Struct-of-arrays mirror of the hot per-task scalars (see
    /// [`TaskColumns`]).
    columns: TaskColumns,
    crpd_approach: CrpdApproach,
}

/// Struct-of-arrays mirror of the per-task scalars every inner fixed-point
/// walk reads: periods, demands, persistence parameters, in parallel
/// arrays indexed by task id.
///
/// The [`cpa_model::Task`] record interleaves these hot words with cold
/// data (the name string, three cache block sets), so the BAS/BAO walks
/// of [`crate::bas::same_core_terms`] and [`crate::bao::BaoSegment`]
/// striding over `&TaskSet` would touch one cache line per scalar read. The columns pack each scalar contiguously —
/// walking a core's eight tasks reads eight adjacent words per field,
/// which both caches well and lets the release-count loops vectorize.
/// Filled once per context build (`O(n)`, recycled via
/// [`ContextBuffers`]); values are verbatim copies, so bounds computed
/// off the columns are bit-identical to bounds computed off the tasks.
#[derive(Debug, Default)]
pub struct TaskColumns {
    /// `T_i` in cycles.
    pub period: Vec<u64>,
    /// `PD_i` in cycles.
    pub pd: Vec<u64>,
    /// `MD_i`.
    pub md: Vec<u64>,
    /// `MD_i^r`.
    pub md_r: Vec<u64>,
    /// `|PCB_i|`.
    pub pcb_len: Vec<u64>,
    /// `D_i` in cycles.
    pub deadline: Vec<u64>,
}

impl TaskColumns {
    /// Refills every column from `tasks` in id order, reusing the
    /// allocations.
    fn refill(&mut self, tasks: &TaskSet) {
        self.period.clear();
        self.pd.clear();
        self.md.clear();
        self.md_r.clear();
        self.pcb_len.clear();
        self.deadline.clear();
        for task in tasks.iter() {
            self.period.push(task.period().cycles());
            self.pd.push(task.processing_demand().cycles());
            self.md.push(task.memory_demand());
            self.md_r.push(task.residual_memory_demand());
            self.pcb_len.push(task.pcb().len() as u64);
            self.deadline.push(task.deadline().cycles());
        }
    }
}

/// Fills the flattened `γ` and CPRO-overlap tables with one incremental
/// sweep per table (the fast path behind [`AnalysisContext::new`]).
///
/// Correctness rests on the priority-order monotonicity of the index
/// algebra (task ids are priority order):
///
/// * For a fixed preemptor `j`, the ECB-union evictor set
///   `∪_{h ∈ Γx ∩ hep(j)} ECB_h` depends only on `j` — and over ascending
///   `j` it grows monotonically per core, so one running per-core union
///   serves every `j`. The victim set `aff(i, j)` gains exactly index `i`
///   as `i` ascends, so the `max` (ECB-union), the UCB union (UCB-union)
///   and the "any victim" flag (ECB-only) all update incrementally.
/// * For a fixed persistent task `p`, the CPRO evictor set
///   `∪_{s ∈ Γx ∩ hep(w) \ {p}} ECB_s` gains exactly index `w` as the
///   window task `w` ascends (skipping `s = p`), so one running union per
///   `p` serves its whole row.
///
/// Kept out of line: inlined into its one caller, the fill ran the whole
/// `reproduce_paper` perfbench workload about 12% slower (10 alternating
/// runs per build on a shared 2-CPU x86-64 host).
#[inline(never)]
fn fill_tables(tasks: &TaskSet, approach: CrpdApproach, gamma: &mut [u64], overlap: &mut [u64]) {
    let n = tasks.len();
    let cache_sets = tasks.cache_sets();
    let num_cores = tasks
        .iter()
        .map(|t| t.core().index())
        .max()
        .map_or(0, |c| c + 1);

    // γ table, one column (fixed preemptor j) at a time.
    match approach {
        CrpdApproach::EcbUnion => {
            let mut ecb_acc: Vec<CacheBlockSet> = (0..num_cores)
                .map(|_| CacheBlockSet::new(cache_sets))
                .collect();
            for j in tasks.ids() {
                let core = tasks[j].core();
                let acc = &mut ecb_acc[core.index()];
                acc.union_in_place(tasks[j].ecb());
                let mut max = 0u64;
                for i in tasks.lp(j) {
                    if tasks[i].core() == core {
                        max = max.max(tasks[i].ucb().intersection_len(acc) as u64);
                    }
                    gamma[i.index() * n + j.index()] = max;
                }
            }
        }
        CrpdApproach::UcbUnion => {
            let mut ucb_acc = CacheBlockSet::new(cache_sets);
            for j in tasks.ids() {
                let core = tasks[j].core();
                let ecb_j = tasks[j].ecb();
                ucb_acc.clear();
                let mut last = 0u64;
                for i in tasks.lp(j) {
                    if tasks[i].core() == core {
                        ucb_acc.union_in_place(tasks[i].ucb());
                        last = ucb_acc.intersection_len(ecb_j) as u64;
                    }
                    gamma[i.index() * n + j.index()] = last;
                }
            }
        }
        CrpdApproach::EcbOnly => {
            for j in tasks.ids() {
                let core = tasks[j].core();
                let len = tasks[j].ecb().len() as u64;
                let mut any_victim = false;
                for i in tasks.lp(j) {
                    any_victim |= tasks[i].core() == core;
                    gamma[i.index() * n + j.index()] = if any_victim { len } else { 0 };
                }
            }
        }
    }

    // CPRO-overlap table, one row (fixed persistent task p) at a time.
    let mut evictors = CacheBlockSet::new(cache_sets);
    for p in tasks.ids() {
        let pcb = tasks[p].pcb();
        if pcb.is_empty() {
            continue; // row stays all-zero: nothing persistent to evict
        }
        let core = tasks[p].core();
        evictors.clear();
        let mut last = 0u64;
        for w in tasks.ids() {
            if w != p && tasks[w].core() == core {
                evictors.union_in_place(tasks[w].ecb());
                last = pcb.intersection_len(&evictors) as u64;
            }
            overlap[p.index() * n + w.index()] = last;
        }
    }
}

/// Recyclable backing storage for [`AnalysisContext`] tables.
///
/// An optimizer evaluating thousands of candidate configurations builds a
/// fresh context per candidate — the `γ`/CPRO tables genuinely change
/// with every partitioning, priority or coloring move — but the two
/// `n × n` allocations behind them do not have to be re-made each time.
/// A worker keeps one `ContextBuffers`, builds each candidate's context
/// with [`AnalysisContext::with_crpd_approach_buffers`], and hands the
/// vectors back with [`AnalysisContext::recycle`]; in steady state a
/// context rebuild is the incremental `O(n²)` table fill and zero heap
/// allocations. Reuses are counted on `analysis.context_recycles`.
#[derive(Debug, Default)]
pub struct ContextBuffers {
    gamma: Vec<u64>,
    cpro_overlap: Vec<u64>,
    columns: TaskColumns,
}

impl ContextBuffers {
    /// Empty buffers; capacity grows on first use and then sticks.
    #[must_use]
    pub fn new() -> Self {
        ContextBuffers::default()
    }
}

impl<'a> AnalysisContext<'a> {
    /// Builds the context with the paper's ECB-union CRPD bound,
    /// validating that the task set fits the platform.
    ///
    /// # Errors
    ///
    /// Propagates [`TaskSet::validate_against`] errors: a task mapped to a
    /// missing core or a cache-geometry mismatch.
    pub fn new(platform: &'a Platform, tasks: &'a TaskSet) -> Result<Self, ModelError> {
        Self::with_crpd_approach(platform, tasks, CrpdApproach::EcbUnion)
    }

    /// [`AnalysisContext::new`] with a selectable CRPD bound (ablation;
    /// see [`CrpdApproach`]).
    ///
    /// # Errors
    ///
    /// Propagates [`TaskSet::validate_against`] errors.
    pub fn with_crpd_approach(
        platform: &'a Platform,
        tasks: &'a TaskSet,
        approach: CrpdApproach,
    ) -> Result<Self, ModelError> {
        // Fresh buffers have no capacity and task sets are never empty, so
        // this build is not counted as a recycle.
        Self::with_crpd_approach_buffers(platform, tasks, approach, &mut ContextBuffers::new())
    }

    /// [`AnalysisContext::with_crpd_approach`] backed by recycled table
    /// storage — the coloring-aware context-rebuild hook of the optimizer
    /// hot loop (see [`ContextBuffers`]). Semantically identical to a
    /// fresh build: the tables are fully refilled for *this* task set;
    /// only the allocations are reused.
    ///
    /// # Errors
    ///
    /// Propagates [`TaskSet::validate_against`] errors.
    pub fn with_crpd_approach_buffers(
        platform: &'a Platform,
        tasks: &'a TaskSet,
        approach: CrpdApproach,
        buffers: &mut ContextBuffers,
    ) -> Result<Self, ModelError> {
        let _span = cpa_obs::span!("analysis.context");
        tasks.validate_against(platform)?;
        let n = tasks.len();
        let mut gamma = std::mem::take(&mut buffers.gamma);
        let mut cpro_overlap = std::mem::take(&mut buffers.cpro_overlap);
        let mut columns = std::mem::take(&mut buffers.columns);
        if gamma.capacity() >= n * n {
            cpa_obs::counter("analysis.context_recycles").incr();
        }
        gamma.clear();
        gamma.resize(n * n, 0);
        cpro_overlap.clear();
        cpro_overlap.resize(n * n, 0);
        fill_tables(tasks, approach, &mut gamma, &mut cpro_overlap);
        columns.refill(tasks);
        Ok(AnalysisContext {
            platform,
            tasks,
            gamma,
            cpro_overlap,
            columns,
            crpd_approach: approach,
        })
    }

    /// Returns the context's table storage to `buffers` for the next
    /// [`AnalysisContext::with_crpd_approach_buffers`] build.
    pub fn recycle(self, buffers: &mut ContextBuffers) {
        buffers.gamma = self.gamma;
        buffers.cpro_overlap = self.cpro_overlap;
        buffers.columns = self.columns;
    }

    /// The CRPD approach this context's `γ` table was built with.
    #[must_use]
    pub fn crpd_approach(&self) -> CrpdApproach {
        self.crpd_approach
    }

    /// The platform under analysis.
    #[must_use]
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// The task set under analysis.
    #[must_use]
    pub fn tasks(&self) -> &'a TaskSet {
        self.tasks
    }

    /// `d_mem`, the worst-case latency of one bus/memory access.
    #[must_use]
    pub fn d_mem(&self) -> Time {
        self.platform.memory_latency()
    }

    /// The struct-of-arrays mirror of the hot per-task scalars (see
    /// [`TaskColumns`]).
    #[must_use]
    pub fn columns(&self) -> &TaskColumns {
        &self.columns
    }

    /// `γ_{i,j}`: ECB-union CRPD charged per job of `τj` within `τi`'s
    /// response time (Eq. (2)); zero unless `τj` has higher priority.
    #[must_use]
    pub fn gamma(&self, i: TaskId, j: TaskId) -> u64 {
        self.gamma[i.index() * self.tasks.len() + j.index()]
    }

    /// Per-job CPRO overlap of `persistent` within the response window of
    /// `window` (the set-intersection factor of Eq. (14)).
    #[must_use]
    pub fn cpro_overlap(&self, persistent: TaskId, window: TaskId) -> u64 {
        self.cpro_overlap[persistent.index() * self.tasks.len() + window.index()]
    }

    /// `ρ̂(n)` for `persistent` within `window`'s response time (Eq. (14)).
    #[must_use]
    pub fn cpro(&self, persistent: TaskId, window: TaskId, jobs: u64) -> u64 {
        cpro::cpro(self.cpro_overlap(persistent, window), jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use cpa_model::{CacheBlockSet, CoreId, Priority, Task};

    /// Asserts `ctx`'s incremental tables equal the spec's definitional ones.
    fn assert_tables_match_spec(ctx: &AnalysisContext<'_>, tag: &str) {
        let tasks = ctx.tasks();
        assert_eq!(
            ctx.gamma,
            spec::gamma_table(tasks, ctx.crpd_approach()),
            "{tag}"
        );
        assert_eq!(ctx.cpro_overlap, spec::cpro_table(tasks), "{tag}");
    }

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
            .period(Time::from_cycles(12))
            .deadline(Time::from_cycles(12))
            .core(CoreId::new(0))
            .priority(Priority::new(1))
            .ecb(CacheBlockSet::from_blocks(256, 5..=10).unwrap())
            .pcb(CacheBlockSet::from_blocks(256, [5, 6, 7, 8, 10]).unwrap())
            .build()
            .unwrap();
        let tau2 = Task::builder("tau2")
            .processing_demand(Time::from_cycles(32))
            .memory_demand(8)
            .period(Time::from_cycles(100))
            .deadline(Time::from_cycles(100))
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
            .period(Time::from_cycles(12))
            .deadline(Time::from_cycles(12))
            .core(CoreId::new(1))
            .priority(Priority::new(3))
            .ecb(CacheBlockSet::from_blocks(256, 5..=10).unwrap())
            .pcb(CacheBlockSet::from_blocks(256, [5, 6, 7, 8, 10]).unwrap())
            .build()
            .unwrap();
        (platform, TaskSet::new(vec![tau1, tau2, tau3]).unwrap())
    }

    #[test]
    fn fig1_tables() {
        let (platform, tasks) = fig1();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let t1 = tasks.id_of("tau1").unwrap();
        let t2 = tasks.id_of("tau2").unwrap();
        let t3 = tasks.id_of("tau3").unwrap();

        // γ_{2,1,x} = |UCB_2 ∩ ECB_1| = |{5,6}| = 2 (paper).
        assert_eq!(ctx.gamma(t2, t1), 2);
        // γ is evaluated on the *preemptor's* core: during τ3's window,
        // τ1's preemptions can still evict τ2's UCBs on core x. (BAO on
        // core y never consults this entry since τ1 ∉ Γy.)
        assert_eq!(ctx.gamma(t3, t1), 2);
        assert_eq!(ctx.gamma(t3, t3), 0);

        // CPRO overlap of τ1 within τ2's window: PCB_1 ∩ ECB_2 = {5,6}.
        assert_eq!(ctx.cpro_overlap(t1, t2), 2);
        assert_eq!(ctx.cpro(t1, t2, 3), 4, "paper: ρ̂_{{1,2,x}}(3) = 4");
        // τ3 has no same-core neighbours: zero CPRO in any window.
        assert_eq!(ctx.cpro_overlap(t3, t2), 0);
        assert_eq!(ctx.cpro_overlap(t3, t3), 0);

        assert_eq!(ctx.d_mem(), Time::from_cycles(1));
        assert_eq!(ctx.platform().cores(), 2);
        assert_eq!(ctx.tasks().len(), 3);
    }

    #[test]
    fn rejects_mismatched_platform() {
        let (_, tasks) = fig1();
        let too_small = Platform::builder()
            .cores(1)
            .memory_latency(Time::from_cycles(1))
            .build()
            .unwrap();
        assert!(AnalysisContext::new(&too_small, &tasks).is_err());
    }

    #[test]
    fn incremental_fill_matches_reference_on_fig1() {
        let (platform, tasks) = fig1();
        for approach in [
            CrpdApproach::EcbUnion,
            CrpdApproach::UcbUnion,
            CrpdApproach::EcbOnly,
        ] {
            let fast = AnalysisContext::with_crpd_approach(&platform, &tasks, approach).unwrap();
            assert_tables_match_spec(&fast, &format!("{approach:?}"));
        }
    }

    #[test]
    fn recycled_buffers_match_fresh_builds() {
        let (platform, tasks) = fig1();
        let mut buffers = ContextBuffers::new();
        for approach in [
            CrpdApproach::EcbUnion,
            CrpdApproach::UcbUnion,
            CrpdApproach::EcbOnly,
        ] {
            let fresh = AnalysisContext::with_crpd_approach(&platform, &tasks, approach).unwrap();
            let recycled = AnalysisContext::with_crpd_approach_buffers(
                &platform,
                &tasks,
                approach,
                &mut buffers,
            )
            .unwrap();
            assert_eq!(recycled.gamma, fresh.gamma, "{approach:?}");
            assert_eq!(recycled.cpro_overlap, fresh.cpro_overlap, "{approach:?}");
            recycled.recycle(&mut buffers);
        }
        // A second build after recycling reuses the same allocation.
        let before = cpa_obs::counter("analysis.context_recycles").get();
        let ctx = AnalysisContext::with_crpd_approach_buffers(
            &platform,
            &tasks,
            CrpdApproach::EcbUnion,
            &mut buffers,
        )
        .unwrap();
        assert!(cpa_obs::counter("analysis.context_recycles").get() > before);
        ctx.recycle(&mut buffers);

        // Recycling across *different* task sets (the optimizer pattern:
        // same worker, new candidate) still matches a fresh build.
        let tasks_small = TaskSet::new(vec![tasks[cpa_model::TaskId::new(0)].clone()]).unwrap();
        let fresh = AnalysisContext::new(&platform, &tasks_small).unwrap();
        let recycled = AnalysisContext::with_crpd_approach_buffers(
            &platform,
            &tasks_small,
            CrpdApproach::EcbUnion,
            &mut buffers,
        )
        .unwrap();
        assert_eq!(recycled.gamma, fresh.gamma);
        assert_eq!(recycled.cpro_overlap, fresh.cpro_overlap);
    }

    #[test]
    fn incremental_fill_matches_reference_on_generated_sets() {
        use cpa_workload::{GeneratorConfig, TaskSetGenerator};
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        for (seed, util) in [(11u64, 0.3), (12, 0.6), (13, 0.9)] {
            let gen = GeneratorConfig::paper_default().with_per_core_utilization(util);
            let generator = TaskSetGenerator::new(gen.clone()).unwrap();
            let platform = Platform::builder()
                .cores(gen.cores)
                .cache(cpa_model::CacheGeometry::direct_mapped(gen.cache_sets, 32))
                .memory_latency(gen.d_mem)
                .build()
                .unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let tasks = generator.generate(&mut rng).unwrap();
            for approach in [
                CrpdApproach::EcbUnion,
                CrpdApproach::UcbUnion,
                CrpdApproach::EcbOnly,
            ] {
                let fast =
                    AnalysisContext::with_crpd_approach(&platform, &tasks, approach).unwrap();
                assert_tables_match_spec(&fast, &format!("seed {seed} {approach:?}"));
            }
        }
    }
}
