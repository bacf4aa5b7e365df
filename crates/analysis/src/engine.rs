//! The unified analysis engine: the spec's sweep over Eq. (19), with
//! one cached layer for the cross-core step.
//!
//! The engine behind [`crate::analyze_with`] computes exactly the fixed
//! point of Eq. (19) that the literal [`crate::spec::analyze`] computes,
//! iteration for iteration — the `engine_equivalence` differential test
//! pins response times, verdicts, outer rounds and per-task inner
//! iteration counts identical across every [`crate::BusPolicy`] ×
//! [`crate::PersistenceMode`] combination. Its outer loop *is* the
//! spec's: a Gauss–Seidel sweep that re-solves every task each round, in
//! priority order, against the latest estimates, until a round changes
//! nothing. It differs from the spec in how it evaluates one right-hand
//! side:
//!
//! 1. **Fused same-core walk.** The preemption interference and `BAS` of
//!    both persistence modes come from one pass over the task's same-core
//!    higher-priority tasks ([`crate::bas::same_core_terms`]), recomputed
//!    at every window.
//! 2. **Cached `BAO` segments.** `BAO` is a monotone step function of the
//!    window length on the fine `d_mem` grid of the carry-out job, and it
//!    is the costly term, so the engine caches it as
//!    [`crate::bao::BaoSegment`]s — one segment per remote core `y` and
//!    split `s` (the number of tasks on `y` with id ≤ the level; a slot's
//!    terms depend on the level only through `s`, DESIGN.md §17)
//!    serving every level with that split, both priority bands and both
//!    carry-out modes: per-member terms valid on a whole period-scale
//!    `N`-interval, re-evaluated in a few operations per hit (no band
//!    filtering, no persistence/CPRO/CRPD re-derivation). `BAO` reads
//!    remote response-time estimates, so each segment carries a per-core
//!    version stamp; when the stamp moves or the window leaves the span,
//!    [`crate::bao::BaoSegment::refresh`] re-derives just the members
//!    whose inputs changed.
//!
//! The cross-core step of Eq. (7)/(8)/(9) is one `match` on the bus
//! policy over the cached `BAO` segments. The same walk and step also
//! produce the BAS/BAO/CPRO/CRPD decomposition ([`crate::decompose`] and
//! the `wcrt.converged` events), so a reported decomposition always
//! reassembles the engine's own bound.
//!
//! All of the engine's working storage lives in an [`AnalysisScratch`]
//! that survives across runs: a sweep worker allocates one scratch and
//! pays for its vectors once, then every further [`crate::analyze_with`]
//! call merely *resets* them (segments emptied, buffers refilled in
//! place). [`crate::analyze`] is the one-line form with a fresh scratch.
//!
//! Cache effectiveness is observable through the always-on counters
//! `engine.bao_hit` / `engine.bao_miss` / `engine.tasks_solved` /
//! `engine.scratch_reuses` (`cpa-trace analyze` reports all of them);
//! the `wcrt.outer` event carries each round's change count.

use cpa_model::{CoreId, TaskId, Time};

use crate::bao::{BaoSegment, CarryOut};
use crate::diagnose::TermDecomposition;
use crate::wcrt::{self, AnalysisResult};
use crate::{bas, AnalysisConfig, AnalysisContext, BusPolicy, PersistenceMode};

/// One memoized `BAO` slot for a fixed `(core, split)` key — remote core
/// `y` and split `s`, the number of tasks on `y` with id ≤ the queried
/// level. Every level with the same split on `y` derives identical terms
/// (γ(k,l) and the CPRO overlap(l,k) depend on the level `k` only
/// through `s`), so they all share the slot: a segment plus the core
/// version it was built against. When the window leaves the segment's
/// span or a response time on the remote core moves (the stamp no longer
/// matches), [`BaoSegment::refresh`] re-derives only the terms actually
/// affected — a full rebuild happens once, on first touch.
#[derive(Debug, Clone, Default)]
struct BaoSlot {
    /// The most recently built segment for this key.
    seg: BaoSegment,
    /// Core version [`BaoSlot::seg`] was last refreshed against.
    stamp: u64,
}

impl BaoSlot {
    /// Prepares the slot for a run on a (potentially) different task set:
    /// segment emptied, storage kept. A reset slot can never serve stale
    /// data: the emptied segment span contains no window, so the first
    /// lookup always misses and rebuilds.
    fn reset(&mut self) {
        self.seg.reset();
        self.stamp = 0;
    }
}

/// Reusable working storage for analysis engine runs: response-time
/// estimates, `BAO` segments, per-core index structures.
///
/// Allocate one per worker ([`AnalysisScratch::new`]) and pass it to
/// every [`crate::analyze_with`] call: each run resets the buffers in
/// place — segments emptied, index lists refilled — so steady-state
/// analysis performs no per-run heap allocation for its working state
/// (the returned [`AnalysisResult`] still owns its two output vectors).
/// Buffers only ever grow, to the largest `(tasks × cores)` seen.
///
/// A scratch carries no semantic state between runs: results are
/// byte-identical to a fresh scratch (the `engine_equivalence` suite and
/// the scratch-reuse test below pin this), so sharing one scratch across
/// heterogeneous task sets and configurations is always safe — just not
/// across threads (`&mut` per run).
#[derive(Debug, Default)]
pub struct AnalysisScratch {
    /// Current response-time estimates, updated in task-id order within a
    /// round (Gauss–Seidel, exactly like the spec's sweep).
    resp: Vec<Time>,
    /// Per-core version counters; bumped whenever a response time on the
    /// core changes, lazily invalidating that core's `BAO` segments.
    core_version: Vec<u64>,
    /// `BAO` segments per remote core, indexed by split (`0..=` the core's
    /// task count) — one segment serves every level with that split, both
    /// priority bands and both carry-out modes.
    bao_slots: Vec<Vec<BaoSlot>>,
    /// Split of every `(level, core)` pair: the number of tasks on the
    /// core with id ≤ the level, flat-indexed `level · cores + core`.
    bao_split: Vec<usize>,
    /// Task ids per core, in id (= priority) order.
    on_core: Vec<Vec<TaskId>>,
    /// `τi`'s position in its core's `on_core` list — the id list of its
    /// same-core higher-priority tasks is the prefix of that length.
    hp_prefix: Vec<usize>,
    /// Runs this scratch has served (drives `engine.scratch_reuses`).
    uses: u64,
    /// `BAO` `(hits, misses)` of the most recent run.
    last_bao: (u64, u64),
}

impl AnalysisScratch {
    /// An empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        AnalysisScratch::default()
    }

    /// Runs this scratch served after its first — its own share of the
    /// process-wide `engine.scratch_reuses` counter.
    #[must_use]
    pub fn reuses(&self) -> u64 {
        self.uses.saturating_sub(1)
    }

    /// `BAO` `(hits, misses)` of the most recent run on this scratch — its
    /// own share of `engine.bao_hit` / `engine.bao_miss`. A reused
    /// scratch scores exactly what a fresh one scores.
    #[must_use]
    pub fn bao_tallies(&self) -> (u64, u64) {
        self.last_bao
    }

    /// Resets every buffer for a run on `ctx` — clears and refills in
    /// place, growing only beyond the largest problem seen so far.
    fn reset(&mut self, ctx: &AnalysisContext<'_>) {
        if self.uses > 0 {
            cpa_obs::counter("engine.scratch_reuses").incr();
        }
        self.uses += 1;

        let tasks = ctx.tasks();
        let cores = ctx.platform().cores();

        // Initial estimates `R_i = PD_i + MD_i · d_mem` (§IV), the floor
        // every monotone outer iteration starts from.
        let d_mem = ctx.d_mem();
        self.resp.clear();
        self.resp.extend(tasks.iter().map(|t| {
            t.processing_demand()
                .saturating_add(d_mem.saturating_mul(t.memory_demand()))
        }));

        self.core_version.clear();
        self.core_version.resize(cores, 0);

        if self.on_core.len() < cores {
            self.on_core.resize_with(cores, Vec::new);
        }
        for list in &mut self.on_core[..cores] {
            list.clear();
        }
        self.hp_prefix.clear();
        self.bao_split.clear();
        for i in tasks.ids() {
            let list = &mut self.on_core[tasks[i].core().index()];
            self.hp_prefix.push(list.len());
            list.push(i);
            self.bao_split
                .extend(self.on_core[..cores].iter().map(Vec::len));
        }

        if self.bao_slots.len() < cores {
            self.bao_slots.resize_with(cores, Vec::new);
        }
        for (core, slots) in self.bao_slots[..cores].iter_mut().enumerate() {
            let splits = self.on_core[core].len() + 1;
            if slots.len() < splits {
                slots.resize_with(splits, BaoSlot::default);
            }
            for slot in &mut slots[..splits] {
                slot.reset();
            }
        }
    }

    /// `τi`'s same-core higher-priority tasks, in id order.
    fn hp(&self, ctx: &AnalysisContext<'_>, i: TaskId) -> &[TaskId] {
        let core = ctx.tasks()[i].core().index();
        &self.on_core[core][..self.hp_prefix[i.index()]]
    }

    /// The `+1` already-in-service blocking access of `τi` (the footnote
    /// to Eq. (12)): charged when `bus` charges blocking and a
    /// lower-priority task shares `τi`'s core, i.e. `τi` is not last in
    /// its core's id list.
    fn blocking(&self, ctx: &AnalysisContext<'_>, bus: BusPolicy, i: TaskId) -> u64 {
        let core = ctx.tasks()[i].core().index();
        u64::from(
            bus.charges_blocking() && self.hp_prefix[i.index()] + 1 < self.on_core[core].len(),
        )
    }
}

/// The WCRT analysis over cached `BAO` segments (see the module docs).
///
/// Build one per `(task set, configuration)` evaluation with
/// [`AnalysisEngine::new`] — borrowing a (possibly recycled)
/// [`AnalysisScratch`] — and consume it with [`AnalysisEngine::run`];
/// [`crate::analyze_with`] does exactly that.
pub(crate) struct AnalysisEngine<'e, 'a> {
    ctx: &'e AnalysisContext<'a>,
    config: &'e AnalysisConfig,
    scratch: &'e mut AnalysisScratch,
    /// `BAO` `(hits, misses)`.
    bao_tally: (u64, u64),
    tasks_solved: u64,
}

impl<'e, 'a> AnalysisEngine<'e, 'a> {
    /// Prepares an engine run: resets `scratch` and fills the initial
    /// estimates `R_i = PD_i + MD_i · d_mem`.
    pub(crate) fn new(
        ctx: &'e AnalysisContext<'a>,
        config: &'e AnalysisConfig,
        scratch: &'e mut AnalysisScratch,
    ) -> Self {
        scratch.reset(ctx);
        AnalysisEngine {
            ctx,
            config,
            scratch,
            bao_tally: (0, 0),
            tasks_solved: 0,
        }
    }

    /// Replaces the current estimates with `resp` (one per task), for a
    /// [`AnalysisEngine::decompose`] outside a run.
    pub(crate) fn at_estimates(self, resp: &[Time]) -> Self {
        self.scratch.resp.copy_from_slice(resp);
        self
    }

    /// The `(hep, lower)` pair from the `(core, split)` slot of `level`
    /// at the current estimates; one (incremental) [`BaoSegment::refresh`]
    /// on a miss. Neither the level itself, the priority band nor the
    /// carry-out mode is part of the key: one segment's terms serve every
    /// level with the same split, both bands and both modes (see
    /// [`BaoSegment`]), so neighbouring FP levels, RR's lowest-level
    /// queries, the FP bus's two band queries and the Exact refine phase
    /// all hit the segments the Capped bracket phase filled.
    fn lookup(&mut self, level: TaskId, core: CoreId, t: Time, carry: CarryOut) -> (u64, u64) {
        let (ctx, scratch) = (self.ctx, &mut *self.scratch);
        let split = scratch.bao_split[level.index() * ctx.platform().cores() + core.index()];
        let version = scratch.core_version[core.index()];
        let slot = &mut scratch.bao_slots[core.index()][split];
        if slot.stamp == version && slot.seg.span.contains(t) {
            self.bao_tally.0 += 1;
            return slot.seg.eval(t, ctx.d_mem(), carry);
        }
        self.bao_tally.1 += 1;
        let (on_core, mode) = (&scratch.on_core[core.index()], self.config.persistence);
        slot.seg
            .refresh(ctx, level, on_core, split, t, &scratch.resp, mode);
        slot.stamp = version;
        slot.seg.eval(t, ctx.d_mem(), carry)
    }

    /// The cross-core access bound of Eq. (7)/(8)/(9) for `τi` in a window
    /// of length `t`, given its own-core demand `own = BAS_i^x(t)`.
    fn cross_core(&mut self, i: TaskId, t: Time, own: u64, carry: CarryOut) -> u64 {
        let tasks = self.ctx.tasks();
        let cores = self.ctx.platform().cores();
        let core = tasks[i].core();
        let remote = (0..cores).map(CoreId::new).filter(|&y| y != core);
        match self.config.bus {
            // Eq. (7): all remote higher-or-equal-priority demand, plus
            // lower-priority accesses capped at one per own access — both
            // bands from one pass over the remote cores.
            BusPolicy::FixedPriority => {
                let (mut higher, mut lower) = (0u64, 0u64);
                for y in remote {
                    let (hep, low) = self.lookup(i, y, t, carry);
                    higher = higher.saturating_add(hep);
                    lower = lower.saturating_add(low);
                }
                higher.saturating_add(own.min(lower))
            }
            // Eq. (8): each remote core contributes at most `slots`
            // accesses per own access, with BAO at the lowest priority
            // level (RR ignores priorities).
            BusPolicy::RoundRobin { slots } => {
                let level = tasks.lowest_priority_id();
                let cap = slots.saturating_mul(own);
                remote.fold(0u64, |total, y| {
                    total.saturating_add(self.lookup(level, y, t, carry).0.min(cap))
                })
            }
            // Eq. (9): every own access may wait for the other cores'
            // slots, whatever their demand.
            BusPolicy::Tdma { slots } => (cores as u64)
                .saturating_sub(1)
                .saturating_mul(slots)
                .saturating_mul(own),
            BusPolicy::Perfect => 0,
        }
    }

    /// Eq. (19)'s right-hand side at window length `r`: the fused
    /// same-core walk plus the cross-core step over the cached `BAO`
    /// segments. Agrees pointwise with the literal [`crate::spec`]
    /// right-hand side — that is the whole equivalence argument.
    fn rhs(&mut self, i: TaskId, r: Time, carry: CarryOut) -> Time {
        let terms = bas::same_core_terms(self.ctx, i, r, self.scratch.hp(self.ctx, i));
        let own = match self.config.persistence {
            PersistenceMode::Oblivious => terms.bas_oblivious,
            PersistenceMode::Aware => terms.bas_aware,
        };
        let cross = self.cross_core(i, r, own, carry);
        let bus_accesses = own
            .saturating_add(cross)
            .saturating_add(self.scratch.blocking(self.ctx, self.config.bus, i));
        self.ctx.tasks()[i]
            .processing_demand()
            .saturating_add(terms.interference)
            .saturating_add(self.ctx.d_mem().saturating_mul(bus_accesses))
    }

    /// `BAT_i^x(window)` (exact carry-out) at the current estimates, split
    /// into the paper's terms (see [`crate::diagnose`]) by the engine's own
    /// same-core walk and cross-core step. Kept off the cache meters: a
    /// decomposition is not part of a solve.
    pub(crate) fn decompose(&mut self, i: TaskId, window: Time) -> TermDecomposition {
        let ctx = self.ctx;
        let terms = bas::same_core_terms(ctx, i, window, self.scratch.hp(ctx, i));
        let (own, cpro) = match self.config.persistence {
            PersistenceMode::Oblivious => (terms.bas_oblivious, 0),
            PersistenceMode::Aware => (terms.bas_aware, terms.cpro),
        };
        let tally = self.bao_tally;
        let bao = self.cross_core(i, window, own, CarryOut::Exact);
        self.bao_tally = tally;
        TermDecomposition {
            bas_accesses: own.saturating_sub(terms.crpd).saturating_sub(cpro),
            bao_accesses: bao,
            cpro_accesses: cpro,
            crpd_accesses: terms.crpd,
            blocking_accesses: self.scratch.blocking(ctx, self.config.bus, i),
        }
    }

    /// Emits the per-task `wcrt.converged` trace events, with each task's
    /// decomposition at its fixed point.
    fn emit_converged_events(&mut self, inner_iterations: &[u64]) {
        if !cpa_obs::events_enabled() {
            return;
        }
        for i in self.ctx.tasks().ids() {
            let response = self.scratch.resp[i.index()];
            let d = self.decompose(i, response);
            cpa_obs::event!(
                "wcrt.converged",
                task = i.index(),
                response = response.cycles(),
                inner = inner_iterations[i.index()],
                bas = d.bas_accesses,
                bao = d.bao_accesses,
                cpro = d.cpro_accesses,
                crpd = d.crpd_accesses,
                blocking = d.blocking_accesses,
                dominant = d.dominant().label(),
            );
        }
    }

    /// Flushes the run's tallies into the always-on counters.
    fn flush(&mut self) {
        let (bao_hits, bao_misses) = self.bao_tally;
        self.scratch.last_bao = self.bao_tally;
        cpa_obs::counter("engine.bao_hit").add(bao_hits);
        cpa_obs::counter("engine.bao_miss").add(bao_misses);
        cpa_obs::counter("engine.tasks_solved").add(self.tasks_solved);
    }

    /// [`AnalysisEngine::flush`], then hands the result back.
    fn finish(&mut self, result: AnalysisResult) -> AnalysisResult {
        self.flush();
        result
    }

    /// The deadline certificate behind [`crate::verdict_with`]:
    /// `Some(false)` when the perfect-bus gate fails, `Some(true)` when
    /// every estimate at its deadline satisfies `rhs_i(D_i; D) ≤ D_i`
    /// (then the least fixed point lies at or below `D`, DESIGN.md §10),
    /// and `None` when some task fails it and only a run can decide.
    /// Tasks are checked lowest priority first, where a failure is most
    /// likely, so a failing certificate stops early.
    pub(crate) fn certify(mut self) -> Option<bool> {
        let _span = cpa_obs::span!("wcrt.certify");
        if wcrt::perfect_bus_check(self.ctx, self.config).is_some() {
            self.flush();
            return Some(false);
        }
        let tasks = self.ctx.tasks();
        // The deadlines `solve_inner` tests against.
        let deadline = |i: TaskId| tasks[i].deadline().min(Time::from_cycles(u64::MAX - 1));
        for (r, i) in self.scratch.resp.iter_mut().zip(tasks.ids()) {
            *r = deadline(i);
        }
        let certified = tasks
            .ids()
            .rev()
            .all(|i| self.rhs(i, deadline(i), CarryOut::Exact) <= deadline(i));
        self.flush();
        if certified {
            cpa_obs::counter("engine.verdicts_certified").incr();
        }
        certified.then_some(true)
    }

    /// Runs the analysis to its fixed point (or deadline miss / outer
    /// cap). Consumes the engine: the borrowed scratch's segments are only
    /// valid for one run (the next [`AnalysisEngine::new`] resets them).
    pub(crate) fn run(mut self) -> AnalysisResult {
        let _span = cpa_obs::span!("wcrt.analyze");
        if let Some(result) = wcrt::perfect_bus_check(self.ctx, self.config) {
            return self.finish(result);
        }
        let ctx = self.ctx;
        let tasks = ctx.tasks();
        let n = tasks.len();
        // Owned by the eventual AnalysisResult, so allocated per run.
        let mut inner_iterations = vec![0u64; n];

        for round in 1..=self.config.max_outer_iterations {
            let mut changed_tasks = 0usize;
            for i in tasks.ids() {
                self.tasks_solved += 1;
                let start = self.scratch.resp[i.index()];
                let solve =
                    wcrt::solve_inner(tasks[i].deadline(), start, |r, carry| self.rhs(i, r, carry));
                inner_iterations[i.index()] += solve.iterations;
                let Some(r) = solve.bound else {
                    cpa_obs::event!(
                        "wcrt.deadline_miss",
                        task = i.index(),
                        outer = round,
                        deadline = tasks[i].deadline().cycles(),
                    );
                    let result = AnalysisResult::deadline_miss(
                        tasks,
                        &self.scratch.resp,
                        i,
                        round,
                        inner_iterations,
                    );
                    return self.finish(result);
                };
                if r > self.scratch.resp[i.index()] {
                    cpa_obs::event!(
                        "wcrt.estimate",
                        task = i.index(),
                        outer = round,
                        inner = solve.iterations,
                        estimate = r.cycles(),
                    );
                    self.scratch.resp[i.index()] = r;
                    changed_tasks += 1;
                    // τi's estimate is read (through BAO) only by tasks on
                    // other cores: their segments over τi's core go stale.
                    self.scratch.core_version[tasks[i].core().index()] += 1;
                }
            }
            cpa_obs::event!("wcrt.outer", iter = round, changed = changed_tasks);
            if changed_tasks == 0 {
                self.emit_converged_events(&inner_iterations);
                let result =
                    AnalysisResult::fixed_point(&self.scratch.resp, round, inner_iterations);
                return self.finish(result);
            }
        }

        // Outer loop failed to stabilise within the cap: the literal sweep
        // would keep sweeping too, so this is a genuine cap hit.
        cpa_obs::event!(
            "wcrt.outer_cap",
            level = "warn",
            max_outer = self.config.max_outer_iterations,
            bus = self.config.bus.label(),
        );
        cpa_obs::counter("wcrt.outer_cap_hits").incr();
        let result =
            AnalysisResult::unbounded(n, self.config.max_outer_iterations, inner_iterations, true);
        self.finish(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcrt::tests::{platform, task};
    use crate::{analyze, analyze_with};
    use cpa_model::{Platform, TaskSet};

    fn two_core_set() -> (Platform, TaskSet) {
        let tasks = TaskSet::new(vec![
            task("a", 1, 0, 100, 20, 2, 4_000),
            task("b", 2, 1, 100, 20, 2, 4_000),
            task("c", 3, 0, 200, 20, 2, 8_000),
            task("d", 4, 1, 200, 20, 2, 8_000),
        ])
        .unwrap();
        (platform(2, 20), tasks)
    }

    #[test]
    fn recycled_scratch_matches_fresh_scratch() {
        // One scratch serving every (bus, mode) combination back to back —
        // including across a *different* task set on fewer cores in
        // between — must reproduce the fresh-scratch results exactly.
        let (platform, tasks) = two_core_set();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let small_platform = crate::wcrt::tests::platform(1, 5);
        let small_tasks = TaskSet::new(vec![task("only", 1, 0, 50, 4, 1, 1_000)]).unwrap();
        let small_ctx = AnalysisContext::new(&small_platform, &small_tasks).unwrap();

        let mut scratch = AnalysisScratch::new();
        for bus in [
            BusPolicy::FixedPriority,
            BusPolicy::RoundRobin { slots: 2 },
            BusPolicy::Tdma { slots: 2 },
            BusPolicy::Perfect,
        ] {
            for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                let config = AnalysisConfig::new(bus, mode);
                // Poison the scratch with a run on an unrelated problem
                // before every measured run: reuse must erase all of it.
                let _ = analyze_with(&small_ctx, &config, &mut scratch);
                let recycled = analyze_with(&ctx, &config, &mut scratch);
                assert_eq!(recycled, analyze(&ctx, &config), "{bus:?} {mode:?}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_counted() {
        let (platform, tasks) = two_core_set();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let config = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware);
        let reuses = cpa_obs::counter("engine.scratch_reuses");
        let before = reuses.get();
        let mut scratch = AnalysisScratch::new();
        let _ = analyze_with(&ctx, &config, &mut scratch);
        let _ = analyze_with(&ctx, &config, &mut scratch);
        let _ = analyze_with(&ctx, &config, &mut scratch);
        // The exact tally comes from the scratch itself: the process-wide
        // counter also moves with the analyses other tests run in
        // parallel, so it can only be checked from below.
        assert_eq!(
            scratch.reuses(),
            2,
            "first run is a fill, the next two are reuses"
        );
        assert!(
            reuses.get() - before >= 2,
            "every reuse reaches the counter"
        );
    }
}
