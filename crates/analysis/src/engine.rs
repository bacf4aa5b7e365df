//! The unified analysis engine: memoized demand curves plus a
//! dependency-driven outer worklist.
//!
//! [`AnalysisEngine`] computes exactly the fixed point of Eq. (19) that
//! [`crate::wcrt::analyze_reference`] computes — the `engine_equivalence`
//! differential test pins the two byte-identical across every
//! [`crate::BusPolicy`] × [`crate::PersistenceMode`] combination — but
//! avoids the two dominant sources of redundant work in the reference
//! path:
//!
//! 1. **Memoized demand curves.** Every bound the recurrence evaluates
//!    (`BAS`, `BAO`, the same-core preemption interference) is a monotone
//!    step function of the window length, constant between discrete events
//!    (job releases, carry-out `d_mem` cells). The engine materialises
//!    these curves lazily. The same-core pair — interference and `BAS`,
//!    which share one release grid — is cached as scalar constancy
//!    segments in a [`crate::curve::StepCurve`] over
//!    [`crate::bas::releases_span`]. `BAO` steps on the much finer `d_mem`
//!    grid, so it is cached as [`crate::bao::BaoSegment`]s instead — one
//!    fused segment per remote core `y` and split `s` (the number of
//!    tasks on `y` with id ≤ the level; a slot's members depend on the
//!    level only through `s`, DESIGN.md §17) serving every level with
//!    that split, both priority bands and
//!    both carry-out modes: per-member terms valid on a whole period-scale
//!    `N`-interval, re-evaluated in a few operations per hit (no band
//!    filtering, no persistence/CPRO/CRPD re-derivation). `BAO` curves
//!    consume remote response-time estimates, so they carry a per-core
//!    version stamp; when the stamp moves or the window leaves the span,
//!    [`crate::bao::BaoSegment::refresh`] re-derives just the members
//!    whose inputs changed. Same-core curves never read estimates and
//!    live for the whole run.
//! 2. **Dependency-driven outer loop.** The reference outer loop re-solves
//!    every task every sweep. The engine keeps a dirty set seeded with all
//!    tasks and re-enqueues a task only when an input of its recurrence
//!    changed: `τj`'s bound reads `resp[i]` only through `BAO` over remote
//!    cores, so a change to `resp[i]` dirties exactly the tasks on *other*
//!    cores — and under arbiters that never consume remote response times
//!    (TDMA, perfect; see
//!    [`crate::arbiter::BusArbiter::consumes_remote_response_times`])
//!    nothing at all. Skipped tasks are provably no-ops: their inputs are
//!    unchanged, so the reference sweep would return the same bound.
//!
//! All of the engine's working storage lives in an [`AnalysisScratch`]
//! that survives across runs: a sweep worker allocates one scratch and
//! pays for its vectors once, then every further [`crate::analyze_with`]
//! call merely *resets* them (curve caches emptied, buffers refilled in
//! place). [`crate::analyze`] is the one-shot form with a fresh scratch.
//!
//! Cache effectiveness is observable through the always-on counters
//! `engine.curve_hit` / `engine.curve_miss` / `engine.tasks_solved` /
//! `engine.tasks_skipped` / `engine.scratch_reuses`, the per-round
//! `engine.worklist` event and the `engine.worklist_depth` histogram
//! (`cpa-trace analyze` reports all of them).

use core::fmt;

use cpa_model::{CoreId, TaskId, Time};

use crate::arbiter::{arbiter_for, BaoSource, BusArbiter};
use crate::bao::{BaoMembers, BaoSegment, CarryOut, PriorityBand};
use crate::curve::StepCurve;
use crate::wcrt::{self, AnalysisResult};
use crate::{bas, AnalysisConfig, AnalysisContext, PersistenceMode};

/// One memoized `BAO` slot for a fixed `(core, split)` key — remote core
/// `y` and split `s`, the number of tasks on `y` with id ≤ the queried
/// level. Every level with the same split on `y` has identical members
/// (γ(k,l) and the CPRO overlap(l,k) depend on the level `k` only
/// through `s`), so they all share the slot: the
/// precomputed member statics of both priority bands plus the most
/// recently built [`BaoSegment`]. When the window leaves the segment's
/// span or a response time on the remote core moves (tracked by the
/// stamped core version), [`BaoSegment::refresh`] re-derives only the
/// members actually affected — a full rebuild happens once, on first
/// touch.
#[derive(Debug, Clone, Default)]
struct BaoSlot {
    /// Window- and response-independent member records, filled on first
    /// touch and kept for the whole run. Context-dependent, hence
    /// refilled (in place) on the first touch of every run.
    members: BaoMembers,
    /// Whether `members` holds the current run's records.
    filled: bool,
    /// The most recently built segment for this key.
    seg: BaoSegment,
    /// Core version [`BaoSlot::seg`] was last refreshed against.
    stamp: u64,
}

impl BaoSlot {
    /// Prepares the slot for a run on a (potentially) different task set:
    /// members marked stale, segment emptied — storage kept. A reset
    /// slot can never serve stale data: the emptied segment span contains
    /// no window, so the first lookup always misses and refills.
    fn reset(&mut self) {
        self.filled = false;
        self.seg.reset();
        self.stamp = 0;
    }
}

/// [`BaoSource`] backed by the engine's segment cache; falls back to one
/// (incremental) [`BaoSegment::refresh`] on a miss.
struct CachedBao<'e, 'ctx, 'a> {
    ctx: &'ctx AnalysisContext<'a>,
    resp: &'e [Time],
    core_version: &'e [u64],
    /// Slots per remote core, indexed by split.
    slots: &'e mut [Vec<BaoSlot>],
    /// Split of every `(level, core)` pair, flat-indexed
    /// `level · cores + core`.
    splits: &'e [usize],
    /// Per-core task ids in id order (the fast path of
    /// [`crate::bao::bao_members_on`]).
    on_core: &'e [Vec<TaskId>],
    hits: &'e mut u64,
    misses: &'e mut u64,
    mode: PersistenceMode,
    cores: usize,
}

impl CachedBao<'_, '_, '_> {
    /// The `(hep, lower)` pair from the `(core, split)` slot of `level`.
    /// Neither the level itself, the priority band nor the carry-out mode
    /// is part of the key: one segment's terms serve every level with the
    /// same split, both bands and both modes (see [`BaoSegment`]), so
    /// neighbouring FP levels, RR's lowest-level queries, the FP bus's two
    /// band queries and the Exact refine phase all hit the segments the
    /// Capped bracket phase filled.
    fn lookup(&mut self, level: TaskId, core: CoreId, t: Time, carry: CarryOut) -> (u64, u64) {
        let split = self.splits[level.index() * self.cores + core.index()];
        let version = self.core_version[core.index()];
        let ctx = self.ctx;
        let d_mem = ctx.d_mem();
        let slot = &mut self.slots[core.index()][split];
        if slot.stamp == version && slot.seg.span.contains(t) {
            *self.hits += 1;
            return slot.seg.eval(t, d_mem, carry);
        }
        *self.misses += 1;
        if !slot.filled {
            slot.members
                .refill_on(ctx, level, &self.on_core[core.index()]);
            slot.filled = true;
        }
        slot.seg
            .refresh(&slot.members, t, self.resp, d_mem, self.mode);
        slot.stamp = version;
        slot.seg.eval(t, d_mem, carry)
    }
}

impl BaoSource for CachedBao<'_, '_, '_> {
    fn bao(
        &mut self,
        level: TaskId,
        core: CoreId,
        t: Time,
        band: PriorityBand,
        carry: CarryOut,
    ) -> u64 {
        let pair = self.lookup(level, core, t, carry);
        match band {
            PriorityBand::HigherOrEqual => pair.0,
            PriorityBand::Lower => pair.1,
        }
    }

    fn bao_pair(&mut self, level: TaskId, core: CoreId, t: Time, carry: CarryOut) -> (u64, u64) {
        self.lookup(level, core, t, carry)
    }
}

/// Reusable working storage for [`AnalysisEngine`] runs: response-time
/// estimates, curve caches, worklist state, per-core index structures.
///
/// Allocate one per worker ([`AnalysisScratch::new`]) and pass it to
/// every [`crate::analyze_with`] call: each run resets the buffers in
/// place — curve caches emptied, index lists refilled — so steady-state
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
    /// round (Gauss–Seidel, exactly like the reference sweep).
    resp: Vec<Time>,
    /// The initial estimates `R_i = PD_i + MD_i · d_mem`, the floor every
    /// inner solve restarts from.
    init: Vec<Time>,
    /// Per-core version counters; bumped whenever a response time on the
    /// core changes, lazily invalidating that core's `BAO` curves.
    core_version: Vec<u64>,
    /// Per-task same-core curves caching the
    /// `(interference cycles, BAS_i^oblivious(t), BAS_i^aware(t))`
    /// triple — all constant between the task's own higher-priority
    /// releases, so they share one segment grid. Never invalidated
    /// within a run (independent of the response-time estimates); both
    /// persistence modes are cached side by side.
    same_core: Vec<StepCurve<(u64, u64, u64)>>,
    /// `BAO` curves per remote core, indexed by split (`0..=` the core's
    /// task count) — one segment serves every level with that split, both
    /// priority bands and both carry-out modes.
    bao_slots: Vec<Vec<BaoSlot>>,
    /// Split of every `(level, core)` pair: the number of tasks on the
    /// core with id ≤ the level, flat-indexed `level · cores + core`.
    bao_split: Vec<usize>,
    /// Window-independent `+1` blocking access per task (policy fact ×
    /// existence of a same-core lower-priority task).
    blocking: Vec<u64>,
    /// Task ids per core, in id (= priority) order.
    on_core: Vec<Vec<TaskId>>,
    /// `τi`'s position in its core's `on_core` list — the id list of its
    /// same-core higher-priority tasks is the prefix of that length.
    hp_prefix: Vec<usize>,
    /// Outer-worklist dirty flags.
    dirty: Vec<bool>,
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

    /// Resets every buffer for a run on `ctx` under an arbiter that does
    /// (or does not) charge blocking — clears and refills in place,
    /// growing only beyond the largest problem seen so far.
    fn reset(&mut self, ctx: &AnalysisContext<'_>, charges_blocking: bool) {
        if self.uses > 0 {
            cpa_obs::counter("engine.scratch_reuses").incr();
        }
        self.uses += 1;

        let tasks = ctx.tasks();
        let n = tasks.len();
        let cores = ctx.platform().cores();

        wcrt::fill_initial_estimates(ctx, &mut self.resp);
        self.init.clear();
        self.init.extend_from_slice(&self.resp);

        self.core_version.clear();
        self.core_version.resize(cores, 0);

        if self.same_core.len() < n {
            self.same_core.resize_with(n, StepCurve::new);
        }
        for curve in &mut self.same_core[..n] {
            curve.clear();
        }

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

        self.blocking.clear();
        self.blocking.extend(tasks.ids().map(|i| {
            u64::from(charges_blocking && tasks.lp_on(i, tasks[i].core()).next().is_some())
        }));

        self.dirty.clear();
        self.dirty.resize(n, true);
    }
}

/// The memoized, worklist-driven WCRT analysis (see the module docs).
///
/// Build one per `(task set, configuration)` evaluation with
/// [`AnalysisEngine::new`] — borrowing a (possibly recycled)
/// [`AnalysisScratch`] — and consume it with [`AnalysisEngine::run`];
/// [`crate::analyze`] and [`crate::analyze_with`] do exactly that.
pub struct AnalysisEngine<'e, 'a> {
    ctx: &'e AnalysisContext<'a>,
    config: &'e AnalysisConfig,
    arbiter: Box<dyn BusArbiter>,
    scratch: &'e mut AnalysisScratch,
    cores: usize,
    same_core_hits: u64,
    same_core_misses: u64,
    bao_hits: u64,
    bao_misses: u64,
    tasks_solved: u64,
    tasks_skipped: u64,
}

impl fmt::Debug for AnalysisEngine<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnalysisEngine")
            .field("bus", &self.arbiter.policy())
            .field("persistence", &self.config.persistence)
            .field("tasks", &self.ctx.tasks().len())
            .field("cores", &self.cores)
            .finish_non_exhaustive()
    }
}

impl<'e, 'a> AnalysisEngine<'e, 'a> {
    /// Prepares an engine run: builds the arbiter, resets `scratch` and
    /// fills the initial estimates `R_i = PD_i + MD_i · d_mem`.
    #[must_use]
    pub fn new(
        ctx: &'e AnalysisContext<'a>,
        config: &'e AnalysisConfig,
        scratch: &'e mut AnalysisScratch,
    ) -> Self {
        let cores = ctx.platform().cores();
        let arbiter = arbiter_for(config.bus);
        scratch.reset(ctx, arbiter.charges_blocking());
        AnalysisEngine {
            ctx,
            config,
            arbiter,
            scratch,
            cores,
            same_core_hits: 0,
            same_core_misses: 0,
            bao_hits: 0,
            bao_misses: 0,
            tasks_solved: 0,
            tasks_skipped: 0,
        }
    }

    /// Eq. (19)'s right-hand side at window length `r`, evaluated through
    /// the curve caches. Agrees pointwise with the reference evaluator
    /// (`rhs` in [`crate::wcrt`]) — that is the whole equivalence argument.
    fn rhs(&mut self, i: TaskId, r: Time, carry: CarryOut) -> Time {
        let ctx = self.ctx;
        let tasks = ctx.tasks();
        let task = &tasks[i];
        let mode = self.config.persistence;
        let idx = i.index();
        let scratch = &mut *self.scratch;

        // Same-core terms: interference (cycles) and both BAS modes share
        // one constancy span — every release count E_j is constant on
        // it — so the triple lives in a single curve: one lookup, one
        // span, one insert.
        let (interference, own) = match scratch.same_core[idx].lookup(r) {
            Some((intf, oblivious, aware)) => {
                self.same_core_hits += 1;
                let own = match mode {
                    PersistenceMode::Oblivious => oblivious,
                    PersistenceMode::Aware => aware,
                };
                (Time::from_cycles(intf), own)
            }
            None => {
                self.same_core_misses += 1;
                let hp = &scratch.on_core[task.core().index()][..scratch.hp_prefix[idx]];
                let (s, intf, oblivious, aware) = bas::same_core_terms(ctx, i, r, hp);
                scratch.same_core[idx].insert(r, s, (intf.cycles(), oblivious, aware));
                let own = match mode {
                    PersistenceMode::Oblivious => oblivious,
                    PersistenceMode::Aware => aware,
                };
                (intf, own)
            }
        };

        // Cross-core term through the arbiter, feeding it memoized BAO.
        let arb = &*self.arbiter;
        let mut src = CachedBao {
            ctx,
            resp: &scratch.resp,
            core_version: &scratch.core_version,
            slots: &mut scratch.bao_slots,
            splits: &scratch.bao_split,
            on_core: &scratch.on_core,
            hits: &mut self.bao_hits,
            misses: &mut self.bao_misses,
            mode,
            cores: self.cores,
        };
        let cross = arb.cross_core(ctx, &mut src, i, r, own, carry);

        let bus_accesses = own
            .saturating_add(cross)
            .saturating_add(scratch.blocking[idx]);
        task.processing_demand()
            .saturating_add(interference)
            .saturating_add(ctx.d_mem().saturating_mul(bus_accesses))
    }

    /// Flushes the run's cache/worklist tallies into the always-on
    /// counters and hands the result back.
    fn finish(&mut self, result: AnalysisResult) -> AnalysisResult {
        self.scratch.last_bao = (self.bao_hits, self.bao_misses);
        cpa_obs::counter("engine.curve_hit").add(self.same_core_hits + self.bao_hits);
        cpa_obs::counter("engine.curve_miss").add(self.same_core_misses + self.bao_misses);
        cpa_obs::counter("engine.same_core_hit").add(self.same_core_hits);
        cpa_obs::counter("engine.same_core_miss").add(self.same_core_misses);
        cpa_obs::counter("engine.bao_hit").add(self.bao_hits);
        cpa_obs::counter("engine.bao_miss").add(self.bao_misses);
        cpa_obs::counter("engine.tasks_solved").add(self.tasks_solved);
        cpa_obs::counter("engine.tasks_skipped").add(self.tasks_skipped);
        result
    }

    /// Runs the analysis to its fixed point (or deadline miss / outer
    /// cap). Consumes the engine: the borrowed scratch's curves are only
    /// valid for one run (the next [`AnalysisEngine::new`] resets them).
    #[must_use]
    pub fn run(mut self) -> AnalysisResult {
        let _span = cpa_obs::span!("wcrt.analyze");
        if let Some(result) = wcrt::perfect_bus_check(self.ctx, self.config) {
            return self.finish(result);
        }
        let ctx = self.ctx;
        let tasks = ctx.tasks();
        let n = tasks.len();
        let consumes_remote = self.arbiter.consumes_remote_response_times();
        // Owned by the eventual AnalysisResult, so allocated per run.
        let mut inner_iterations = vec![0u64; n];

        for round in 1..=self.config.max_outer_iterations {
            let mut processed = 0usize;
            let mut changed_tasks = 0usize;
            for i in tasks.ids() {
                if !self.scratch.dirty[i.index()] {
                    self.tasks_skipped += 1;
                    continue;
                }
                self.scratch.dirty[i.index()] = false;
                processed += 1;
                self.tasks_solved += 1;
                let start = self.scratch.resp[i.index()].max(self.scratch.init[i.index()]);
                let max_inner = self.config.max_inner_iterations;
                let solve = wcrt::solve_inner(tasks[i].deadline(), start, max_inner, |r, carry| {
                    self.rhs(i, r, carry)
                });
                inner_iterations[i.index()] += solve.iterations;
                let r = match solve.bound {
                    Some(r) => r,
                    None => {
                        cpa_obs::event!(
                            "wcrt.deadline_miss",
                            task = i.index(),
                            outer = round,
                            deadline = tasks[i].deadline().cycles(),
                        );
                        // Unschedulable: report what we know, with the
                        // failing task explicitly marked unbounded —
                        // the same partial snapshot the reference takes.
                        let response_times = self
                            .scratch
                            .resp
                            .iter()
                            .zip(tasks.iter())
                            .enumerate()
                            .map(|(idx, (&r, t))| {
                                (idx != i.index() && r <= t.deadline()).then_some(r)
                            })
                            .collect();
                        return self.finish(AnalysisResult {
                            response_times,
                            schedulable: false,
                            outer_iterations: round,
                            inner_iterations,
                            hit_outer_cap: false,
                        });
                    }
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
                    // other cores — and only under arbiters that consume
                    // remote response times at all.
                    let core = tasks[i].core();
                    self.scratch.core_version[core.index()] += 1;
                    if consumes_remote {
                        for j in tasks.ids() {
                            if tasks[j].core() != core {
                                self.scratch.dirty[j.index()] = true;
                            }
                        }
                    }
                }
            }
            cpa_obs::event!(
                "engine.worklist",
                round = round,
                depth = processed,
                changed = changed_tasks,
            );
            cpa_obs::histogram!("engine.worklist_depth", processed as u64);
            cpa_obs::event!("wcrt.outer", iter = round, changed = changed_tasks);
            if changed_tasks == 0 {
                // Converged. An empty round (depth 0) corresponds to the
                // reference's final zero-change sweep, so round numbers —
                // and therefore `outer_iterations` — line up exactly.
                wcrt::emit_converged_events(
                    ctx,
                    self.config,
                    &self.scratch.resp,
                    &inner_iterations,
                );
                let response_times = self.scratch.resp.iter().map(|&r| Some(r)).collect();
                return self.finish(AnalysisResult {
                    response_times,
                    schedulable: true,
                    outer_iterations: round,
                    inner_iterations,
                    hit_outer_cap: false,
                });
            }
        }

        // Outer loop failed to stabilise within the cap: the reference
        // would keep sweeping too, so this is a genuine cap hit.
        cpa_obs::event!(
            "wcrt.outer_cap",
            level = "warn",
            max_outer = self.config.max_outer_iterations,
            bus = self.config.bus.label(),
        );
        cpa_obs::counter("wcrt.outer_cap_hits").incr();
        self.finish(AnalysisResult {
            response_times: vec![None; n],
            schedulable: false,
            outer_iterations: self.config.max_outer_iterations,
            inner_iterations,
            hit_outer_cap: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, analyze_reference, analyze_with, BusPolicy};
    use cpa_model::{CacheBlockSet, Platform, Priority, Task, TaskSet};

    fn task(name: &str, prio: u32, core: usize, pd: u64, md: u64, md_r: u64, period: u64) -> Task {
        Task::builder(name)
            .processing_demand(Time::from_cycles(pd))
            .memory_demand(md)
            .residual_memory_demand(md_r)
            .period(Time::from_cycles(period))
            .deadline(Time::from_cycles(period))
            .core(CoreId::new(core))
            .priority(Priority::new(prio))
            .ecb(CacheBlockSet::contiguous(256, (prio as usize) * 20, 10))
            .pcb(CacheBlockSet::contiguous(256, (prio as usize) * 20, 8))
            .build()
            .unwrap()
    }

    fn two_core_set() -> (Platform, TaskSet) {
        let platform = Platform::builder()
            .cores(2)
            .memory_latency(Time::from_cycles(20))
            .build()
            .unwrap();
        let tasks = TaskSet::new(vec![
            task("a", 1, 0, 100, 20, 2, 4_000),
            task("b", 2, 1, 100, 20, 2, 4_000),
            task("c", 3, 0, 200, 20, 2, 8_000),
            task("d", 4, 1, 200, 20, 2, 8_000),
        ])
        .unwrap();
        (platform, tasks)
    }

    #[test]
    fn engine_matches_reference_on_the_worked_set() {
        let (platform, tasks) = two_core_set();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        for bus in [
            BusPolicy::FixedPriority,
            BusPolicy::RoundRobin { slots: 2 },
            BusPolicy::Tdma { slots: 2 },
            BusPolicy::Perfect,
        ] {
            for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                let config = AnalysisConfig::new(bus, mode);
                let engine = analyze(&ctx, &config);
                let reference = analyze_reference(&ctx, &config);
                assert_eq!(
                    engine.response_times(),
                    reference.response_times(),
                    "{bus:?} {mode:?}"
                );
                assert_eq!(engine.is_schedulable(), reference.is_schedulable());
                assert_eq!(engine.outer_iterations(), reference.outer_iterations());
            }
        }
    }

    #[test]
    fn recycled_scratch_matches_fresh_scratch() {
        // One scratch serving every (bus, mode) combination back to back —
        // including across a *different* task set in between — must
        // reproduce the fresh-scratch results exactly.
        let (platform, tasks) = two_core_set();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let small_platform = Platform::builder()
            .cores(1)
            .memory_latency(Time::from_cycles(5))
            .build()
            .unwrap();
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
                let fresh = analyze(&ctx, &config);
                assert_eq!(
                    recycled.response_times(),
                    fresh.response_times(),
                    "{bus:?} {mode:?}"
                );
                assert_eq!(recycled.is_schedulable(), fresh.is_schedulable());
                assert_eq!(recycled.outer_iterations(), fresh.outer_iterations());
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

    #[test]
    fn curve_cache_hits_on_repeated_windows() {
        let (platform, tasks) = two_core_set();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let config = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware);
        let hit = cpa_obs::counter("engine.curve_hit");
        let solved = cpa_obs::counter("engine.tasks_solved");
        let (h0, s0) = (hit.get(), solved.get());
        let res = analyze(&ctx, &config);
        assert!(res.is_schedulable());
        assert!(hit.get() > h0, "bracket/refine revisit windows: some hits");
        assert!(solved.get() > s0);
    }

    #[test]
    fn worklist_skips_settled_tasks() {
        // TDMA consumes no remote response times: after round 1 nothing is
        // ever re-enqueued, so the skip counter must grow while the
        // analysis still matches the reference.
        let (platform, tasks) = two_core_set();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let config = AnalysisConfig::new(BusPolicy::Tdma { slots: 2 }, PersistenceMode::Aware);
        let skipped = cpa_obs::counter("engine.tasks_skipped");
        let before = skipped.get();
        let engine = analyze(&ctx, &config);
        let reference = analyze_reference(&ctx, &config);
        assert_eq!(engine.response_times(), reference.response_times());
        assert!(
            skipped.get() > before,
            "TDMA convergence round must skip every task"
        );
    }
}
