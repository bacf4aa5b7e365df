//! Worst-case response time analysis: Eq. (19) with an outer loop.
//!
//! The response time of `τi` is the least fixed point of
//!
//! ```text
//! R_i = PD_i + Σ_{j ∈ Γx ∩ hp(i)} ⌈R_i / T_j⌉ · PD_j + BAT_i^x(R_i) · d_mem
//! ```
//!
//! Because `BAT` consumes the response times of tasks on *other* cores
//! (through Eq. (5)/(6)), the per-task fixed points are nested in an outer
//! loop over the whole task set: all estimates start at
//! `PD_i + MD_i · d_mem` and only ever grow, so the outer iteration is a
//! monotone fixed point too and terminates as soon as either no estimate
//! changes or some estimate exceeds its deadline (unschedulable), exactly
//! as described at the end of §IV of the paper.

use cpa_model::{TaskId, TaskSet, Time, UtilizationSum};

use crate::bao::CarryOut;
use crate::{AnalysisConfig, AnalysisContext, BusPolicy};

/// Result of a full WCRT analysis of a task set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisResult {
    pub(crate) response_times: Vec<Option<Time>>,
    pub(crate) schedulable: bool,
    pub(crate) outer_iterations: u32,
    pub(crate) inner_iterations: Vec<u64>,
    pub(crate) hit_outer_cap: bool,
}

impl AnalysisResult {
    /// `true` iff every task's WCRT converged within its deadline (and, for
    /// [`BusPolicy::Perfect`], the bus utilization test passed).
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.schedulable
    }

    /// Per-task totals of inner fixed-point iterations (bracket + refine
    /// steps, summed across every outer sweep), in priority order.
    #[must_use]
    pub fn inner_iteration_counts(&self) -> &[u64] {
        &self.inner_iterations
    }

    /// `true` when the outer loop exhausted
    /// [`crate::AnalysisConfig::max_outer_iterations`] without stabilising;
    /// the result is then reported unschedulable and a `wcrt.outer_cap`
    /// warning event is emitted.
    #[must_use]
    pub fn hit_outer_iteration_cap(&self) -> bool {
        self.hit_outer_cap
    }

    /// Per-task response times in priority order. `Some(R_i)` for every task
    /// when schedulable; on an unschedulable result, tasks whose estimate
    /// exceeded their deadline (or never converged) are `None` and the
    /// remaining entries are the estimates at the point the analysis
    /// stopped — useful for diagnosis, not guaranteed to be final.
    #[must_use]
    pub fn response_times(&self) -> &[Option<Time>] {
        &self.response_times
    }

    /// Response time of one task (see [`AnalysisResult::response_times`]).
    #[must_use]
    pub fn response_time(&self, i: TaskId) -> Option<Time> {
        self.response_times.get(i.index()).copied().flatten()
    }

    /// Number of outer iterations the analysis performed.
    #[must_use]
    pub fn outer_iterations(&self) -> u32 {
        self.outer_iterations
    }
}

impl AnalysisResult {
    /// The converged fixed point: every task bounded by `resp`.
    pub(crate) fn fixed_point(resp: &[Time], outer: u32, inner_iterations: Vec<u64>) -> Self {
        AnalysisResult {
            response_times: resp.iter().map(|&r| Some(r)).collect(),
            schedulable: true,
            outer_iterations: outer,
            inner_iterations,
            hit_outer_cap: false,
        }
    }

    /// `miss`'s bound exceeded its deadline in round `outer`: the failing
    /// task explicitly unbounded, every other task at its current estimate
    /// (when within its deadline).
    pub(crate) fn deadline_miss(
        tasks: &TaskSet,
        resp: &[Time],
        miss: TaskId,
        outer: u32,
        inner_iterations: Vec<u64>,
    ) -> Self {
        let response_times = resp
            .iter()
            .zip(tasks.iter())
            .enumerate()
            .map(|(idx, (&r, t))| (idx != miss.index() && r <= t.deadline()).then_some(r))
            .collect();
        AnalysisResult {
            response_times,
            schedulable: false,
            outer_iterations: outer,
            inner_iterations,
            hit_outer_cap: false,
        }
    }

    /// No task bounded: the perfect-bus gate failed (`outer` 0) or the
    /// outer loop ran out of rounds (`hit_outer_cap`).
    pub(crate) fn unbounded(
        tasks: usize,
        outer: u32,
        inner_iterations: Vec<u64>,
        hit_outer_cap: bool,
    ) -> Self {
        AnalysisResult {
            response_times: vec![None; tasks],
            schedulable: false,
            outer_iterations: outer,
            inner_iterations,
            hit_outer_cap,
        }
    }
}

/// Runs the full WCRT analysis (Eq. (19)) for every task under the given
/// configuration on a fresh [`crate::AnalysisScratch`]: the one-line form
/// of [`analyze_with`].
#[must_use]
pub fn analyze(ctx: &AnalysisContext<'_>, config: &AnalysisConfig) -> AnalysisResult {
    analyze_with(ctx, config, &mut crate::engine::AnalysisScratch::new())
}

/// The analysis entry point: Eq. (19) for every task under `config`,
/// through the engine (cached `BAO` segments, swept like the spec), on
/// caller-provided working storage. Sweep workers keep one
/// [`crate::AnalysisScratch`] each and reuse it across thousands of
/// calls; results never depend on what the scratch served before.
/// [`crate::spec::analyze`] computes the same result from the literal
/// equations (the `engine_equivalence` differential test).
///
/// For [`BusPolicy::Perfect`] the paper's reference line additionally
/// requires the total bus utilization `Σ MD^r_i · d_mem / T_i ≤ 1`; task
/// sets failing that test are reported unschedulable without running the
/// fixed point.
#[must_use]
pub fn analyze_with(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    scratch: &mut crate::engine::AnalysisScratch,
) -> AnalysisResult {
    crate::engine::AnalysisEngine::new(ctx, config, scratch).run()
}

/// The schedulability verdict [`analyze_with`] reports, for callers that
/// need no response times (the sweep runner): the perfect-bus gate, then
/// one exact right-hand side per task with every estimate at its
/// deadline. When every task passes, `R = D` is a pre-fixed point of
/// Eq. (19) (`rhs(D) ≤ D`), so the least fixed point lies at or below it
/// and the set is schedulable without a solve; otherwise the verdict is
/// [`analyze_with`]'s, on the same scratch (DESIGN.md §10).
///
/// A certified set is schedulable by Eq. (19) however many outer rounds
/// its fixed point needs, so only a set [`analyze_with`] stops at
/// [`AnalysisConfig::max_outer_iterations`] can get a different answer:
/// `true` here, unschedulable with the cap flag there.
#[must_use]
pub fn verdict_with(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    scratch: &mut crate::engine::AnalysisScratch,
) -> bool {
    crate::engine::AnalysisEngine::new(ctx, config, scratch)
        .certify()
        .unwrap_or_else(|| analyze_with(ctx, config, scratch).is_schedulable())
}

/// The engine's perfect-bus residual bus-utilization gate:
/// `Some(unschedulable)` when the bus itself is oversubscribed, `None`
/// when the fixed point should run.
///
/// The perfect-bus reference line assumes no bus interference as long as
/// the bus is not oversubscribed. Its utilization test uses the
/// steady-state per-job demand (the residual demand MD^r — PCB loads
/// amortise to zero across jobs), so the line stays an upper envelope of
/// the persistence-aware analyses.
///
/// The sum is exact ([`UtilizationSum`]), so a bus loaded to exactly 1
/// passes.
pub(crate) fn perfect_bus_check(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
) -> Option<AnalysisResult> {
    if config.bus != BusPolicy::Perfect {
        return None;
    }
    let tasks = ctx.tasks();
    let d_mem = ctx.d_mem();
    let residual_bus_utilization = || -> f64 {
        tasks
            .iter()
            .map(|t| {
                (t.residual_memory_demand() as f64 * d_mem.cycles() as f64)
                    / t.period().cycles() as f64
            })
            .sum()
    };
    let mut exact = UtilizationSum::new();
    for t in tasks.iter() {
        exact.add(
            t.residual_memory_demand(),
            d_mem.cycles(),
            t.period().cycles(),
        );
    }
    if exact.exceeds_one() {
        cpa_obs::event!(
            "wcrt.bus_overutilized",
            bus = config.bus.label(),
            utilization_permille = (residual_bus_utilization() * 1000.0) as u64,
        );
        return Some(AnalysisResult::unbounded(
            tasks.len(),
            0,
            vec![0u64; tasks.len()],
            false,
        ));
    }
    None
}

/// Cap on the bracket steps of one solve; past it the sufficiency test
/// decides, as for a bracket past the deadline.
const MAX_INNER_ITERATIONS: u32 = 100_000;

/// Outcome of one per-task inner fixed-point solve: the bound (`None` when
/// the deadline cannot be met) and the iterations it took (bracket steps +
/// refine steps + the sufficiency test, when taken).
pub(crate) struct InnerSolve {
    pub(crate) bound: Option<Time>,
    pub(crate) iterations: u64,
}

/// Sound WCRT bound for one task given the right-hand side of its
/// recurrence; `bound` is `None` when the deadline cannot be met.
///
/// The solver is generic over the right-hand-side evaluator so the engine
/// (cached `BAO` segments) and the spec ([`crate::spec::analyze`], the literal
/// equations) share one algorithm — identical results follow from the
/// evaluators agreeing pointwise. The recurrence is solved in two phases:
///
/// 1. **Bracket** — iterate upward with the *capped* carry-out bound
///    ([`CarryOut::Capped`], an over-approximation of Eq. (5) whose
///    value only changes at period-scale events). The exact Eq. (5) term
///    grows by one access per elapsed `d_mem`, making naive upward
///    iteration creep in `d_mem`-sized steps for up to millions of
///    iterations; the capped bound converges in a number of steps bounded
///    by the job releases in the window.
/// 2. **Refine** — from the capped fixed point `r*` (which satisfies
///    `f(r*) ≤ r*` for the exact right-hand side `f`), iterate `r ← f(r)`
///    *downwards*. Every iterate remains a pre-fixed point of `f`
///    (monotonicity), hence a sound WCRT bound, so refinement can stop
///    after a bounded number of steps without losing soundness.
///
/// If the capped bracket exceeds the deadline, the exact recurrence is
/// given a last chance via the sufficiency test `f(D_i) ≤ D_i` (any window
/// of length `D_i` that contains all charged work ends by `D_i`), again
/// followed by downward refinement.
///
/// The engine's right-hand side saturates at `u64::MAX`, so a bound there
/// may stand for a larger one: no deadline admits it, and a task with
/// `D_i = u64::MAX` is tested against `u64::MAX − 1`.
/// It opens no span: its phases are counted, not timed (DESIGN.md §9).
pub(crate) fn solve_inner(
    deadline: Time,
    start: Time,
    mut rhs_at: impl FnMut(Time, CarryOut) -> Time,
) -> InnerSolve {
    let deadline = deadline.min(Time::from_cycles(u64::MAX - 1));
    // Phase 1: capped upward bracket.
    let mut r = start;
    let mut bracket = None;
    let mut iterations = 0u64;
    for _ in 0..MAX_INNER_ITERATIONS {
        iterations += 1;
        let next = rhs_at(r, CarryOut::Capped);
        if next == r {
            bracket = Some(r);
            break;
        }
        r = next;
        if r > deadline {
            break;
        }
    }

    const REFINE_STEPS: u32 = 64;
    fn refine<F: FnMut(Time, CarryOut) -> Time>(
        mut r: Time,
        iterations: &mut u64,
        rhs_at: &mut F,
    ) -> Time {
        for _ in 0..REFINE_STEPS {
            *iterations += 1;
            let next = rhs_at(r, CarryOut::Exact);
            debug_assert!(next <= r, "downward refinement must not increase");
            if next == r {
                break;
            }
            r = next;
        }
        r
    }

    let bound = match bracket {
        Some(r_star) if r_star <= deadline => Some(refine(r_star, &mut iterations, &mut rhs_at)),
        _ => {
            // Exact sufficiency test at the deadline.
            iterations += 1;
            let at_deadline = rhs_at(deadline, CarryOut::Exact);
            (at_deadline <= deadline).then(|| refine(at_deadline, &mut iterations, &mut rhs_at))
        }
    };
    InnerSolve { bound, iterations }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::PersistenceMode;
    use cpa_model::{CacheBlockSet, CoreId, Platform, Priority, Task, TaskSet};

    pub fn platform(cores: usize, d_mem: u64) -> Platform {
        Platform::builder()
            .cores(cores)
            .memory_latency(Time::from_cycles(d_mem))
            .build()
            .unwrap()
    }

    /// A task with `D = T = t`, 10 ECBs and 8 PCBs placed by priority.
    pub fn task(name: &str, prio: u32, core: usize, pd: u64, md: u64, md_r: u64, t: u64) -> Task {
        Task::builder(name)
            .processing_demand(Time::from_cycles(pd))
            .memory_demand(md)
            .residual_memory_demand(md_r)
            .period(Time::from_cycles(t))
            .deadline(Time::from_cycles(t))
            .core(CoreId::new(core))
            .priority(Priority::new(prio))
            .ecb(CacheBlockSet::contiguous(256, (prio as usize) * 20, 10))
            .pcb(CacheBlockSet::contiguous(256, (prio as usize) * 20, 8))
            .build()
            .unwrap()
    }

    #[test]
    fn single_task_single_core() {
        let p = platform(1, 10);
        let ts = TaskSet::new(vec![task("t", 1, 0, 100, 5, 1, 1_000)]).unwrap();
        let ctx = AnalysisContext::new(&p, &ts).unwrap();
        for bus in [
            BusPolicy::FixedPriority,
            BusPolicy::RoundRobin { slots: 2 },
            BusPolicy::Tdma { slots: 2 },
            BusPolicy::Perfect,
        ] {
            let res = analyze(&ctx, &AnalysisConfig::new(bus, PersistenceMode::Aware));
            assert!(res.is_schedulable(), "{bus:?}");
            // Alone in the system every policy degenerates to
            // R = PD + MD·d_mem (TDMA has no other cores to wait for).
            let r = res.response_time(TaskId::new(0)).unwrap();
            assert_eq!(r, Time::from_cycles(150), "{bus:?}");
        }
    }

    #[test]
    fn preemption_interference_counted() {
        // Classic two-task single-core response time, no memory demand.
        // The high-priority task still pays the +1 blocking access
        // (a lower-priority task shares its core): R_hi = 20 + 1·d_mem.
        // R_lo = 40 + ⌈R/100⌉·20 = 60, no blocking (lowest priority).
        let p = platform(1, 1);
        let ts = TaskSet::new(vec![
            task("hi", 1, 0, 20, 0, 0, 100),
            task("lo", 2, 0, 40, 0, 0, 200),
        ])
        .unwrap();
        let ctx = AnalysisContext::new(&p, &ts).unwrap();
        let res = analyze(
            &ctx,
            &AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Oblivious),
        );
        assert!(res.is_schedulable());
        assert_eq!(
            res.response_time(TaskId::new(0)),
            Some(Time::from_cycles(21))
        );
        assert_eq!(
            res.response_time(TaskId::new(1)),
            Some(Time::from_cycles(60))
        );
    }

    #[test]
    fn unschedulable_when_overloaded() {
        let p = platform(1, 10);
        // Utilization > 1 on the core.
        let ts = TaskSet::new(vec![
            task("hi", 1, 0, 600, 10, 10, 1_000),
            task("lo", 2, 0, 600, 10, 10, 1_000),
        ])
        .unwrap();
        let ctx = AnalysisContext::new(&p, &ts).unwrap();
        let res = analyze(
            &ctx,
            &AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware),
        );
        assert!(!res.is_schedulable());
        // The high-priority task is fine; the low one blew its deadline.
        assert!(res.response_time(TaskId::new(0)).is_some());
        assert_eq!(res.response_time(TaskId::new(1)), None);
    }

    #[test]
    fn perfect_bus_gates_on_bus_utilization() {
        let p = platform(2, 100);
        // Each task alone is trivially schedulable, but the bus carries
        // 2 × 60·100/10_000 = 1.2 > 1.
        let ts = TaskSet::new(vec![
            task("a", 1, 0, 10, 60, 60, 10_000),
            task("b", 2, 1, 10, 60, 60, 10_000),
        ])
        .unwrap();
        let ctx = AnalysisContext::new(&p, &ts).unwrap();
        let res = analyze(
            &ctx,
            &AnalysisConfig::new(BusPolicy::Perfect, PersistenceMode::Aware),
        );
        assert!(!res.is_schedulable());
        assert_eq!(res.outer_iterations(), 0);
        // The same set under 10× shorter memory latency passes.
        let fast = platform(2, 10);
        let ctx = AnalysisContext::new(&fast, &ts).unwrap();
        let res = analyze(
            &ctx,
            &AnalysisConfig::new(BusPolicy::Perfect, PersistenceMode::Aware),
        );
        assert!(res.is_schedulable());
    }

    #[test]
    fn perfect_bus_at_exactly_full_utilization_passes() {
        // MD^r · d_mem / T = 6/30 + 23/30 + 1/30 = 1 exactly, which the
        // gate admits; the f64 sum of the quotients rounds above 1.
        let f64_sum: f64 = [6.0, 23.0, 1.0].iter().map(|md: &f64| md / 30.0).sum();
        assert!(f64_sum > 1.0, "the fixture must exercise f64 rounding");
        let p = platform(3, 1);
        let ts = TaskSet::new(vec![
            task("a", 1, 0, 1, 6, 6, 30),
            task("b", 2, 1, 1, 23, 23, 30),
            task("c", 3, 2, 1, 1, 1, 30),
        ])
        .unwrap();
        let ctx = AnalysisContext::new(&p, &ts).unwrap();
        let config = AnalysisConfig::new(BusPolicy::Perfect, PersistenceMode::Aware);
        let res = analyze(&ctx, &config);
        assert!(res.is_schedulable());
        assert_eq!(res, crate::spec::analyze(&ctx, &config).unwrap());
        // One more access tips the bus over 1.
        let over = TaskSet::new(vec![
            task("a", 1, 0, 1, 7, 7, 30),
            task("b", 2, 1, 1, 23, 23, 30),
            task("c", 3, 2, 1, 1, 1, 30),
        ])
        .unwrap();
        let ctx = AnalysisContext::new(&p, &over).unwrap();
        assert!(!analyze(&ctx, &config).is_schedulable());
    }

    #[test]
    fn aware_dominates_oblivious_on_multicore() {
        let p = platform(2, 20);
        let ts = TaskSet::new(vec![
            task("a", 1, 0, 100, 20, 2, 4_000),
            task("b", 2, 1, 100, 20, 2, 4_000),
            task("c", 3, 0, 200, 20, 2, 8_000),
            task("d", 4, 1, 200, 20, 2, 8_000),
        ])
        .unwrap();
        let ctx = AnalysisContext::new(&p, &ts).unwrap();
        for bus in [
            BusPolicy::FixedPriority,
            BusPolicy::RoundRobin { slots: 2 },
            BusPolicy::Tdma { slots: 2 },
        ] {
            let aware = analyze(&ctx, &AnalysisConfig::new(bus, PersistenceMode::Aware));
            let obl = analyze(&ctx, &AnalysisConfig::new(bus, PersistenceMode::Oblivious));
            assert!(aware.is_schedulable(), "{bus:?}");
            assert!(obl.is_schedulable(), "{bus:?}");
            for i in ts.ids() {
                assert!(
                    aware.response_time(i).unwrap() <= obl.response_time(i).unwrap(),
                    "{bus:?} {i:?}"
                );
            }
        }
    }

    #[test]
    fn explain_decomposes_the_fixed_point() {
        let p = platform(2, 20);
        let ts = TaskSet::new(vec![
            task("a", 1, 0, 100, 20, 2, 4_000),
            task("b", 2, 1, 100, 20, 2, 4_000),
            task("c", 3, 0, 200, 20, 2, 8_000),
        ])
        .unwrap();
        let ctx = AnalysisContext::new(&p, &ts).unwrap();
        let cfg = AnalysisConfig::new(BusPolicy::RoundRobin { slots: 2 }, PersistenceMode::Aware);
        let result = analyze(&ctx, &cfg);
        assert!(result.is_schedulable());
        let resp: Vec<Time> = result
            .response_times()
            .iter()
            .map(|r| r.expect("schedulable"))
            .collect();
        let d_mem = ctx.d_mem();
        for i in ts.ids() {
            let d = crate::decompose(&ctx, &cfg, i, resp[i.index()], &resp);
            // At the fixed point the bus time of the decomposed accesses
            // plus the task's own processing fits the WCRT (the stored
            // value is a pre-fixed point).
            let bus = d_mem.saturating_mul(d.total_accesses());
            assert!(
                ts[i].processing_demand().saturating_add(bus) <= resp[i.index()],
                "{i}: {d:?}"
            );
            assert!(d.bas_accesses > 0, "{i}: own demand is charged");
        }
        // b sits alone on core 1: it waits for core 0's accesses.
        let b = ts.id_of("b").unwrap();
        let db = crate::decompose(&ctx, &cfg, b, resp[b.index()], &resp);
        assert!(db.bao_accesses > 0);
    }

    #[test]
    fn iteration_counts_and_converged_accessor() {
        let p = platform(2, 20);
        let ts = TaskSet::new(vec![
            task("a", 1, 0, 100, 20, 2, 4_000),
            task("b", 2, 1, 100, 20, 2, 4_000),
        ])
        .unwrap();
        let ctx = AnalysisContext::new(&p, &ts).unwrap();
        let res = analyze(
            &ctx,
            &AnalysisConfig::new(BusPolicy::RoundRobin { slots: 2 }, PersistenceMode::Aware),
        );
        assert!(res.is_schedulable());
        assert!(!res.hit_outer_iteration_cap());
        assert_eq!(res.inner_iteration_counts().len(), 2);
        for i in ts.ids() {
            assert!(res.response_time(i).is_some(), "{i:?}");
            // Every task needs at least one bracket step per outer sweep.
            let inner = res.inner_iteration_counts()[i.index()];
            assert!(inner >= u64::from(res.outer_iterations()));
        }
        // Out-of-range ids degrade gracefully.
        assert_eq!(res.response_time(TaskId::new(99)), None);
    }

    #[test]
    fn unconverged_tasks_report_not_converged() {
        let p = platform(1, 10);
        let ts = TaskSet::new(vec![
            task("hi", 1, 0, 600, 10, 10, 1_000),
            task("lo", 2, 0, 600, 10, 10, 1_000),
        ])
        .unwrap();
        let ctx = AnalysisContext::new(&p, &ts).unwrap();
        let res = analyze(
            &ctx,
            &AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware),
        );
        assert!(!res.is_schedulable());
        // A deadline miss, not an exhausted outer loop.
        assert!(!res.hit_outer_iteration_cap());
        // The miss shows in the per-task slice: hi bounded, lo not, and the
        // iterations spent on lo before it failed are still counted.
        let resp = res.response_times();
        assert_eq!(resp.len(), 2);
        assert!(resp[0].is_some());
        assert_eq!(resp[1], None);
        assert!(res.inner_iteration_counts()[1] > 0);
    }

    #[test]
    fn outer_cap_warns_instead_of_silently_capping() {
        // A cross-core pair needs more than one outer sweep; capping at one
        // must be reported through the result *and* a warning event.
        let p = platform(2, 20);
        let ts = TaskSet::new(vec![
            task("a", 1, 0, 100, 20, 2, 4_000),
            task("b", 2, 1, 100, 20, 2, 4_000),
        ])
        .unwrap();
        let ctx = AnalysisContext::new(&p, &ts).unwrap();
        let mut cfg =
            AnalysisConfig::new(BusPolicy::RoundRobin { slots: 2 }, PersistenceMode::Aware);
        cfg.max_outer_iterations = 1;

        let cap_hits = cpa_obs::counter("wcrt.outer_cap_hits");
        let before = cap_hits.get();
        cpa_obs::enable();
        let res = analyze(&ctx, &cfg);
        cpa_obs::disable();

        assert!(!res.is_schedulable());
        assert!(res.hit_outer_iteration_cap());
        assert_eq!(res.outer_iterations(), 1);
        assert!(res.response_times().iter().all(Option::is_none));
        assert!(cap_hits.get() > before, "cap hit must bump the counter");
        let events = cpa_obs::take_events();
        let warn = events
            .iter()
            .find(|e| e.name == "wcrt.outer_cap")
            .expect("warning event emitted");
        assert!(warn
            .fields
            .iter()
            .any(|(k, v)| *k == "level" && *v == cpa_obs::FieldValue::Str("warn".into())));
    }

    #[test]
    fn cross_core_contention_increases_wcrt() {
        let p1 = platform(1, 20);
        let solo = TaskSet::new(vec![task("a", 1, 0, 100, 20, 2, 4_000)]).unwrap();
        let ctx1 = AnalysisContext::new(&p1, &solo).unwrap();
        let cfg = AnalysisConfig::new(
            BusPolicy::RoundRobin { slots: 1 },
            PersistenceMode::Oblivious,
        );
        let alone = analyze(&ctx1, &cfg).response_time(TaskId::new(0)).unwrap();

        let p2 = platform(2, 20);
        let pair = TaskSet::new(vec![
            task("a", 1, 0, 100, 20, 2, 4_000),
            task("b", 2, 1, 100, 20, 2, 4_000),
        ])
        .unwrap();
        let ctx2 = AnalysisContext::new(&p2, &pair).unwrap();
        let contended = analyze(&ctx2, &cfg).response_time(TaskId::new(0)).unwrap();
        assert!(contended > alone, "{contended} vs {alone}");
    }
}
