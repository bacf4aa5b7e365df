//! The literal specification: the paper's equations written out once
//! more, line by line, in exact checked arithmetic — the oracle the
//! engine is pinned against.
//!
//! The analysis engine ([`crate::analyze_with`]) evaluates Eq. (19)
//! through a fused same-core walk and cached `BAO` segments, in the same
//! outer sweep as [`analyze`]. This module evaluates the same bound the
//! way the paper prints it:
//!
//! | Paper | Here |
//! |---|---|
//! | Eq. (1) `BAS`, Lemma 1 `BÂS` | [`bas`] |
//! | Eq. (6) `N`, Eq. (5) `W_cout` | [`n_jobs`], [`w_cout`] |
//! | Eq. (3) `BAO`, Lemma 2 `BÂO` | [`bao`] |
//! | Eq. (7)/(8)/(9) `BAT` | [`bat`] |
//! | Eq. (19) and the outer loop of §IV | [`analyze`] |
//!
//! It shares with the engine only what defines the result beyond the
//! equations: the model, the `+1` blocking access, the bracket/refine
//! solver of [`crate::wcrt`], whose bounded downward refinement decides
//! which pre-fixed point is reported, and the model's exact
//! [`cpa_model::UtilizationSum`] behind deviation 2. It fills its own `γ` and
//! CPRO-overlap tables per call from the definitional
//! [`crpd::gamma_with`] and [`cpro::cpro_overlap`] instead of reading the
//! context's incremental tables,
//! and it keeps no memo, spans or counters.
//!
//! # Arithmetic
//!
//! Every value is exact `u128`; `u128::MAX` stands for itself and every
//! larger value, which `+`, `·` and `min` carry correctly. Only a value
//! that reaches the bound is checked against `u64::MAX`, the range the
//! engine computes in: each right-hand side of Eq. (19), each initial
//! estimate and each value a public function returns. Past it, the
//! result is [`Overflow`], never a saturated number. A value that only
//! feeds a subtraction, a division or a `min` may leave `u64` on the
//! way: `t + R_l` in Eq. (5)/(6), RR's `s · BAS`, FP's lower-band sum,
//! `M̂D(N + 1)`. The engine must compute those exactly, or round the
//! bound up, so where the spec returns a value the two agree bit for
//! bit, and where it overflows the engine reports unschedulable. (The
//! increments `M̂D(N + 1) − M̂D(N)` and `ρ̂(N + 1) − ρ̂(N)` are the only
//! differences of possibly saturated values; one saturates only where
//! the member's full-job charge is itself past `u64`, or the cap is
//! `cost` either way.) The clamps at zero that the equations themselves
//! contain (Eq. (6)'s numerator, `ρ̂(0)`) are written as such.
//!
//! # Deviations from the paper
//!
//! Two, both in DESIGN.md §4 and both shared with the engine:
//!
//! 1. **Aware carry-out cap.** Under Lemma 2 the carry-out job of Eq. (5)
//!    is capped at `min(MD_l + γ, ΔM̂D_l + Δρ̂_l + γ)`, the `(N+1)`-th
//!    job's share of the persistence bound, instead of `MD_l + γ` alone.
//!    With the printed cap an `N` increment can trade a carry-out worth
//!    `MD + γ` for a full-job increment worth as little as `MD^r`, so the
//!    right-hand side of Eq. (19) would not be monotone in the window.
//! 2. **Perfect-bus utilization gate.** The perfect bus (Fig. 2's
//!    reference line) is schedulable only while the residual bus load
//!    `Σ MD^r_i · d_mem / T_i` is at most 1, compared exactly in
//!    arbitrary precision ([`cpa_model::UtilizationSum`], which the
//!    engine's gate sums too).

use std::fmt;

use cpa_model::{CoreId, Task, TaskId, TaskSet, Time, UtilizationSum};

use crate::bao::{CarryOut, PriorityBand};
use crate::wcrt::{self, AnalysisResult};
use crate::{
    cpro, crpd, AnalysisConfig, AnalysisContext, BusPolicy, CrpdApproach, PersistenceMode,
};

/// A value of the analysis exceeded `u64::MAX`, the range the engine
/// computes in. The spec reports it instead of saturating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflow;

impl fmt::Display for Overflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("an analysis value exceeded u64::MAX")
    }
}

impl std::error::Error for Overflow {}

/// A value that reaches the bound, checked against the `u64` range.
fn fit(v: u128) -> Result<u64, Overflow> {
    u64::try_from(v).map_err(|_| Overflow)
}

/// `a + b`, exact below `u128::MAX`.
fn add(a: u128, b: u128) -> u128 {
    a.saturating_add(b)
}

/// `a · b`, exact below `u128::MAX`.
fn mul(a: u128, b: u128) -> u128 {
    a.saturating_mul(b)
}

/// `max(a − b, 0)`, the clamp the equations write explicitly.
fn sub0(a: u128, b: u128) -> u128 {
    a.saturating_sub(b)
}

fn cycles(t: Time) -> u128 {
    u128::from(t.cycles())
}

fn md(task: &Task) -> u128 {
    u128::from(task.memory_demand())
}

/// `E_j(t) = ⌈t / T_j⌉`: jobs of `τj` released in a window of length
/// `t` (Lemma 1).
#[must_use]
pub fn releases(t: Time, period: Time) -> u64 {
    t.cycles().div_ceil(period.cycles())
}

/// Eq. (10): `M̂D(n) = min(n · MD ; n · MD^r + |PCB|)`.
fn md_hat(task: &Task, n: u128) -> u128 {
    let full = mul(n, md(task));
    let persistent = add(
        mul(n, u128::from(task.residual_memory_demand())),
        task.pcb().len() as u128,
    );
    full.min(persistent)
}

/// Eq. (14): `ρ̂(n) = (n − 1) · overlap`, zero for `n = 0`.
fn cpro(overlap: u128, n: u128) -> u128 {
    mul(sub0(n, 1), overlap)
}

/// Eq. (6): `N_{k,l}^y(t) = ⌊max(t + R_l − cost · d_mem, 0) / T_l⌋`, with
/// `cost = MD_l + γ_{k,l,y}`.
///
/// # Errors
///
/// [`Overflow`] when the value exceeds `u64::MAX`.
pub fn n_jobs(t: Time, r_l: Time, cost: u64, d_mem: Time, period: Time) -> Result<u64, Overflow> {
    fit(n_jobs_exact(
        cycles(t),
        cycles(r_l),
        u128::from(cost),
        cycles(d_mem),
        cycles(period),
    ))
}

fn n_jobs_exact(t: u128, r_l: u128, cost: u128, d_mem: u128, period: u128) -> u128 {
    sub0(add(t, r_l), mul(cost, d_mem)) / period
}

/// Eq. (5): `W^y_{k,l,cout}(t) = min(⌈max(t + R_l − cost · d_mem − N · T_l,
/// 0) / d_mem⌉ ; cost)`, the carry-out job's accesses after `n` full jobs.
///
/// # Errors
///
/// [`Overflow`] when the value exceeds `u64::MAX`.
pub fn w_cout(
    t: Time,
    r_l: Time,
    cost: u64,
    d_mem: Time,
    period: Time,
    n: u64,
) -> Result<u64, Overflow> {
    fit(w_cout_exact(
        cycles(t),
        cycles(r_l),
        u128::from(cost),
        cycles(d_mem),
        cycles(period),
        u128::from(n),
    ))
}

fn w_cout_exact(t: u128, r_l: u128, cost: u128, d_mem: u128, period: u128, n: u128) -> u128 {
    let overlap = sub0(sub0(add(t, r_l), mul(cost, d_mem)), mul(n, period));
    overlap.div_ceil(d_mem).min(cost)
}

/// The definitional `γ_{i,j}` table of a task set, row-major `n × n`
/// (`[i · n + j]`), one [`crpd::gamma_with`] evaluation per entry.
#[must_use]
pub(crate) fn gamma_table(tasks: &TaskSet, approach: CrpdApproach) -> Vec<u64> {
    tasks
        .ids()
        .flat_map(|i| {
            tasks
                .ids()
                .map(move |j| crpd::gamma_with(tasks, i, j, approach))
        })
        .collect()
}

/// The definitional CPRO-overlap table of a task set, row-major `n × n`
/// (`[persistent · n + window]`), one [`cpro::cpro_overlap`] evaluation
/// per entry.
#[must_use]
pub(crate) fn cpro_table(tasks: &TaskSet) -> Vec<u64> {
    tasks
        .ids()
        .flat_map(|p| tasks.ids().map(move |w| cpro::cpro_overlap(tasks, p, w)))
        .collect()
}

/// One evaluation's view of a context: the task set and platform, plus
/// the `γ` and CPRO-overlap tables filled for this call.
struct Spec<'c, 'a> {
    ctx: &'c AnalysisContext<'a>,
    tasks: &'a TaskSet,
    gamma: Vec<u64>,
    overlap: Vec<u64>,
}

impl<'c, 'a> Spec<'c, 'a> {
    fn new(ctx: &'c AnalysisContext<'a>) -> Self {
        let tasks = ctx.tasks();
        Spec {
            ctx,
            tasks,
            gamma: gamma_table(tasks, ctx.crpd_approach()),
            overlap: cpro_table(tasks),
        }
    }

    /// `γ_{i,j}` (Eq. (2) or the context's ablation approach).
    fn gamma(&self, i: TaskId, j: TaskId) -> u128 {
        u128::from(self.gamma[i.index() * self.tasks.len() + j.index()])
    }

    /// The per-job CPRO overlap of `persistent` in `window`'s response
    /// time (Eq. (14) without the `n − 1` factor).
    fn overlap(&self, persistent: TaskId, window: TaskId) -> u128 {
        u128::from(self.overlap[persistent.index() * self.tasks.len() + window.index()])
    }

    fn d_mem(&self) -> u128 {
        cycles(self.ctx.d_mem())
    }

    /// Eq. (1) (oblivious) and Lemma 1 (aware):
    ///
    /// ```text
    /// BAS_i^x(t) = MD_i + Σ_{j ∈ Γx ∩ hp(i)} E_j · (MD_j + γ_{i,j,x})
    /// BÂS_i^x(t) = MD_i + Σ_j min(E_j · MD_j ; M̂D_j(E_j) + ρ̂_{j,i,x}(E_j))
    ///                   + Σ_j E_j · γ_{i,j,x}
    /// ```
    fn bas(&self, i: TaskId, t: Time, mode: PersistenceMode) -> u128 {
        let tasks = self.tasks;
        let mut total = md(&tasks[i]);
        for j in tasks.hp_on(i, tasks[i].core()) {
            let e = u128::from(releases(t, tasks[j].period()));
            let gamma = self.gamma(i, j);
            let charge = match mode {
                PersistenceMode::Oblivious => mul(e, add(md(&tasks[j]), gamma)),
                PersistenceMode::Aware => {
                    let oblivious = mul(e, md(&tasks[j]));
                    let persistent = add(md_hat(&tasks[j], e), cpro(self.overlap(j, i), e));
                    add(oblivious.min(persistent), mul(e, gamma))
                }
            };
            total = add(total, charge);
        }
        total
    }

    /// Eq. (3) (oblivious) and Lemma 2 (aware), over the remote tasks of
    /// `band` relative to level `k` on core `y`:
    ///
    /// ```text
    /// BAO_k^y(t) = Σ_l N · (MD_l + γ) + W_cout
    /// BÂO_k^y(t) = Σ_l min(N · MD_l ; M̂D_l(N) + ρ̂_l(N)) + N · γ + W_cout
    /// ```
    ///
    /// with `N` from Eq. (6) and `W_cout` from Eq. (5), capped as in
    /// deviation 1 of the module docs; [`CarryOut::Capped`] charges the
    /// cap itself.
    #[allow(clippy::too_many_arguments)] // mirrors the equation's parameter list
    fn bao(
        &self,
        k: TaskId,
        y: CoreId,
        t: Time,
        resp: &[Time],
        mode: PersistenceMode,
        band: PriorityBand,
        carry: CarryOut,
    ) -> u128 {
        let tasks = self.tasks;
        let d_mem = self.d_mem();
        let members: Vec<TaskId> = match band {
            PriorityBand::HigherOrEqual => tasks.hep_on(k, y).collect(),
            PriorityBand::Lower => tasks.lp_on(k, y).collect(),
        };
        let mut total = 0;
        for l in members {
            let task = &tasks[l];
            let gamma = self.gamma(k, l);
            let overlap = self.overlap(l, k);
            let cost = add(md(task), gamma);
            let r_l = cycles(resp[l.index()]);
            let period = cycles(task.period());
            let n = n_jobs_exact(cycles(t), r_l, cost, d_mem, period);
            let full_jobs = match mode {
                PersistenceMode::Oblivious => mul(n, cost),
                PersistenceMode::Aware => {
                    let oblivious = mul(n, md(task));
                    let persistent = add(md_hat(task, n), cpro(overlap, n));
                    add(oblivious.min(persistent), mul(n, gamma))
                }
            };
            let cap = match mode {
                PersistenceMode::Oblivious => cost,
                PersistenceMode::Aware => {
                    let d_md_hat = md_hat(task, n + 1) - md_hat(task, n);
                    let d_cpro = cpro(overlap, n + 1) - cpro(overlap, n);
                    cost.min(add(add(d_md_hat, d_cpro), gamma))
                }
            };
            let cout = match carry {
                CarryOut::Exact => w_cout_exact(cycles(t), r_l, cost, d_mem, period, n).min(cap),
                CarryOut::Capped => cap,
            };
            total = add(total, add(full_jobs, cout));
        }
        total
    }

    /// Eq. (7) (FP), (8) (RR), (9) (TDMA) and the perfect bus:
    ///
    /// ```text
    /// FP:      BAT = BAS + Σ_{y≠x} BAO_i^y + min(BAS ; Σ_{y≠x} BAO_{i,low}^y) + 1
    /// RR:      BAT = BAS + Σ_{y≠x} min(BAO_n^y ; s · BAS) + 1
    /// TDMA:    BAT = BAS + (L − 1) · s · BAS + 1
    /// perfect: BAT = BAS
    /// ```
    ///
    /// where `n` is the lowest priority level and the `+1` — one access of
    /// a same-core lower-priority task already in service (the footnote
    /// to Eq. (12)) — is only charged when such a task exists.
    fn bat(
        &self,
        i: TaskId,
        t: Time,
        resp: &[Time],
        config: &AnalysisConfig,
        carry: CarryOut,
    ) -> u128 {
        let tasks = self.tasks;
        let x = tasks[i].core();
        let mode = config.persistence;
        let cores = self.ctx.platform().cores();
        let remote = || (0..cores).map(CoreId::new).filter(move |&y| y != x);
        let own = self.bas(i, t, mode);
        let cross = match config.bus {
            BusPolicy::FixedPriority => {
                let mut hep = 0;
                let mut low = 0;
                for y in remote() {
                    let band = |b| self.bao(i, y, t, resp, mode, b, carry);
                    hep = add(hep, band(PriorityBand::HigherOrEqual));
                    low = add(low, band(PriorityBand::Lower));
                }
                add(hep, own.min(low))
            }
            BusPolicy::RoundRobin { slots } => {
                let n = tasks.lowest_priority_id();
                let cap = mul(u128::from(slots), own);
                let mut total = 0;
                for y in remote() {
                    let all = self.bao(n, y, t, resp, mode, PriorityBand::HigherOrEqual, carry);
                    total = add(total, all.min(cap));
                }
                total
            }
            BusPolicy::Tdma { slots } => mul(mul(cores as u128 - 1, u128::from(slots)), own),
            BusPolicy::Perfect => 0,
        };
        let blocking = config.bus.charges_blocking() && tasks.lp_on(i, x).next().is_some();
        add(add(own, cross), u128::from(blocking))
    }

    /// Eq. (19)'s right-hand side at window `t`:
    ///
    /// ```text
    /// PD_i + Σ_{j ∈ Γx ∩ hp(i)} ⌈t / T_j⌉ · PD_j + BAT_i^x(t) · d_mem
    /// ```
    fn rhs(
        &self,
        i: TaskId,
        t: Time,
        resp: &[Time],
        config: &AnalysisConfig,
        carry: CarryOut,
    ) -> u128 {
        let tasks = self.tasks;
        let mut interference = 0;
        for j in tasks.hp_on(i, tasks[i].core()) {
            let e = u128::from(releases(t, tasks[j].period()));
            interference = add(interference, mul(e, cycles(tasks[j].processing_demand())));
        }
        let bus = mul(self.bat(i, t, resp, config, carry), self.d_mem());
        add(add(cycles(tasks[i].processing_demand()), interference), bus)
    }
}

/// `BAS_i^x(t)` (Eq. (1)) or `BÂS_i^x(t)` (Lemma 1).
///
/// # Errors
///
/// [`Overflow`] when the value exceeds `u64::MAX`.
pub fn bas(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    t: Time,
    mode: PersistenceMode,
) -> Result<u64, Overflow> {
    fit(Spec::new(ctx).bas(i, t, mode))
}

/// `BAO_k^y(t)` (Eq. (3)) or `BÂO_k^y(t)` (Lemma 2) over the tasks of
/// `band` relative to level `k` on core `y`, at the response-time
/// estimates `resp`.
///
/// # Errors
///
/// [`Overflow`] when the value exceeds `u64::MAX`.
#[allow(clippy::too_many_arguments)] // mirrors the equation's parameter list
pub fn bao(
    ctx: &AnalysisContext<'_>,
    k: TaskId,
    y: CoreId,
    t: Time,
    resp: &[Time],
    mode: PersistenceMode,
    band: PriorityBand,
    carry: CarryOut,
) -> Result<u64, Overflow> {
    fit(Spec::new(ctx).bao(k, y, t, resp, mode, band, carry))
}

/// `BAT_i^x(t)` (Eq. (7)/(8)/(9)) under `config` at the response-time
/// estimates `resp`.
///
/// # Errors
///
/// [`Overflow`] when the value exceeds `u64::MAX`.
pub fn bat(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    t: Time,
    resp: &[Time],
    config: &AnalysisConfig,
    carry: CarryOut,
) -> Result<u64, Overflow> {
    fit(Spec::new(ctx).bat(i, t, resp, config, carry))
}

/// The full WCRT analysis: Eq. (19) per task, nested in the outer loop of
/// §IV as a plain Gauss–Seidel sweep — every task re-solved each round,
/// in priority order, against the latest estimates, until a round changes
/// nothing (schedulable), a bound exceeds its deadline (unschedulable) or
/// [`AnalysisConfig::max_outer_iterations`] runs out.
///
/// Estimates start at `R_i = PD_i + MD_i · d_mem`. Each per-task fixed
/// point is found by the engine's bracket/refine solver, fed this
/// module's right-hand side. Response times, verdict, outer rounds and
/// the cap flag must equal [`crate::analyze_with`]'s.
///
/// # Errors
///
/// [`Overflow`] when a value that reaches the bound — an initial
/// estimate or a right-hand side of Eq. (19) — exceeds `u64::MAX`.
pub fn analyze(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
) -> Result<AnalysisResult, Overflow> {
    let spec = Spec::new(ctx);
    let tasks = ctx.tasks();
    let n = tasks.len();
    let mut inner_iterations = vec![0u64; n];
    if config.bus == BusPolicy::Perfect {
        // Deviation 2: `Σ MD^r_i · d_mem / T_i > 1`, decided exactly.
        let mut load = UtilizationSum::new();
        for task in tasks.iter() {
            load.add(
                task.residual_memory_demand(),
                ctx.d_mem().cycles(),
                task.period().cycles(),
            );
        }
        if load.exceeds_one() {
            return Ok(AnalysisResult::unbounded(n, 0, inner_iterations, false));
        }
    }

    let mut resp = Vec::with_capacity(n);
    for task in tasks.iter() {
        let memory = mul(md(task), spec.d_mem());
        resp.push(Time::from_cycles(fit(add(
            cycles(task.processing_demand()),
            memory,
        ))?));
    }

    for outer in 1..=config.max_outer_iterations {
        let mut changed = false;
        for i in tasks.ids() {
            let mut overflow = None;
            let solve = wcrt::solve_inner(
                tasks[i].deadline(),
                resp[i.index()],
                config.max_inner_iterations,
                |r, carry| {
                    if overflow.is_some() {
                        return r; // a fixed point: the solver stops at once
                    }
                    match fit(spec.rhs(i, r, &resp, config, carry)) {
                        Ok(next) => Time::from_cycles(next),
                        Err(e) => {
                            overflow = Some(e);
                            r
                        }
                    }
                },
            );
            if let Some(e) = overflow {
                return Err(e);
            }
            inner_iterations[i.index()] += solve.iterations;
            let Some(r) = solve.bound else {
                return Ok(AnalysisResult::deadline_miss(
                    tasks,
                    &resp,
                    i,
                    outer,
                    inner_iterations,
                ));
            };
            if r > resp[i.index()] {
                resp[i.index()] = r;
                changed = true;
            }
        }
        if !changed {
            return Ok(AnalysisResult::fixed_point(&resp, outer, inner_iterations));
        }
    }
    Ok(AnalysisResult::unbounded(
        n,
        config.max_outer_iterations,
        inner_iterations,
        true,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_model::{CacheBlockSet, Platform, Priority, TaskSet};
    use proptest::prelude::*;

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
            .period(Time::from_cycles(20))
            .deadline(Time::from_cycles(20))
            .core(CoreId::new(0))
            .priority(Priority::new(1))
            .ecb(CacheBlockSet::from_blocks(256, 5..=10).unwrap())
            .pcb(CacheBlockSet::from_blocks(256, [5, 6, 7, 8, 10]).unwrap())
            .build()
            .unwrap();
        let tau2 = Task::builder("tau2")
            .processing_demand(Time::from_cycles(32))
            .memory_demand(8)
            .period(Time::from_cycles(200))
            .deadline(Time::from_cycles(200))
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
            .period(Time::from_cycles(16))
            .deadline(Time::from_cycles(16))
            .core(CoreId::new(1))
            .priority(Priority::new(3))
            .ecb(CacheBlockSet::from_blocks(256, 5..=10).unwrap())
            .pcb(CacheBlockSet::from_blocks(256, [5, 6, 7, 8, 10]).unwrap())
            .build()
            .unwrap();
        (platform, TaskSet::new(vec![tau1, tau2, tau3]).unwrap())
    }

    /// `BAT` with the exact carry-out, which never overflows on these
    /// fixtures.
    fn exact_bat(
        ctx: &AnalysisContext<'_>,
        i: TaskId,
        t: Time,
        resp: &[Time],
        config: &AnalysisConfig,
    ) -> u64 {
        bat(ctx, i, t, resp, config, CarryOut::Exact).expect("no overflow")
    }

    fn buses(slots: u64) -> [BusPolicy; 4] {
        [
            BusPolicy::FixedPriority,
            BusPolicy::RoundRobin { slots },
            BusPolicy::Tdma { slots },
            BusPolicy::Perfect,
        ]
    }

    /// The Fig. 1 evaluation of Eq. (11): RR bus with s = 1, for τ2.
    /// Window chosen so E_1 = 3 and N_{3,3} = 4 (zero carry-out), as in
    /// the paper's walkthrough.
    #[test]
    fn fig1_rr_bat() {
        let (platform, tasks) = fig1();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let t2 = tasks.id_of("tau2").unwrap();
        let t3 = tasks.id_of("tau3").unwrap();
        let t = Time::from_cycles(60);
        let mut resp = vec![Time::ZERO; 3];
        resp[t3.index()] = Time::from_cycles(10);

        // Oblivious: BAS = 32, BAO_3^y = 24 ⇒ BAT = 32 + min(24, 32) = 56.
        // τ2 is the lowest-priority task on its core, so no trailing +1
        // (the paper's footnote to Eq. (12)).
        let cfg = AnalysisConfig::new(
            BusPolicy::RoundRobin { slots: 1 },
            PersistenceMode::Oblivious,
        );
        assert_eq!(exact_bat(&ctx, t2, t, &resp, &cfg), 56);

        // Aware: BÂS = 26, BÂO = 9 ⇒ BAT = 26 + min(9, 26) = 35.
        let cfg = AnalysisConfig::new(BusPolicy::RoundRobin { slots: 1 }, PersistenceMode::Aware);
        assert_eq!(exact_bat(&ctx, t2, t, &resp, &cfg), 35);
    }

    #[test]
    fn blocking_term_requires_same_core_lp_task() {
        let (platform, tasks) = fig1();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let t1 = tasks.id_of("tau1").unwrap();
        let resp = vec![Time::ZERO; 3];
        // τ1 has a same-core lower-priority task (τ2) ⇒ +1 applies.
        let cfg = AnalysisConfig::new(BusPolicy::Tdma { slots: 1 }, PersistenceMode::Oblivious);
        // TDMA, 2 cores, s=1: BAS·(1 + 1·1) + 1 = 6·2 + 1 = 13.
        assert_eq!(exact_bat(&ctx, t1, Time::ZERO, &resp, &cfg), 13);
        // τ3 is alone on core y: no blocking term.
        let t3 = tasks.id_of("tau3").unwrap();
        assert_eq!(exact_bat(&ctx, t3, Time::ZERO, &resp, &cfg), 12);
    }

    #[test]
    fn perfect_bus_sees_only_same_core_demand() {
        let (platform, tasks) = fig1();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let t2 = tasks.id_of("tau2").unwrap();
        let resp = vec![Time::from_cycles(100); 3];
        let t = Time::from_cycles(60);
        let cfg = AnalysisConfig::new(BusPolicy::Perfect, PersistenceMode::Aware);
        assert_eq!(exact_bat(&ctx, t2, t, &resp, &cfg), 26);
    }

    #[test]
    fn fp_charges_remote_hep_and_capped_lp() {
        let (platform, tasks) = fig1();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let t2 = tasks.id_of("tau2").unwrap();
        let t3 = tasks.id_of("tau3").unwrap();
        let t = Time::from_cycles(60);
        let mut resp = vec![Time::ZERO; 3];
        resp[t3.index()] = Time::from_cycles(10);
        let cfg = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Oblivious);
        // τ3 is remote and lower priority: hep-remote = 0, lp-remote = 24
        // capped at BAS = 32 ⇒ BAT = 32 + 0 + 24 = 56. No same-core lp.
        assert_eq!(exact_bat(&ctx, t2, t, &resp, &cfg), 56);
        // From τ3's own perspective: remote hep = τ1 and τ2's demand.
        let v = exact_bat(&ctx, t3, t, &resp, &cfg);
        assert!(v >= bas(&ctx, t3, t, PersistenceMode::Oblivious).unwrap());
    }

    #[test]
    fn overflow_is_reported_not_saturated() {
        let platform = Platform::builder()
            .cores(1)
            .memory_latency(Time::from_cycles(2))
            .build()
            .unwrap();
        let task = |name: &str, prio: u32| {
            Task::builder(name)
                .processing_demand(Time::from_cycles(1))
                .memory_demand(u64::MAX / 2 + 1)
                .period(Time::from_cycles(10))
                .deadline(Time::from_cycles(10))
                .core(CoreId::new(0))
                .priority(Priority::new(prio))
                .ecb(CacheBlockSet::contiguous(256, 0, 1))
                .build()
                .unwrap()
        };
        let tasks = TaskSet::new(vec![task("hi", 1), task("lo", 2)]).unwrap();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let lo = tasks.id_of("lo").unwrap();
        // MD_lo + 1 · MD_hi = 2^64: one past the u64 range.
        for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
            assert_eq!(bas(&ctx, lo, Time::from_cycles(1), mode), Err(Overflow));
        }
        // So does the first estimate, PD + MD · d_mem = 1 + 2^64.
        let cfg = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware);
        assert_eq!(analyze(&ctx, &cfg), Err(Overflow));
    }

    #[test]
    fn fig1_analysis_converges_without_overflow() {
        let (platform, tasks) = fig1();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        for bus in buses(1) {
            for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                let config = AnalysisConfig::new(bus, mode);
                let spec = analyze(&ctx, &config).expect("no overflow");
                assert_eq!(
                    spec.response_times(),
                    crate::analyze(&ctx, &config).response_times(),
                    "{bus:?} {mode:?}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn aware_never_exceeds_oblivious_for_any_policy(
            t in 0u64..5_000,
            r in 0u64..2_000,
            slots in 1u64..6,
        ) {
            let (platform, tasks) = fig1();
            let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
            let resp = vec![Time::from_cycles(r); 3];
            let t = Time::from_cycles(t);
            for bus in buses(slots) {
                for i in tasks.ids() {
                    let aware = exact_bat(&ctx, i, t, &resp,
                        &AnalysisConfig::new(bus, PersistenceMode::Aware));
                    let oblivious = exact_bat(&ctx, i, t, &resp,
                        &AnalysisConfig::new(bus, PersistenceMode::Oblivious));
                    prop_assert!(aware <= oblivious, "{bus:?} {i:?}");
                }
            }
        }

        /// With the persistence-aware carry-out cap (deviation 1), every
        /// policy's total bound is monotone in the window length — the
        /// property the WCRT fixed-point solver relies on.
        #[test]
        fn bat_monotone_in_window(
            a in 0u64..5_000,
            b in 0u64..5_000,
            r in 0u64..2_000,
            slots in 1u64..4,
        ) {
            let (lo, hi) = (a.min(b), a.max(b));
            let (platform, tasks) = fig1();
            let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
            let resp = vec![Time::from_cycles(r); 3];
            for bus in buses(slots) {
                for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                    for i in tasks.ids() {
                        let cfg = AnalysisConfig::new(bus, mode);
                        let v_lo = exact_bat(&ctx, i, Time::from_cycles(lo), &resp, &cfg);
                        let v_hi = exact_bat(&ctx, i, Time::from_cycles(hi), &resp, &cfg);
                        prop_assert!(v_lo <= v_hi, "{bus:?} {mode:?} {i:?}: {v_lo} > {v_hi}");
                    }
                }
            }
        }

        /// RR's remote term `min(BAO_n, s·BAS)` is capped by the `s·BAS`
        /// TDMA charges unconditionally, so for equal slot counts the RR
        /// bound dominates the TDMA bound pointwise — the structural
        /// reason the RR curves sit above TDMA in every figure.
        #[test]
        fn rr_bound_dominates_tdma(
            t in 0u64..5_000,
            r in 0u64..2_000,
            slots in 1u64..6,
        ) {
            let (platform, tasks) = fig1();
            let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
            let resp = vec![Time::from_cycles(r); 3];
            let t = Time::from_cycles(t);
            for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                for i in tasks.ids() {
                    let rr = exact_bat(&ctx, i, t, &resp,
                        &AnalysisConfig::new(BusPolicy::RoundRobin { slots }, mode));
                    let tdma = exact_bat(&ctx, i, t, &resp,
                        &AnalysisConfig::new(BusPolicy::Tdma { slots }, mode));
                    prop_assert!(rr <= tdma, "{mode:?} {i:?} s={slots}: {rr} > {tdma}");
                }
            }
        }

        #[test]
        fn perfect_is_weakest_policy(
            t in 0u64..5_000,
            r in 0u64..2_000,
        ) {
            let (platform, tasks) = fig1();
            let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
            let resp = vec![Time::from_cycles(r); 3];
            let t = Time::from_cycles(t);
            for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                for i in tasks.ids() {
                    let perfect = exact_bat(&ctx, i, t, &resp,
                        &AnalysisConfig::new(BusPolicy::Perfect, mode));
                    for bus in &buses(2)[..3] {
                        let v = exact_bat(&ctx, i, t, &resp, &AnalysisConfig::new(*bus, mode));
                        prop_assert!(perfect <= v);
                    }
                }
            }
        }
    }
}
