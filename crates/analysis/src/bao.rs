//! Other-core bus access bounds: the engine's segments over Eq. (3)–(6)
//! and Lemma 2.
//!
//! The literal forms live in [`crate::spec::bao`]; this module holds the
//! engine's cached evaluation ([`BaoSegment`]) and the types both share.
//!
//! Tasks on remote cores are not synchronised with the task under analysis,
//! so the worst case lets the first ("carry-in") job of each remote task
//! finish as late as possible — just before its WCRT — and all later jobs
//! execute as early as possible. `N_{k,l}^y(t)` (Eq. (6)) counts the jobs
//! that fit *entirely* inside the window; `W^y_{k,l,cout}` (Eq. (5)) adds
//! the accesses of the partially overlapping carry-out job, at most one
//! access per elapsed `d_mem` of overlap.

use cpa_model::{TaskId, Time};

use crate::{cpro, demand, AnalysisContext, PersistenceMode};

/// A closed window interval `[lo, hi]` on which a [`BaoSegment`]'s terms
/// are valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Smallest window length of the interval.
    pub lo: Time,
    /// Largest window length of the interval.
    pub hi: Time,
}

impl Default for Span {
    /// The empty interval: it contains no window.
    fn default() -> Span {
        Span {
            lo: Time::from_cycles(1),
            hi: Time::ZERO,
        }
    }
}

impl Span {
    /// Whether `t` lies in the interval.
    #[must_use]
    pub fn contains(&self, t: Time) -> bool {
        self.lo <= t && t <= self.hi
    }
}

/// Eq. (6): `N_{k,l}^y(t) = ⌊max(t + r − sub, 0) / p⌋`, the jobs of a
/// remote task with period `p > 0` and response-time estimate `r` that
/// fully execute within a window of length `t`, where
/// `sub = cost · d_mem` for the per-job bus charge `cost = MD_l + γ_{k,l,y}`
/// ([`spec::n_jobs`](crate::spec::n_jobs) is the literal form). The
/// numerator is clamped at zero: for tiny windows no job fits. It is exact
/// in every operand:
/// saturating `t + r` first would undercount the jobs, and with them the
/// bound. The quotient exceeds `u64` only for `p = 1`; it is clamped at
/// `u64::MAX` there, where every charge built from it saturates too.
fn jobs_within(t: u64, r: u64, sub: u128, p: u64) -> u64 {
    sat((u128::from(t) + u128::from(r)).saturating_sub(sub) / u128::from(p))
}

/// `v` clamped to `u64`.
fn sat(v: u128) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// Which priority band of the remote core contributes (Eq. (3) vs the
/// `BAO_{i,low}` term of Eq. (7)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityBand {
    /// `Γy ∩ hep(k)`: priority `k` or higher (Eq. (3)).
    HigherOrEqual,
    /// `Γy ∩ lp(k)`: strictly lower priority (the FP-bus blocking sum).
    Lower,
}

/// How the carry-out job of Eq. (5) is charged.
///
/// The exact term grows by one access per elapsed `d_mem`, which makes the
/// WCRT fixed point advance in `d_mem`-sized steps ("creep") near
/// convergence. [`CarryOut::Capped`] replaces Eq. (5) by its own upper cap
/// `MD_l + γ` — a sound over-approximation whose value only changes at
/// period-scale events, so fixed-point iterations converge in a number of
/// steps bounded by the job releases in the window. The WCRT driver uses
/// `Capped` to bracket the fixed point and then refines downwards with
/// `Exact` (see [`crate::wcrt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarryOut {
    /// Eq. (5) as printed.
    Exact,
    /// The cap `MD_l + γ_{k,l,y}` (the `min`'s second argument).
    Capped,
}

/// The `N`-interval `[lo, hi]` a [`BaoTerm`] is valid on: the windows
/// `t ≤ u64::MAX` with `jobs_within(t, r, sub, p) = n`, for a member with
/// period `p > 0`, response-time estimate `r` and overlap subtrahend
/// `sub = cost · d_mem`, where `n` is the job count at some window.
fn term_interval(n: u64, p: u64, r: u64, sub: u128) -> (u64, u64) {
    let (p, r) = (u128::from(p), u128::from(r));
    // Smallest t with t + r − sub ≥ n·p.
    let lo = if n == 0 {
        0
    } else {
        sat((u128::from(n) * p).saturating_add(sub).saturating_sub(r))
    };
    // Largest t with t + r − sub ≤ (n + 1)·p − 1; the clamped count
    // `u64::MAX` holds to the end of the axis.
    let hi = if n == u64::MAX {
        u64::MAX
    } else {
        sat(((u128::from(n) + 1) * p - 1)
            .saturating_add(sub)
            .saturating_sub(r))
    };
    (lo, hi)
}

/// One band member's contribution to `BAO` on a fixed `N`-interval of
/// the window axis: the full-job charge and the carry-out cap of Eq. (5)
/// are constant there, so only the [`CarryOut::Exact`] carry-out term
/// still depends on `t` — and its window-independent pieces (the two
/// subtrahends of Eq. (5)'s overlap and the combined cap) are
/// pre-saturated here, leaving a handful of operations per evaluation.
#[derive(Debug, Clone, Copy)]
struct BaoTerm {
    /// The `N` full jobs' charge (at the persistence mode's bound),
    /// including their CRPD.
    full_jobs: u64,
    /// The exact carry-out's combined cap `min(cost, cout_cap)` — the two
    /// `min`s of Eq. (5)'s `W_cout` and the cap folded into one. Also the
    /// member's [`CarryOut::Capped`] carry-out charge (the cap formulas
    /// never exceed `cost`).
    cap: u64,
    /// The member's response-time estimate the term was built from.
    r: Time,
    /// `cost · d_mem + N · T_l`, exact: the subtrahend of Eq. (5)'s
    /// overlap `t + R_l − cost · d_mem − N · T_l`.
    sub: u128,
    /// The member's own `N`-interval `[lo, hi]` in cycles: the term stays
    /// exact for any window inside it (at the response time `r`), letting
    /// [`BaoSegment::refresh`] keep it across segment-level span exits.
    lo: u64,
    /// Upper end of the member's `N`-interval.
    hi: u64,
}

/// Derives member `l`'s [`BaoTerm`] for level `k` around window `t` at
/// its estimate `r_l`: the `N`-determined charges exactly as
/// [`crate::spec::bao`] derives them, plus the `N`-interval they hold on.
/// `γ_{k,l}` and the CPRO overlap of `l` within `k`'s window depend on `k`
/// only through the split on `l`'s core, so every level with the same
/// split derives the same term (DESIGN.md §17).
///
/// Every charge saturates upward: a value past `u64` becomes
/// `u64::MAX`, never a smaller number. `N` is exact (see
/// [`jobs_within`]), and where `M̂D(N + 1)` or `ρ̂(N + 1)` saturates,
/// the cap takes the largest increment the term can have — `MD_l`
/// (`M̂D` grows by at most `MD` per job) and the per-job overlap —
/// instead of a difference of saturated values.
fn term(
    ctx: &AnalysisContext<'_>,
    k: TaskId,
    l: TaskId,
    t: Time,
    r_l: Time,
    mode: PersistenceMode,
) -> BaoTerm {
    let cols = ctx.columns();
    let [md, md_r, pcb_len, period] =
        [&cols.md, &cols.md_r, &cols.pcb_len, &cols.period].map(|col| col[l.index()]);
    let (gamma, overlap) = (ctx.gamma(k, l), ctx.cpro_overlap(l, k));
    // The per-job bus charge `MD_l + γ_{k,l}`, and its bus time.
    let cost = md.saturating_add(gamma);
    let c = (u128::from(md) + u128::from(gamma)).saturating_mul(u128::from(ctx.d_mem().cycles()));
    let n = jobs_within(t.cycles(), r_l.cycles(), c, period);
    let (lo, hi) = term_interval(n, period, r_l.cycles(), c);
    let md_hat = |jobs| demand::md_hat_parts(md, md_r, pcb_len, jobs);
    let (full_jobs, cap) = match mode {
        PersistenceMode::Oblivious => (n.saturating_mul(cost), cost),
        PersistenceMode::Aware => {
            let d_md_hat = match md_hat(n.saturating_add(1)) {
                u64::MAX => md,
                next => next - md_hat(n),
            };
            let d_cpro = match cpro::cpro(overlap, n.saturating_add(1)) {
                u64::MAX => overlap,
                next => next - cpro::cpro(overlap, n),
            };
            let persistent = md_hat(n).saturating_add(cpro::cpro(overlap, n));
            let full_jobs = n
                .saturating_mul(md)
                .min(persistent)
                .saturating_add(n.saturating_mul(gamma));
            (
                full_jobs,
                cost.min(d_md_hat.saturating_add(d_cpro).saturating_add(gamma)),
            )
        }
    };
    BaoTerm {
        full_jobs,
        cap,
        r: r_l,
        sub: c.saturating_add(u128::from(n) * u128::from(period)),
        lo,
        hi,
    }
}

/// `BAO` (Eq. (3), Lemma 2) — for one remote core and every level with
/// one split on it, *both* priority bands and *both* carry-out modes —
/// restricted to a window
/// interval on which every member's full-job count `N` (Eq. (6)) is
/// constant.
///
/// [`BaoSegment::eval`] reproduces [`crate::spec::bao`]'s per-band values
/// bit-for-bit anywhere in [`BaoSegment::span`]: [`CarryOut::Capped`] in
/// O(1) (the
/// whole sum is window-independent there, precomputed per band), and
/// [`CarryOut::Exact`] at a few arithmetic operations per member — no
/// band-membership filtering, no persistence-demand (`M̂D`), CPRO or CRPD
/// lookups; those are all `N`-determined and folded into the stored terms.
/// This is what makes the engine's segment cache pay: the span covers whole
/// job periods rather than single `d_mem` carry-out cells (the constancy
/// grain of a *scalar* [`CarryOut::Exact`] value), and
/// one segment serves both bands of the FP bus and both the Capped bracket
/// phase and the Exact refine phase of the WCRT solver. When the window
/// leaves the span or a member's response-time estimate moves,
/// [`BaoSegment::refresh`] re-derives only the affected members' terms.
/// The default segment is empty: it covers no window, so every lookup
/// misses until the first [`BaoSegment::refresh`].
#[derive(Debug, Clone, Default)]
pub struct BaoSegment {
    /// Maximal window interval — containing the seed `t` — on which the
    /// stored terms are valid (the intersection of the members'
    /// `N`-intervals).
    pub span: Span,
    /// Per-member terms: `hep(k)` prefix then `lp(k)` suffix, each in its
    /// band's iteration order (the accumulation order of
    /// [`crate::spec::bao`]).
    terms: Vec<BaoTerm>,
    /// First index of the `lp(k)` suffix in `terms`.
    split: usize,
    /// The window-independent [`CarryOut::Capped`] totals on the span,
    /// `(hep, lower)`.
    capped: (u64, u64),
}

impl BaoSegment {
    /// Returns the segment to its freshly-constructed state — empty span,
    /// no terms — while keeping the term storage. Every subsequent lookup
    /// misses until the first [`BaoSegment::refresh`], which is exactly
    /// what a segment recycled onto a *different* task set needs: stale
    /// terms must never be served, but their allocation is still good.
    pub fn reset(&mut self) {
        self.span = Span::default();
        self.terms.clear();
        self.split = 0;
        self.capped = (0, 0);
    }

    /// Rebuilds every term in place for level `level` around window
    /// length `t`: one walk over `on_core`, the remote core's task ids in
    /// id order, whose first `split` entries (the ids `≤ level`; ids are
    /// priority order) form the `hep(level)` band and the rest the
    /// `lp(level)` band. The term storage is reused — steady-state
    /// rebuilds allocate nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn rebuild(
        &mut self,
        ctx: &AnalysisContext<'_>,
        level: TaskId,
        on_core: &[TaskId],
        split: usize,
        t: Time,
        resp: &[Time],
        mode: PersistenceMode,
    ) {
        self.terms.clear();
        self.split = split;
        self.terms.extend(
            on_core
                .iter()
                .map(|&l| term(ctx, level, l, t, resp[l.index()], mode)),
        );
        self.commit(t);
    }

    /// Brings the segment to window length `t` and the current estimates
    /// `resp`, re-deriving only the terms that actually changed: a stored
    /// term is kept verbatim when its member's response time is unchanged
    /// and `t` still lies in the member's own `N`-interval. A typical span
    /// exit crosses one member's period boundary, so this costs one term
    /// derivation plus a cheap scan — not a full rebuild. The arguments
    /// are [`BaoSegment::rebuild`]'s; `level` may differ from the level
    /// the kept terms were derived at as long as the split is the same.
    #[allow(clippy::too_many_arguments)]
    pub fn refresh(
        &mut self,
        ctx: &AnalysisContext<'_>,
        level: TaskId,
        on_core: &[TaskId],
        split: usize,
        t: Time,
        resp: &[Time],
        mode: PersistenceMode,
    ) {
        if self.terms.len() != on_core.len() || self.split != split {
            self.rebuild(ctx, level, on_core, split, t, resp, mode);
            return;
        }
        let tc = t.cycles();
        for (slot, &l) in self.terms.iter_mut().zip(on_core) {
            let r_l = resp[l.index()];
            if r_l != slot.r || tc < slot.lo || slot.hi < tc {
                *slot = term(ctx, level, l, t, r_l, mode);
            }
        }
        self.commit(t);
    }

    /// Re-derives the aggregate state from the terms: the span (the
    /// intersection of the member `N`-intervals) and the per-band
    /// [`CarryOut::Capped`] totals, accumulated in member order.
    fn commit(&mut self, t: Time) {
        let mut lo = 0u64;
        let mut hi = u64::MAX;
        let mut capped = (0u64, 0u64);
        for (i, term) in self.terms.iter().enumerate() {
            lo = lo.max(term.lo);
            hi = hi.min(term.hi);
            let total = if i < self.split {
                &mut capped.0
            } else {
                &mut capped.1
            };
            *total = total
                .saturating_add(term.full_jobs)
                .saturating_add(term.cap);
        }
        self.span = Span {
            lo: Time::from_cycles(lo),
            hi: Time::from_cycles(hi),
        };
        self.capped = capped;
        debug_assert!(
            self.span.contains(t),
            "segment span {:?} must contain t={t}",
            self.span
        );
    }

    /// Evaluates the `(hep, lower)` bounds at window length `t ∈ span` —
    /// identical to [`crate::spec::bao`] per band with the arguments the
    /// segment was built from and `carry`.
    #[must_use]
    pub fn eval(&self, t: Time, d_mem: Time, carry: CarryOut) -> (u64, u64) {
        debug_assert!(self.span.contains(t), "eval outside span {:?}", self.span);
        if carry == CarryOut::Capped {
            return self.capped;
        }
        let exact_total = |terms: &[BaoTerm]| {
            let mut total = 0u64;
            for term in terms {
                // Eq. (5), exact: on the term's N-interval the overlap
                // is below `T_l` (or, past the clamped count, below
                // `u64::MAX`), however far `t + R_l` runs past `u64`.
                let reach = u128::from(t.cycles()) + u128::from(term.r.cycles());
                let overlap = Time::from_cycles(sat(reach.saturating_sub(term.sub)));
                let cout = overlap.div_ceil(d_mem).min(term.cap);
                total = total.saturating_add(term.full_jobs).saturating_add(cout);
            }
            total
        };
        (
            exact_total(&self.terms[..self.split]),
            exact_total(&self.terms[self.split..]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use cpa_model::{CacheBlockSet, CoreId, Platform, Priority, Task, TaskSet};
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

    /// The engine's segment for level `k` on core `y` around window `t`:
    /// one rebuild.
    fn segment(
        ctx: &AnalysisContext<'_>,
        k: TaskId,
        y: CoreId,
        t: Time,
        resp: &[Time],
        mode: PersistenceMode,
    ) -> BaoSegment {
        let (on_core, split) = band(ctx, k, y);
        let mut seg = BaoSegment::default();
        seg.rebuild(ctx, k, &on_core, split, t, resp, mode);
        seg
    }

    /// Core `y`'s task ids in id order and the split of level `k` on it.
    fn band(ctx: &AnalysisContext<'_>, k: TaskId, y: CoreId) -> (Vec<TaskId>, usize) {
        let tasks = ctx.tasks();
        let on_core: Vec<TaskId> = tasks.ids().filter(|&l| tasks[l].core() == y).collect();
        let split = on_core.iter().filter(|l| l.index() <= k.index()).count();
        (on_core, split)
    }

    /// The engine's `(hep, lower)` pair at `t`, from a segment built there.
    #[allow(clippy::too_many_arguments)]
    fn pair(
        ctx: &AnalysisContext<'_>,
        k: TaskId,
        y: CoreId,
        t: Time,
        resp: &[Time],
        mode: PersistenceMode,
        carry: CarryOut,
    ) -> (u64, u64) {
        segment(ctx, k, y, t, resp, mode).eval(t, ctx.d_mem(), carry)
    }

    const MODES: [PersistenceMode; 2] = [PersistenceMode::Oblivious, PersistenceMode::Aware];
    const CARRIES: [CarryOut; 2] = [CarryOut::Exact, CarryOut::Capped];

    #[test]
    fn n_jobs_clamps_small_windows() {
        let d = Time::from_cycles(10);
        let p = Time::from_cycles(100);
        // t + R − cost·d_mem = 0 + 50 − 60 < 0 ⇒ 0 jobs.
        assert_eq!(jobs_within(0, 50, 6 * 10, 100), 0);
        assert_eq!(
            spec::n_jobs(Time::ZERO, Time::from_cycles(50), 6, d, p),
            Ok(0)
        );
        // 300 + 50 − 60 = 290 ⇒ 2 full periods.
        assert_eq!(jobs_within(300, 50, 6 * 10, 100), 2);
        assert_eq!(
            spec::n_jobs(Time::from_cycles(300), Time::from_cycles(50), 6, d, p),
            Ok(2)
        );
    }

    #[test]
    fn w_cout_caps_at_per_job_cost() {
        let d = Time::from_cycles(10);
        let p = Time::from_cycles(100);
        let t = Time::from_cycles(300);
        let r = Time::from_cycles(50);
        let n = spec::n_jobs(t, r, 6, d, p).unwrap();
        assert_eq!(n, 2);
        // Overlap = 290 − 200 = 90 ⇒ ⌈90/10⌉ = 9, capped at cost 6.
        assert_eq!(spec::w_cout(t, r, 6, d, p, n), Ok(6));
        // Tiny leftover: t = 215 ⇒ overlap = 5 ⇒ 1 access.
        let t = Time::from_cycles(215);
        let n = spec::n_jobs(t, r, 6, d, p).unwrap();
        assert_eq!(n, 2);
        assert_eq!(spec::w_cout(t, r, 6, d, p, n), Ok(1));
        // No overlap at all.
        assert_eq!(spec::w_cout(Time::ZERO, r, 6, d, p, 0), Ok(0));
    }

    #[test]
    fn fig1_bao_tau3() {
        // The paper's example: during τ2's response time, BAO_3^y counts 4
        // full jobs of τ3 at MD_3 = 6 ⇒ 24 (Eq. (13)); with persistence the
        // same 4 jobs cost M̂D_3(4) = 9.
        let (platform, tasks) = fig1();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let t2 = tasks.id_of("tau2").unwrap();
        let t3 = tasks.id_of("tau3").unwrap();
        let y = CoreId::new(1);
        // Choose window/R so that N = 4 and the carry-out term is zero:
        // t + R − 6·1 = 64 ⇒ N = ⌊64/16⌋ = 4, overlap 0.
        let t = Time::from_cycles(60);
        let mut resp = vec![Time::ZERO; 3];
        resp[t3.index()] = Time::from_cycles(10);
        assert_eq!(
            spec::n_jobs(t, resp[t3.index()], 6, ctx.d_mem(), Time::from_cycles(16)),
            Ok(4)
        );
        let hep = |k, mode| pair(&ctx, k, y, t, &resp, mode, CarryOut::Exact).0;
        // The paper evaluates BAO at level 3 (τ3's own priority); from τ2's
        // level the hep-band on core y is empty.
        assert_eq!(hep(t2, PersistenceMode::Oblivious), 0);
        assert_eq!(hep(t3, PersistenceMode::Oblivious), 24);
        assert_eq!(hep(t3, PersistenceMode::Aware), 9);
    }

    #[test]
    fn lower_band_only_counts_lp_tasks() {
        let (platform, tasks) = fig1();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let t2 = tasks.id_of("tau2").unwrap();
        let t3 = tasks.id_of("tau3").unwrap();
        let y = CoreId::new(1);
        let t = Time::from_cycles(60);
        let mut resp = vec![Time::ZERO; 3];
        resp[t3.index()] = Time::from_cycles(10);
        // τ3 is the only task on core y and has lower priority than τ2, so
        // the lower band holds the whole bound for k = τ2 and the hep band
        // is empty (τ3 ∉ hep(τ2)) ...
        let obl = PersistenceMode::Oblivious;
        assert_eq!(pair(&ctx, t2, y, t, &resp, obl, CarryOut::Exact), (0, 24));
        // ... while from the lowest priority's level hep covers τ3.
        assert_eq!(pair(&ctx, t3, y, t, &resp, obl, CarryOut::Exact), (24, 0));
    }

    proptest! {
        #[test]
        fn aware_never_exceeds_oblivious(
            t in 0u64..5_000,
            r in 0u64..2_000,
        ) {
            let (platform, tasks) = fig1();
            let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
            let resp = vec![Time::from_cycles(r); 3];
            let t = Time::from_cycles(t);
            for k in tasks.ids() {
                for y in [CoreId::new(0), CoreId::new(1)] {
                    for carry in CARRIES {
                        let aware = pair(&ctx, k, y, t, &resp, PersistenceMode::Aware, carry);
                        let obl = pair(&ctx, k, y, t, &resp, PersistenceMode::Oblivious, carry);
                        prop_assert!(aware.0 <= obl.0 && aware.1 <= obl.1);
                    }
                }
            }
        }

        #[test]
        fn monotone_in_window_and_response(
            a in 0u64..5_000,
            b in 0u64..5_000,
            ra in 0u64..2_000,
            rb in 0u64..2_000,
        ) {
            let (t_lo, t_hi) = (Time::from_cycles(a.min(b)), Time::from_cycles(a.max(b)));
            let (r_lo, r_hi) = ([Time::from_cycles(ra.min(rb)); 3], [Time::from_cycles(ra.max(rb)); 3]);
            let (platform, tasks) = fig1();
            let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
            let k = tasks.lowest_priority_id();
            for y in [CoreId::new(0), CoreId::new(1)] {
                for mode in MODES {
                    for carry in CARRIES {
                        let lo = pair(&ctx, k, y, t_lo, &r_lo, mode, carry).0;
                        let hi = pair(&ctx, k, y, t_hi, &r_hi, mode, carry).0;
                        prop_assert!(lo <= hi);
                    }
                    // Capped carry-out over-approximates the exact term.
                    let exact = pair(&ctx, k, y, t_hi, &r_hi, mode, CarryOut::Exact).0;
                    let capped = pair(&ctx, k, y, t_hi, &r_hi, mode, CarryOut::Capped).0;
                    prop_assert!(exact <= capped);
                }
            }
        }

        /// A segment's span is a constancy interval of the capped bound:
        /// every member's `N` — and with it its full-job charge and
        /// carry-out cap — is constant there. The span is what the engine's
        /// cache keys each segment on, so this is its soundness contract.
        #[test]
        fn bao_span_is_a_constancy_interval(
            t in 0u64..5_000,
            ra in 0u64..2_000,
            rb in 0u64..2_000,
            rc in 0u64..2_000,
        ) {
            let (platform, tasks) = fig1();
            let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
            let resp = [ra, rb, rc].map(Time::from_cycles).to_vec();
            let t = Time::from_cycles(t);
            for k in tasks.ids() {
                for y in [CoreId::new(0), CoreId::new(1)] {
                    for mode in MODES {
                        let span = segment(&ctx, k, y, t, &resp, mode).span;
                        prop_assert!(span.contains(t));
                        let lo = span.lo.cycles();
                        let hi = span.hi.cycles().min(lo.saturating_add(100_000));
                        for band in [PriorityBand::HigherOrEqual, PriorityBand::Lower] {
                            let capped = |w| {
                                spec::bao(&ctx, k, y, w, &resp, mode, band, CarryOut::Capped)
                            };
                            let v = capped(t);
                            for p in [lo, (lo + hi) / 2, hi] {
                                let w = Time::from_cycles(p);
                                prop_assert_eq!(
                                    capped(w), v,
                                    "{:?} {:?} k={:?} y={:?} t={} probe={} span={:?}",
                                    mode, band, k, y, t, w, span
                                );
                            }
                        }
                    }
                }
            }
        }

        /// A segment must evaluate to exactly the spec's `BAO` everywhere
        /// on its span — the engine's cache hits return `eval`.
        #[test]
        fn bao_segment_evaluates_bao_across_its_span(
            t in 0u64..5_000,
            ra in 0u64..2_000,
            rb in 0u64..2_000,
            rc in 0u64..2_000,
        ) {
            let (platform, tasks) = fig1();
            let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
            let resp = [ra, rb, rc].map(Time::from_cycles).to_vec();
            let t = Time::from_cycles(t);
            for k in tasks.ids() {
                for y in [CoreId::new(0), CoreId::new(1)] {
                    for mode in MODES {
                        let seg = segment(&ctx, k, y, t, &resp, mode);
                        prop_assert!(seg.span.contains(t));
                        let lo = seg.span.lo.cycles();
                        let hi = seg.span.hi.cycles().min(lo.saturating_add(100_000));
                        let probes = [lo, lo + (hi - lo) / 2, hi, t.cycles()];
                        for carry in CARRIES {
                            for p in probes {
                                let w = Time::from_cycles(p);
                                let (hep, lower) = seg.eval(w, ctx.d_mem(), carry);
                                let spec = |band| {
                                    spec::bao(&ctx, k, y, w, &resp, mode, band, carry)
                                };
                                prop_assert_eq!(
                                    (Ok(hep), Ok(lower)),
                                    (spec(PriorityBand::HigherOrEqual), spec(PriorityBand::Lower)),
                                    "{:?} {:?} k={:?} y={:?} t={} probe={} span={:?}",
                                    mode, carry, k, y, t, w, seg.span
                                );
                            }
                        }
                    }
                }
            }
        }

        /// `refresh` — keeping unchanged members' terms across a window
        /// move and a response-time move — must land on exactly the state
        /// a from-scratch rebuild produces.
        #[test]
        fn refresh_matches_full_rebuild(
            t in 0u64..5_000,
            t2 in 0u64..20_000,
            ra in 0u64..2_000,
            rb in 0u64..2_000,
            rc in 0u64..2_000,
            rb2 in 0u64..2_000,
        ) {
            let (platform, tasks) = fig1();
            let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
            let resp = [ra, rb, rc].map(Time::from_cycles).to_vec();
            // Second state: one estimate moves — the common outer-round event.
            let resp2 = [ra, rb2, rc].map(Time::from_cycles).to_vec();
            let (t, t2) = (Time::from_cycles(t), Time::from_cycles(t2));
            for k in tasks.ids() {
                for y in [CoreId::new(0), CoreId::new(1)] {
                    for mode in MODES {
                        let (on_core, split) = band(&ctx, k, y);
                        let mut seg = BaoSegment::default();
                        // Empty → falls back to a rebuild.
                        seg.refresh(&ctx, k, &on_core, split, t, &resp, mode);
                        // Incremental: window and one response time move.
                        seg.refresh(&ctx, k, &on_core, split, t2, &resp2, mode);
                        let fresh = segment(&ctx, k, y, t2, &resp2, mode);
                        prop_assert_eq!(seg.span, fresh.span, "k={:?} y={:?} {:?}", k, y, mode);
                        for carry in CARRIES {
                            prop_assert_eq!(
                                seg.eval(t2, ctx.d_mem(), carry),
                                fresh.eval(t2, ctx.d_mem(), carry),
                                "k={:?} y={:?} {:?} {:?}", k, y, mode, carry
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn carry_out_bounded_by_cost(
            t in 0u64..100_000,
            r in 0u64..10_000,
            cost in 0u64..1_000,
            d in 1u64..100,
            p in 1u64..10_000,
        ) {
            let n = jobs_within(t, r, u128::from(cost) * u128::from(d), p);
            let [t, r, d, p] = [t, r, d, p].map(Time::from_cycles);
            prop_assert_eq!(spec::n_jobs(t, r, cost, d, p), Ok(n));
            prop_assert!(spec::w_cout(t, r, cost, d, p, n).unwrap() <= cost);
        }

        /// [`term_interval`], the segment cache's validity interval,
        /// matches the exact `u128` job-count model: it is exactly the
        /// windows with the same job count, maximal around `t` — across
        /// the full input range, including `t + r` and `cost · d_mem` past
        /// `u64` and the clamped count of `p = 1`. `shape` remaps part of
        /// the full-range draws onto those boundaries so they are actually
        /// exercised, not just reachable.
        #[test]
        fn term_interval_fast_path_matches_u128_model(
            t in any::<u64>(),
            (r, p) in (any::<u64>(), any::<u64>()),
            (sub, sub_hi) in (any::<u64>(), any::<u64>()),
            shape in proptest::sample::select(vec![0u8, 1, 2, 3, 4, 5]),
        ) {
            let (t, r, p, sub) = match shape {
                // t + r overflows, sub past u64.
                1 => (u64::MAX - t % 4, u64::MAX - r % 4, p, u128::from(sub) + u128::from(sub_hi)),
                // n·p at the overflow boundary, p = 1 clamps the count.
                2 => (t, r, 1 + p % 2, u128::from(sub % 4)),
                // Small everything.
                3 => (t % 64, r % 64, (p % 8).max(1), u128::from(sub % 8)),
                // Huge period, t + r overflowing.
                4 => (u64::MAX - t % 8, r | (1 << 63), u64::MAX - p % 4, u128::from(sub >> 1)),
                // sub beyond u128's reach of t + r.
                5 => (t, r, p, u128::MAX - u128::from(sub)),
                _ => (t, r, p, u128::from(sub)),
            };
            let p = p.max(1); // periods are positive
            let n = jobs_within(t, r, sub, p);
            let (lo, hi) = term_interval(n, p, r, sub);
            prop_assert!(lo <= t && t <= hi, "{lo} <= {t} <= {hi}");
            prop_assert_eq!(jobs_within(lo, r, sub, p), n);
            prop_assert_eq!(jobs_within(hi, r, sub, p), n);
            prop_assert!(lo == 0 || jobs_within(lo - 1, r, sub, p) < n);
            prop_assert!(hi == u64::MAX || jobs_within(hi + 1, r, sub, p) > n);
        }

        /// `N` is exact where `t + R_l` leaves `u64`: the job count of
        /// the all-`u128` formula, clamped at `u64::MAX`, and equal to the
        /// spec's wherever that fits.
        #[test]
        fn n_jobs_is_exact_past_u64(
            t in any::<u64>(),
            r in any::<u64>(),
            cost in any::<u64>(),
            (d, p) in (1u64..1 << 20, any::<u64>()),
        ) {
            let p = p.max(1);
            let sum = u128::from(t) + u128::from(r);
            let exact = sum.saturating_sub(u128::from(cost) * u128::from(d)) / u128::from(p);
            let n = jobs_within(t, r, u128::from(cost) * u128::from(d), p);
            prop_assert_eq!(n, sat(exact));
            let [t, r, d, p] = [t, r, d, p].map(Time::from_cycles);
            if let Ok(spec_n) = spec::n_jobs(t, r, cost, d, p) {
                prop_assert_eq!(n, spec_n);
            }
        }
    }
}
