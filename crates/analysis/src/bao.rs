//! Other-core bus access bounds: Eq. (3)–(6) and Lemma 2.
//!
//! Tasks on remote cores are not synchronised with the task under analysis,
//! so the worst case lets the first ("carry-in") job of each remote task
//! finish as late as possible — just before its WCRT — and all later jobs
//! execute as early as possible. `N_{k,l}^y(t)` (Eq. (6)) counts the jobs
//! that fit *entirely* inside the window; `W^y_{k,l,cout}` (Eq. (5)) adds
//! the accesses of the partially overlapping carry-out job, at most one
//! access per elapsed `d_mem` of overlap.

use cpa_model::{CoreId, TaskId, Time};

use crate::{cpro, demand, AnalysisContext, PersistenceMode};

/// Eq. (6): `N_{k,l}^y(t)`, the maximum number of jobs of a remote task
/// that fully execute within a window of length `t`, given the remote
/// task's current response-time estimate `r_l` and its per-job bus charge
/// `cost = MD_l + γ_{k,l,y}`.
///
/// The paper's numerator `t + R_l − cost·d_mem` is clamped at zero: for
/// tiny windows no job fits.
#[must_use]
pub fn n_jobs(t: Time, r_l: Time, cost: u64, d_mem: Time, period: Time) -> u64 {
    let numerator = t
        .saturating_add(r_l)
        .saturating_sub(d_mem.saturating_mul(cost));
    numerator.div_floor(period)
}

/// Eq. (5): `W^y_{k,l,cout}(t)`, the carry-out job's bus accesses — the
/// window length left after the `N` full jobs, divided by `d_mem` (one
/// access cannot complete faster), capped at the per-job charge `cost`.
#[must_use]
pub fn w_cout(t: Time, r_l: Time, cost: u64, d_mem: Time, period: Time, n: u64) -> u64 {
    let overlap = t
        .saturating_add(r_l)
        .saturating_sub(d_mem.saturating_mul(cost))
        .saturating_sub(period.saturating_mul(n));
    overlap.div_ceil(d_mem).min(cost)
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

/// Eq. (3) / Lemma 2, generalised over persistence mode and priority band:
/// upper bound on the bus accesses issued by tasks of `band` relative to
/// priority `k` on remote core `y` in a window of length `t`.
///
/// `resp` holds the current response-time estimates of all tasks (indexed
/// by [`TaskId`]); the bound is monotone in these estimates, which is what
/// makes the outer fixed-point loop of [`crate::wcrt`] sound.
///
/// For [`PersistenceMode::Aware`] this is Lemma 2: each remote task's full
/// jobs are charged `min(N·MD_l ; M̂D_l(N) + ρ̂_l(N))` plus CRPD, instead
/// of `N·(MD_l + γ)`.
#[must_use]
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
) -> u64 {
    let tasks = ctx.tasks();
    let d_mem = ctx.d_mem();
    let mut total = 0u64;
    let mut add = |l: TaskId| {
        let task = &tasks[l];
        let gamma = ctx.gamma(k, l);
        let cost = task.memory_demand().saturating_add(gamma);
        let r_l = resp[l.index()];
        let period = task.period();
        let n = n_jobs(t, r_l, cost, d_mem, period);
        // Cap on the carry-out job's charge. For the oblivious analysis it
        // is Eq. (5)'s own `MD_l + γ`. For the persistence-aware analysis
        // the carry-out is additionally capped by the (n+1)-th job's share
        // of the persistence bound, `ΔM̂D + Δρ̂ + γ`: charging the n full
        // jobs at the n-job persistence bound plus this increment equals
        // the (n+1)-job persistence bound, so the cap is sound — and it
        // keeps the whole term *monotone* in `t` (with the raw Eq. (5)
        // cap, an N-increment trades a carry-out worth up to `MD + γ` for
        // a full-job increment worth as little as `MD^r`, making the
        // right-hand side of Eq. (19) non-monotone and fixed-point
        // iteration unsound to refine).
        let cout_cap = match mode {
            PersistenceMode::Oblivious => cost,
            PersistenceMode::Aware => {
                let overlap = ctx.cpro_overlap(l, k);
                let d_md_hat = demand::md_hat(task, n.saturating_add(1))
                    .saturating_sub(demand::md_hat(task, n));
                let d_cpro =
                    cpro::cpro(overlap, n.saturating_add(1)).saturating_sub(cpro::cpro(overlap, n));
                cost.min(d_md_hat.saturating_add(d_cpro).saturating_add(gamma))
            }
        };
        let cout = match carry {
            CarryOut::Exact => w_cout(t, r_l, cost, d_mem, period, n).min(cout_cap),
            CarryOut::Capped => cout_cap,
        };
        let full_jobs = match mode {
            PersistenceMode::Oblivious => n.saturating_mul(cost),
            PersistenceMode::Aware => {
                let oblivious = n.saturating_mul(task.memory_demand());
                let persistent =
                    demand::md_hat(task, n).saturating_add(cpro::cpro(ctx.cpro_overlap(l, k), n));
                oblivious
                    .min(persistent)
                    .saturating_add(n.saturating_mul(gamma))
            }
        };
        total = total.saturating_add(full_jobs).saturating_add(cout);
    };
    match band {
        PriorityBand::HigherOrEqual => tasks.hep_on(k, y).for_each(&mut add),
        PriorityBand::Lower => tasks.lp_on(k, y).for_each(&mut add),
    }
    total
}

/// `u64::MAX`, the saturation point of the window arithmetic, as `u128`.
const SAT: u128 = u64::MAX as u128;

/// Eq. (6)'s numerator under the crate's saturating `u64` semantics,
/// modelled exactly in `u128`: `max(min(t + r, SAT) − c, 0)`.
fn numerator(t: u128, r: u128, c: u128) -> u128 {
    (t + r).min(SAT).saturating_sub(c)
}

/// Smallest `t` with `numerator(t) ≥ bound`; callers only ask for bounds
/// already reached at some window, so the result is exact there.
fn smallest_t_reaching(bound: u128, r: u128, c: u128) -> u128 {
    if bound == 0 {
        return 0;
    }
    bound.saturating_add(c).saturating_sub(r).min(SAT)
}

/// Largest `t ≤ SAT` with `numerator(t) ≤ bound`; callers only ask when
/// the current window already satisfies the bound.
fn largest_t_within(bound: u128, r: u128, c: u128) -> u128 {
    let lim = bound.saturating_add(c);
    if lim >= SAT {
        // The saturation plateau never exceeds the bound: constant to the end.
        SAT
    } else {
        lim.saturating_sub(r)
    }
}

/// `u64` fast path of [`smallest_t_reaching`] for `u64`-range inputs:
/// `None` iff the intermediate `bound + c` leaves `u64` (then the caller
/// falls back to the exact `u128` derivation — by far the uncommon
/// case). Pinned bitwise against the `u128` model by proptest.
fn smallest_t_reaching64(bound: u64, r: u64, c: u64) -> Option<u64> {
    if bound == 0 {
        return Some(0);
    }
    Some(bound.checked_add(c)?.saturating_sub(r))
}

/// `u64` fast path of [`largest_t_within`] for `u64`-range inputs —
/// total, no fallback: an overflowing `bound + c` is exactly the `u128`
/// model's saturation plateau. Pinned bitwise by proptest.
fn largest_t_within64(bound: u64, r: u64, c: u64) -> u64 {
    match bound.checked_add(c) {
        Some(lim) if lim < u64::MAX => lim.saturating_sub(r),
        // lim ≥ SAT: the saturation plateau never exceeds the bound.
        _ => u64::MAX,
    }
}

/// The `N`-interval `[lo, hi]` a [`BaoTerm`] is valid on, for a member
/// with period `p > 0`, response-time estimate `r` and pre-saturated
/// overlap subtrahend `c = min(cost · d_mem, u64::MAX)` at full-job
/// count `n`. Runs entirely in `u64` — the hot-path win over the former
/// all-`u128` derivation — dropping to the `u128` saturation model only
/// when `N·T` (or `bound + c` inside the lower endpoint) overflows;
/// `term_interval_fast_path_matches_u128_model` pins the two bitwise.
fn term_interval(n: u64, p: u64, r: u64, c: u64) -> (u64, u64) {
    let lo = if n == 0 {
        0
    } else {
        match n
            .checked_mul(p)
            .and_then(|b| smallest_t_reaching64(b, r, c))
        {
            Some(lo) => lo,
            None => {
                let exact = smallest_t_reaching(
                    u128::from(n) * u128::from(p),
                    u128::from(r),
                    u128::from(c),
                );
                u64::try_from(exact).unwrap_or(u64::MAX)
            }
        }
    };
    let hi = match n.checked_add(1).and_then(|n1| n1.checked_mul(p)) {
        Some(b) => largest_t_within64(b - 1, r, c),
        None => {
            let exact = largest_t_within(
                (u128::from(n) + 1) * u128::from(p) - 1,
                u128::from(r),
                u128::from(c),
            )
            .min(SAT);
            u64::try_from(exact).unwrap_or(u64::MAX)
        }
    };
    (lo, hi)
}

/// Maximal window interval containing `t` on which `bao(...)` — with the
/// very same arguments — is constant.
///
/// Per remote task `l`, the bound only changes when either the full-job
/// count `N` of Eq. (6) steps (at period-scale events) or, for
/// [`CarryOut::Exact`], the carry-out term of Eq. (5) steps (on the
/// `d_mem` grid, until it reaches its cap and stays there for the rest of
/// the `N`-interval). The span is the intersection of those constancy
/// intervals over the band's members; it is what the engine's step-curve
/// cache stores alongside each computed value, so it must be *exactly*
/// sound against [`bao`]'s saturating `u64` arithmetic — all interval
/// endpoints are therefore derived in `u128` from the same formulas.
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors `bao`'s parameter list
pub fn bao_span(
    ctx: &AnalysisContext<'_>,
    k: TaskId,
    y: CoreId,
    t: Time,
    resp: &[Time],
    mode: PersistenceMode,
    band: PriorityBand,
    carry: CarryOut,
) -> crate::curve::Span {
    let tasks = ctx.tasks();
    let d_mem = ctx.d_mem();
    let t_now = t.cycles() as u128;
    let mut lo = 0u128;
    let mut hi = SAT;
    let mut restrict = |l: TaskId| {
        let task = &tasks[l];
        let gamma = ctx.gamma(k, l);
        let cost = task.memory_demand().saturating_add(gamma);
        let r = resp[l.index()].cycles() as u128;
        let period = task.period().cycles() as u128;
        let c = (d_mem.cycles() as u128)
            .saturating_mul(cost as u128)
            .min(SAT);
        let num = numerator(t_now, r, c);
        let n = num / period;
        // N-interval: numerator ∈ [n·T, (n+1)·T − 1].
        let n_lo = if n == 0 {
            0
        } else {
            smallest_t_reaching(n * period, r, c)
        };
        let n_hi = largest_t_within((n + 1) * period - 1, r, c);
        lo = lo.max(n_lo);
        hi = hi.min(n_hi);
        if carry == CarryOut::Exact {
            // Carry-out value: min(⌈overlap/d_mem⌉, cost, cout_cap). It is
            // constant on one d_mem cell of the overlap — or on the whole
            // tail of the N-interval once the cap m = min(cost, cout_cap)
            // is reached.
            let cout_cap = match mode {
                PersistenceMode::Oblivious => cost,
                PersistenceMode::Aware => {
                    let overlap_pw = ctx.cpro_overlap(l, k);
                    let n64 = u64::try_from(n).unwrap_or(u64::MAX);
                    let d_md_hat = demand::md_hat(task, n64.saturating_add(1))
                        .saturating_sub(demand::md_hat(task, n64));
                    let d_cpro = cpro::cpro(overlap_pw, n64.saturating_add(1))
                        .saturating_sub(cpro::cpro(overlap_pw, n64));
                    cost.min(d_md_hat.saturating_add(d_cpro).saturating_add(gamma))
                }
            };
            let m = cost.min(cout_cap) as u128;
            let d = d_mem.cycles() as u128;
            let overlap = num - n * period;
            let q = if overlap == 0 {
                0
            } else {
                (overlap - 1) / d + 1
            };
            if m == 0 {
                // Carry-out identically zero across the N-interval.
            } else if q >= m {
                // Capped tail: overlap ≥ (m−1)·d + 1 keeps the value at m.
                let floor = (n * period)
                    .saturating_add((m - 1).saturating_mul(d))
                    .saturating_add(1);
                lo = lo.max(smallest_t_reaching(floor, r, c));
            } else if q == 0 {
                hi = hi.min(largest_t_within(n * period, r, c));
            } else {
                let floor = n * period + (q - 1) * d + 1;
                lo = lo.max(smallest_t_reaching(floor, r, c));
                hi = hi.min(largest_t_within(n * period + q * d, r, c));
            }
        }
    };
    match band {
        PriorityBand::HigherOrEqual => tasks.hep_on(k, y).for_each(&mut restrict),
        PriorityBand::Lower => tasks.lp_on(k, y).for_each(&mut restrict),
    }
    let span = crate::curve::Span {
        lo: Time::from_cycles(u64::try_from(lo).unwrap_or(u64::MAX)),
        hi: Time::from_cycles(u64::try_from(hi.min(SAT)).unwrap_or(u64::MAX)),
    };
    debug_assert!(span.contains(t), "span {span:?} must contain t={t}");
    span
}

/// The window- and response-time-independent inputs one band member
/// contributes to [`bao`], precomputed once per `(core, split)` key:
/// rebuilding a [`BaoSegment`] walks these compact records instead of
/// re-filtering the task set and re-reading the CRPD/CPRO matrices on
/// every rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaoMember {
    /// The member's index into the response-time estimate slice.
    idx: usize,
    /// Per-job bus charge `MD_l + γ_{k,l}`.
    cost: u64,
    /// `γ_{k,l}`: the member's CRPD charge at the slot's priority level.
    gamma: u64,
    /// `|PCB_l ∩ ECB-union|`: the per-job CPRO overlap of Eq. (14).
    overlap: u64,
    /// `MD_l`.
    md: u64,
    /// `MD_l^r` (the residual demand of persistent jobs).
    md_r: u64,
    /// `|PCB_l|`.
    pcb_len: u64,
    /// `T_l`.
    period: Time,
}

/// Both priority bands' [`BaoMember`] records for one level `k` and
/// remote core `y`: the `hep(k)` members first, then the `lp(k)` members
/// from [`BaoMembers::split`] on, each sub-slice in its band's iteration
/// order (the saturating accumulation order of [`bao`]). The bands are
/// kept together because the FP bus consumes both at the same window —
/// one fused record set (and one [`BaoSegment`]) serves every `BAO` query
/// of the key.
///
/// The records depend on `k` only through the split — the number of
/// tasks on `y` with id ≤ `k`: `γ_{k,l}` reads the `y`-tasks with ids in
/// `(l, k]` and the CPRO overlap of `l` within `k`'s window the
/// `y`-tasks with ids ≤ `k`, under every [`crate::CrpdApproach`]. The
/// engine therefore keys its slots by `(core, split)` (DESIGN.md §17),
/// and the `bao_split` proptests pin the identity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BaoMembers {
    /// `hep(k)` prefix followed by `lp(k)` suffix.
    members: Vec<BaoMember>,
    /// First index of the `lp(k)` suffix.
    split: usize,
}

impl BaoMembers {
    /// Number of members across both bands.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the remote core contributes no members at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Refills the records in place for a new `(context, level)` pair —
    /// [`bao_members_on`] without the allocation, for member storage
    /// recycled across analyses (see [`crate::AnalysisScratch`]).
    pub fn refill_on(&mut self, ctx: &AnalysisContext<'_>, k: TaskId, on_core: &[TaskId]) {
        self.members.clear();
        self.split = 0;
        for &l in on_core {
            self.members.push(member_record(ctx, k, l));
            if l.index() <= k.index() {
                self.split = self.members.len();
            }
        }
    }
}

/// One member's static record (see [`BaoMember`]), read off the
/// context's struct-of-arrays task columns (verbatim per-task scalars,
/// contiguous per field).
fn member_record(ctx: &AnalysisContext<'_>, k: TaskId, l: TaskId) -> BaoMember {
    let cols = ctx.columns();
    let lx = l.index();
    let gamma = ctx.gamma(k, l);
    let md = cols.md[lx];
    BaoMember {
        idx: lx,
        cost: md.saturating_add(gamma),
        gamma,
        overlap: ctx.cpro_overlap(l, k),
        md,
        md_r: cols.md_r[lx],
        pcb_len: cols.pcb_len[lx],
        period: Time::from_cycles(cols.period[lx]),
    }
}

/// Precomputes both bands' [`BaoMember`] records for priority level `k`
/// and remote core `y` — the one-off filtering walk every [`BaoSegment`]
/// rebuild of that key then avoids.
#[must_use]
pub fn bao_members(ctx: &AnalysisContext<'_>, k: TaskId, y: CoreId) -> BaoMembers {
    let tasks = ctx.tasks();
    let mut members: Vec<BaoMember> = tasks
        .hep_on(k, y)
        .map(|l| member_record(ctx, k, l))
        .collect();
    let split = members.len();
    members.extend(tasks.lp_on(k, y).map(|l| member_record(ctx, k, l)));
    BaoMembers { members, split }
}

/// As [`bao_members`], but walking a precomputed list of the remote
/// core's task ids (in id order) instead of filtering the whole task set
/// band by band — the engine's fast path. Task ids are priority order, so
/// the `hep(k)` prefix is exactly the ids `≤ k` and one ordered walk
/// yields both bands.
#[must_use]
pub fn bao_members_on(ctx: &AnalysisContext<'_>, k: TaskId, on_core: &[TaskId]) -> BaoMembers {
    let mut members = Vec::with_capacity(on_core.len());
    let mut split = 0;
    for &l in on_core {
        members.push(member_record(ctx, k, l));
        if l.index() <= k.index() {
            split = members.len();
        }
    }
    BaoMembers { members, split }
}

/// One band member's contribution to [`bao`] on a fixed `N`-interval of
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
    /// `min`s of [`w_cout`]`.min(cout_cap)` folded into one. Also the
    /// member's [`CarryOut::Capped`] carry-out charge (the cap formulas
    /// never exceed `cost`).
    cap: u64,
    /// The member's response-time estimate the term was built from.
    r: Time,
    /// `cost · d_mem`, the first saturating subtrahend of Eq. (5)'s
    /// overlap.
    sub1: Time,
    /// `N · T_l`, the second saturating subtrahend.
    sub2: Time,
    /// The member's own `N`-interval `[lo, hi]` in cycles: the term stays
    /// exact for any window inside it (at the response time `r`), letting
    /// [`BaoSegment::refresh`] keep it across segment-level span exits.
    lo: u64,
    /// Upper end of the member's `N`-interval.
    hi: u64,
}

impl BaoMember {
    /// Derives the member's [`BaoTerm`] around window length `t` given its
    /// current response-time estimate `r_l` — the `N`-determined charges
    /// exactly as [`bao`] derives them, plus the `N`-interval they are
    /// valid on. The endpoints use the `u64` fast path of the exact
    /// `u128` saturation model (the same model as [`bao_span`]), falling
    /// back to the `u128` derivation only when `N·T` or `bound + c`
    /// overflows `u64` — the proptests pin the two derivations bitwise.
    fn term(&self, t: Time, r_l: Time, d_mem: Time, mode: PersistenceMode) -> BaoTerm {
        let n = n_jobs(t, r_l, self.cost, d_mem, self.period);
        // Saturating u64 multiply equals the u128 product clamped at SAT.
        let c = d_mem.cycles().saturating_mul(self.cost);
        let (lo, hi) = term_interval(n, self.period.cycles(), r_l.cycles(), c);
        let cout_cap = match mode {
            PersistenceMode::Oblivious => self.cost,
            PersistenceMode::Aware => {
                let md_hat = |jobs| demand::md_hat_parts(self.md, self.md_r, self.pcb_len, jobs);
                let d_md_hat = md_hat(n.saturating_add(1)).saturating_sub(md_hat(n));
                let d_cpro = cpro::cpro(self.overlap, n.saturating_add(1))
                    .saturating_sub(cpro::cpro(self.overlap, n));
                self.cost
                    .min(d_md_hat.saturating_add(d_cpro).saturating_add(self.gamma))
            }
        };
        let full_jobs = match mode {
            PersistenceMode::Oblivious => n.saturating_mul(self.cost),
            PersistenceMode::Aware => {
                let oblivious = n.saturating_mul(self.md);
                let persistent = demand::md_hat_parts(self.md, self.md_r, self.pcb_len, n)
                    .saturating_add(cpro::cpro(self.overlap, n));
                oblivious
                    .min(persistent)
                    .saturating_add(n.saturating_mul(self.gamma))
            }
        };
        BaoTerm {
            full_jobs,
            cap: self.cost.min(cout_cap),
            r: r_l,
            sub1: d_mem.saturating_mul(self.cost),
            sub2: self.period.saturating_mul(n),
            lo,
            hi,
        }
    }
}

/// [`bao`] — for one fixed `(level, core)`, *both* priority bands and
/// *both* carry-out modes — restricted to a window interval on which every
/// member's full-job count `N` (Eq. (6)) is constant.
///
/// [`BaoSegment::eval`] reproduces [`bao`]'s per-band values bit-for-bit
/// anywhere in [`BaoSegment::span`]: [`CarryOut::Capped`] in O(1) (the
/// whole sum is window-independent there, precomputed per band), and
/// [`CarryOut::Exact`] at a few arithmetic operations per member — no
/// band-membership filtering, no persistence-demand (`M̂D`), CPRO or CRPD
/// lookups; those are all `N`-determined and folded into the stored terms.
/// This is what makes the engine's curve cache pay: the span covers whole
/// job periods rather than single `d_mem` carry-out cells (the constancy
/// grain of a *scalar* [`CarryOut::Exact`] value, see [`bao_span`]), and
/// one segment serves both bands of the FP bus and both the Capped bracket
/// phase and the Exact refine phase of the WCRT solver. When the window
/// leaves the span or a member's response-time estimate moves,
/// [`BaoSegment::refresh`] re-derives only the affected members' terms.
#[derive(Debug, Clone)]
pub struct BaoSegment {
    /// Maximal window interval — containing the seed `t` — on which the
    /// stored terms are valid (the intersection of the members'
    /// `N`-intervals).
    pub span: crate::curve::Span,
    /// Per-member terms: `hep(k)` prefix then `lp(k)` suffix, each in its
    /// band's iteration order (the saturating accumulation order of
    /// [`bao`]).
    terms: Vec<BaoTerm>,
    /// First index of the `lp(k)` suffix in `terms`.
    split: usize,
    /// The window-independent [`CarryOut::Capped`] totals on the span,
    /// `(hep, lower)`.
    capped: (u64, u64),
}

impl Default for BaoSegment {
    fn default() -> Self {
        BaoSegment::new()
    }
}

impl BaoSegment {
    /// An empty segment covering no window (every lookup misses until the
    /// first [`BaoSegment::refresh`]).
    #[must_use]
    pub fn new() -> Self {
        BaoSegment {
            span: crate::curve::Span {
                lo: Time::from_cycles(1),
                hi: Time::ZERO,
            },
            terms: Vec::new(),
            split: 0,
            capped: (0, 0),
        }
    }

    /// Returns the segment to its freshly-constructed state — empty span,
    /// no terms — while keeping the term storage. Every subsequent lookup
    /// misses until the first [`BaoSegment::refresh`], which is exactly
    /// what a segment recycled onto a *different* task set needs: stale
    /// terms must never be served, but their allocation is still good.
    pub fn reset(&mut self) {
        self.span = crate::curve::Span {
            lo: Time::from_cycles(1),
            hi: Time::ZERO,
        };
        self.terms.clear();
        self.split = 0;
        self.capped = (0, 0);
    }

    /// Rebuilds every term in place around window length `t`: one walk
    /// over the precomputed `members`. The term storage is reused —
    /// steady-state rebuilds allocate nothing.
    pub fn rebuild(
        &mut self,
        members: &BaoMembers,
        t: Time,
        resp: &[Time],
        d_mem: Time,
        mode: PersistenceMode,
    ) {
        self.terms.clear();
        self.split = members.split;
        self.terms.extend(
            members
                .members
                .iter()
                .map(|m| m.term(t, resp[m.idx], d_mem, mode)),
        );
        self.commit(t);
    }

    /// Brings the segment to window length `t` and the current estimates
    /// `resp`, re-deriving only the terms that actually changed: a stored
    /// term is kept verbatim when its member's response time is unchanged
    /// and `t` still lies in the member's own `N`-interval. A typical span
    /// exit crosses one member's period boundary, so this costs one term
    /// derivation plus a cheap scan — not a full rebuild.
    pub fn refresh(
        &mut self,
        members: &BaoMembers,
        t: Time,
        resp: &[Time],
        d_mem: Time,
        mode: PersistenceMode,
    ) {
        if self.terms.len() != members.members.len() || self.split != members.split {
            self.rebuild(members, t, resp, d_mem, mode);
            return;
        }
        let tc = t.cycles();
        for (term, m) in self.terms.iter_mut().zip(&members.members) {
            let r_l = resp[m.idx];
            if r_l != term.r || tc < term.lo || term.hi < tc {
                *term = m.term(t, r_l, d_mem, mode);
            }
        }
        self.commit(t);
    }

    /// Re-derives the aggregate state from the terms: the span (the
    /// intersection of the member `N`-intervals) and the per-band
    /// [`CarryOut::Capped`] totals, accumulated in [`bao`]'s exact
    /// saturating order.
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
        self.span = crate::curve::Span {
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
    /// identical to [`bao`] per band with the arguments the segment was
    /// built from and `carry`.
    #[must_use]
    pub fn eval(&self, t: Time, d_mem: Time, carry: CarryOut) -> (u64, u64) {
        debug_assert!(self.span.contains(t), "eval outside span {:?}", self.span);
        if carry == CarryOut::Capped {
            return self.capped;
        }
        let exact_total = |terms: &[BaoTerm]| {
            let mut total = 0u64;
            for term in terms {
                // Eq. (5) with its subtrahends pre-saturated; the same
                // saturating chain as `w_cout`, then the carry-out cap.
                let overlap = t
                    .saturating_add(term.r)
                    .saturating_sub(term.sub1)
                    .saturating_sub(term.sub2);
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

/// Builds the [`BaoSegment`] containing window length `t` from scratch
/// (members walk plus rebuild) — the one-shot convenience over
/// [`bao_members`] + [`BaoSegment::rebuild`].
#[must_use]
pub fn bao_segment(
    ctx: &AnalysisContext<'_>,
    k: TaskId,
    y: CoreId,
    t: Time,
    resp: &[Time],
    mode: PersistenceMode,
) -> BaoSegment {
    let members = bao_members(ctx, k, y);
    let mut seg = BaoSegment::new();
    seg.rebuild(&members, t, resp, ctx.d_mem(), mode);
    seg
}

/// Eq. (3): the persistence-oblivious `BAO_k^y(t)` over `Γy ∩ hep(k)`.
#[must_use]
pub fn bao_oblivious(
    ctx: &AnalysisContext<'_>,
    k: TaskId,
    y: CoreId,
    t: Time,
    resp: &[Time],
) -> u64 {
    bao(
        ctx,
        k,
        y,
        t,
        resp,
        PersistenceMode::Oblivious,
        PriorityBand::HigherOrEqual,
        CarryOut::Exact,
    )
}

/// Lemma 2: the persistence-aware `BÂO_k^y(t)` over `Γy ∩ hep(k)`.
#[must_use]
pub fn bao_aware(ctx: &AnalysisContext<'_>, k: TaskId, y: CoreId, t: Time, resp: &[Time]) -> u64 {
    bao(
        ctx,
        k,
        y,
        t,
        resp,
        PersistenceMode::Aware,
        PriorityBand::HigherOrEqual,
        CarryOut::Exact,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn n_jobs_clamps_small_windows() {
        let d = Time::from_cycles(10);
        let p = Time::from_cycles(100);
        // t + R − cost·d_mem = 0 + 50 − 60 < 0 ⇒ 0 jobs.
        assert_eq!(n_jobs(Time::ZERO, Time::from_cycles(50), 6, d, p), 0);
        // 300 + 50 − 60 = 290 ⇒ 2 full periods.
        assert_eq!(
            n_jobs(Time::from_cycles(300), Time::from_cycles(50), 6, d, p),
            2
        );
    }

    #[test]
    fn w_cout_caps_at_per_job_cost() {
        let d = Time::from_cycles(10);
        let p = Time::from_cycles(100);
        let t = Time::from_cycles(300);
        let r = Time::from_cycles(50);
        let n = n_jobs(t, r, 6, d, p);
        assert_eq!(n, 2);
        // Overlap = 290 − 200 = 90 ⇒ ⌈90/10⌉ = 9, capped at cost 6.
        assert_eq!(w_cout(t, r, 6, d, p, n), 6);
        // Tiny leftover: t = 215 ⇒ overlap = 5 ⇒ 1 access.
        let t = Time::from_cycles(215);
        let n = n_jobs(t, r, 6, d, p);
        assert_eq!(n, 2);
        assert_eq!(w_cout(t, r, 6, d, p, n), 1);
        // No overlap at all.
        assert_eq!(w_cout(Time::ZERO, r, 6, d, p, 0), 0);
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
            n_jobs(t, resp[t3.index()], 6, ctx.d_mem(), Time::from_cycles(16)),
            4
        );
        // The paper evaluates BAO at level 3 (τ3's own priority); from τ2's
        // level the hep-band on core y is empty.
        assert_eq!(bao_oblivious(&ctx, t2, y, t, &resp), 0);
        assert_eq!(bao_oblivious(&ctx, t3, y, t, &resp), 24);
        assert_eq!(bao_aware(&ctx, t3, y, t, &resp), 9);
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
        // the lower band equals the full bound for k = τ2 ...
        let low = bao(
            &ctx,
            t2,
            y,
            t,
            &resp,
            PersistenceMode::Oblivious,
            PriorityBand::Lower,
            CarryOut::Exact,
        );
        assert_eq!(low, 24);
        // ... and the hep-band is empty (τ3 ∉ hep(τ2)).
        assert_eq!(bao_oblivious(&ctx, t2, y, t, &resp), 0);
        // From the lowest priority's perspective, hep covers τ3.
        assert_eq!(bao_oblivious(&ctx, t3, y, t, &resp), 24);
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
                    prop_assert!(bao_aware(&ctx, k, y, t, &resp)
                        <= bao_oblivious(&ctx, k, y, t, &resp));
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
            let (t_lo, t_hi) = (a.min(b), a.max(b));
            let (r_lo, r_hi) = (ra.min(rb), ra.max(rb));
            let (platform, tasks) = fig1();
            let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
            let k = tasks.lowest_priority_id();
            for y in [CoreId::new(0), CoreId::new(1)] {
                for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                    for carry in [CarryOut::Exact, CarryOut::Capped] {
                        let lo = bao(&ctx, k, y, Time::from_cycles(t_lo),
                            &[Time::from_cycles(r_lo); 3], mode,
                            PriorityBand::HigherOrEqual, carry);
                        let hi = bao(&ctx, k, y, Time::from_cycles(t_hi),
                            &[Time::from_cycles(r_hi); 3], mode,
                            PriorityBand::HigherOrEqual, carry);
                        prop_assert!(lo <= hi);
                        // Capped carry-out over-approximates the exact term.
                        let exact = bao(&ctx, k, y, Time::from_cycles(t_hi),
                            &[Time::from_cycles(r_hi); 3], mode,
                            PriorityBand::HigherOrEqual, CarryOut::Exact);
                        let capped = bao(&ctx, k, y, Time::from_cycles(t_hi),
                            &[Time::from_cycles(r_hi); 3], mode,
                            PriorityBand::HigherOrEqual, CarryOut::Capped);
                        prop_assert!(exact <= capped);
                    }
                }
            }
        }

        /// `bao_span` must be a true constancy interval of `bao` under the
        /// exact same arguments — the contract the engine's curve cache
        /// relies on for soundness.
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
                    for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                        for band in [PriorityBand::HigherOrEqual, PriorityBand::Lower] {
                            for carry in [CarryOut::Exact, CarryOut::Capped] {
                                let span = bao_span(&ctx, k, y, t, &resp, mode, band, carry);
                                prop_assert!(span.contains(t));
                                let v = bao(&ctx, k, y, t, &resp, mode, band, carry);
                                // Constant at both endpoints and at probes
                                // straddling the seed.
                                let lo = span.lo.cycles();
                                let hi = span.hi.cycles().min(lo.saturating_add(100_000));
                                let probes = [lo, (lo + hi) / 2, hi, t.cycles()];
                                for p in probes {
                                    let w = Time::from_cycles(p);
                                    prop_assert_eq!(
                                        bao(&ctx, k, y, w, &resp, mode, band, carry),
                                        v,
                                        "{mode:?} {band:?} {carry:?} k={k:?} y={y:?} \
                                         t={t} probe={w} span={span:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }

        /// `bao_segment` must evaluate to exactly `bao` everywhere on its
        /// span — the engine's cache hits return `eval`, never `bao`.
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
                    for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                        let seg = bao_segment(&ctx, k, y, t, &resp, mode);
                        prop_assert!(seg.span.contains(t));
                        let lo = seg.span.lo.cycles();
                        let hi = seg.span.hi.cycles().min(lo.saturating_add(100_000));
                        let probes = [lo, lo + (hi - lo) / 2, hi, t.cycles()];
                        for carry in [CarryOut::Exact, CarryOut::Capped] {
                            for p in probes {
                                let w = Time::from_cycles(p);
                                let (hep, lower) = seg.eval(w, ctx.d_mem(), carry);
                                let reference = |band| {
                                    bao(&ctx, k, y, w, &resp, mode, band, carry)
                                };
                                prop_assert_eq!(
                                    (hep, lower),
                                    (
                                        reference(PriorityBand::HigherOrEqual),
                                        reference(PriorityBand::Lower),
                                    ),
                                    "{mode:?} {carry:?} k={k:?} y={y:?} \
                                     t={t} probe={w} span={:?}", seg.span
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
                    for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                        let members = bao_members(&ctx, k, y);
                        let mut seg = BaoSegment::new();
                        // Empty → falls back to a rebuild.
                        seg.refresh(&members, t, &resp, ctx.d_mem(), mode);
                        // Incremental: window and one response time move.
                        seg.refresh(&members, t2, &resp2, ctx.d_mem(), mode);
                        let fresh = bao_segment(&ctx, k, y, t2, &resp2, mode);
                        prop_assert_eq!(seg.span, fresh.span, "k={:?} y={:?} {:?}", k, y, mode);
                        for carry in [CarryOut::Exact, CarryOut::Capped] {
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
            let d = Time::from_cycles(d);
            let p = Time::from_cycles(p);
            let t = Time::from_cycles(t);
            let r = Time::from_cycles(r);
            let n = n_jobs(t, r, cost, d, p);
            prop_assert!(w_cout(t, r, cost, d, p, n) <= cost);
        }

        /// The u64 fast path of [`term_interval`] must be bitwise equal
        /// to the all-u128 derivation it replaced, for the full input
        /// range — including the overflow regions that force the
        /// fallback (huge n·p, huge bound + c) and the saturation
        /// plateau. `shape` remaps part of the full-range draws onto
        /// those boundaries so the overflow branches are actually
        /// exercised, not just reachable.
        #[test]
        fn term_interval_fast_path_matches_u128_model(
            n in any::<u64>(),
            p in any::<u64>(),
            r in any::<u64>(),
            c in any::<u64>(),
            shape in proptest::sample::select(vec![0u8, 1, 2, 3, 4]),
        ) {
            let (n, p, r, c) = match shape {
                // n·p overflows, bound + c saturates.
                1 => (u64::MAX - n % 4, u64::MAX - p % 4, r, u64::MAX - c % 4),
                // n·p at the overflow boundary from below.
                2 => (n >> 32, u64::MAX, r, c),
                // Small everything: the pure fast path.
                3 => (n % 8, (p % 8).max(1), r % 8, c % 8),
                // bound + c overflows with in-range n·p.
                4 => ((n % 4) + 1, u64::MAX >> 2, r, u64::MAX - c % 4),
                _ => (n, p, r, c),
            };
            let p = p.max(1); // periods are positive
            let (lo, hi) = term_interval(n, p, r, c);
            // The former derivation, verbatim: everything in u128 against
            // the shared SAT model, clamped back to u64 at the end.
            let (rr, pp, cc) = (u128::from(r), u128::from(p), u128::from(c));
            let exact_lo = if n == 0 {
                0
            } else {
                smallest_t_reaching(u128::from(n) * pp, rr, cc)
            };
            let exact_hi = largest_t_within((u128::from(n) + 1) * pp - 1, rr, cc).min(SAT);
            prop_assert_eq!(lo, u64::try_from(exact_lo).unwrap_or(u64::MAX));
            prop_assert_eq!(hi, u64::try_from(exact_hi).unwrap_or(u64::MAX));
        }
    }
}
