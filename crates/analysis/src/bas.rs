//! Same-core bus access bounds: the engine's walk over Eq. (1), Lemma 1
//! and the preemption interference of Eq. (19).
//!
//! The literal forms of Eq. (1) and Lemma 1 live in [`crate::spec::bas`];
//! this module holds the one fused walk the engine evaluates them with.

use cpa_model::{TaskId, Time};

use crate::{cpro, demand, AnalysisContext};

/// `E_j(t) = ⌈t / T_j⌉`: maximum jobs of `τj` released in a window of
/// length `t` (Lemma 1).
#[must_use]
pub fn releases(t: Time, period: Time) -> u64 {
    t.div_ceil(period)
}

/// Everything [`same_core_terms`] derives from one walk over `τi`'s
/// same-core higher-priority tasks at one window length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SameCoreTerms {
    /// The same-core preemption interference of Eq. (19),
    /// `Σ_j E_j · PD_j`.
    pub interference: Time,
    /// `BAS_i^x(t)`, Eq. (1).
    pub bas_oblivious: u64,
    /// `BÂS_i^x(t)`, Lemma 1.
    pub bas_aware: u64,
    /// The CRPD share `Σ_j E_j · γ_{i,j,x}` inside either bound.
    pub crpd: u64,
    /// The CPRO share inside `BÂS`: `Σ_j ρ̂_{j,i,x}(E_j)` over the tasks
    /// whose persistence branch wins Lemma 1's `min`.
    pub cpro: u64,
}

/// The engine's fused same-core walk: the Eq. (19) preemption
/// interference and `BAS` in *both* persistence modes, with the CRPD and
/// CPRO shares the decomposition reports — in one pass over `hp`: `τi`'s
/// same-core higher-priority tasks in id order, precomputed by the
/// caller. All of them are functions of the release counts `E_j` only,
/// so a single walk computes each `E_j` once; the
/// `fused_same_core_terms_match_standalone` test pins every field
/// against [`crate::spec`].
///
/// The walk reads the per-task scalars from the context's
/// struct-of-arrays [`crate::context::TaskColumns`] rather than striding
/// over the `Task` records — the values are verbatim copies, only the
/// memory layout differs.
#[must_use]
pub fn same_core_terms(
    ctx: &AnalysisContext<'_>,
    i: TaskId,
    t: Time,
    hp: &[TaskId],
) -> SameCoreTerms {
    let cols = ctx.columns();
    let own = cols.md[i.index()];
    let mut terms = SameCoreTerms {
        interference: Time::ZERO,
        bas_oblivious: own,
        bas_aware: own,
        crpd: 0,
        cpro: 0,
    };
    for &j in hp {
        let jx = j.index();
        let period = Time::from_cycles(cols.period[jx]);
        let e = releases(t, period);
        // Same-core preemption interference of Eq. (19).
        terms.interference = terms
            .interference
            .saturating_add(Time::from_cycles(cols.pd[jx]).saturating_mul(e));
        let gamma = ctx.gamma(i, j);
        let md = cols.md[jx];
        let crpd = e.saturating_mul(gamma);
        terms.crpd = terms.crpd.saturating_add(crpd);
        // Eq. (1): E_j · (MD_j + γ).
        terms.bas_oblivious = terms
            .bas_oblivious
            .saturating_add(e.saturating_mul(md.saturating_add(gamma)));
        // Lemma 1: min(E_j · MD_j, M̂D_j(E_j) + ρ̂_{j,i,x}(E_j)) + E_j · γ.
        let oblivious = e.saturating_mul(md);
        let reload = cpro::cpro(ctx.cpro_overlap(j, i), e);
        let persistent =
            demand::md_hat_parts(md, cols.md_r[jx], cols.pcb_len[jx], e).saturating_add(reload);
        if persistent < oblivious {
            terms.cpro = terms.cpro.saturating_add(reload);
        }
        terms.bas_aware = terms
            .bas_aware
            .saturating_add(oblivious.min(persistent))
            .saturating_add(crpd);
    }
    terms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec, PersistenceMode};
    use cpa_model::{CacheBlockSet, CoreId, Platform, Priority, Task, TaskSet};
    use proptest::prelude::*;

    /// The paper's Fig. 1 system (τ1, τ2 on core x; τ3 on core y) with
    /// periods chosen so that the worked window contains the job counts the
    /// paper uses (3 jobs of τ1, 4 jobs of τ3).
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
            .period(Time::from_cycles(15))
            .deadline(Time::from_cycles(15))
            .core(CoreId::new(1))
            .priority(Priority::new(3))
            .ecb(CacheBlockSet::from_blocks(256, 5..=10).unwrap())
            .pcb(CacheBlockSet::from_blocks(256, [5, 6, 7, 8, 10]).unwrap())
            .build()
            .unwrap();
        (platform, TaskSet::new(vec![tau1, tau2, tau3]).unwrap())
    }

    /// The engine walk for `τi` at `t`, over its same-core hp tasks.
    fn terms(ctx: &AnalysisContext<'_>, i: TaskId, t: Time) -> SameCoreTerms {
        let tasks = ctx.tasks();
        let hp: Vec<TaskId> = tasks.hp_on(i, tasks[i].core()).collect();
        same_core_terms(ctx, i, t, &hp)
    }

    fn modes() -> [PersistenceMode; 2] {
        [PersistenceMode::Oblivious, PersistenceMode::Aware]
    }

    fn bas(terms: &SameCoreTerms, mode: PersistenceMode) -> u64 {
        match mode {
            PersistenceMode::Oblivious => terms.bas_oblivious,
            PersistenceMode::Aware => terms.bas_aware,
        }
    }

    #[test]
    fn fig1_worked_numbers() {
        let (platform, tasks) = fig1();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let t2 = tasks.id_of("tau2").unwrap();
        // A window with exactly 3 releases of τ1 (period 20): t ∈ (40, 60].
        let window = Time::from_cycles(60);
        assert_eq!(releases(window, Time::from_cycles(20)), 3);
        let terms = terms(&ctx, t2, window);
        // Eq. (12): BAS_2^x = 8 + 3·(6 + 2) = 32.
        assert_eq!(terms.bas_oblivious, 32);
        // Eq. (15): 8 + min(18, M̂D(3)=8 + ρ̂=4) + 3·γ=6 = 26.
        assert_eq!(terms.bas_aware, 26);
        assert_eq!((terms.crpd, terms.cpro), (6, 4));
        assert_eq!(
            spec::bas(&ctx, t2, window, PersistenceMode::Oblivious),
            Ok(32)
        );
        assert_eq!(spec::bas(&ctx, t2, window, PersistenceMode::Aware), Ok(26));
    }

    #[test]
    fn highest_priority_task_sees_only_its_own_demand() {
        let (platform, tasks) = fig1();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let t1 = tasks.id_of("tau1").unwrap();
        for t in [0u64, 10, 1_000] {
            let terms = terms(&ctx, t1, Time::from_cycles(t));
            assert_eq!((terms.bas_oblivious, terms.bas_aware), (6, 6));
            assert_eq!(terms.interference, Time::ZERO);
        }
    }

    #[test]
    fn remote_tasks_do_not_contribute() {
        // τ3 on core y never appears in τ2's BAS even though it has lower
        // priority and a big footprint.
        let (platform, tasks) = fig1();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let t3 = tasks.id_of("tau3").unwrap();
        assert_eq!(terms(&ctx, t3, Time::from_cycles(1_000)).bas_oblivious, 6);
    }

    #[test]
    fn zero_window_charges_one_job_of_self_only() {
        let (platform, tasks) = fig1();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let t2 = tasks.id_of("tau2").unwrap();
        let terms = terms(&ctx, t2, Time::ZERO);
        assert_eq!((terms.bas_oblivious, terms.bas_aware), (8, 8));
    }

    proptest! {
        #[test]
        fn aware_never_exceeds_oblivious(t in 0u64..10_000) {
            let (platform, tasks) = fig1();
            let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
            for i in tasks.ids() {
                let terms = terms(&ctx, i, Time::from_cycles(t));
                prop_assert!(terms.bas_aware <= terms.bas_oblivious);
            }
        }

        /// Every field of the fused walk equals its literal form: both
        /// BAS modes from the spec, the interference, and the CRPD and
        /// CPRO shares written out term by term.
        #[test]
        fn fused_same_core_terms_match_standalone(t in 0u64..10_000) {
            let (platform, tasks) = fig1();
            let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
            let t = Time::from_cycles(t);
            for i in tasks.ids() {
                let terms = terms(&ctx, i, t);
                for mode in modes() {
                    prop_assert_eq!(Ok(bas(&terms, mode)), spec::bas(&ctx, i, t, mode));
                }
                let (mut interference, mut crpd, mut cpro_share) = (Time::ZERO, 0, 0);
                for j in tasks.hp_on(i, tasks[i].core()) {
                    let e = spec::releases(t, tasks[j].period());
                    interference += tasks[j].processing_demand() * e;
                    crpd += e * crate::crpd::gamma(&tasks, i, j);
                    let reload = e.saturating_sub(1) * cpro::cpro_overlap(&tasks, j, i);
                    if demand::md_hat(&tasks[j], e) + reload < e * tasks[j].memory_demand() {
                        cpro_share += reload;
                    }
                }
                prop_assert_eq!(terms.interference, interference);
                prop_assert_eq!(terms.crpd, crpd);
                prop_assert_eq!(terms.cpro, cpro_share);
            }
        }

        #[test]
        fn monotone_in_window(a in 0u64..10_000, b in 0u64..10_000) {
            let (lo, hi) = (a.min(b), a.max(b));
            let (platform, tasks) = fig1();
            let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
            for i in tasks.ids() {
                let lo = terms(&ctx, i, Time::from_cycles(lo));
                let hi = terms(&ctx, i, Time::from_cycles(hi));
                for mode in modes() {
                    prop_assert!(bas(&lo, mode) <= bas(&hi, mode));
                }
            }
        }
    }
}
