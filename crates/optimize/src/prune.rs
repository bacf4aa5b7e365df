//! Admission pruning: O(n) sound lower bounds that reject provably
//! unschedulable candidates before any engine call.
//!
//! Both bounds under-approximate what *every* analysis configuration
//! (bus policy × persistence mode) charges, so a pruned candidate can
//! never be schedulable — see DESIGN.md §16 for the argument:
//!
//! 1. **Demand floor** — the inner recurrence starts from, and never
//!    drops below, `PD_i + MD_i · d_mem` (§IV initial estimates; even the
//!    perfect bus charges every own access). If that floor already
//!    exceeds `D_i` for some task, no configuration converges within the
//!    deadline. The floor is invariant under every optimizer move —
//!    partitioning, priorities and coloring touch none of its inputs —
//!    so it is computed once per base set.
//! 2. **Core utilization** — on a core whose members' residual demand
//!    `Σ_k (PD_k + MD^r_k · d_mem) / T_k` exceeds 1, the lowest-priority
//!    member's recurrence right-hand side is at least `t · U > t` for
//!    every `t ≤ D ≤ T` (constrained deadlines and `MD^r ≤ MD` are
//!    builder-enforced, and the persistence-aware bounds charge at least
//!    the residual demand per job), so it diverges past its deadline.
//!    Only the partition matters: ranks pick *which* member diverges,
//!    colors shift footprints but not demands.
//!
//! The utilization sum is accumulated exactly
//! ([`cpa_model::UtilizationSum`]); on overflow the core is
//! conservatively admitted. The
//! soundness obligation — *no pruned candidate is actually schedulable* —
//! is re-checked empirically by the campaign oracle in `cpa-validate`
//! and by the property test below.

use cpa_model::{TaskSet, Time, UtilizationSum};

/// Why a candidate was (not) admitted to full evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// No bound fired; the candidate must be evaluated for real.
    Admitted,
    /// Some task's `PD + MD · d_mem` floor exceeds its deadline
    /// (independent of the candidate, so the whole space is pruned).
    DemandExceedsDeadline,
    /// Some core's residual utilization provably exceeds 1 under this
    /// partition.
    CoreOverUtilized,
}

/// Precomputed per-task columns of the admission bounds for one base set.
///
/// Construction is O(n); [`AdmissionCheck::admit`] is O(n + cores) per
/// candidate with no allocation beyond one reusable per-core accumulator.
#[derive(Debug, Clone)]
pub struct AdmissionCheck {
    /// `PD_k + MD^r_k · d_mem` per base task (saturating).
    residual: Vec<u64>,
    /// Task periods in cycles.
    period: Vec<u64>,
    /// `Some` iff some task's demand floor `PD + MD · d_mem` exceeds its
    /// own deadline — a candidate-invariant verdict.
    infeasible_task: Option<usize>,
}

/// Reusable per-core accumulator buffer for [`AdmissionCheck::admit_with`].
/// One instance per driver amortizes the allocation over every candidate.
#[derive(Debug, Default, Clone)]
pub struct AdmissionScratch {
    load: Vec<UtilizationSum>,
}

impl AdmissionCheck {
    /// Builds the columns for `base` under memory latency `d_mem`.
    #[must_use]
    pub fn new(base: &TaskSet, d_mem: Time) -> AdmissionCheck {
        let d_mem = d_mem.cycles();
        let mut residual = Vec::with_capacity(base.len());
        let mut period = Vec::with_capacity(base.len());
        let mut infeasible_task = None;
        for (k, t) in base.iter().enumerate() {
            let pd = t.processing_demand().cycles();
            let floor = pd.saturating_add(t.memory_demand().saturating_mul(d_mem));
            if infeasible_task.is_none() && floor > t.deadline().cycles() {
                infeasible_task = Some(k);
            }
            residual.push(pd.saturating_add(t.residual_memory_demand().saturating_mul(d_mem)));
            period.push(t.period().cycles());
        }
        AdmissionCheck {
            residual,
            period,
            infeasible_task,
        }
    }

    /// The task whose demand floor exceeds its deadline, if any.
    #[must_use]
    pub fn infeasible_task(&self) -> Option<usize> {
        self.infeasible_task
    }

    /// Judges one candidate partition (`cores[k]` is the core of base
    /// task `k`). Ranks and colorings are deliberately not inputs: the
    /// bounds are invariant in both. Allocates a fresh accumulator; hot
    /// callers should use [`AdmissionCheck::admit_with`].
    #[must_use]
    pub fn admit(&self, cores: &[usize], num_cores: usize) -> Admission {
        self.admit_with(cores, num_cores, &mut AdmissionScratch::default())
    }

    /// [`AdmissionCheck::admit`] against a caller-owned scratch buffer:
    /// allocation-free after the first call with a given core count.
    #[must_use]
    pub fn admit_with(
        &self,
        cores: &[usize],
        num_cores: usize,
        scratch: &mut AdmissionScratch,
    ) -> Admission {
        if self.infeasible_task.is_some() {
            return Admission::DemandExceedsDeadline;
        }
        debug_assert_eq!(cores.len(), self.residual.len());
        scratch.load.clear();
        scratch.load.resize(num_cores, UtilizationSum::ZERO);
        for (k, &core) in cores.iter().enumerate() {
            let acc = &mut scratch.load[core];
            acc.add(u128::from(self.residual[k]), self.period[k]);
            if acc.exceeds_one() == Some(true) {
                return Admission::CoreOverUtilized;
            }
        }
        Admission::Admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_analysis::{analyze, AnalysisConfig, AnalysisContext, BusPolicy, PersistenceMode};
    use cpa_model::{CacheBlockSet, CacheGeometry, CoreId, Platform, Priority, Task};
    use proptest::prelude::*;

    fn task(name: &str, prio: u32, core: usize, pd: u64, md: u64, md_r: u64, period: u64) -> Task {
        Task::builder(name)
            .processing_demand(Time::from_cycles(pd))
            .memory_demand(md)
            .residual_memory_demand(md_r)
            .period(Time::from_cycles(period))
            .deadline(Time::from_cycles(period))
            .core(CoreId::new(core))
            .priority(Priority::new(prio))
            .ecb(CacheBlockSet::contiguous(16, 0, 8))
            .ucb(CacheBlockSet::contiguous(16, 0, 4))
            .pcb(CacheBlockSet::contiguous(16, 2, 3))
            .build()
            .expect("valid task")
    }

    fn platform(cores: usize, d_mem: u64) -> Platform {
        Platform::builder()
            .cores(cores)
            .cache(CacheGeometry::direct_mapped(16, 32))
            .memory_latency(Time::from_cycles(d_mem))
            .build()
            .expect("valid platform")
    }

    #[test]
    fn feasible_partition_is_admitted() {
        let ts = TaskSet::new(vec![
            task("a", 0, 0, 100, 10, 2, 10_000),
            task("b", 1, 1, 100, 10, 2, 10_000),
        ])
        .expect("set");
        let check = AdmissionCheck::new(&ts, Time::from_cycles(10));
        assert_eq!(check.infeasible_task(), None);
        assert_eq!(check.admit(&[0, 1], 2), Admission::Admitted);
    }

    #[test]
    fn demand_floor_prunes_every_partition() {
        // pd + md·d_mem = 500 + 60·10 = 1100 > D = 1000.
        let ts = TaskSet::new(vec![
            task("tight", 0, 0, 500, 60, 2, 1_000),
            task("easy", 1, 1, 100, 10, 2, 10_000),
        ])
        .expect("set");
        let check = AdmissionCheck::new(&ts, Time::from_cycles(10));
        assert_eq!(check.infeasible_task(), Some(0));
        for cores in [[0, 0], [0, 1], [1, 0], [1, 1]] {
            assert_eq!(check.admit(&cores, 2), Admission::DemandExceedsDeadline);
        }
    }

    #[test]
    fn over_utilized_core_is_pruned_and_split_is_admitted() {
        // Each task loads (600 + 2·10)/1000 = 0.62; together 1.24 > 1.
        let ts = TaskSet::new(vec![
            task("a", 0, 0, 600, 30, 2, 1_000),
            task("b", 1, 0, 600, 30, 2, 1_000),
        ])
        .expect("set");
        let check = AdmissionCheck::new(&ts, Time::from_cycles(10));
        assert_eq!(check.admit(&[0, 0], 2), Admission::CoreOverUtilized);
        assert_eq!(check.admit(&[1, 1], 2), Admission::CoreOverUtilized);
        assert_eq!(check.admit(&[0, 1], 2), Admission::Admitted);
    }

    #[test]
    fn exactly_full_core_is_not_pruned() {
        // Utilization exactly 1 is not provably divergent within D = T:
        // residual load (990 + 1·10)/1000 = 1 must not trip the bound
        // (and the demand floor 990 + 1·10 = D does not fire either).
        let ts = TaskSet::new(vec![task("a", 0, 0, 990, 1, 1, 1_000)]).expect("set");
        let check = AdmissionCheck::new(&ts, Time::from_cycles(10));
        assert_eq!(check.admit(&[0], 1), Admission::Admitted);
    }

    #[test]
    fn overflowing_fraction_admits_conservatively() {
        // Three tiny loads over huge pairwise-coprime periods: the true
        // utilization is ≈ 0, but the exact denominator product exceeds
        // u128, so the accumulator overflows and must admit, never prune
        // on a guess.
        let p1 = (1u64 << 62) - 57; // odd, pairwise no small common factor
        let p2 = (1u64 << 62) - 87;
        let p3 = (1u64 << 62) - 117;
        let ts = TaskSet::new(vec![
            task("a", 0, 0, 1, 1, 1, p1),
            task("b", 1, 0, 1, 1, 1, p2),
            task("c", 2, 0, 1, 1, 1, p3),
        ])
        .expect("set");
        let check = AdmissionCheck::new(&ts, Time::from_cycles(1));
        assert_eq!(check.admit(&[0, 0, 0], 1), Admission::Admitted);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The soundness obligation itself: whenever a random partition of
        /// a random set is pruned, the full analysis must agree that the
        /// partitioned set is unschedulable, under every bus policy and
        /// persistence mode.
        #[test]
        fn pruned_partitions_are_never_schedulable(
            pds in proptest::collection::vec(50u64..2_000, 2..5),
            mds in proptest::collection::vec(1u64..64, 4..5),
            periods in proptest::collection::vec(500u64..4_000, 4..5),
            assignment in proptest::collection::vec(0usize..2, 4..5),
            d_mem in 1u64..30,
        ) {
            let n = pds.len();
            let tasks: Vec<Task> = (0..n)
                .map(|k| {
                    let md = mds[k];
                    task(
                        &format!("t{k}"),
                        k as u32,
                        assignment[k] % 2,
                        pds[k],
                        md,
                        md / 3,
                        periods[k].max(pds[k] + 1),
                    )
                })
                .collect();
            let ts = TaskSet::new(tasks).expect("set");
            let platform = platform(2, d_mem);
            let check = AdmissionCheck::new(&ts, Time::from_cycles(d_mem));
            let cores: Vec<usize> = ts.iter().map(|t| t.core().index()).collect();
            if check.admit(&cores, 2) == Admission::Admitted {
                return Ok(());
            }
            let ctx = AnalysisContext::new(&platform, &ts).expect("context");
            for bus in [
                BusPolicy::FixedPriority,
                BusPolicy::RoundRobin { slots: 2 },
                BusPolicy::Tdma { slots: 2 },
                BusPolicy::Perfect,
            ] {
                for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                    let result = analyze(&ctx, &AnalysisConfig::new(bus, mode));
                    prop_assert!(
                        !result.is_schedulable(),
                        "pruned but schedulable under {bus:?}/{mode:?}"
                    );
                }
            }
        }
    }
}
