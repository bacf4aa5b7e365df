//! Multi-job memory access demand under cache persistence (Eq. (10)).

/// `M̂D_i(n)`: upper bound on the total bus accesses of `n` successive jobs
/// of a task executing in isolation (Eq. (10)):
///
/// ```text
/// M̂D_i(n) = min( n · MD_i ;  n · MD_i^r + |PCB_i| )
/// ```
///
/// The first branch charges every job its isolation demand; the second
/// charges every job only the residual demand plus a one-off load of all
/// persistent blocks. Taking the minimum keeps the bound sound even for
/// parameter sets (such as the published Mälardalen table, where the
/// extraction tool reports demands in cycles) where
/// `MD_i > MD_i^r + |PCB_i|` does not hold per job.
///
/// # Example
///
/// Fig. 1's `τ1` (`MD = 6`, `MD^r = 1`, `|PCB| = 5`): three jobs in
/// isolation load `6 + 1 + 1 = 8` blocks, not `18`.
///
/// ```
/// use cpa_analysis::demand::md_hat_parts;
/// assert_eq!(md_hat_parts(6, 1, 5, 3), 8);
/// assert_eq!(md_hat_parts(6, 1, 5, 1), 6);
/// ```
#[must_use]
pub fn md_hat_parts(md: u64, md_r: u64, pcb_len: u64, jobs: u64) -> u64 {
    let full = jobs.saturating_mul(md);
    let persistent = jobs.saturating_mul(md_r).saturating_add(pcb_len);
    full.min(persistent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_model::{CacheBlockSet, CoreId, Priority, Task, Time};
    use proptest::prelude::*;

    #[test]
    fn zero_jobs_demand_nothing() {
        assert_eq!(md_hat_parts(10, 2, 4, 0), 0);
    }

    #[test]
    fn single_job_pays_at_most_md() {
        // min(MD, MD^r + |PCB|): whichever branch is smaller.
        assert_eq!(md_hat_parts(10, 2, 4, 1), 6);
        assert_eq!(md_hat_parts(5, 2, 4, 1), 5);
    }

    #[test]
    fn no_persistence_benefit_when_md_r_equals_md() {
        for n in 0..10 {
            assert_eq!(md_hat_parts(7, 7, 0, n), 7 * n);
            // Even with PCBs, md_r = md means the first branch wins.
            assert_eq!(md_hat_parts(7, 7, 3, n), 7 * n);
        }
    }

    #[test]
    fn fig1_tau3_four_jobs() {
        // MD=6, MD^r=1, |PCB|=5: M̂D(4) = min(24, 9) = 9 (the paper's
        // "MD_3 + 3·MD_3^r = 9").
        assert_eq!(md_hat_parts(6, 1, 5, 4), 9);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        assert_eq!(md_hat_parts(u64::MAX, 1, 1, 2), 3);
        assert_eq!(md_hat_parts(u64::MAX, u64::MAX, u64::MAX, 2), u64::MAX);
    }

    #[test]
    fn task_wrapper_reads_fields() {
        let t = Task::builder("t")
            .processing_demand(Time::from_cycles(1))
            .memory_demand(6)
            .residual_memory_demand(1)
            .period(Time::from_cycles(100))
            .deadline(Time::from_cycles(100))
            .core(CoreId::new(0))
            .priority(Priority::new(1))
            .ecb(CacheBlockSet::contiguous(16, 0, 6))
            .pcb(CacheBlockSet::contiguous(16, 0, 5))
            .build()
            .unwrap();
        // The spec's Eq. (10) reads the same fields off the task.
        let parts = md_hat_parts(
            t.memory_demand(),
            t.residual_memory_demand(),
            t.pcb().len() as u64,
            3,
        );
        assert_eq!(parts, 8);
        assert_eq!(crate::spec::md_hat(&t, 3), Ok(parts));
    }

    proptest! {
        #[test]
        fn never_exceeds_oblivious_bound(
            md in 0u64..10_000,
            md_r_frac in 0u64..10_000,
            pcb in 0u64..512,
            n in 0u64..1_000,
        ) {
            let md_r = md_r_frac.min(md);
            prop_assert!(md_hat_parts(md, md_r, pcb, n) <= n.saturating_mul(md));
        }

        #[test]
        fn monotone_in_jobs(
            md in 0u64..10_000,
            md_r_frac in 0u64..10_000,
            pcb in 0u64..512,
            n in 0u64..1_000,
        ) {
            let md_r = md_r_frac.min(md);
            prop_assert!(md_hat_parts(md, md_r, pcb, n) <= md_hat_parts(md, md_r, pcb, n + 1));
        }

        #[test]
        fn subadditive_across_window_splits(
            md in 0u64..10_000,
            md_r_frac in 0u64..10_000,
            pcb in 0u64..512,
            a in 0u64..500,
            b in 0u64..500,
        ) {
            // Splitting a run of jobs into two runs can only add (re)loads:
            // M̂D(a + b) ≤ M̂D(a) + M̂D(b).
            let md_r = md_r_frac.min(md);
            prop_assert!(
                md_hat_parts(md, md_r, pcb, a + b)
                    <= md_hat_parts(md, md_r, pcb, a) + md_hat_parts(md, md_r, pcb, b)
            );
        }
    }
}
