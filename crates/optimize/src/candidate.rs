//! A point in the design space: partitioning × priorities × coloring.
//!
//! A [`Candidate`] is a cheap, plain-data description of one configuration
//! of a base task set, indexed by the base set's priority order (position
//! `k` refers to the task at `TaskId` `k` in the base set). Applying a
//! candidate rebuilds a concrete [`TaskSet`] for analysis; the base set is
//! never mutated.

use cpa_model::{CoreId, Priority, Task, TaskSet};

/// One design-space configuration of a base task set.
///
/// All three vectors have one entry per base task, in the base set's
/// priority order:
///
/// * `cores[k]` — the core the task is partitioned onto;
/// * `ranks[k]` — its priority rank (a permutation of `0..n`; rank 0 is
///   the highest priority, so after [`Candidate::apply`] the task occupies
///   `TaskId` `ranks[k]`);
/// * `shifts[k]` — the cache-coloring rotation, in cache sets, applied to
///   its ECB/UCB/PCB footprints (see `CacheBlockSet::rotated`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// Per-task core assignment.
    pub cores: Vec<usize>,
    /// Per-task priority rank; a permutation of `0..n`.
    pub ranks: Vec<u32>,
    /// Per-task cache-set rotation.
    pub shifts: Vec<usize>,
}

impl Candidate {
    /// The configuration the base set already has: same cores, same
    /// relative priority order, no recoloring. Evaluating this candidate
    /// scores the *default* design the optimizer must beat.
    #[must_use]
    pub fn identity(base: &TaskSet) -> Candidate {
        Candidate {
            cores: base.iter().map(|t| t.core().index()).collect(),
            // The base set is priority-sorted, so position == rank.
            ranks: (0..u32::try_from(base.len()).expect("task count fits u32")).collect(),
            shifts: vec![0; base.len()],
        }
    }

    /// Rebuilds the concrete task set this candidate describes.
    ///
    /// Priority levels are renumbered to the ranks themselves; the analysis
    /// depends only on the relative order, so the identity candidate is
    /// analysis-equivalent to the base set.
    ///
    /// # Panics
    ///
    /// Panics if the candidate was corrupted (ranks not a permutation, core
    /// or shift vectors of the wrong length) — the search only constructs
    /// well-formed candidates.
    #[must_use]
    pub fn apply(&self, base: &TaskSet) -> TaskSet {
        assert_eq!(self.cores.len(), base.len(), "core vector length");
        assert_eq!(self.ranks.len(), base.len(), "rank vector length");
        assert_eq!(self.shifts.len(), base.len(), "shift vector length");
        let tasks: Vec<Task> = base
            .iter()
            .enumerate()
            .map(|(k, t)| {
                Task::builder(t.name())
                    .processing_demand(t.processing_demand())
                    .memory_demand(t.memory_demand())
                    .residual_memory_demand(t.residual_memory_demand())
                    .period(t.period())
                    .deadline(t.deadline())
                    .core(CoreId::new(self.cores[k]))
                    .priority(Priority::new(self.ranks[k]))
                    .ecb(t.ecb().rotated(self.shifts[k]))
                    .ucb(t.ucb().rotated(self.shifts[k]))
                    .pcb(t.pcb().rotated(self.shifts[k]))
                    .build()
                    .expect("rotation and reassignment preserve task invariants")
            })
            .collect();
        TaskSet::new(tasks).expect("candidate ranks form a permutation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_model::{CacheBlockSet, Time};

    fn base() -> TaskSet {
        let mk = |name: &str, prio: u32, core: usize, start: usize| {
            Task::builder(name)
                .processing_demand(Time::from_cycles(50))
                .memory_demand(8)
                .residual_memory_demand(2)
                .period(Time::from_cycles(1_000))
                .deadline(Time::from_cycles(1_000))
                .core(CoreId::new(core))
                .priority(Priority::new(prio))
                .ecb(CacheBlockSet::contiguous(32, start, 8))
                .ucb(CacheBlockSet::contiguous(32, start, 4))
                .pcb(CacheBlockSet::contiguous(32, start + 4, 3))
                .build()
                .unwrap()
        };
        TaskSet::new(vec![mk("a", 5, 0, 0), mk("b", 7, 1, 8), mk("c", 9, 0, 16)]).unwrap()
    }

    #[test]
    fn identity_round_trips_the_base_set() {
        let set = base();
        let rebuilt = Candidate::identity(&set).apply(&set);
        assert_eq!(rebuilt.len(), set.len());
        for (a, b) in rebuilt.iter().zip(set.iter()) {
            assert_eq!(a.name(), b.name(), "priority order preserved");
            assert_eq!(a.core(), b.core());
            assert_eq!(a.ecb(), b.ecb());
        }
    }

    #[test]
    fn apply_reorders_reassigns_and_recolors() {
        let set = base();
        let candidate = Candidate {
            cores: vec![1, 0, 0],
            ranks: vec![2, 0, 1], // "a" drops to the lowest priority
            shifts: vec![16, 0, 8],
        };
        let rebuilt = candidate.apply(&set);
        // Rank r lands at TaskId r.
        let names: Vec<&str> = rebuilt.iter().map(Task::name).collect();
        assert_eq!(names, ["b", "c", "a"]);
        assert_eq!(
            rebuilt.iter().map(|t| t.core().index()).collect::<Vec<_>>(),
            [0, 0, 1]
        );
        // "a" (ECB sets 0..8, shift 16) now occupies 16..24.
        let a = rebuilt.get(rebuilt.id_of("a").unwrap()).unwrap();
        assert_eq!(a.ecb(), &CacheBlockSet::contiguous(32, 16, 8));
        assert_eq!(a.ucb(), &CacheBlockSet::contiguous(32, 16, 4));
    }
}
