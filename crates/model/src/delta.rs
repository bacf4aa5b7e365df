//! Task-set fingerprints and deltas for incremental re-analysis.
//!
//! Campaign sweeps and optimizer searches solve long chains of *related*
//! task sets: adjacent candidates differ in one task's core, rank or
//! cache coloring, and consecutive configurations of the same set differ
//! in nothing at all. The analysis engine can retain per-task and
//! per-`(core, split)` cached state across such solves — but only when it
//! can *certify* that the retained entries were derived from identical
//! inputs. A [`TaskSetFingerprint`] captures exactly the inputs the
//! engine's caches consume (the canonical per-task content hashes of
//! [`crate::Task::hash_content`], which cover every semantic field
//! including core and priority, plus each task's position and core
//! index); a [`TaskSetDelta`] compares two fingerprints and answers the
//! two certification queries the engine asks:
//!
//! * [`TaskSetDelta::unchanged_prefix`] — the number of leading tasks
//!   (in the canonical priority order) that are bitwise-identical in
//!   content *and* global index. The CRPD/CPRO tables are filled by a
//!   running-union sweep in ascending id order, so every table entry
//!   `(a, b)` with `max(a, b) < unchanged_prefix` is provably unchanged.
//! * [`TaskSetDelta::core_stable`] — whether *every* task mapped to a
//!   core (in either the old or the new set) lies inside the unchanged
//!   prefix, i.e. the core's member list and all member-dependent table
//!   rows are provably unchanged.
//!
//! Partial re-solve (DESIGN.md §16) asks two finer-grained queries that
//! look *past* the first divergence:
//!
//! * [`TaskSetDelta::task_unchanged`] — whether the task at one global
//!   index is identical in content and core in both sets, regardless of
//!   what happened at lower indices.
//! * [`TaskSetDelta::core_untouched`] — whether every task on a core (in
//!   either set) is individually unchanged, so the core's member list,
//!   its per-pair CRPD/CPRO table rows, and every member's hp set are
//!   provably identical even when *other* cores diverged.
//!
//! The fingerprint deliberately stores only hashes and core indices: a
//! worker can keep the fingerprint of the previous solve without keeping
//! the previous [`TaskSet`](crate::TaskSet) alive.

use crate::TaskSet;

/// Canonical per-task content hashes plus core assignment of one task
/// set — the comparison key for [`TaskSetDelta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSetFingerprint {
    /// Per-task canonical content hash, in priority (id) order.
    task_hashes: Vec<u64>,
    /// Per-task core index, same order.
    cores: Vec<usize>,
    /// Cache geometry the block sets were encoded against.
    cache_sets: usize,
}

impl TaskSetFingerprint {
    /// Fingerprints `tasks` in its canonical priority order.
    #[must_use]
    pub fn of(tasks: &TaskSet) -> Self {
        TaskSetFingerprint {
            task_hashes: tasks.task_content_hashes().to_vec(),
            cores: tasks.iter().map(|t| t.core().index()).collect(),
            cache_sets: tasks.cache_sets(),
        }
    }

    /// Number of tasks fingerprinted.
    #[must_use]
    pub fn len(&self) -> usize {
        self.task_hashes.len()
    }

    /// Whether the fingerprint covers no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.task_hashes.is_empty()
    }

    /// Compares `self` (the previous solve) against `next` (the upcoming
    /// solve) and derives the certified-unchanged structure.
    #[must_use]
    pub fn delta(&self, next: &TaskSetFingerprint) -> TaskSetDelta {
        let unchanged_prefix = if self.cache_sets == next.cache_sets {
            self.task_hashes
                .iter()
                .zip(&next.task_hashes)
                .zip(self.cores.iter().zip(&next.cores))
                .take_while(|((ha, hb), (ca, cb))| ha == hb && ca == cb)
                .count()
        } else {
            0
        };
        let len = self.len().max(next.len());
        let mut unchanged = vec![false; len];
        if self.cache_sets == next.cache_sets {
            for (i, slot) in unchanged
                .iter_mut()
                .enumerate()
                .take(self.len().min(next.len()))
            {
                *slot =
                    self.task_hashes[i] == next.task_hashes[i] && self.cores[i] == next.cores[i];
            }
        }
        let num_cores = self
            .cores
            .iter()
            .chain(&next.cores)
            .map(|&c| c + 1)
            .max()
            .unwrap_or(0);
        let mut core_stable = vec![true; num_cores];
        let mut core_untouched = vec![true; num_cores];
        for fp in [self, next] {
            for (idx, &core) in fp.cores.iter().enumerate() {
                if idx >= unchanged_prefix {
                    core_stable[core] = false;
                }
                if !unchanged[idx] {
                    core_untouched[core] = false;
                }
            }
        }
        TaskSetDelta {
            unchanged_prefix,
            identical: unchanged_prefix == self.len() && unchanged_prefix == next.len(),
            core_stable,
            unchanged,
            core_untouched,
        }
    }
}

/// The certified-unchanged structure between two task-set fingerprints
/// (see the module docs for the invalidation rules it encodes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSetDelta {
    unchanged_prefix: usize,
    identical: bool,
    core_stable: Vec<bool>,
    /// Per-index "identical in content and core in both sets" mask, sized
    /// to the longer fingerprint (indices present in only one set are
    /// `false`). All `false` when the cache geometries differ.
    unchanged: Vec<bool>,
    /// Per-core "every member in either set is unchanged" mask.
    core_untouched: Vec<bool>,
}

impl TaskSetDelta {
    /// Number of leading tasks identical in content and global index in
    /// both sets. Any cached value derived only from tasks below this
    /// index is provably unchanged.
    #[must_use]
    pub fn unchanged_prefix(&self) -> usize {
        self.unchanged_prefix
    }

    /// Whether the two sets are entirely identical.
    #[must_use]
    pub fn identical(&self) -> bool {
        self.identical
    }

    /// Whether every task on `core` — in *both* the old and the new set —
    /// lies inside the unchanged prefix, so the core's member list and
    /// every member-derived table row are unchanged.
    #[must_use]
    pub fn core_stable(&self, core: usize) -> bool {
        self.core_stable.get(core).copied().unwrap_or(true)
    }

    /// Whether the task at global index `idx` is identical in content and
    /// core assignment in both sets (false for indices present in only
    /// one of the two sets, and for every index when the cache geometries
    /// differ). Unlike [`unchanged_prefix`](Self::unchanged_prefix) this
    /// looks past the first divergence.
    #[must_use]
    pub fn task_unchanged(&self, idx: usize) -> bool {
        self.unchanged.get(idx).copied().unwrap_or(false)
    }

    /// Whether every task on `core` — in *both* sets — is individually
    /// [`task_unchanged`](Self::task_unchanged): the core's member list,
    /// its member-derived CRPD/CPRO rows, and each member's same-core hp
    /// set are then provably identical, even when other cores diverged.
    /// Cores beyond both sets' ranges are vacuously untouched.
    #[must_use]
    pub fn core_untouched(&self, core: usize) -> bool {
        self.core_untouched.get(core).copied().unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheBlockSet, CoreId, Priority, Task, Time};

    fn task(name: &str, prio: u32, core: usize, md: u64) -> Task {
        Task::builder(name)
            .processing_demand(Time::from_cycles(10))
            .memory_demand(md)
            .period(Time::from_cycles(100))
            .deadline(Time::from_cycles(100))
            .core(CoreId::new(core))
            .priority(Priority::new(prio))
            .ecb(CacheBlockSet::contiguous(16, 0, 4))
            .build()
            .unwrap()
    }

    fn set(tasks: Vec<Task>) -> TaskSet {
        TaskSet::new(tasks).unwrap()
    }

    #[test]
    fn identical_sets_have_full_prefix_and_stable_cores() {
        let a = set(vec![task("a", 1, 0, 2), task("b", 2, 1, 3)]);
        let b = set(vec![task("a", 1, 0, 2), task("b", 2, 1, 3)]);
        let delta = TaskSetFingerprint::of(&a).delta(&TaskSetFingerprint::of(&b));
        assert!(delta.identical());
        assert_eq!(delta.unchanged_prefix(), 2);
        assert!(delta.core_stable(0) && delta.core_stable(1));
    }

    #[test]
    fn changed_task_truncates_prefix_and_destabilises_its_core() {
        let a = set(vec![
            task("a", 1, 0, 2),
            task("b", 2, 1, 3),
            task("c", 3, 0, 4),
        ]);
        // τb's memory demand changes: prefix stops at 1, cores 0 and 1
        // both carry a task at index ≥ 1 so neither is stable.
        let b = set(vec![
            task("a", 1, 0, 2),
            task("b", 2, 1, 9),
            task("c", 3, 0, 4),
        ]);
        let delta = TaskSetFingerprint::of(&a).delta(&TaskSetFingerprint::of(&b));
        assert!(!delta.identical());
        assert_eq!(delta.unchanged_prefix(), 1);
        assert!(!delta.core_stable(0));
        assert!(!delta.core_stable(1));
    }

    #[test]
    fn tail_change_keeps_other_cores_stable() {
        let a = set(vec![
            task("a", 1, 0, 2),
            task("b", 2, 0, 3),
            task("c", 3, 1, 4),
        ]);
        let b = set(vec![
            task("a", 1, 0, 2),
            task("b", 2, 0, 3),
            task("c", 3, 1, 9),
        ]);
        let delta = TaskSetFingerprint::of(&a).delta(&TaskSetFingerprint::of(&b));
        assert_eq!(delta.unchanged_prefix(), 2);
        assert!(
            delta.core_stable(0),
            "core 0's tasks all sit below the change"
        );
        assert!(!delta.core_stable(1));
    }

    #[test]
    fn core_move_is_a_change() {
        let a = set(vec![task("a", 1, 0, 2), task("b", 2, 1, 3)]);
        let b = set(vec![task("a", 1, 1, 2), task("b", 2, 1, 3)]);
        let delta = TaskSetFingerprint::of(&a).delta(&TaskSetFingerprint::of(&b));
        assert_eq!(delta.unchanged_prefix(), 0);
    }

    #[test]
    fn length_mismatch_is_never_identical() {
        let a = set(vec![task("a", 1, 0, 2)]);
        let b = set(vec![task("a", 1, 0, 2), task("b", 2, 1, 3)]);
        let fa = TaskSetFingerprint::of(&a);
        let fb = TaskSetFingerprint::of(&b);
        let delta = fa.delta(&fb);
        assert!(!delta.identical());
        assert_eq!(delta.unchanged_prefix(), 1);
        assert!(!delta.core_stable(1));
        // Empty previous fingerprint: nothing certifiable.
        let empty = TaskSetFingerprint::of(&set(vec![task("x", 1, 0, 1)]));
        assert_eq!(empty.delta(&fb).unchanged_prefix(), 0);
    }

    #[test]
    fn per_task_mask_sees_past_first_divergence() {
        let a = set(vec![
            task("a", 1, 0, 2),
            task("b", 2, 1, 3),
            task("c", 3, 0, 4),
            task("d", 4, 2, 5),
        ]);
        // Only τb changes: the prefix stops at 1, but τc and τd are still
        // certified individually and cores 0/2 stay untouched.
        let b = set(vec![
            task("a", 1, 0, 2),
            task("b", 2, 1, 9),
            task("c", 3, 0, 4),
            task("d", 4, 2, 5),
        ]);
        let delta = TaskSetFingerprint::of(&a).delta(&TaskSetFingerprint::of(&b));
        assert_eq!(delta.unchanged_prefix(), 1);
        assert!(delta.task_unchanged(0));
        assert!(!delta.task_unchanged(1));
        assert!(delta.task_unchanged(2) && delta.task_unchanged(3));
        assert!(!delta.task_unchanged(4), "out of range is never certified");
        assert!(delta.core_untouched(0), "core 0 has only unchanged members");
        assert!(!delta.core_untouched(1));
        assert!(delta.core_untouched(2));
        assert!(delta.core_untouched(9), "absent cores vacuously untouched");
        assert!(!delta.core_stable(0), "prefix-based query stays coarse");
    }

    #[test]
    fn permuted_tasks_with_equal_content_hashes_are_positionally_changed() {
        // τa and τb swap priorities (and hence canonical positions) but
        // keep every other field. The *multiset* of content hashes other
        // than priority matches, yet positional certification must fail:
        // hash_content covers priority, and index identity is part of the
        // certification key.
        let a = set(vec![task("a", 1, 0, 2), task("b", 2, 0, 2)]);
        let b = set(vec![task("a", 2, 0, 2), task("b", 1, 0, 2)]);
        let delta = TaskSetFingerprint::of(&a).delta(&TaskSetFingerprint::of(&b));
        assert_eq!(delta.unchanged_prefix(), 0);
        assert!(!delta.task_unchanged(0) && !delta.task_unchanged(1));
        assert!(!delta.core_untouched(0));

        // Same swap with *fully* identical content (names differ only):
        // the content hashes at each index really are different because
        // the name participates in hash_content via the task identity.
        // Permuting two genuinely identical-hash tasks is unobservable by
        // construction, which is exactly why positional compare is sound.
        let c = set(vec![task("a", 1, 0, 2), task("b", 2, 0, 3)]);
        let d = set(vec![task("b", 1, 0, 2), task("a", 2, 0, 3)]);
        let swapped = TaskSetFingerprint::of(&c).delta(&TaskSetFingerprint::of(&d));
        assert_eq!(swapped.unchanged_prefix(), 0);
    }

    #[test]
    fn core_renumbering_destabilises_both_numberings() {
        // Swap the core indices 0 <-> 1 wholesale: the partition is
        // isomorphic but every per-core table row is keyed by index, so
        // nothing may be certified.
        let a = set(vec![task("a", 1, 0, 2), task("b", 2, 1, 3)]);
        let b = set(vec![task("a", 1, 1, 2), task("b", 2, 0, 3)]);
        let delta = TaskSetFingerprint::of(&a).delta(&TaskSetFingerprint::of(&b));
        assert_eq!(delta.unchanged_prefix(), 0);
        assert!(!delta.task_unchanged(0) && !delta.task_unchanged(1));
        assert!(!delta.core_untouched(0) && !delta.core_untouched(1));
        assert!(!delta.identical());
    }

    #[test]
    fn empty_and_singleton_fingerprints() {
        let empty = TaskSetFingerprint {
            task_hashes: Vec::new(),
            cores: Vec::new(),
            cache_sets: 16,
        };
        assert!(empty.is_empty());
        let ee = empty.delta(&empty.clone());
        assert!(ee.identical());
        assert_eq!(ee.unchanged_prefix(), 0);
        assert!(!ee.task_unchanged(0));
        assert!(ee.core_untouched(0));

        let single = TaskSetFingerprint::of(&set(vec![task("s", 1, 0, 2)]));
        let es = empty.delta(&single);
        assert!(!es.identical());
        assert!(!es.task_unchanged(0), "index exists in only one set");
        assert!(!es.core_untouched(0));
        let ss = single.delta(&single.clone());
        assert!(ss.identical());
        assert!(ss.task_unchanged(0));
        assert!(ss.core_untouched(0));
    }

    #[test]
    fn cache_geometry_change_voids_the_per_task_mask() {
        let a = set(vec![task("a", 1, 0, 2)]);
        let mut wider = TaskSetFingerprint::of(&a);
        wider.cache_sets = 32;
        let delta = TaskSetFingerprint::of(&a).delta(&wider);
        assert_eq!(delta.unchanged_prefix(), 0);
        assert!(!delta.task_unchanged(0));
        assert!(!delta.core_untouched(0));
    }
}
