//! Partitioned task sets with a unique global priority order.

use std::fmt;
use std::ops::Index;

use serde::{Deserialize, Serialize};

use crate::{ContentHasher, CoreId, ModelError, Platform, Task, TaskId, Time};

/// An immutable set of tasks with a unique, global, fixed-priority order,
/// statically partitioned onto cores.
///
/// On construction the tasks are sorted by decreasing priority, so
/// [`TaskId`]s are *priority ranks*: `TaskId::new(0)` is the paper's `τ1`
/// (highest priority) and `TaskId::new(n-1)` is `τn`. This makes the index
/// algebra of §II trivial: `hp(i)` is the prefix of ids before `i`, `lp(i)`
/// the suffix after it, and `aff(i, j) = hep(i) ∩ lp(j)` the ids in
/// `(j, i]`.
///
/// # Example
///
/// ```
/// use cpa_model::{CoreId, Priority, Task, TaskId, TaskSet, Time};
///
/// # fn main() -> Result<(), cpa_model::ModelError> {
/// let mk = |name: &str, prio: u32, core: usize| -> Result<Task, cpa_model::ModelError> {
///     Task::builder(name)
///         .processing_demand(Time::from_cycles(10))
///         .memory_demand(2)
///         .period(Time::from_cycles(100))
///         .deadline(Time::from_cycles(100))
///         .core(CoreId::new(core))
///         .priority(Priority::new(prio))
///         .cache_sets(16)
///         .build()
/// };
/// // Insertion order does not matter; priority does.
/// let tasks = TaskSet::new(vec![mk("low", 9, 0)?, mk("high", 1, 1)?])?;
/// assert_eq!(tasks[TaskId::new(0)].name(), "high");
/// assert_eq!(tasks.hp(TaskId::new(1)).count(), 1);
/// assert_eq!(tasks.on_core(CoreId::new(0)).count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "Vec<Task>", into = "Vec<Task>")]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl From<TaskSet> for Vec<Task> {
    /// The sorted tasks — the inverse of [`TaskSet::from_sorted_parts`],
    /// for hot paths that patch a few tasks in place and reassemble
    /// instead of rebuilding from scratch.
    fn from(set: TaskSet) -> Vec<Task> {
        set.tasks
    }
}

impl TryFrom<Vec<Task>> for TaskSet {
    type Error = ModelError;

    /// Same as [`TaskSet::new`]: deserialized task sets are re-validated.
    fn try_from(tasks: Vec<Task>) -> Result<TaskSet, ModelError> {
        TaskSet::new(tasks)
    }
}

/// The most tasks one task set may hold.
///
/// The paper's largest set has 80 tasks. The analysis keeps two `n × n`
/// tables per task set (the CRPD `γ` and CPRO overlap tables), so an
/// unbounded `n` would let one input exhaust memory; at this ceiling the
/// tables take 256 MiB together. [`TaskSet::new`] (and so every JSON
/// input) and the workload generator reject anything larger with
/// [`ModelError::InvalidTaskSet`].
pub const MAX_TASKS: usize = 4_096;

impl TaskSet {
    /// Creates a task set, sorting by priority and validating global
    /// invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTaskSet`] if the set is empty or holds
    /// more than [`MAX_TASKS`] tasks, two tasks share a priority level, or
    /// the tasks' cache-block sets were built for different cache
    /// geometries.
    pub fn new(mut tasks: Vec<Task>) -> Result<Self, ModelError> {
        if tasks.is_empty() {
            return Err(ModelError::InvalidTaskSet {
                reason: "task set is empty".into(),
            });
        }
        if tasks.len() > MAX_TASKS {
            return Err(ModelError::InvalidTaskSet {
                reason: format!(
                    "{} tasks exceed the limit of {MAX_TASKS} per task set",
                    tasks.len()
                ),
            });
        }
        tasks.sort_by_key(|t| t.priority());
        for pair in tasks.windows(2) {
            if pair[0].priority() == pair[1].priority() {
                return Err(ModelError::InvalidTaskSet {
                    reason: format!(
                        "tasks `{}` and `{}` share priority {}",
                        pair[0].name(),
                        pair[1].name(),
                        pair[0].priority()
                    ),
                });
            }
        }
        let capacity = tasks[0].ecb().capacity();
        if let Some(bad) = tasks.iter().find(|t| t.ecb().capacity() != capacity) {
            return Err(ModelError::InvalidTaskSet {
                reason: format!(
                    "task `{}` uses {} cache sets but the set was built for {}",
                    bad.name(),
                    bad.ecb().capacity(),
                    capacity
                ),
            });
        }
        Ok(TaskSet { tasks })
    }

    /// Assembles a task set from tasks the caller has already validated
    /// — the hot-path constructor for code that builds many
    /// near-identical sets (the optimizer applies thousands of candidate
    /// configurations per search, and re-sorting and re-validating every
    /// set dominated its evaluation cost).
    ///
    /// # Caller contract
    ///
    /// `tasks` must already be sorted by strictly increasing priority,
    /// share one cache capacity, and be non-empty. Every invariant is
    /// `debug_assert`ed, so a violating caller fails loudly under
    /// `cargo test`; release builds trust the contract. Sets built here
    /// are indistinguishable from [`TaskSet::new`] output — same order,
    /// same bytes.
    #[must_use]
    pub fn from_sorted_parts(tasks: Vec<Task>) -> TaskSet {
        debug_assert!(!tasks.is_empty(), "task set is empty");
        debug_assert!(
            tasks.windows(2).all(|p| p[0].priority() < p[1].priority()),
            "tasks must be sorted by strictly increasing priority"
        );
        debug_assert!(
            tasks
                .iter()
                .all(|t| t.ecb().capacity() == tasks[0].ecb().capacity()),
            "tasks must share one cache capacity"
        );
        TaskSet { tasks }
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` if the set has no tasks (never true for a constructed
    /// set, but kept for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of cache sets all footprints in this set range over.
    #[must_use]
    pub fn cache_sets(&self) -> usize {
        self.tasks[0].ecb().capacity()
    }

    /// Iterates over the tasks in priority order (highest first).
    pub fn iter(&self) -> std::slice::Iter<'_, Task> {
        self.tasks.iter()
    }

    /// Iterates over all task ids in priority order.
    pub fn ids(&self) -> impl DoubleEndedIterator<Item = TaskId> + ExactSizeIterator {
        (0..self.tasks.len()).map(TaskId::new)
    }

    /// Returns the task with the given id, if any.
    #[must_use]
    pub fn get(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.index())
    }

    /// Finds the id of the task with the given name.
    #[must_use]
    pub fn id_of(&self, name: &str) -> Option<TaskId> {
        self.tasks
            .iter()
            .position(|t| t.name() == name)
            .map(TaskId::new)
    }

    /// The id of the lowest-priority task `τn` (used by the round-robin
    /// bound, Eq. (8), which charges other cores at `BAO_n`).
    #[must_use]
    pub fn lowest_priority_id(&self) -> TaskId {
        TaskId::new(self.tasks.len() - 1)
    }

    /// `hp(i)`: ids of tasks with strictly higher priority than `i`.
    pub fn hp(&self, i: TaskId) -> impl DoubleEndedIterator<Item = TaskId> + ExactSizeIterator {
        (0..i.index()).map(TaskId::new)
    }

    /// `hep(i) = hp(i) ∪ {i}`.
    pub fn hep(&self, i: TaskId) -> impl DoubleEndedIterator<Item = TaskId> + ExactSizeIterator {
        (0..i.index() + 1).map(TaskId::new)
    }

    /// `lp(i)`: ids of tasks with strictly lower priority than `i`.
    pub fn lp(&self, i: TaskId) -> impl DoubleEndedIterator<Item = TaskId> + ExactSizeIterator {
        (i.index() + 1..self.tasks.len()).map(TaskId::new)
    }

    /// `aff(i, j) = hep(i) ∩ lp(j)`: the intermediate tasks that may be
    /// preempted by `τj` while executing within the response time of `τi`.
    ///
    /// Empty unless `j` has higher priority than `i`.
    pub fn aff(
        &self,
        i: TaskId,
        j: TaskId,
    ) -> impl DoubleEndedIterator<Item = TaskId> + ExactSizeIterator {
        let lo = j.index() + 1;
        let hi = (i.index() + 1).max(lo);
        (lo..hi).map(TaskId::new)
    }

    /// `Γ_x`: ids of tasks assigned to `core`, in priority order.
    pub fn on_core(&self, core: CoreId) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .filter(move |(_, t)| t.core() == core)
            .map(|(idx, _)| TaskId::new(idx))
    }

    /// `Γ_x ∩ hp(i)`.
    pub fn hp_on(&self, i: TaskId, core: CoreId) -> impl Iterator<Item = TaskId> + '_ {
        self.hp(i).filter(move |&j| self[j].core() == core)
    }

    /// `Γ_x ∩ hep(i)`.
    pub fn hep_on(&self, i: TaskId, core: CoreId) -> impl Iterator<Item = TaskId> + '_ {
        self.hep(i).filter(move |&j| self[j].core() == core)
    }

    /// `Γ_x ∩ lp(i)`.
    pub fn lp_on(&self, i: TaskId, core: CoreId) -> impl Iterator<Item = TaskId> + '_ {
        self.lp(i).filter(move |&j| self[j].core() == core)
    }

    /// `Γ_x ∩ aff(i, j)`.
    pub fn aff_on(&self, i: TaskId, j: TaskId, core: CoreId) -> impl Iterator<Item = TaskId> + '_ {
        self.aff(i, j).filter(move |&g| self[g].core() == core)
    }

    /// The set of distinct cores that have at least one task, in increasing
    /// index order.
    #[must_use]
    pub fn cores(&self) -> Vec<CoreId> {
        let mut cores: Vec<CoreId> = self.tasks.iter().map(Task::core).collect();
        cores.sort_unstable();
        cores.dedup();
        cores
    }

    /// Total utilization `Σ (PD_i + MD_i·d_mem) / T_i` across all tasks.
    #[must_use]
    pub fn total_utilization(&self, d_mem: Time) -> f64 {
        self.tasks.iter().map(|t| t.utilization(d_mem)).sum()
    }

    /// Checks that every task's core exists on `platform` and that footprint
    /// capacities match the platform's cache geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CoreOutOfRange`] or
    /// [`ModelError::InvalidTaskSet`] accordingly.
    pub fn validate_against(&self, platform: &Platform) -> Result<(), ModelError> {
        for task in &self.tasks {
            if task.core().index() >= platform.cores() {
                return Err(ModelError::CoreOutOfRange {
                    task: task.name().to_string(),
                    core: task.core().index(),
                    cores: platform.cores(),
                });
            }
        }
        if self.cache_sets() != platform.cache().sets() {
            return Err(ModelError::InvalidTaskSet {
                reason: format!(
                    "task footprints use {} cache sets but the platform cache has {}",
                    self.cache_sets(),
                    platform.cache().sets()
                ),
            });
        }
        Ok(())
    }

    /// Canonical 64-bit content hash of the task set — the cache-key
    /// primitive of the `cpa-optimize` content-addressed result cache.
    ///
    /// The hash covers every semantic field of every task, visited in
    /// priority order. Because [`TaskSet::new`] sorts tasks by priority
    /// (and deserialization funnels through it), the hash is invariant
    /// under the orderings a cache key must not depend on:
    ///
    /// * **task reordering** — shuffling the `Vec<Task>` handed to
    ///   [`TaskSet::new`], or the array elements of the JSON encoding;
    /// * **serialization round trips** — `to_json` → `from_json` re-builds
    ///   field-identical tasks, so the hash is stable across any number of
    ///   round trips (all fields are integers and strings; no
    ///   floating-point drift is possible).
    ///
    /// Two semantically different sets hash differently up to 64-bit
    /// collisions; field boundaries are length-prefixed so adjacent
    /// variable-length fields cannot alias (see [`ContentHasher`]).
    ///
    /// ```
    /// # use cpa_model::{CoreId, Priority, Task, TaskSet, Time};
    /// # fn main() -> Result<(), cpa_model::ModelError> {
    /// # let mk = |name: &str, prio: u32| Task::builder(name)
    /// #     .processing_demand(Time::from_cycles(10))
    /// #     .memory_demand(2)
    /// #     .period(Time::from_cycles(100))
    /// #     .deadline(Time::from_cycles(100))
    /// #     .core(CoreId::new(0))
    /// #     .priority(Priority::new(prio))
    /// #     .cache_sets(16)
    /// #     .build()
    /// #     .unwrap();
    /// let a = TaskSet::new(vec![mk("x", 1), mk("y", 2)])?;
    /// let b = TaskSet::new(vec![mk("y", 2), mk("x", 1)])?;
    /// assert_eq!(a.content_hash(), b.content_hash());
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut hasher = ContentHasher::new();
        self.hash_content(&mut hasher);
        hasher.finish()
    }

    /// Feeds the set's canonical encoding into an existing
    /// [`ContentHasher`], for callers that fold more context (bus policy,
    /// search parameters) into one composite key: the task count, the
    /// cache capacity, then one word per task in priority order, that
    /// task's own [`Task::hash_content`] digest.
    pub fn hash_content(&self, hasher: &mut ContentHasher) {
        hasher.write_usize(self.tasks.len());
        hasher.write_usize(self.cache_sets());
        for task in &self.tasks {
            let mut task_hasher = ContentHasher::new();
            task.hash_content(&mut task_hasher);
            hasher.write_u64(task_hasher.finish());
        }
    }

    /// Serializes the task set as pretty-printed JSON (an array of task
    /// records). This is the on-disk format used by generated workloads and
    /// validation repro files; [`TaskSet::from_json`] reads it back.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("task set serialization is infallible")
    }

    /// Parses a task set from the JSON produced by [`TaskSet::to_json`].
    ///
    /// All task and set invariants are re-validated, so hand-edited files
    /// cannot smuggle in inconsistent states (e.g. `MD^r > MD` or duplicate
    /// priorities).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTaskSet`] on malformed JSON or when the
    /// decoded tasks violate an invariant.
    pub fn from_json(json: &str) -> Result<Self, ModelError> {
        serde_json::from_str(json).map_err(|e| ModelError::InvalidTaskSet {
            reason: e.to_string(),
        })
    }
}

impl Index<TaskId> for TaskSet {
    type Output = Task;

    /// # Panics
    ///
    /// Panics if `id` is out of range for this task set.
    fn index(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }
}

impl fmt::Display for TaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TaskSet ({} tasks):", self.tasks.len())?;
        for task in &self.tasks {
            writeln!(f, "  {task}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = std::slice::Iter<'a, Task>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheGeometry, Priority};

    fn task(name: &str, prio: u32, core: usize) -> Task {
        Task::builder(name)
            .processing_demand(Time::from_cycles(10))
            .memory_demand(4)
            .period(Time::from_cycles(100))
            .deadline(Time::from_cycles(100))
            .core(CoreId::new(core))
            .priority(Priority::new(prio))
            .cache_sets(16)
            .build()
            .unwrap()
    }

    fn four_tasks() -> TaskSet {
        TaskSet::new(vec![
            task("d", 40, 1),
            task("b", 20, 0),
            task("a", 10, 0),
            task("c", 30, 1),
        ])
        .unwrap()
    }

    #[test]
    fn sorted_by_priority() {
        let ts = four_tasks();
        let names: Vec<&str> = ts.iter().map(Task::name).collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
        assert_eq!(ts[TaskId::new(0)].priority(), Priority::new(10));
        assert_eq!(ts.lowest_priority_id(), TaskId::new(3));
    }

    #[test]
    fn rejects_empty_and_duplicate_priorities() {
        assert!(TaskSet::new(vec![]).is_err());
        let err = TaskSet::new(vec![task("x", 5, 0), task("y", 5, 1)]).unwrap_err();
        assert!(err.to_string().contains("share priority"));
    }

    #[test]
    fn accepts_the_task_ceiling_and_rejects_one_more() {
        let tasks = |n: usize| -> Vec<Task> {
            (0..n)
                .map(|i| task(&format!("t{i}"), i as u32, i % 4))
                .collect()
        };
        assert_eq!(TaskSet::new(tasks(MAX_TASKS)).unwrap().len(), MAX_TASKS);
        let err = TaskSet::new(tasks(MAX_TASKS + 1)).unwrap_err();
        assert!(matches!(err, ModelError::InvalidTaskSet { .. }));
        assert!(err
            .to_string()
            .contains("4097 tasks exceed the limit of 4096"));
        let json = serde_json::to_string(&tasks(MAX_TASKS + 1)).unwrap();
        let err = TaskSet::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("exceed the limit"), "{err}");
    }

    #[test]
    fn rejects_mixed_cache_geometries() {
        let other = Task::builder("z")
            .processing_demand(Time::from_cycles(1))
            .memory_demand(1)
            .period(Time::from_cycles(10))
            .deadline(Time::from_cycles(10))
            .core(CoreId::new(0))
            .priority(Priority::new(99))
            .cache_sets(32)
            .build()
            .unwrap();
        let err = TaskSet::new(vec![task("a", 1, 0), other]).unwrap_err();
        assert!(err.to_string().contains("cache sets"));
    }

    #[test]
    fn index_algebra() {
        let ts = four_tasks();
        let i = TaskId::new(2); // "c"
        let j = TaskId::new(0); // "a"
        assert_eq!(
            ts.hp(i).collect::<Vec<_>>(),
            vec![TaskId::new(0), TaskId::new(1)]
        );
        assert_eq!(ts.hep(i).count(), 3);
        assert_eq!(ts.lp(i).collect::<Vec<_>>(), vec![TaskId::new(3)]);
        // aff(c, a) = hep(c) ∩ lp(a) = {b, c}
        assert_eq!(
            ts.aff(i, j).collect::<Vec<_>>(),
            vec![TaskId::new(1), TaskId::new(2)]
        );
        // aff with j lower-priority than i is empty
        assert_eq!(ts.aff(j, i).count(), 0);
        // aff(i, i) is empty too: a task cannot preempt itself.
        assert_eq!(ts.aff(i, i).count(), 0);
    }

    #[test]
    fn core_partitions() {
        let ts = four_tasks();
        let core0: Vec<&str> = ts.on_core(CoreId::new(0)).map(|id| ts[id].name()).collect();
        assert_eq!(core0, ["a", "b"]);
        let i = TaskId::new(3); // "d" on core 1
        let hp_on1: Vec<&str> = ts
            .hp_on(i, CoreId::new(1))
            .map(|id| ts[id].name())
            .collect();
        assert_eq!(hp_on1, ["c"]);
        assert_eq!(ts.hep_on(i, CoreId::new(1)).count(), 2);
        assert_eq!(ts.lp_on(TaskId::new(0), CoreId::new(1)).count(), 2);
        assert_eq!(ts.cores(), vec![CoreId::new(0), CoreId::new(1)]);
    }

    #[test]
    fn utilizations() {
        let ts = four_tasks();
        let d_mem = Time::from_cycles(5);
        // Each task: (10 + 4*5)/100 = 0.3
        assert!((ts.total_utilization(d_mem) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn validate_against_platform() {
        let ts = four_tasks();
        let ok = Platform::builder()
            .cores(2)
            .cache(CacheGeometry::direct_mapped(16, 32))
            .memory_latency(Time::from_cycles(5))
            .build()
            .unwrap();
        assert!(ts.validate_against(&ok).is_ok());

        let too_few_cores = Platform::builder()
            .cores(1)
            .cache(CacheGeometry::direct_mapped(16, 32))
            .memory_latency(Time::from_cycles(5))
            .build()
            .unwrap();
        assert!(matches!(
            ts.validate_against(&too_few_cores),
            Err(ModelError::CoreOutOfRange { .. })
        ));

        let wrong_cache = Platform::builder()
            .cores(2)
            .cache(CacheGeometry::direct_mapped(64, 32))
            .memory_latency(Time::from_cycles(5))
            .build()
            .unwrap();
        assert!(ts.validate_against(&wrong_cache).is_err());
    }

    #[test]
    fn serde_round_trip_and_revalidation() {
        let ts = four_tasks();
        let json = serde_json::to_string(&ts).unwrap();
        let back: TaskSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ts);
        // Duplicate priorities are rejected at deserialization time.
        let a = serde_json::to_string(&task("a", 5, 0)).unwrap();
        let dup = format!("[{a},{a}]");
        let err = serde_json::from_str::<TaskSet>(&dup).unwrap_err();
        assert!(err.to_string().contains("share priority"), "{err}");
        // And the empty set too.
        assert!(serde_json::from_str::<TaskSet>("[]").is_err());
    }

    #[test]
    fn json_round_trip_preserves_footprints() {
        use crate::CacheBlockSet;

        let rich = Task::builder("rich")
            .processing_demand(Time::from_cycles(40))
            .memory_demand(6)
            .residual_memory_demand(2)
            .period(Time::from_cycles(200))
            .deadline(Time::from_cycles(150))
            .core(CoreId::new(0))
            .priority(Priority::new(1))
            .ecb(CacheBlockSet::from_blocks(16, [0, 1, 2, 5, 9]).unwrap())
            .ucb(CacheBlockSet::from_blocks(16, [1, 5]).unwrap())
            .pcb(CacheBlockSet::from_blocks(16, [0, 2, 9]).unwrap())
            .build()
            .unwrap();
        let ts = TaskSet::new(vec![rich, task("plain", 7, 1)]).unwrap();

        let json = ts.to_json();
        let back = TaskSet::from_json(&json).unwrap();
        assert_eq!(back, ts);
        // The convenience round trip agrees with plain serde_json.
        let via_serde: TaskSet = serde_json::from_str(&json).unwrap();
        assert_eq!(via_serde, ts);

        let r = back.id_of("rich").unwrap();
        assert_eq!(back[r].residual_memory_demand(), 2);
        assert_eq!(back[r].ucb().len(), 2);
        assert_eq!(back[r].pcb().len(), 3);
    }

    #[test]
    fn from_json_rejects_garbage_and_invalid_tasks() {
        let err = TaskSet::from_json("not json").unwrap_err();
        assert!(matches!(err, ModelError::InvalidTaskSet { .. }));

        // A tampered repro file cannot smuggle in `MD^r > MD` (`md_r`
        // defaults to `md`, 4 for these tasks).
        let json = four_tasks()
            .to_json()
            .replace("\"md_r\": 4", "\"md_r\": 99");
        let err = TaskSet::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("exceeds memory demand"), "{err}");
    }

    #[test]
    fn lookup_and_iteration() {
        let ts = four_tasks();
        assert_eq!(ts.id_of("c"), Some(TaskId::new(2)));
        assert_eq!(ts.id_of("zz"), None);
        assert!(ts.get(TaskId::new(99)).is_none());
        assert_eq!((&ts).into_iter().count(), 4);
        assert_eq!(ts.ids().count(), 4);
        assert!(!ts.is_empty());
        assert!(ts.to_string().contains("4 tasks"));
    }
}
