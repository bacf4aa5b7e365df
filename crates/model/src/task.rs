//! Sporadic tasks with cache footprint information.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{CacheBlockSet, CoreId, ModelError, Priority, Time};

/// A sporadic, constrained-deadline task (§II of the paper).
///
/// A task is characterised by the quadruple `(PD_i, MD_i, D_i, T_i)`:
///
/// * `PD_i` — [`processing_demand`](Task::processing_demand): worst-case
///   execution time assuming every memory access hits in the cache;
/// * `MD_i` — [`memory_demand`](Task::memory_demand): worst-case number of
///   main-memory requests of any job executing in isolation;
/// * `D_i` — [`deadline`](Task::deadline), relative, with `D_i ≤ T_i`;
/// * `T_i` — [`period`](Task::period): minimum inter-arrival time;
///
/// extended by the cache-persistence parameters of §IV:
///
/// * `MD_i^r` — [`residual_memory_demand`](Task::residual_memory_demand):
///   worst-case memory demand of a job when all PCBs are already cached;
/// * `UCB_i`, `ECB_i`, `PCB_i` — useful, evicting and persistent cache
///   blocks ([`ucb`](Task::ucb), [`ecb`](Task::ecb), [`pcb`](Task::pcb)).
///
/// Tasks are immutable once built; use [`Task::builder`] to construct them.
/// Deserialization re-validates every invariant (it round-trips through
/// the builder), so a hand-edited JSON task cannot smuggle in a
/// `MD^r > MD` or a UCB outside the ECBs.
///
/// # Example
///
/// ```
/// use cpa_model::{CacheBlockSet, CoreId, Priority, Task, Time};
///
/// # fn main() -> Result<(), cpa_model::ModelError> {
/// let task = Task::builder("fdct")
///     .processing_demand(Time::from_cycles(6_550))
///     .memory_demand(6_017)
///     .residual_memory_demand(819)
///     .period(Time::from_cycles(1_000_000))
///     .deadline(Time::from_cycles(1_000_000))
///     .core(CoreId::new(0))
///     .priority(Priority::new(3))
///     .ecb(CacheBlockSet::contiguous(256, 0, 106))
///     .pcb(CacheBlockSet::contiguous(256, 0, 22))
///     .ucb(CacheBlockSet::contiguous(256, 0, 58))
///     .build()?;
/// assert_eq!(task.memory_demand(), 6_017);
/// assert!(task.pcb().is_subset(task.ecb()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "TaskData", into = "TaskData")]
pub struct Task {
    name: String,
    pd: Time,
    md: u64,
    md_r: u64,
    deadline: Time,
    period: Time,
    core: CoreId,
    priority: Priority,
    ucb: CacheBlockSet,
    ecb: CacheBlockSet,
    pcb: CacheBlockSet,
}

/// Serialization shadow of [`Task`]: plain data, no invariants. Conversion
/// back into a [`Task`] runs the builder's full validation.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TaskData {
    name: String,
    pd: Time,
    md: u64,
    md_r: u64,
    deadline: Time,
    period: Time,
    core: CoreId,
    priority: Priority,
    ucb: CacheBlockSet,
    ecb: CacheBlockSet,
    pcb: CacheBlockSet,
}

impl From<Task> for TaskData {
    fn from(t: Task) -> TaskData {
        TaskData {
            name: t.name,
            pd: t.pd,
            md: t.md,
            md_r: t.md_r,
            deadline: t.deadline,
            period: t.period,
            core: t.core,
            priority: t.priority,
            ucb: t.ucb,
            ecb: t.ecb,
            pcb: t.pcb,
        }
    }
}

impl TryFrom<TaskData> for Task {
    type Error = ModelError;

    fn try_from(d: TaskData) -> Result<Task, ModelError> {
        Task::builder(d.name)
            .processing_demand(d.pd)
            .memory_demand(d.md)
            .residual_memory_demand(d.md_r)
            .deadline(d.deadline)
            .period(d.period)
            .core(d.core)
            .priority(d.priority)
            .ucb(d.ucb)
            .ecb(d.ecb)
            .pcb(d.pcb)
            .build()
    }
}

impl Task {
    /// Starts building a task with the given name.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> TaskBuilder {
        TaskBuilder::new(name)
    }

    /// The task's human-readable name (e.g. the Mälardalen benchmark it was
    /// instantiated from).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `PD_i`: worst-case execution time with an always-hitting cache.
    #[must_use]
    pub fn processing_demand(&self) -> Time {
        self.pd
    }

    /// `MD_i`: worst-case number of main-memory requests of a job in
    /// isolation.
    #[must_use]
    pub fn memory_demand(&self) -> u64 {
        self.md
    }

    /// `MD_i^r`: worst-case memory demand of a job whose PCBs are already
    /// cached. Always `≤ MD_i`.
    #[must_use]
    pub fn residual_memory_demand(&self) -> u64 {
        self.md_r
    }

    /// `D_i`: relative deadline (constrained: `D_i ≤ T_i`).
    #[must_use]
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// `T_i`: minimum inter-arrival time.
    #[must_use]
    pub fn period(&self) -> Time {
        self.period
    }

    /// The core this task is statically assigned to (partitioned FPPS).
    #[must_use]
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The task's unique fixed priority (lower level = higher priority).
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// `UCB_i`: useful cache blocks — blocks that are cached at some program
    /// point and reused at a later reachable point without eviction.
    #[must_use]
    pub fn ucb(&self) -> &CacheBlockSet {
        &self.ucb
    }

    /// `ECB_i`: evicting cache blocks — every cache set the task touches.
    #[must_use]
    pub fn ecb(&self) -> &CacheBlockSet {
        &self.ecb
    }

    /// `PCB_i`: persistent cache blocks — blocks that, once loaded, the task
    /// never evicts or invalidates itself.
    #[must_use]
    pub fn pcb(&self) -> &CacheBlockSet {
        &self.pcb
    }

    /// Utilization of the task with memory time included:
    /// `(PD_i + MD_i · d_mem) / T_i`. The numerator is exact in `u128`, so
    /// a demand past `u64::MAX` cycles still yields a (huge) utilization.
    #[must_use]
    pub fn utilization(&self, d_mem: Time) -> f64 {
        let demand =
            u128::from(self.pd.cycles()) + u128::from(d_mem.cycles()) * u128::from(self.md);
        demand as f64 / self.period.cycles() as f64
    }

    /// Feeds the task's canonical encoding into a [`crate::ContentHasher`]
    /// — every semantic field in declaration order, with the block sets in
    /// their sorted-index encoding. Two tasks hash equally iff they are
    /// equal, regardless of how either was constructed or serialized.
    pub fn hash_content(&self, hasher: &mut crate::ContentHasher) {
        hasher.write_str(&self.name);
        hasher.write_u64(self.pd.cycles());
        hasher.write_u64(self.md);
        hasher.write_u64(self.md_r);
        hasher.write_u64(self.deadline.cycles());
        hasher.write_u64(self.period.cycles());
        hasher.write_usize(self.core.index());
        hasher.write_u64(u64::from(self.priority.level()));
        self.ucb.hash_content(hasher);
        self.ecb.hash_content(hasher);
        self.pcb.hash_content(hasher);
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(PD={}, MD={}, MD^r={}, D={}, T={}, {}@{})",
            self.name,
            self.pd,
            self.md,
            self.md_r,
            self.deadline,
            self.period,
            self.priority,
            self.core
        )
    }
}

/// Builder for [`Task`] (see [`Task::builder`]).
///
/// Required fields: `processing_demand`, `memory_demand`, `period`,
/// `deadline`, `core`, `priority`, and a cache geometry (either via any of
/// `ecb`/`ucb`/`pcb` or via [`TaskBuilder::cache_sets`] for tasks with an
/// empty footprint). `residual_memory_demand` defaults to `memory_demand`
/// (i.e. no persistence benefit) and the block sets default to empty.
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    name: String,
    pd: Option<Time>,
    md: Option<u64>,
    md_r: Option<u64>,
    deadline: Option<Time>,
    period: Option<Time>,
    core: Option<CoreId>,
    priority: Option<Priority>,
    ucb: Option<CacheBlockSet>,
    ecb: Option<CacheBlockSet>,
    pcb: Option<CacheBlockSet>,
    cache_sets: Option<usize>,
}

impl TaskBuilder {
    fn new(name: impl Into<String>) -> Self {
        TaskBuilder {
            name: name.into(),
            pd: None,
            md: None,
            md_r: None,
            deadline: None,
            period: None,
            core: None,
            priority: None,
            ucb: None,
            ecb: None,
            pcb: None,
            cache_sets: None,
        }
    }

    /// Sets `PD_i`, the cache-hit-only worst-case execution time.
    #[must_use]
    pub fn processing_demand(mut self, pd: Time) -> Self {
        self.pd = Some(pd);
        self
    }

    /// Sets `MD_i`, the worst-case memory access demand in isolation.
    #[must_use]
    pub fn memory_demand(mut self, md: u64) -> Self {
        self.md = Some(md);
        self
    }

    /// Sets `MD_i^r`, the residual memory access demand. Defaults to `MD_i`.
    #[must_use]
    pub fn residual_memory_demand(mut self, md_r: u64) -> Self {
        self.md_r = Some(md_r);
        self
    }

    /// Sets the relative deadline `D_i`.
    #[must_use]
    pub fn deadline(mut self, deadline: Time) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the minimum inter-arrival time `T_i`.
    #[must_use]
    pub fn period(mut self, period: Time) -> Self {
        self.period = Some(period);
        self
    }

    /// Assigns the task to a core.
    #[must_use]
    pub fn core(mut self, core: CoreId) -> Self {
        self.core = Some(core);
        self
    }

    /// Sets the unique fixed priority.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Sets `UCB_i`.
    #[must_use]
    pub fn ucb(mut self, ucb: CacheBlockSet) -> Self {
        self.ucb = Some(ucb);
        self
    }

    /// Sets `ECB_i`.
    #[must_use]
    pub fn ecb(mut self, ecb: CacheBlockSet) -> Self {
        self.ecb = Some(ecb);
        self
    }

    /// Sets `PCB_i`.
    #[must_use]
    pub fn pcb(mut self, pcb: CacheBlockSet) -> Self {
        self.pcb = Some(pcb);
        self
    }

    /// Declares the cache geometry (number of cache sets) for tasks that do
    /// not provide any block set; the footprint sets default to empty sets of
    /// this capacity.
    #[must_use]
    pub fn cache_sets(mut self, sets: usize) -> Self {
        self.cache_sets = Some(sets);
        self
    }

    /// Builds the task, validating all model invariants.
    ///
    /// # Errors
    ///
    /// * [`ModelError::MissingField`] if a required field was not set or the
    ///   cache geometry cannot be inferred;
    /// * [`ModelError::InvalidTask`] if `T_i = 0`, `D_i = 0`, `D_i > T_i`,
    ///   `MD_i^r > MD_i`, the block sets have inconsistent capacities, or
    ///   `UCB_i`/`PCB_i` are not subsets of `ECB_i`.
    pub fn build(self) -> Result<Task, ModelError> {
        let invalid = |reason: String| ModelError::InvalidTask {
            task: self.name.clone(),
            reason,
        };

        let pd = self.pd.ok_or(ModelError::MissingField {
            field: "processing_demand",
        })?;
        let md = self.md.ok_or(ModelError::MissingField {
            field: "memory_demand",
        })?;
        let period = self
            .period
            .ok_or(ModelError::MissingField { field: "period" })?;
        let deadline = self
            .deadline
            .ok_or(ModelError::MissingField { field: "deadline" })?;
        let core = self
            .core
            .ok_or(ModelError::MissingField { field: "core" })?;
        let priority = self
            .priority
            .ok_or(ModelError::MissingField { field: "priority" })?;
        let md_r = self.md_r.unwrap_or(md);

        let capacity = self
            .ecb
            .as_ref()
            .or(self.ucb.as_ref())
            .or(self.pcb.as_ref())
            .map(CacheBlockSet::capacity)
            .or(self.cache_sets)
            .ok_or(ModelError::MissingField {
                field: "ecb or cache_sets",
            })?;

        let ecb = self.ecb.unwrap_or_else(|| CacheBlockSet::new(capacity));
        let ucb = self.ucb.unwrap_or_else(|| CacheBlockSet::new(capacity));
        let pcb = self.pcb.unwrap_or_else(|| CacheBlockSet::new(capacity));

        if period.is_zero() {
            return Err(invalid("period must be positive".into()));
        }
        if deadline.is_zero() {
            return Err(invalid("deadline must be positive".into()));
        }
        if deadline > period {
            return Err(invalid(format!(
                "deadline {deadline} exceeds period {period} (constrained-deadline model)"
            )));
        }
        if md_r > md {
            return Err(invalid(format!(
                "residual memory demand {md_r} exceeds memory demand {md}"
            )));
        }
        if ucb.capacity() != capacity || pcb.capacity() != capacity || ecb.capacity() != capacity {
            return Err(invalid(format!(
                "block sets have inconsistent capacities ({}, {}, {})",
                ecb.capacity(),
                ucb.capacity(),
                pcb.capacity()
            )));
        }
        if !ucb.is_subset(&ecb) {
            return Err(invalid("UCBs must be a subset of ECBs".into()));
        }
        if !pcb.is_subset(&ecb) {
            return Err(invalid("PCBs must be a subset of ECBs".into()));
        }

        Ok(Task {
            name: self.name,
            pd,
            md,
            md_r,
            deadline,
            period,
            core,
            priority,
            ucb,
            ecb,
            pcb,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> TaskBuilder {
        Task::builder("t")
            .processing_demand(Time::from_cycles(10))
            .memory_demand(5)
            .period(Time::from_cycles(100))
            .deadline(Time::from_cycles(100))
            .core(CoreId::new(0))
            .priority(Priority::new(1))
            .cache_sets(16)
    }

    #[test]
    fn builds_with_defaults() {
        let t = base().build().unwrap();
        assert_eq!(t.residual_memory_demand(), 5, "MD^r defaults to MD");
        assert!(t.ecb().is_empty());
        assert!(t.ucb().is_empty());
        assert!(t.pcb().is_empty());
        assert_eq!(t.ecb().capacity(), 16);
        assert_eq!(t.name(), "t");
    }

    #[test]
    fn missing_fields_reported() {
        let err = Task::builder("t").build().unwrap_err();
        assert!(matches!(
            err,
            ModelError::MissingField {
                field: "processing_demand"
            }
        ));
        let err = base().clone_without_core().build().unwrap_err();
        assert!(matches!(err, ModelError::MissingField { field: "core" }));
    }

    impl TaskBuilder {
        fn clone_without_core(mut self) -> Self {
            self.core = None;
            self
        }
    }

    #[test]
    fn capacity_inferred_from_any_set() {
        let t = Task::builder("t")
            .processing_demand(Time::from_cycles(1))
            .memory_demand(1)
            .period(Time::from_cycles(10))
            .deadline(Time::from_cycles(10))
            .core(CoreId::new(0))
            .priority(Priority::new(1))
            .ecb(CacheBlockSet::contiguous(64, 0, 4))
            .build()
            .unwrap();
        assert_eq!(t.ucb().capacity(), 64);
    }

    #[test]
    fn rejects_unconstrained_deadline() {
        let err = base().deadline(Time::from_cycles(200)).build().unwrap_err();
        assert!(err.to_string().contains("exceeds period"));
    }

    #[test]
    fn rejects_zero_period_and_deadline() {
        assert!(base().period(Time::ZERO).build().is_err());
        assert!(base().deadline(Time::ZERO).build().is_err());
    }

    #[test]
    fn rejects_residual_above_md() {
        let err = base().residual_memory_demand(6).build().unwrap_err();
        assert!(err.to_string().contains("exceeds memory demand"));
    }

    #[test]
    fn rejects_non_subset_footprints() {
        let ecb = CacheBlockSet::contiguous(16, 0, 2);
        let ucb = CacheBlockSet::contiguous(16, 4, 2);
        let err = base().ecb(ecb.clone()).ucb(ucb).build().unwrap_err();
        assert!(err.to_string().contains("UCBs"));
        let pcb = CacheBlockSet::contiguous(16, 4, 2);
        let err = base().ecb(ecb).pcb(pcb).build().unwrap_err();
        assert!(err.to_string().contains("PCBs"));
    }

    #[test]
    fn rejects_mixed_capacities() {
        let err = base()
            .ecb(CacheBlockSet::contiguous(16, 0, 4))
            .ucb(CacheBlockSet::contiguous(32, 0, 2))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("inconsistent capacities"));
    }

    #[test]
    fn demand_and_utilization() {
        let t = base().build().unwrap();
        let d_mem = Time::from_cycles(4);
        let u = t.utilization(d_mem);
        assert!((u - 0.3).abs() < 1e-12);
    }

    #[test]
    fn utilization_survives_a_demand_past_u64() {
        let t = base().build().unwrap();
        let d_mem = Time::from_cycles(u64::MAX);
        let exact = (10.0 + 5.0 * u64::MAX as f64) / 100.0;
        assert_eq!(t.utilization(d_mem), exact);
        // Where the demand fits in u64, the bits match the u64 quotient.
        let d_mem = Time::from_cycles(1 << 60);
        let demand = 10 + 5 * d_mem.cycles();
        assert_eq!(t.utilization(d_mem), demand as f64 / 100.0);
    }

    #[test]
    fn display_mentions_parameters() {
        let t = base().build().unwrap();
        let s = t.to_string();
        assert!(s.contains("PD=10cy"));
        assert!(s.contains("MD=5"));
    }

    #[test]
    fn serde_round_trip() {
        let t = base()
            .ecb(CacheBlockSet::contiguous(16, 0, 4))
            .pcb(CacheBlockSet::contiguous(16, 1, 2))
            .residual_memory_demand(2)
            .build()
            .unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Task = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn deserialization_revalidates_invariants() {
        let t = base().build().unwrap();
        let json = serde_json::to_string(&t).unwrap();
        // Smuggle MD^r > MD into the serialized form.
        let hacked = json.replace("\"md_r\":5", "\"md_r\":99");
        assert_ne!(hacked, json, "fixture must actually patch the field");
        let err = serde_json::from_str::<Task>(&hacked).unwrap_err();
        assert!(err.to_string().contains("exceeds memory demand"), "{err}");
    }
}
