//! Cache-related preemption delay (CRPD) via the ECB-union approach.
//!
//! Implements Eq. (2) of the paper (originally Altmeyer, Davis, Maiza —
//! RTSS 2011): the CRPD `γ_{i,j,x}` charged to each job of a higher-priority
//! task `τj` executing on core `x` within the response time of `τi` is the
//! largest number of *useful* cache blocks of any intermediate task that the
//! combined *evicting* cache blocks of `hep(j)` can evict:
//!
//! ```text
//! γ_{i,j,x} = max_{g ∈ Γx ∩ aff(i,j)} | UCB_g ∩ ( ∪_{h ∈ Γx ∩ hep(j)} ECB_h ) |
//! ```
//!
//! The core `x` is always the core of the preempting task `τj`: for Eq. (1)
//! that is also the core of `τi`; for the other-core bound (Eq. (4),
//! Lemma 2) the paper instantiates the same formula with the remote core's
//! partition.

use cpa_model::{CacheBlockSet, TaskId, TaskSet};
use serde::{Deserialize, Serialize};

/// Which CRPD bound instantiates `γ_{i,j,x}`.
///
/// The paper uses the **ECB-union** approach (Eq. (2)); the CRPD
/// literature it builds on (Altmeyer, Davis, Maiza — RTSS 2011) defines
/// several comparable bounds that this crate provides for ablation:
///
/// * [`CrpdApproach::EcbUnion`] — Eq. (2): the largest UCB set of any
///   intermediate task intersected with the union of the preemptor
///   level's ECBs. The paper's default.
/// * [`CrpdApproach::UcbUnion`] — union of the intermediate tasks' UCBs
///   intersected with the preemptor's own ECBs. Incomparable with
///   ECB-union in general (tighter on the evictor side, coarser on the
///   victim side).
/// * [`CrpdApproach::EcbOnly`] — charge every evicting block of the
///   preemptor: `|ECB_j|`. No UCB information needed; a "no victim
///   analysis" baseline.
///
/// The three bounds are **pairwise incomparable** in general: ECB-union's
/// eviction set spans all of `hep(j)` (its intersection with a large UCB
/// set can exceed `|ECB_j|`), while ECB-only ignores victims entirely.
/// That incomparability is precisely what the ablation experiment
/// (`cpa-experiments::ablation`) measures on the paper's workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CrpdApproach {
    /// Eq. (2), the paper's choice.
    #[default]
    EcbUnion,
    /// UCB-union: `|(∪_{g ∈ aff} UCB_g) ∩ ECB_j|`.
    UcbUnion,
    /// ECB-only: `|ECB_j|` whenever some intermediate task exists.
    EcbOnly,
}

impl CrpdApproach {
    /// Short machine-friendly label for experiment output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            CrpdApproach::EcbUnion => "ecb-union",
            CrpdApproach::UcbUnion => "ucb-union",
            CrpdApproach::EcbOnly => "ecb-only",
        }
    }
}

/// Union of the ECBs of all tasks in `Γ_{core(j)} ∩ hep(j)` — the eviction
/// footprint the ECB-union approach charges to a preemption by `τj`
/// (it pessimistically assumes `τj` itself is preempted by all of its
/// higher-priority tasks).
#[must_use]
pub fn ecb_union_hep(tasks: &TaskSet, j: TaskId) -> CacheBlockSet {
    let core = tasks[j].core();
    let mut acc = CacheBlockSet::new(tasks.cache_sets());
    for h in tasks.hep_on(j, core) {
        acc.union_in_place(tasks[h].ecb());
    }
    acc
}

/// `γ_{i,j}` under a selectable CRPD approach (see [`CrpdApproach`]);
/// [`CrpdApproach::EcbUnion`] is the bound of Eq. (2). It is evaluated on
/// the core of the preempting task `τj`.
///
/// Returns 0 when `τj` does not have higher priority than `τi` (then
/// `aff(i, j)` is empty — a task is never preempted by lower-priority work)
/// and when no intermediate task shares `τj`'s core
/// (`aff(i, j) ∩ Γ_{core(j)} = ∅`) — all approaches agree on that case.
///
/// # Example
///
/// The Fig. 1 value `γ_{2,1,x} = 2`: `τ2`'s UCBs `{5, 6}` overlap `τ1`'s
/// ECBs `{5..10}` on two blocks.
///
/// ```
/// use cpa_analysis::crpd::{gamma_with, CrpdApproach};
/// # use cpa_model::{CacheBlockSet, CoreId, Priority, Task, TaskId, TaskSet, Time};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let tau1 = Task::builder("tau1")
/// #     .processing_demand(Time::from_cycles(4)).memory_demand(6)
/// #     .period(Time::from_cycles(100)).deadline(Time::from_cycles(100))
/// #     .core(CoreId::new(0)).priority(Priority::new(1))
/// #     .ecb(CacheBlockSet::from_blocks(256, 5..=10)?)
/// #     .build()?;
/// # let tau2 = Task::builder("tau2")
/// #     .processing_demand(Time::from_cycles(32)).memory_demand(8)
/// #     .period(Time::from_cycles(400)).deadline(Time::from_cycles(400))
/// #     .core(CoreId::new(0)).priority(Priority::new(2))
/// #     .ecb(CacheBlockSet::from_blocks(256, 1..=6)?)
/// #     .ucb(CacheBlockSet::from_blocks(256, [5, 6])?)
/// #     .build()?;
/// # let tasks = TaskSet::new(vec![tau1, tau2])?;
/// let i = tasks.id_of("tau2").unwrap();
/// let j = tasks.id_of("tau1").unwrap();
/// assert_eq!(gamma_with(&tasks, i, j, CrpdApproach::EcbUnion), 2);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn gamma_with(tasks: &TaskSet, i: TaskId, j: TaskId, approach: CrpdApproach) -> u64 {
    let core = tasks[j].core();
    let mut affected = tasks.aff_on(i, j, core).peekable();
    if affected.peek().is_none() {
        return 0;
    }
    match approach {
        CrpdApproach::EcbUnion => {
            let evictors = ecb_union_hep(tasks, j);
            affected
                .map(|g| tasks[g].ucb().intersection_len(&evictors) as u64)
                .max()
                .unwrap_or(0)
        }
        CrpdApproach::UcbUnion => {
            let mut useful = CacheBlockSet::new(tasks.cache_sets());
            for g in affected {
                useful.union_in_place(tasks[g].ucb());
            }
            useful.intersection_len(tasks[j].ecb()) as u64
        }
        CrpdApproach::EcbOnly => tasks[j].ecb().len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_model::{CoreId, Priority, Task, Time};

    fn task(
        name: &str,
        prio: u32,
        core: usize,
        ecb: impl IntoIterator<Item = usize>,
        ucb: impl IntoIterator<Item = usize>,
    ) -> Task {
        let ecb = CacheBlockSet::from_blocks(64, ecb).unwrap();
        let ucb = CacheBlockSet::from_blocks(64, ucb).unwrap();
        let ucb = ucb.intersection(&ecb);
        Task::builder(name)
            .processing_demand(Time::from_cycles(10))
            .memory_demand(4)
            .period(Time::from_cycles(1_000))
            .deadline(Time::from_cycles(1_000))
            .core(CoreId::new(core))
            .priority(Priority::new(prio))
            .ecb(ecb)
            .ucb(ucb)
            .build()
            .unwrap()
    }

    #[test]
    fn no_gamma_for_lower_or_equal_priority_preemptor() {
        let ts = TaskSet::new(vec![
            task("hi", 1, 0, 0..10, 0..10),
            task("lo", 2, 0, 5..15, 5..15),
        ])
        .unwrap();
        let hi = ts.id_of("hi").unwrap();
        let lo = ts.id_of("lo").unwrap();
        // A task cannot be preempted by itself or by lower-priority tasks.
        assert_eq!(gamma_with(&ts, hi, hi, CrpdApproach::EcbUnion), 0);
        assert_eq!(gamma_with(&ts, hi, lo, CrpdApproach::EcbUnion), 0);
        // But the low-priority task does suffer CRPD from the high one:
        // UCB_lo {5..15} ∩ ECB_hi {0..10} = {5..10}.
        assert_eq!(gamma_with(&ts, lo, hi, CrpdApproach::EcbUnion), 5);
    }

    #[test]
    fn gamma_ignores_other_cores() {
        let ts = TaskSet::new(vec![
            task("hi", 1, 0, 0..10, 0..10),
            task("remote", 2, 1, 0..20, 0..20),
            task("lo", 3, 0, 5..15, 5..15),
        ])
        .unwrap();
        let lo = ts.id_of("lo").unwrap();
        let hi = ts.id_of("hi").unwrap();
        // "remote" shares blocks with both, but is on another core: neither
        // its UCBs (as a victim) nor its ECBs (as an evictor) participate.
        // UCB_lo {5..15} ∩ ECB_hi {0..10} = {5..10}.
        assert_eq!(gamma_with(&ts, lo, hi, CrpdApproach::EcbUnion), 5);
    }

    #[test]
    fn ecb_union_is_over_hep_on_same_core() {
        let ts = TaskSet::new(vec![
            task("a", 1, 0, 0..4, []),
            task("b", 2, 1, 10..20, []),
            task("c", 3, 0, 4..8, []),
        ])
        .unwrap();
        let c = ts.id_of("c").unwrap();
        let u = ecb_union_hep(&ts, c);
        // a and c on core 0: {0..8}; b excluded.
        assert_eq!(u.len(), 8);
        assert!(u.contains(0) && u.contains(7) && !u.contains(10));
    }

    #[test]
    fn gamma_takes_max_over_intermediate_tasks() {
        // aff(lo, hi) = {mid, lo}; UCB overlap is 3 for mid, 6 for lo.
        let ts = TaskSet::new(vec![
            task("hi", 1, 0, 0..8, []),
            task("mid", 2, 0, 0..3, 0..3),
            task("lo", 3, 0, 0..6, 0..6),
        ])
        .unwrap();
        let lo = ts.id_of("lo").unwrap();
        let hi = ts.id_of("hi").unwrap();
        assert_eq!(gamma_with(&ts, lo, hi, CrpdApproach::EcbUnion), 6);
        // For i = mid, aff = {mid} only.
        let mid = ts.id_of("mid").unwrap();
        assert_eq!(gamma_with(&ts, mid, hi, CrpdApproach::EcbUnion), 3);
    }

    #[test]
    fn approaches_agree_on_empty_aff() {
        let ts = TaskSet::new(vec![
            task("hi", 1, 0, 0..10, 0..10),
            task("lo", 2, 0, 5..15, 5..15),
        ])
        .unwrap();
        let hi = ts.id_of("hi").unwrap();
        let lo = ts.id_of("lo").unwrap();
        for approach in [
            CrpdApproach::EcbUnion,
            CrpdApproach::UcbUnion,
            CrpdApproach::EcbOnly,
        ] {
            assert_eq!(gamma_with(&ts, hi, lo, approach), 0, "{approach:?}");
            assert_eq!(gamma_with(&ts, hi, hi, approach), 0, "{approach:?}");
        }
    }

    #[test]
    fn approach_values_and_ordering() {
        // hi evicts 0..10; two victims with UCBs {0..3} and {5..9}.
        let ts = TaskSet::new(vec![
            task("hi", 1, 0, 0..10, []),
            task("mid", 2, 0, 0..3, 0..3),
            task("lo", 3, 0, 5..9, 5..9),
        ])
        .unwrap();
        let lo = ts.id_of("lo").unwrap();
        let hi = ts.id_of("hi").unwrap();
        // ECB-union: max(|{0..3}|, |{5..9}|) = 4.
        assert_eq!(gamma_with(&ts, lo, hi, CrpdApproach::EcbUnion), 4);
        // UCB-union: |({0..3} ∪ {5..9}) ∩ {0..10}| = 7.
        assert_eq!(gamma_with(&ts, lo, hi, CrpdApproach::UcbUnion), 7);
        // ECB-only: |ECB_hi| = 10 — the largest here (single preemptor;
        // with several hep tasks the union side can exceed it, the bounds
        // are incomparable in general).
        assert_eq!(gamma_with(&ts, lo, hi, CrpdApproach::EcbOnly), 10);
        assert_eq!(CrpdApproach::default(), CrpdApproach::EcbUnion);
        assert_eq!(CrpdApproach::UcbUnion.label(), "ucb-union");
    }

    #[test]
    fn ecb_union_can_exceed_ecb_only() {
        // τj's own ECBs are tiny, but hep(j) jointly covers a big UCB set:
        // the union bound charges more than |ECB_j|.
        let ts = TaskSet::new(vec![
            task("big", 1, 0, 0..30, []),
            task("j", 2, 0, 30..32, []),
            task("victim", 3, 0, 0..32, 0..30),
        ])
        .unwrap();
        let victim = ts.id_of("victim").unwrap();
        let j = ts.id_of("j").unwrap();
        let union = gamma_with(&ts, victim, j, CrpdApproach::EcbUnion);
        let only = gamma_with(&ts, victim, j, CrpdApproach::EcbOnly);
        assert_eq!(only, 2);
        assert!(union > only, "union {union} ≤ only {only}");
    }

    #[test]
    fn disjoint_footprints_mean_zero_crpd() {
        let ts = TaskSet::new(vec![
            task("hi", 1, 0, 0..8, 0..8),
            task("lo", 2, 0, 20..30, 20..30),
        ])
        .unwrap();
        assert_eq!(
            gamma_with(
                &ts,
                ts.id_of("lo").unwrap(),
                ts.id_of("hi").unwrap(),
                CrpdApproach::EcbUnion
            ),
            0
        );
    }
}
