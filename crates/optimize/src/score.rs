//! Candidate quality: a totally ordered schedulability margin.
//!
//! The optimizer compares design-space candidates by a lexicographic
//! [`Score`]: schedulability first, then how many tasks converged within
//! their deadline, then the worst-case margin (minimum slack), then the
//! aggregate margin (total slack). The derived `Ord` on the struct *is*
//! the comparison — field order matters and is part of the contract.

use cpa_analysis::AnalysisResult;
use cpa_model::TaskSet;
use serde::Serialize;

/// Lexicographic schedulability margin of one candidate configuration.
///
/// Ordering (via the derived `Ord`, field by field):
///
/// 1. `schedulable` — a schedulable candidate beats any unschedulable one;
/// 2. `converged` — more tasks with a converged WCRT within deadline;
/// 3. `min_slack` — larger worst-case margin `min_i (D_i − R_i)`;
/// 4. `total_slack` — larger aggregate margin `Σ_i (D_i − R_i)`.
///
/// For unschedulable candidates `min_slack` is forced to 0 so the partial
/// slack of the tasks that did converge still provides a search gradient
/// through `total_slack` without ever outranking a schedulable candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct Score {
    /// Whether every task's WCRT converged within its deadline.
    pub schedulable: bool,
    /// Number of tasks whose response-time estimate converged within its
    /// deadline (equals the task count iff `schedulable`).
    pub converged: u32,
    /// Minimum slack `D_i − R_i` over converged tasks, in cycles; 0 when
    /// the candidate is unschedulable.
    pub min_slack: u64,
    /// Total slack over converged tasks, in cycles.
    pub total_slack: u64,
}

/// One evaluated candidate: its [`Score`] plus a per-priority-level
/// convergence mask used by the Audsley seeding pass.
#[derive(Debug, Clone, Copy)]
pub struct Evaluation {
    /// The candidate's schedulability margin.
    pub score: Score,
    /// Bit `r` is set iff the task at priority rank `r` (= `TaskId` `r` in
    /// the rebuilt set) converged within its deadline. Only the first 128
    /// ranks are tracked; larger sets simply skip Audsley seeding.
    pub converged_mask: u128,
}

/// Folds an [`AnalysisResult`] into an [`Evaluation`] of the analysed set.
///
/// On unschedulable results the engine reports `Some` estimates for tasks
/// it had not yet disproved; those are counted (and contribute slack) only
/// when the estimate is within the deadline, and can never make an
/// unschedulable candidate outrank a schedulable one because
/// `Score::schedulable` is the leading key.
#[must_use]
pub fn evaluate_result(tasks: &TaskSet, result: &AnalysisResult) -> Evaluation {
    let mut converged = 0u32;
    let mut mask = 0u128;
    let mut min_slack = u64::MAX;
    let mut total_slack = 0u64;
    for i in tasks.ids() {
        let deadline = tasks.get(i).expect("id from this set").deadline();
        if let Some(r) = result.response_time(i) {
            if r <= deadline {
                converged += 1;
                let slack = deadline.cycles() - r.cycles();
                min_slack = min_slack.min(slack);
                total_slack = total_slack.saturating_add(slack);
                if i.index() < 128 {
                    mask |= 1u128 << i.index();
                }
            }
        }
    }
    let schedulable = result.is_schedulable();
    if !schedulable || min_slack == u64::MAX {
        min_slack = 0;
    }
    Evaluation {
        score: Score {
            schedulable,
            converged,
            min_slack,
            total_slack,
        },
        converged_mask: mask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic() {
        let sched = Score {
            schedulable: true,
            converged: 4,
            min_slack: 1,
            total_slack: 10,
        };
        let sched_wider = Score {
            schedulable: true,
            converged: 4,
            min_slack: 2,
            total_slack: 4,
        };
        let unsched_fat = Score {
            schedulable: false,
            converged: 3,
            min_slack: 0,
            total_slack: u64::MAX,
        };
        assert!(sched > unsched_fat, "schedulability dominates slack");
        assert!(sched_wider > sched, "min slack breaks schedulable ties");
    }
}
