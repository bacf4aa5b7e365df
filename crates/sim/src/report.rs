//! Simulation results.

use cpa_model::{TaskId, Time};
use serde::Serialize;

use crate::trace::ExecutionTrace;

/// Per-task simulation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct TaskStats {
    /// Jobs released within the horizon.
    pub released: u64,
    /// Jobs that completed within the horizon.
    pub completed: u64,
    /// Largest observed response time.
    pub max_response: Time,
    /// Sum of response times (for averaging).
    pub total_response: Time,
    /// Jobs that completed after their absolute deadline (plus jobs still
    /// incomplete past it at the horizon).
    pub deadline_misses: u64,
    /// Bus transactions issued by this task's jobs.
    pub bus_accesses: u64,
    /// Bus accesses that were persistent-block loads (first loads or
    /// reloads after eviction by other tasks — the CPRO traffic).
    pub pcb_loads: u64,
    /// Bus accesses caused by post-preemption UCB reloads (CRPD traffic).
    pub crpd_reloads: u64,
    /// Sporadic inter-arrival jitter draws consumed by this task's release
    /// process. Part of the report so the event-skipping fast path is
    /// pinned to consume exactly the reference's RNG stream.
    pub rng_draws: u64,
}

/// Whole-run simulation report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimReport {
    per_task: Vec<TaskStats>,
    /// Cycles the bus spent transferring data.
    pub bus_busy_cycles: u64,
    /// Total bus transactions served.
    pub bus_transactions: u64,
    /// Simulated horizon.
    pub horizon: Time,
    pub(crate) trace: Option<ExecutionTrace>,
}

impl SimReport {
    pub(crate) fn new(tasks: usize, horizon: Time) -> Self {
        SimReport {
            per_task: vec![TaskStats::default(); tasks],
            bus_busy_cycles: 0,
            bus_transactions: 0,
            horizon,
            trace: None,
        }
    }

    pub(crate) fn task_mut(&mut self, id: TaskId) -> &mut TaskStats {
        &mut self.per_task[id.index()]
    }

    /// Statistics of one task.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn task(&self, id: TaskId) -> &TaskStats {
        &self.per_task[id.index()]
    }

    /// Per-task statistics in priority order.
    #[must_use]
    pub fn tasks(&self) -> &[TaskStats] {
        &self.per_task
    }

    /// `true` if no job missed its deadline.
    #[must_use]
    pub fn no_deadline_misses(&self) -> bool {
        self.per_task.iter().all(|t| t.deadline_misses == 0)
    }

    /// The recorded execution trace, if
    /// [`SimConfig::record_trace`](crate::SimConfig) was set.
    #[must_use]
    pub fn trace(&self) -> Option<&ExecutionTrace> {
        self.trace.as_ref()
    }

    /// Observed bus utilization over the horizon.
    #[must_use]
    pub fn bus_utilization(&self) -> f64 {
        if self.horizon.is_zero() {
            0.0
        } else {
            self.bus_busy_cycles as f64 / self.horizon.cycles() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let mut r = SimReport::new(2, Time::from_cycles(100));
        r.task_mut(TaskId::new(0)).completed = 4;
        r.task_mut(TaskId::new(0)).total_response = Time::from_cycles(40);
        r.bus_busy_cycles = 25;
        assert_eq!(r.task(TaskId::new(0)).completed, 4);
        assert!(r.no_deadline_misses());
        r.task_mut(TaskId::new(1)).deadline_misses = 1;
        assert!(!r.no_deadline_misses());
        assert!((r.bus_utilization() - 0.25).abs() < 1e-12);
        assert_eq!(r.tasks().len(), 2);
    }
}
