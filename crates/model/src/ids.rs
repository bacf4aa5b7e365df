//! Typed identifiers: tasks, cores, priorities.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Index of a task within a [`TaskSet`](crate::TaskSet).
///
/// Task ids are dense indices assigned by [`TaskSet::new`](crate::TaskSet::new)
/// in priority order, so `TaskId::new(0)` is always the highest-priority task
/// (the paper's `τ1`).
///
/// ```
/// use cpa_model::TaskId;
/// let id = TaskId::new(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TaskId(usize);

impl TaskId {
    /// Creates a task id from a dense index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        TaskId(index)
    }

    /// Returns the dense index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0 + 1)
    }
}

/// Index of a processor core (`π_x` in the paper), zero-based.
///
/// ```
/// use cpa_model::CoreId;
/// assert_eq!(CoreId::new(2).index(), 2);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct CoreId(usize);

impl CoreId {
    /// Creates a core id from a zero-based index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        CoreId(index)
    }

    /// Returns the zero-based index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π{}", self.0 + 1)
    }
}

/// A unique, global, fixed task priority. **Lower numeric value means higher
/// priority**, following the paper's convention that `τ1` has the highest
/// priority and `τn` the lowest.
///
/// ```
/// use cpa_model::Priority;
/// let high = Priority::new(1);
/// let low = Priority::new(9);
/// assert!(high < low); // sorts first: τ1 is the highest priority
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Priority(u32);

impl Priority {
    /// Creates a priority level; lower values are higher priority.
    #[must_use]
    pub const fn new(level: u32) -> Self {
        Priority(level)
    }

    /// Returns the numeric priority level.
    #[must_use]
    pub const fn level(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(TaskId::new(0).to_string(), "τ1");
        assert_eq!(CoreId::new(0).to_string(), "π1");
        assert_eq!(Priority::new(4).to_string(), "P4");
    }

    #[test]
    fn priority_ordering_convention() {
        let p1 = Priority::new(1);
        let p2 = Priority::new(2);
        // Ord follows the numeric level: the higher priority sorts first.
        assert!(p1 < p2);
        assert_eq!(p1.level(), 1);
    }

    #[test]
    fn ids_round_trip() {
        assert_eq!(TaskId::new(7).index(), 7);
        assert_eq!(CoreId::new(7).index(), 7);
        assert_eq!(Priority::new(7).level(), 7);
    }
}
