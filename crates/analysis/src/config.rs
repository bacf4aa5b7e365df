//! Analysis configuration: bus arbitration policy and persistence mode.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Memory bus arbitration policy under analysis (§III/§IV of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BusPolicy {
    /// Fixed-priority bus: bus accesses inherit the priority of the issuing
    /// task (Eq. (7)). Work-conserving.
    FixedPriority,
    /// Round-robin bus with `slots` consecutive memory access slots per core
    /// per round (the paper's `s`, default 2) (Eq. (8)). Work-conserving.
    RoundRobin {
        /// Memory access slots per core per round (`s ≥ 1`).
        slots: u64,
    },
    /// TDMA bus with `slots` slots per core in a cycle of length
    /// `m · slots` (Eq. (9)). Non-work-conserving.
    Tdma {
        /// Memory access slots per core per TDMA cycle (`s ≥ 1`).
        slots: u64,
    },
    /// Idealised contention-free bus: every access costs exactly `d_mem`
    /// and suffers no cross-core interference. Combined with the bus
    /// utilization test in [`sched`](crate::sched), this is the "perfect
    /// bus" upper-bound line of the paper's Fig. 2.
    Perfect,
}

impl BusPolicy {
    /// Short machine-friendly label used in experiment output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            BusPolicy::FixedPriority => "fp",
            BusPolicy::RoundRobin { .. } => "rr",
            BusPolicy::Tdma { .. } => "tdma",
            BusPolicy::Perfect => "perfect",
        }
    }

    /// Parses a [`BusPolicy::label`] back into a policy, instantiating the
    /// slotted policies with `slots`. The inverse of `label` for every
    /// policy (labels deliberately drop the slot count); `None` for
    /// unknown labels and for RR/TDMA with zero slots (the paper requires
    /// `s ≥ 1`; see [`BusPolicy::try_parse`] for the reason).
    #[must_use]
    pub fn parse(label: &str, slots: u64) -> Option<BusPolicy> {
        BusPolicy::try_parse(label, slots).ok()
    }

    /// [`BusPolicy::parse`] with a diagnostic naming why a label was
    /// rejected, for command-line and request errors.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown label, or for `rr`/`tdma` with
    /// `slots == 0`.
    pub fn try_parse(label: &str, slots: u64) -> Result<BusPolicy, String> {
        let slotted = |policy: BusPolicy| {
            if slots == 0 {
                Err(format!("bus `{label}` needs at least one slot (got 0)"))
            } else {
                Ok(policy)
            }
        };
        match label {
            "fp" => Ok(BusPolicy::FixedPriority),
            "rr" => slotted(BusPolicy::RoundRobin { slots }),
            "tdma" => slotted(BusPolicy::Tdma { slots }),
            "perfect" => Ok(BusPolicy::Perfect),
            _ => Err(format!(
                "unknown bus `{label}` (expected fp, rr, tdma, or perfect)"
            )),
        }
    }

    /// Whether the `+1` already-in-service blocking access (the footnote to
    /// Eq. (12)) is charged when a same-core lower-priority task exists.
    /// The perfect bus charges nothing beyond the own-core demand.
    #[must_use]
    pub fn charges_blocking(&self) -> bool {
        *self != BusPolicy::Perfect
    }

    /// The three arbitration policies the paper evaluates (Fig. 2/3), in
    /// its canonical FP / RR / TDMA order, with the given slot count for
    /// the slotted policies.
    #[must_use]
    pub fn paper_buses(slots: u64) -> [BusPolicy; 3] {
        [
            BusPolicy::FixedPriority,
            BusPolicy::RoundRobin { slots },
            BusPolicy::Tdma { slots },
        ]
    }
}

impl fmt::Display for BusPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusPolicy::FixedPriority => write!(f, "FP"),
            BusPolicy::RoundRobin { slots } => write!(f, "RR(s={slots})"),
            BusPolicy::Tdma { slots } => write!(f, "TDMA(s={slots})"),
            BusPolicy::Perfect => write!(f, "perfect"),
        }
    }
}

/// Whether the analysis exploits cache persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PersistenceMode {
    /// The baseline of Davis et al. (Eq. (1), (3)): every job of every task
    /// is charged its full isolation demand `MD`.
    Oblivious,
    /// The paper's contribution (Lemmas 1 and 2): successive jobs are
    /// charged `M̂D(n) + ρ̂(n)` when that is smaller.
    Aware,
}

impl PersistenceMode {
    /// Short machine-friendly label used in experiment output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PersistenceMode::Oblivious => "oblivious",
            PersistenceMode::Aware => "aware",
        }
    }
}

impl fmt::Display for PersistenceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Full configuration of one analysis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// The bus arbitration policy.
    pub bus: BusPolicy,
    /// Whether cache persistence is exploited.
    pub persistence: PersistenceMode,
    /// Safety cap on inner fixed-point iterations per task.
    pub max_inner_iterations: u32,
    /// Safety cap on outer iterations over the whole task set.
    pub max_outer_iterations: u32,
}

impl AnalysisConfig {
    /// Creates a configuration with default iteration caps.
    #[must_use]
    pub fn new(bus: BusPolicy, persistence: PersistenceMode) -> Self {
        AnalysisConfig {
            bus,
            persistence,
            max_inner_iterations: 100_000,
            max_outer_iterations: 1_000,
        }
    }

    /// All six policy × persistence combinations the paper evaluates, for
    /// the given RR/TDMA slot count, in the order FP / RR / TDMA ×
    /// oblivious-first.
    #[must_use]
    pub fn paper_matrix(slots: u64) -> Vec<AnalysisConfig> {
        let buses = BusPolicy::paper_buses(slots);
        let modes = [PersistenceMode::Oblivious, PersistenceMode::Aware];
        buses
            .iter()
            .flat_map(|&bus| {
                modes
                    .iter()
                    .map(move |&persistence| AnalysisConfig::new(bus, persistence))
            })
            .collect()
    }
}

impl fmt::Display for AnalysisConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.bus, self.persistence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_display() {
        assert_eq!(BusPolicy::FixedPriority.label(), "fp");
        assert_eq!(BusPolicy::RoundRobin { slots: 2 }.label(), "rr");
        assert_eq!(BusPolicy::Tdma { slots: 1 }.to_string(), "TDMA(s=1)");
        assert_eq!(BusPolicy::Perfect.to_string(), "perfect");
        assert_eq!(PersistenceMode::Aware.to_string(), "aware");
        let cfg = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Oblivious);
        assert_eq!(cfg.to_string(), "FP/oblivious");
    }

    #[test]
    fn parse_round_trips_labels() {
        for bus in [
            BusPolicy::FixedPriority,
            BusPolicy::RoundRobin { slots: 3 },
            BusPolicy::Tdma { slots: 3 },
            BusPolicy::Perfect,
        ] {
            assert_eq!(BusPolicy::parse(bus.label(), 3), Some(bus));
        }
        assert_eq!(BusPolicy::parse("bogus", 2), None);
        // Slotted policies need s ≥ 1; the others ignore the count.
        assert_eq!(BusPolicy::parse("rr", 0), None);
        assert_eq!(BusPolicy::parse("tdma", 0), None);
        assert_eq!(BusPolicy::parse("fp", 0), Some(BusPolicy::FixedPriority));
        assert_eq!(BusPolicy::parse("perfect", 0), Some(BusPolicy::Perfect));
        assert!(BusPolicy::try_parse("tdma", 0)
            .unwrap_err()
            .contains("at least one slot"));
        assert_eq!(
            BusPolicy::paper_buses(2).map(|b| b.label()),
            ["fp", "rr", "tdma"]
        );
    }

    #[test]
    fn policy_facts_match_the_equations() {
        // Only the perfect bus skips the +1 blocking access.
        assert!(!BusPolicy::Perfect.charges_blocking());
        for policy in [
            BusPolicy::FixedPriority,
            BusPolicy::RoundRobin { slots: 2 },
            BusPolicy::Tdma { slots: 2 },
        ] {
            assert!(policy.charges_blocking());
        }
    }

    #[test]
    fn paper_matrix_covers_all_six() {
        let m = AnalysisConfig::paper_matrix(2);
        assert_eq!(m.len(), 6);
        assert!(m
            .iter()
            .any(|c| c.bus == BusPolicy::Tdma { slots: 2 }
                && c.persistence == PersistenceMode::Aware));
        // No duplicates.
        for (a, i) in m.iter().zip(0..) {
            for b in &m[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
