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
    /// slotted policies with `slots`: the inverse of `label` for every
    /// policy (labels deliberately drop the slot count).
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

    /// Parses a [`PersistenceMode::label`] back into a mode, with a
    /// diagnostic for command-line and request errors.
    ///
    /// # Errors
    ///
    /// Returns a message naming an unknown label.
    pub fn try_parse(label: &str) -> Result<PersistenceMode, String> {
        match label {
            "aware" => Ok(PersistenceMode::Aware),
            "oblivious" => Ok(PersistenceMode::Oblivious),
            _ => Err(format!(
                "unknown persistence mode `{label}` (expected aware or oblivious)"
            )),
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
    /// Safety cap on outer iterations over the whole task set.
    pub max_outer_iterations: u32,
}

impl AnalysisConfig {
    /// Creates a configuration with the default outer iteration cap.
    #[must_use]
    pub fn new(bus: BusPolicy, persistence: PersistenceMode) -> Self {
        AnalysisConfig {
            bus,
            persistence,
            max_outer_iterations: 1_000,
        }
    }

    /// Whether `self`'s right-hand side of Eq. (19) is at least `other`'s
    /// at every window and estimate, so that `self` schedulable implies
    /// `other` schedulable on the same context (DESIGN.md §10). Reflexive
    /// and transitive; it holds when all three parts do:
    ///
    /// - **bus**: the same bus, or TDMA(s) over TDMA(t) or RR(t), or
    ///   RR(s) over RR(t), with `s ≥ t`. Eq. (8) caps each remote core
    ///   at `t · BAS`, while Eq. (9) charges `(m − 1) · s · BAS`
    ///   unconditionally. FP is unrelated to the slotted buses, and the
    ///   perfect bus relates only to itself: its utilization gate is not
    ///   a term of the right-hand side;
    /// - **mode**: the same mode, or oblivious over aware (the `min`s of
    ///   Lemmas 1 and 2, and the aware carry-out cap of DESIGN.md §4);
    /// - **cap**: equal `max_outer_iterations`.
    #[must_use]
    pub fn dominates(&self, other: &AnalysisConfig) -> bool {
        let bus = match (self.bus, other.bus) {
            (BusPolicy::Tdma { slots: s }, BusPolicy::Tdma { slots: t })
            | (BusPolicy::Tdma { slots: s }, BusPolicy::RoundRobin { slots: t })
            | (BusPolicy::RoundRobin { slots: s }, BusPolicy::RoundRobin { slots: t }) => s >= t,
            (a, b) => a == b,
        };
        let mode =
            self.persistence == other.persistence || self.persistence == PersistenceMode::Oblivious;
        bus && mode && self.max_outer_iterations == other.max_outer_iterations
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
    }

    #[test]
    fn parse_round_trips_labels() {
        for bus in [
            BusPolicy::FixedPriority,
            BusPolicy::RoundRobin { slots: 3 },
            BusPolicy::Tdma { slots: 3 },
            BusPolicy::Perfect,
        ] {
            assert_eq!(BusPolicy::try_parse(bus.label(), 3), Ok(bus));
        }
        assert!(BusPolicy::try_parse("bogus", 2).is_err());
        // Slotted policies need s ≥ 1; the others ignore the count.
        assert!(BusPolicy::try_parse("rr", 0).is_err());
        assert!(BusPolicy::try_parse("tdma", 0)
            .unwrap_err()
            .contains("at least one slot"));
        assert_eq!(BusPolicy::try_parse("fp", 0), Ok(BusPolicy::FixedPriority));
        assert_eq!(BusPolicy::try_parse("perfect", 0), Ok(BusPolicy::Perfect));
        assert_eq!(
            BusPolicy::paper_buses(2).map(|b| b.label()),
            ["fp", "rr", "tdma"]
        );
        for mode in [PersistenceMode::Aware, PersistenceMode::Oblivious] {
            assert_eq!(PersistenceMode::try_parse(mode.label()), Ok(mode));
        }
        assert!(PersistenceMode::try_parse("forgetful")
            .unwrap_err()
            .contains("unknown persistence mode `forgetful`"));
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
}
