//! Structured campaign reports.
//!
//! A campaign produces a [`ValidationReport`]: campaign options, per-oracle
//! check/violation counters, the recorded violations (with repro-file
//! pointers once the shrinker has run), and wall-clock statistics. The
//! report serializes to JSON for CI consumption; [`ValidationReport::summary`]
//! renders the one-line human version.

use serde::Serialize;

use crate::oracle::OracleKind;

/// Check/violation counters for one oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OracleStat {
    /// Individual comparisons performed.
    pub checks: u64,
    /// Comparisons that failed.
    pub violations: u64,
}

impl OracleStat {
    fn merge(&mut self, other: &OracleStat) {
        self.checks += other.checks;
        self.violations += other.violations;
    }
}

/// Counters for all five oracles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OracleStats {
    /// Observed behaviour within analytical bounds.
    pub soundness: OracleStat,
    /// Aware bounds never exceed oblivious bounds.
    pub dominance: OracleStat,
    /// Same seed reproduces identical results.
    pub determinism: OracleStat,
    /// Simulator bookkeeping invariants.
    pub accounting: OracleStat,
    /// The analysis engine agrees with the literal spec.
    pub equivalence: OracleStat,
}

impl OracleStats {
    /// The counter bucket for `kind`.
    pub fn stat_mut(&mut self, kind: OracleKind) -> &mut OracleStat {
        match kind {
            OracleKind::Soundness => &mut self.soundness,
            OracleKind::Dominance => &mut self.dominance,
            OracleKind::Determinism => &mut self.determinism,
            OracleKind::Accounting => &mut self.accounting,
            OracleKind::Equivalence => &mut self.equivalence,
        }
    }

    /// Adds another stats block into this one (campaign merge step).
    pub fn merge(&mut self, other: &OracleStats) {
        self.soundness.merge(&other.soundness);
        self.dominance.merge(&other.dominance);
        self.determinism.merge(&other.determinism);
        self.accounting.merge(&other.accounting);
        self.equivalence.merge(&other.equivalence);
    }

    /// Total comparisons across all oracles.
    #[must_use]
    pub fn total_checks(&self) -> u64 {
        self.soundness.checks
            + self.dominance.checks
            + self.determinism.checks
            + self.accounting.checks
            + self.equivalence.checks
    }

    /// Total failed comparisons across all oracles.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.soundness.violations
            + self.dominance.violations
            + self.determinism.violations
            + self.accounting.violations
            + self.equivalence.violations
    }
}

/// One violation as it appears in the campaign report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ViolationRecord {
    /// Campaign-wide index of the offending task set.
    pub set_index: u64,
    /// Derived seed that regenerates the task set.
    pub set_seed: u64,
    /// The oracle that failed.
    pub oracle: OracleKind,
    /// What diverged.
    pub message: String,
    /// Path of the minimized repro file, once written.
    pub repro: Option<String>,
}

/// The deterministic portion of a campaign result: everything except
/// wall-clock timing. Two campaigns with the same options must produce
/// equal `CampaignStats` regardless of thread count.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct CampaignStats {
    /// Task sets generated and checked.
    pub checked_sets: u64,
    /// Task sets the generator failed to produce (counted, not checked).
    pub generation_failures: u64,
    /// Task sets with at least one schedulable analysis configuration.
    pub schedulable_sets: u64,
    /// Per-oracle counters.
    pub oracles: OracleStats,
    /// Recorded violations, ordered by set index.
    pub violations: Vec<ViolationRecord>,
}

/// Campaign options echoed into the report.
#[derive(Debug, Clone, Serialize)]
pub struct OptionsSummary {
    /// Requested number of task sets.
    pub sets: u64,
    /// Base seed.
    pub seed: u64,
    /// Worker threads used.
    pub threads: usize,
    /// RR/TDMA slot count.
    pub slots: u64,
    /// Whether the quick (smoke) profile was active.
    pub quick: bool,
    /// Fault-injection mode label.
    pub inject: String,
    /// Whether the cycle-stepped reference simulator was used instead of
    /// the event-skipping fast path.
    pub reference_sim: bool,
}

/// The full campaign report.
#[derive(Debug, Clone, Serialize)]
pub struct ValidationReport {
    /// Report schema version.
    pub schema: u32,
    /// Options the campaign ran with.
    pub options: OptionsSummary,
    /// Deterministic result counters.
    pub stats: CampaignStats,
    /// Campaign duration in seconds.
    pub wall_clock_secs: f64,
    /// Throughput over the whole campaign.
    pub sets_per_second: f64,
}

/// Current report schema version.
pub const REPORT_SCHEMA: u32 = 1;

impl ValidationReport {
    /// Whether every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.stats.oracles.total_violations() == 0 && self.stats.generation_failures == 0
    }

    /// Pretty-printed JSON form.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let o = &self.stats.oracles;
        format!(
            "{}: {} sets, {} checks ({} soundness, {} dominance, {} determinism, {} accounting, \
             {} equivalence), {} violations in {:.1}s ({:.1} sets/s)",
            if self.passed() { "PASS" } else { "FAIL" },
            self.stats.checked_sets,
            o.total_checks(),
            o.soundness.checks,
            o.dominance.checks,
            o.determinism.checks,
            o.accounting.checks,
            o.equivalence.checks,
            o.total_violations(),
            self.wall_clock_secs,
            self.sets_per_second,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_every_bucket() {
        let mut a = OracleStats::default();
        a.stat_mut(OracleKind::Soundness).checks = 3;
        a.stat_mut(OracleKind::Accounting).violations = 1;
        let mut b = OracleStats::default();
        b.stat_mut(OracleKind::Soundness).checks = 2;
        b.stat_mut(OracleKind::Dominance).checks = 5;
        a.merge(&b);
        assert_eq!(a.soundness.checks, 5);
        assert_eq!(a.dominance.checks, 5);
        assert_eq!(a.total_checks(), 10);
        assert_eq!(a.total_violations(), 1);
    }

    #[test]
    fn report_json_and_summary_reflect_outcome() {
        let report = ValidationReport {
            schema: REPORT_SCHEMA,
            options: OptionsSummary {
                sets: 10,
                seed: 1,
                threads: 2,
                slots: 2,
                quick: true,
                inject: "none".to_string(),
                reference_sim: false,
            },
            stats: CampaignStats {
                checked_sets: 10,
                ..CampaignStats::default()
            },
            wall_clock_secs: 1.5,
            sets_per_second: 6.7,
        };
        assert!(report.passed());
        assert!(report.summary().starts_with("PASS: 10 sets"));
        let json = report.to_json();
        assert!(json.contains("\"checked_sets\": 10"), "{json}");
        assert!(json.contains("\"schema\": 1"), "{json}");
    }
}
