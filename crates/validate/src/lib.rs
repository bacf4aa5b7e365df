//! Differential soundness validation of the analysis against the simulator.
//!
//! The analytical WCRT bounds of [`cpa_analysis`] are upper bounds on
//! behaviour the cycle-accurate simulator of [`cpa_sim`] can actually
//! exhibit. This crate cross-checks the two on randomized workloads from
//! [`cpa_workload`], at campaign scale, and — when a check fails — shrinks
//! the offending task set to a minimal, replayable counterexample.
//!
//! # Oracles
//!
//! | Oracle | Property checked |
//! |---|---|
//! | *soundness* | every observed response time ≤ the analytical WCRT of a schedulable config, and no simulated deadline miss |
//! | *dominance* | persistence-aware bounds never exceed persistence-oblivious ones (Lemmas 1–2 refine, never relax) |
//! | *determinism* | same seed ⇒ bit-identical task set, analysis result, and [`cpa_sim::SimReport`] |
//! | *accounting* | simulator bookkeeping invariants (completions ≤ releases, bus-transaction totals consistent, …) |
//! | *equivalence* | the analysis engine's response times and verdict equal [`cpa_analysis::spec::analyze`]'s on every matrix entry; where the spec overflows `u64`, the engine reports unschedulable |
//!
//! # Example
//!
//! A miniature campaign (CI-sized; `cpa-validate run` drives the full
//! version):
//!
//! ```
//! use cpa_validate::{run_campaign, CampaignOptions};
//!
//! let opts = CampaignOptions::new().with_sets(4).with_quick(true);
//! let outcome = run_campaign(&opts);
//! assert_eq!(outcome.report.stats.checked_sets, 4);
//! assert!(outcome.report.passed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod campaign;
pub mod oracle;
pub mod report;
pub mod repro;
pub mod shrink;

pub use campaign::{run_campaign, CampaignOptions, CampaignOutcome, ViolationCase};
pub use oracle::{
    check_task_set, platform_for_tasks, CheckOptions, Inject, OracleKind, SetOutcome, Violation,
};
pub use report::{CampaignStats, OracleStat, OracleStats, ValidationReport, ViolationRecord};
pub use repro::{Repro, ReproError};
pub use shrink::{shrink_case, ShrinkOutcome};
