//! Cache persistence-aware memory bus contention and WCRT analysis.
//!
//! This crate implements the full analysis of *Cache Persistence-Aware
//! Memory Bus Contention Analysis for Multicore Systems* (Rashid, Nelissen,
//! Tovar — DATE 2020), together with the persistence-oblivious baseline it
//! extends (Davis et al., *An extensible framework for multicore response
//! time analysis*, Real-Time Systems 2018).
//!
//! # Map from paper to code
//!
//! Every equation has exactly two evaluators: the engine behind
//! [`analyze_with`] (fused same-core walk, cached `BAO`) and the literal
//! oracle [`spec`] (the equation as printed, in checked arithmetic), which
//! the engine is pinned against bit for bit.
//!
//! | Paper | Engine | Spec |
//! |---|---|---|
//! | Eq. (1) `BAS_i^x(t)`, Lemma 1 `BÂS_i^x(t)` | [`bas::same_core_terms`] | [`spec::bas`] |
//! | Eq. (2) `γ_{i,j,x}` (ECB-union CRPD) | [`AnalysisContext::gamma`] | [`crpd::gamma_with`] |
//! | Eq. (3)–(6) `BAO_k^y(t)`, Lemma 2 `BÂO_k^y(t)` | [`bao::BaoSegment`] | [`spec::bao`], Eq. (6) [`spec::n_jobs`] |
//! | Eq. (7)/(8)/(9) FP / RR / TDMA `BAT_i^x(t)` | the engine's cross-core step | [`spec::bat`] |
//! | Eq. (10) `M̂D_i(n)` | [`demand::md_hat_parts`] | [`spec::md_hat`] |
//! | Eq. (14) `ρ̂_{j,i,x}(n)` (CPRO-union) | [`AnalysisContext::cpro`] | [`cpro::cpro_overlap`] |
//! | Eq. (19) WCRT recurrence + outer loop | [`analyze_with`] | [`spec::analyze`] |
//! | "perfect bus" reference (Fig. 2), its bus-utilization gate (deviation 2) | [`BusPolicy::Perfect`], gate summed in [`cpa_model::UtilizationSum`] | [`spec::analyze`], same exact sum |
//! | weighted schedulability (Fig. 3) | [`sched::weighted_schedulability`] | |
//!
//! The engine caches `BAO` as period-scale segments ([`bao::BaoSegment`]),
//! runs the outer fixed point as the spec's Gauss–Seidel sweep, and
//! composes Eq. (7)/(8)/(9) in one `match` on the bus policy ([`engine`]).
//! It also emits the BAS/BAO/CPRO/CRPD split of each bound
//! ([`decompose`]). [`analyze_with`] is the one entry point;
//! [`analyze`] is its one-line form with a fresh scratch, and
//! [`verdict_with`] its verdict alone, certified at the deadlines when it
//! can be.
//!
//! # Example
//!
//! Analyse a two-core task set under a round-robin bus, with and without
//! cache persistence:
//!
//! ```
//! use cpa_analysis::{AnalysisConfig, AnalysisContext, BusPolicy, PersistenceMode, analyze};
//! use cpa_model::{CacheBlockSet, CoreId, Platform, Priority, Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::builder()
//!     .cores(2)
//!     .memory_latency(Time::from_cycles(10))
//!     .build()?;
//! let mk = |name: &str, prio, core, md, md_r, start| -> Result<Task, cpa_model::ModelError> {
//!     Task::builder(name)
//!         .processing_demand(Time::from_cycles(100))
//!         .memory_demand(md)
//!         .residual_memory_demand(md_r)
//!         .period(Time::from_cycles(10_000))
//!         .deadline(Time::from_cycles(10_000))
//!         .core(CoreId::new(core))
//!         .priority(Priority::new(prio))
//!         .ecb(CacheBlockSet::contiguous(256, start, 40))
//!         .pcb(CacheBlockSet::contiguous(256, start, 30))
//!         .build()
//! };
//! let tasks = TaskSet::new(vec![
//!     mk("a", 1, 0, 40, 10, 0)?,
//!     mk("b", 2, 1, 40, 10, 100)?,
//!     mk("c", 3, 0, 40, 10, 30)?,
//! ])?;
//! let ctx = AnalysisContext::new(&platform, &tasks)?;
//!
//! let aware = analyze(&ctx, &AnalysisConfig::new(
//!     BusPolicy::RoundRobin { slots: 2 },
//!     PersistenceMode::Aware,
//! ));
//! let oblivious = analyze(&ctx, &AnalysisConfig::new(
//!     BusPolicy::RoundRobin { slots: 2 },
//!     PersistenceMode::Oblivious,
//! ));
//! assert!(aware.is_schedulable());
//! // Persistence-aware response times are never worse.
//! for (a, o) in aware.response_times().iter().zip(oblivious.response_times()) {
//!     assert!(a.unwrap() <= o.unwrap());
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod bao;
pub mod bas;
mod config;
mod context;
pub mod cpro;
pub mod crpd;
pub mod demand;
pub mod diagnose;
pub mod engine;
pub mod sched;
pub mod spec;
pub mod wcrt;

pub use config::{AnalysisConfig, BusPolicy, PersistenceMode};
pub use context::{AnalysisContext, ContextBuffers, TaskColumns};
pub use crpd::CrpdApproach;
pub use diagnose::{decompose, DominantTerm, TermDecomposition};
pub use engine::AnalysisScratch;
pub use sched::{weighted_schedulability, WeightedAccumulator};
pub use wcrt::{analyze, analyze_with, verdict_with, AnalysisResult};
