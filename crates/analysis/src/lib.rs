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
//! | Paper | Module / function |
//! |---|---|
//! | Eq. (1) `BAS_i^x(t)` | [`bas::bas_oblivious`] |
//! | Eq. (2) `γ_{i,j,x}` (ECB-union CRPD) | [`crpd`], [`AnalysisContext::gamma`] |
//! | Eq. (3)–(6) `BAO_k^y(t)`, `W`, `W_cout`, `N` | [`bao`] |
//! | Eq. (7) FP bus `BAT_i^x(t)` | [`bus::bat`] with [`BusPolicy::FixedPriority`] |
//! | Eq. (8) RR bus | [`bus::bat`] with [`BusPolicy::RoundRobin`] |
//! | Eq. (9) TDMA bus | [`bus::bat`] with [`BusPolicy::Tdma`] |
//! | Eq. (10) `M̂D_i(n)` | [`demand::md_hat`] |
//! | Eq. (14) `ρ̂_{j,i,x}(n)` (CPRO-union) | [`cpro`], [`AnalysisContext::cpro`] |
//! | Lemma 1 `BÂS_i^x(t)` | [`bas::bas_aware`] |
//! | Lemma 2 `BÂO_k^y(t)` | [`bao::bao_aware`] |
//! | Eq. (19) WCRT recurrence + outer loop | [`wcrt`], [`engine`] |
//! | "perfect bus" reference (Fig. 2) | [`BusPolicy::Perfect`], [`sched`] |
//! | weighted schedulability (Fig. 3) | [`sched::weighted_schedulability`] |
//!
//! The hot path is organised as an engine ([`engine::AnalysisEngine`]):
//! demand bounds are memoized as monotone step curves ([`curve`]), the
//! outer fixed point runs as a dependency-driven worklist, and the
//! per-policy Eq. (7)/(8)/(9) composition lives behind one
//! [`arbiter::BusArbiter`] trait. [`analyze`] always goes through the
//! engine; [`analyze_reference`] keeps the direct sweep as the semantic
//! baseline the engine is differentially pinned against.
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

pub mod arbiter;
pub mod bao;
pub mod bas;
pub mod bus;
mod config;
mod context;
pub mod cpro;
pub mod crpd;
pub mod curve;
pub mod demand;
pub mod diagnose;
pub mod engine;
pub mod sched;
pub mod wcrt;

pub use config::{AnalysisConfig, BusPolicy, PersistenceMode};
pub use context::{AnalysisContext, ContextBuffers, TaskColumns};
pub use crpd::CrpdApproach;
pub use diagnose::{decompose, DominantTerm, TermDecomposition};
pub use engine::AnalysisScratch;
pub use sched::{weighted_schedulability, WeightedAccumulator};
pub use wcrt::{analyze, analyze_reference, analyze_with, explain, AnalysisResult, WcrtBreakdown};
