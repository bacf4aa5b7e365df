//! System model for cache persistence-aware multicore bus contention analysis.
//!
//! This crate defines the data model shared by every other crate in the
//! workspace: discrete [`Time`] in processor cycles, typed identifiers
//! ([`TaskId`], [`CoreId`], [`Priority`]), sets of cache blocks
//! ([`CacheBlockSet`]), sporadic [`Task`]s characterised by the quadruple
//! `(PD_i, MD_i, D_i, T_i)` extended with cache footprint information
//! (`UCB_i`, `ECB_i`, `PCB_i`, `MD_i^r`), partitioned [`TaskSet`]s with a
//! unique global priority order, and the multicore [`Platform`]
//! (`m` timing-compositional cores, private instruction caches, a shared
//! memory bus with per-access cost `d_mem`).
//!
//! The model follows §II of *Cache Persistence-Aware Memory Bus Contention
//! Analysis for Multicore Systems* (Rashid, Nelissen, Tovar — DATE 2020).
//!
//! # Example
//!
//! Build the three-task system of the paper's Fig. 1 and query the priority
//! index algebra:
//!
//! ```
//! use cpa_model::{
//!     CacheBlockSet, CacheGeometry, CoreId, Platform, Priority, Task, TaskSet, Time,
//! };
//!
//! # fn main() -> Result<(), cpa_model::ModelError> {
//! let sets = 256;
//! let tau1 = Task::builder("tau1")
//!     .processing_demand(Time::from_cycles(4))
//!     .memory_demand(6)
//!     .residual_memory_demand(1)
//!     .period(Time::from_cycles(100))
//!     .deadline(Time::from_cycles(100))
//!     .core(CoreId::new(0))
//!     .priority(Priority::new(1))
//!     .ecb(CacheBlockSet::from_blocks(sets, 5..=10)?)
//!     .pcb(CacheBlockSet::from_blocks(sets, [5, 6, 7, 8, 10])?)
//!     .ucb(CacheBlockSet::from_blocks(sets, [5, 6, 7, 8, 10])?)
//!     .build()?;
//! let tau2 = Task::builder("tau2")
//!     .processing_demand(Time::from_cycles(32))
//!     .memory_demand(8)
//!     .residual_memory_demand(8)
//!     .period(Time::from_cycles(400))
//!     .deadline(Time::from_cycles(400))
//!     .core(CoreId::new(0))
//!     .priority(Priority::new(2))
//!     .ecb(CacheBlockSet::from_blocks(sets, 1..=6)?)
//!     .ucb(CacheBlockSet::from_blocks(sets, [5, 6])?)
//!     .build()?;
//! let tasks = TaskSet::new(vec![tau1, tau2])?;
//! assert_eq!(tasks.hp(tasks.id_of("tau2").unwrap()).count(), 1);
//!
//! let platform = Platform::builder()
//!     .cores(2)
//!     .cache(CacheGeometry::direct_mapped(sets, 32))
//!     .memory_latency(Time::from_cycles(1))
//!     .build()?;
//! assert_eq!(platform.cores(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod blocks;
mod canon;
mod error;
mod ids;
mod platform;
mod task;
mod taskset;
mod time;
mod utilization;

pub use blocks::CacheBlockSet;
pub use canon::ContentHasher;
pub use error::ModelError;
pub use ids::{CoreId, Priority, TaskId};
pub use platform::{CacheGeometry, Platform, PlatformBuilder};
pub use task::{Task, TaskBuilder};
pub use taskset::{TaskSet, MAX_CACHE_SETS, MAX_TASKS};
pub use time::Time;
pub use utilization::UtilizationSum;
