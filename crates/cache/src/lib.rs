//! Instruction-cache models and static cache analysis — the workspace's
//! Heptane substitute.
//!
//! The paper obtains every per-task parameter (`PD`, `MD`, `MD^r`, `UCB`,
//! `ECB`, `PCB`) by running the Heptane static WCET analyzer over the
//! Mälardalen benchmarks. This crate rebuilds that extraction pipeline from
//! scratch for the synthetic programs of [`cpa_cfg`]:
//!
//! * [`concrete`] — an executable set-associative LRU cache model; the
//!   ground-truth oracle that the static analysis is validated against;
//! * [`must`] — the abstract-interpretation *must* analysis with LRU age
//!   bounds (Ferdinand-style) that the `MD`/`MD^r` walk threads;
//! * [`analysis`] — the structural walk over a program computing
//!   worst-case miss counts (`MD`), residual miss counts (`MD^r`),
//!   persistence (`PCB`: blocks whose cache set hosts at most
//!   *associativity* distinct blocks are never self-evicted), evicting
//!   blocks (`ECB`) and useful blocks (`UCB`);
//! * [`mod@extract`] — the public entry point bundling everything into
//!   [`ExtractedParams`] ready to instantiate a
//!   [`cpa_model::Task`].
//!
//! There is no *may* analysis and no always-hit/always-miss census: the
//! paper's bound reads neither, and on its direct-mapped platform the
//! set-occupancy rule for `PCB` is already exact (any reachable block that
//! conflicts in the set evicts), so a finer persistence analysis would
//! change no parameter.
//!
//! # Example
//!
//! ```
//! use cpa_cache::extract::extract;
//! use cpa_cfg::{Function, Stmt};
//! use cpa_model::CacheGeometry;
//!
//! // A hot loop whose working set fits: after the compulsory misses,
//! // everything persists.
//! let f = Function::builder("kernel")
//!     .block("body", 64)
//!     .code(Stmt::counted_loop(10, Stmt::block("body")))
//!     .build()?;
//! let geometry = CacheGeometry::direct_mapped(256, 32);
//! let params = extract(&f, geometry);
//! assert_eq!(params.pd, 640);
//! assert_eq!(params.md, 8);      // 64 instructions × 4 B = 8 lines
//! assert_eq!(params.md_r, 0);    // all 8 lines persist
//! assert_eq!(params.pcb.len(), 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod analysis;
pub mod concrete;
pub mod extract;
pub mod must;

pub use concrete::{AccessOutcome, CacheSim, SimulationStats};
pub use extract::{extract, ExtractedParams};
pub use must::MustCache;
