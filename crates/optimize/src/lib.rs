//! Design-space optimization over the persistence-aware analysis.
//!
//! The analysis of *Cache Persistence-Aware Memory Bus Contention Analysis
//! for Multicore Systems* (Rashid, Nelissen, Tovar — DATE 2020) answers
//! "is this configuration schedulable?". This crate asks the inverse
//! question: given the tasks, *which* configuration — task-to-core
//! partitioning, priority assignment and cache coloring — maximizes the
//! schedulability margin? All three dimensions interact through the
//! analysis: partitioning moves tasks between the per-core CRPD/CPRO
//! interference sets (γ and ρ̂ of Eq. (2)/(14)), priorities reshape the
//! hp/lp relations of Eq. (19), and coloring rotates ECB/UCB/PCB
//! footprints to shrink the inter-task overlaps those terms are built on.
//!
//! # Pieces
//!
//! * [`Candidate`] — one point in the space; applying it rebuilds a
//!   concrete task set ([`candidate`]).
//! * [`Score`] — a totally ordered schedulability margin ([`score`]).
//! * [`optimize`] — exhaustive enumeration on small spaces, Audsley-seeded
//!   deterministic local search otherwise; one sequential loop with a
//!   per-request solve memo and one reused scratch ([`search`]).
//! * [`process_batch`] — the service surface: a JSON array of
//!   [`OptimizeRequest`]s in, verdicts + optimized assignments + search
//!   statistics out, with the batch's unique cache misses fanned over
//!   `cpa-pool`, one search per worker item ([`service`]).
//! * [`ResultCache`] — content-addressed response store keyed on the
//!   canonical request fingerprint; warm runs replay the exact cold-run
//!   bytes ([`cache`]).
//!
//! # Determinism contract
//!
//! For a fixed request batch the response document is byte-identical
//! across runs, worker-thread counts, and cache temperatures. See the
//! `optimizer_determinism` integration test and DESIGN.md §13.
//!
//! # Example
//!
//! ```
//! use cpa_optimize::{gen_batch, process_batch, GenOptions, ResultCache, ServiceOptions};
//!
//! let mut opts = GenOptions::default();
//! opts.sets = 1;
//! opts.cores = 2;
//! opts.tasks_per_core = 2;
//! opts.cache_sets = 16;
//! opts.toy = true;
//! let batch = gen_batch(&opts).unwrap();
//!
//! let mut cache = ResultCache::in_memory();
//! let service = ServiceOptions::default();
//! let (cold, stats) = process_batch(&batch, &service, &mut cache).unwrap();
//! assert_eq!(stats.cache_misses, 1);
//! // A second run over the same batch is served entirely from the cache,
//! // byte for byte.
//! let (warm, stats) = process_batch(&batch, &service, &mut cache).unwrap();
//! assert_eq!(stats.cache_hits, 1);
//! assert_eq!(cold, warm);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cache;
pub mod candidate;
pub mod score;
pub mod search;
pub mod service;

pub use cache::ResultCache;
pub use candidate::Candidate;
pub use score::{evaluate_result, Evaluation, Score};
pub use search::{optimize, SearchKnobs, SearchOutcome, SearchStats};
pub use service::{
    gen_batch, process_batch, request_key, BatchStats, GenOptions, OptimizeRequest,
    OptimizeResponse, ServiceOptions, TaskAssignment,
};
