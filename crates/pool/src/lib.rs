//! `cpa-pool` — the deterministic dynamic-scheduling worker pool shared
//! by the experiment sweeps (`cpa-experiments`) and the differential
//! campaigns (`cpa-validate`).
//!
//! # Why not static striping
//!
//! Both drivers used to hand workers a fixed stride (`item += threads`).
//! That load-imbalances badly on exactly this workload: unschedulable
//! task sets iterate the WCRT outer loop to its cap while schedulable
//! ones converge in a few sweeps, so one stripe can carry most of the
//! long tail. Here workers instead *claim* contiguous chunks from a
//! shared [`AtomicUsize`] cursor (`fetch_add`) — a fast worker that
//! drains its chunk simply claims the next one, so the tail spreads
//! itself across threads with one relaxed RMW per chunk.
//!
//! # Determinism argument
//!
//! Dynamic scheduling changes *which thread* computes an item, never
//! *what* is computed or *how results combine*:
//!
//! 1. Each item's work is a pure function of `(item index, shared
//!    state)` — per-item RNGs are seeded from the index, never from a
//!    shared stream.
//! 2. Workers record `(chunk_start, results)` pairs privately; after the
//!    join, [`map`] sorts the pairs by `chunk_start` and flattens them.
//!    The returned `Vec` is therefore in item-index order at any thread
//!    count and any chunk size — callers fold it sequentially, so even
//!    non-associative reductions (f64 sums) are byte-identical.
//! 3. Trace events are stamped with a collision-free [`scope_key`]
//!    derived from the item index, so the canonical `(scope, seq)` sort
//!    in `cpa-obs` restores one global order.
//!
//! # Thread-count policy
//!
//! [`resolve_threads`] is the single policy for both drivers: an
//! explicit request (`threads > 0`) is honored verbatim; `0` means
//! auto-detect via [`std::thread::available_parallelism`], capped at
//! [`MAX_AUTO_THREADS`]. The cap exists because sweep items are
//! memory-bound (shared cache-block set unions) and oversubscribing
//! large machines was observed to slow campaigns down; it previously
//! lived only in `campaign.rs` while `runner.rs` spawned unbounded —
//! the drivers now cannot diverge.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Auto-detected parallelism is capped here; see the crate docs for why.
/// An explicit `threads` request is never capped. The cap itself can be
/// overridden per-process via [`MAX_AUTO_THREADS_ENV`].
pub const MAX_AUTO_THREADS: usize = 8;

/// Environment variable overriding [`MAX_AUTO_THREADS`] for auto-detected
/// worker counts (`CPA_MAX_AUTO_THREADS=16`). Unset, empty, zero, or
/// unparsable values fall back to the built-in cap. Explicit `--threads`
/// requests are never capped, so this only matters on hosts with more
/// cores than the default cap where re-running with a flag is awkward
/// (CI images, batch schedulers).
pub const MAX_AUTO_THREADS_ENV: &str = "CPA_MAX_AUTO_THREADS";

/// Items per claimed chunk when the caller does not fix one.
///
/// Small enough that a long-tail chunk cannot hold more than a sliver of
/// the run hostage, large enough that the shared-cursor RMW and the
/// per-chunk `Vec` bookkeeping stay negligible against per-item work in
/// the hundreds of microseconds.
const DEFAULT_CHUNK: usize = 4;

/// Scheduling knobs for [`map`]. Construct with [`PoolOptions::new`] and
/// refine with the builder methods.
#[derive(Debug, Clone, Copy)]
pub struct PoolOptions {
    threads: usize,
    chunk: usize,
}

impl Default for PoolOptions {
    fn default() -> Self {
        Self::new()
    }
}

impl PoolOptions {
    /// Auto-detected thread count, default chunk size.
    #[must_use]
    pub fn new() -> Self {
        Self {
            threads: 0,
            chunk: 0,
        }
    }

    /// Requests an explicit worker count; `0` restores auto-detection.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Requests an explicit chunk size; `0` restores the default.
    ///
    /// Output is byte-identical at any chunk size (see the crate docs);
    /// the knob exists for benchmarks and the determinism proptests.
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// The worker count this configuration resolves to.
    #[must_use]
    pub fn threads(&self) -> usize {
        resolve_threads(self.threads)
    }

    /// The chunk size this configuration resolves to.
    #[must_use]
    pub fn chunk(&self) -> usize {
        if self.chunk > 0 {
            self.chunk
        } else {
            DEFAULT_CHUNK
        }
    }
}

/// Resolves a requested worker count to an actual one: explicit requests
/// (`requested > 0`) are honored verbatim; `0` auto-detects and caps at
/// [`MAX_AUTO_THREADS`] (or the [`MAX_AUTO_THREADS_ENV`] override). A
/// clamped auto-detection emits one `pool.threads_clamped` event so a
/// trace of the run records that the host had more cores than were used.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    let detected = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    clamp_auto(detected, auto_cap())
}

/// The effective auto-detect cap: [`MAX_AUTO_THREADS_ENV`] when it parses
/// to a positive integer, the built-in [`MAX_AUTO_THREADS`] otherwise.
fn auto_cap() -> usize {
    std::env::var(MAX_AUTO_THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&cap| cap > 0)
        .unwrap_or(MAX_AUTO_THREADS)
}

/// Applies the cap to a detected core count, recording a clamp as a
/// structured event (not a counter: it is one fact about the host, not a
/// meter that accumulates).
fn clamp_auto(detected: usize, cap: usize) -> usize {
    if detected > cap {
        cpa_obs::event!("pool.threads_clamped", detected = detected, cap = cap);
        cap
    } else {
        detected
    }
}

/// Width of the item field in a [`scope_key`]: items occupy the low 40
/// bits, epochs the high 24.
const SCOPE_ITEM_BITS: u32 = 40;

/// Packs `(epoch, item)` into one collision-free `u64` trace scope.
///
/// The old ad-hoc packing in `runner.rs` (`epoch * 2^32 + set`, with
/// wrapping arithmetic) silently aliased scopes once an item index
/// crossed `2^32`. This split gives 2^24 epochs x 2^40 items, panics
/// instead of aliasing, and is order-preserving in both fields — and
/// `scope_key(0, item) == item`, so single-epoch drivers (the campaign)
/// keep their historical scope values and trace bytes.
#[must_use]
pub fn scope_key(epoch: u64, item: u64) -> u64 {
    assert!(
        epoch < (1 << (64 - SCOPE_ITEM_BITS)),
        "scope epoch {epoch} exceeds 24 bits"
    );
    assert!(
        item < (1 << SCOPE_ITEM_BITS),
        "scope item {item} exceeds 40 bits"
    );
    (epoch << SCOPE_ITEM_BITS) | item
}

/// Runs `work` over `0..items` on a deterministic dynamic-scheduling
/// pool and returns the per-item results in item-index order.
///
/// * `epoch` — trace-scope epoch for this parallel region; take one per
///   region from [`cpa_obs::next_scope_epoch`]. Before each item the
///   pool calls `cpa_obs::set_scope(scope_key(epoch, item))`, so events
///   the item emits sort canonically regardless of worker assignment.
/// * `init` — per-worker state constructor (scratch buffers, generator
///   handles); called once per spawned worker.
/// * `work(state, item)` — must be a pure function of the item index and
///   whatever `init` captured; it must not depend on which worker runs
///   it or on claim order.
///
/// Worker states are constructed fresh per call, on the calling thread
/// before any worker starts.
///
/// Single-worker runs, and runs of at most one chunk, execute inline on
/// the calling thread — no spawn, no join — with the caller's obs
/// ordering state saved and restored around the region and its open
/// spans detached, so per-item scoping stays canonical, worker spans
/// record at the profile root as on a spawned worker, and the caller's
/// own event ordering is unperturbed. Multi-worker runs use scoped
/// threads; outputs are byte-identical either way (the determinism
/// argument in the crate docs does not depend on where an item runs).
///
/// Counters: `pool.chunks_claimed` counts every chunk claim;
/// `pool.chunks_stolen` counts claims beyond a worker's fair share
/// (`ceil(chunks / threads)`) — work it would never have seen under
/// static partitioning. `cpa-trace` reports the stolen/claimed ratio.
pub fn map<S, R, I, W>(items: usize, opts: PoolOptions, epoch: u64, init: I, work: W) -> Vec<R>
where
    S: Send,
    R: Send,
    I: Fn(usize) -> S + Sync,
    W: Fn(&mut S, usize) -> R + Sync,
{
    let threads = opts.threads();
    let chunk = opts.chunk();
    let chunks_claimed = cpa_obs::counter("pool.chunks_claimed");
    let chunks_stolen = cpa_obs::counter("pool.chunks_stolen");
    // Unlike the chunk meters above (scheduling artifacts, excluded from
    // deterministic exports), the item count depends only on the workload:
    // it is the pool's work-unit counter for per-stage attribution.
    cpa_obs::counter("pool.items").add(items as u64);
    let mut states: Vec<S> = (0..threads).map(&init).collect();

    // A single chunk can only ever go to one worker: run it inline rather
    // than spawning workers that would find nothing to claim.
    if threads == 1 || items <= chunk {
        // Items run on the calling thread, but with the ordering state and
        // span parentage of a spawned worker, so traces and profiles do
        // not depend on the thread count.
        let caller = cpa_obs::scope_state();
        let caller_spans = cpa_obs::detach_spans();
        let state = &mut states[0];
        let mut out = Vec::with_capacity(items);
        chunks_claimed.add(items.div_ceil(chunk) as u64);
        for item in 0..items {
            cpa_obs::set_scope(scope_key(epoch, item as u64));
            out.push(work(state, item));
        }
        cpa_obs::reattach_spans(caller_spans);
        cpa_obs::restore_scope_state(caller);
        return out;
    }

    let total_chunks = items.div_ceil(chunk);
    let fair_share = total_chunks.div_ceil(threads.max(1));
    let cursor = AtomicUsize::new(0);

    // Each worker collects (chunk_start, results) pairs; the claim order
    // is racy but the post-join sort keyed on chunk_start restores the
    // one canonical item order.
    let mut per_worker: Vec<Vec<(usize, Vec<R>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .take(threads)
            .map(|state| {
                let cursor = &cursor;
                let work = &work;
                scope.spawn(move || {
                    let mut claimed = Vec::new();
                    let mut claims = 0usize;
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items {
                            break;
                        }
                        claims += 1;
                        chunks_claimed.incr();
                        if claims > fair_share {
                            chunks_stolen.incr();
                        }
                        let end = (start + chunk).min(items);
                        let mut results = Vec::with_capacity(end - start);
                        for item in start..end {
                            cpa_obs::set_scope(scope_key(epoch, item as u64));
                            results.push(work(state, item));
                        }
                        claimed.push((start, results));
                    }
                    claimed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });

    let mut chunks: Vec<(usize, Vec<R>)> = per_worker.drain(..).flatten().collect();
    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(items);
    for (_, results) in chunks {
        out.extend(results);
    }
    debug_assert_eq!(out.len(), items);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn explicit_thread_requests_are_verbatim() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(MAX_AUTO_THREADS + 5), MAX_AUTO_THREADS + 5);
    }

    #[test]
    fn auto_detection_is_capped_and_env_overrides() {
        // One test, run serially within itself: the override variable is
        // process-global, so splitting these assertions across #[test]
        // functions would race under the parallel test runner.
        std::env::remove_var(MAX_AUTO_THREADS_ENV);
        let auto = resolve_threads(0);
        assert!(auto >= 1);
        assert!(auto <= MAX_AUTO_THREADS);
        assert_eq!(auto_cap(), MAX_AUTO_THREADS);
        for bogus in ["", "0", "-3", "lots"] {
            std::env::set_var(MAX_AUTO_THREADS_ENV, bogus);
            assert_eq!(auto_cap(), MAX_AUTO_THREADS, "bogus value {bogus:?}");
        }
        std::env::set_var(MAX_AUTO_THREADS_ENV, " 16 ");
        assert_eq!(auto_cap(), 16);
        std::env::remove_var(MAX_AUTO_THREADS_ENV);

        // The clamp policy itself, independent of the host's core count.
        assert_eq!(clamp_auto(4, 8), 4);
        assert_eq!(clamp_auto(8, 8), 8);
        assert_eq!(clamp_auto(64, 8), 8);
    }

    #[test]
    fn scope_keys_are_injective_and_item_preserving() {
        assert_eq!(scope_key(0, 7), 7, "epoch 0 preserves raw item scopes");
        assert_eq!(scope_key(1, 0), 1 << 40);
        // The old wrapping packing aliased (epoch, item) and
        // (epoch + 1, item - 2^32); the split packing cannot.
        assert_ne!(scope_key(1, 123), scope_key(2, 123));
        assert_ne!(scope_key(1, 1 << 33), scope_key(3, 0));
    }

    #[test]
    #[should_panic(expected = "exceeds 24 bits")]
    fn oversized_epochs_panic_instead_of_aliasing() {
        let _ = scope_key(1 << 24, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds 40 bits")]
    fn oversized_items_panic_instead_of_aliasing() {
        let _ = scope_key(0, 1 << 40);
    }

    #[test]
    fn map_returns_items_in_index_order() {
        for threads in [1, 2, 5] {
            let opts = PoolOptions::new().with_threads(threads).with_chunk(3);
            let out = map(10, opts, 0, |_| (), |(), i| i * i);
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_zero_items() {
        let out: Vec<usize> = map(0, PoolOptions::new().with_threads(2), 0, |_| (), |(), i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn workers_see_their_own_state() {
        // Per-worker accumulators must not leak across items in a way
        // that depends on scheduling: state resets are the caller's job,
        // but identity (which worker index seeded the state) is fixed at
        // init time and the per-item *results* stay index-pure here.
        let opts = PoolOptions::new().with_threads(4).with_chunk(1);
        let out = map(
            64,
            opts,
            0,
            |_worker| 0u64,
            |calls, i| {
                *calls += 1;
                i as u64 + 1
            },
        );
        assert_eq!(out, (1..=64).collect::<Vec<u64>>());
    }

    #[test]
    fn inline_execution_restores_the_callers_ordering_state() {
        // The single-worker path runs on the calling thread; afterwards
        // the caller's scope and sequence counter must look exactly as
        // they did before, or its later events would collide with its
        // earlier ones in the canonical (scope, seq) order.
        cpa_obs::set_scope(77);
        cpa_obs::event!("pool.test_before");
        let before = cpa_obs::scope_state();
        let _ = map(
            4,
            PoolOptions::new().with_threads(1),
            0,
            |_| (),
            |(), i| {
                cpa_obs::event!("pool.test_item");
                i
            },
        );
        assert_eq!(cpa_obs::scope_state(), before);
    }

    proptest! {
        /// The determinism claim, mechanically: any (threads, chunk)
        /// produces exactly the sequential map.
        #[test]
        fn pool_matches_sequential_map(
            items in 0usize..80,
            threads in 1usize..6,
            chunk in 1usize..12,
        ) {
            let opts = PoolOptions::new().with_threads(threads).with_chunk(chunk);
            let out = map(items, opts, 0, |_| (), |(), i| i.wrapping_mul(2654435761));
            let expected: Vec<usize> =
                (0..items).map(|i| i.wrapping_mul(2654435761)).collect();
            prop_assert_eq!(out, expected);
        }
    }
}
