//! The global subscriber: enable flags, event buffer, counter/histogram
//! registries, scope bookkeeping, and span timing.

use crate::event::Event;
use crate::metrics::{Counter, Histogram, MetricsSnapshot};
use crate::profile::ProfileNode;
use crate::value::FieldValue;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Gates [`emit`] / the [`crate::event!`] macro.
static EVENTS_ON: AtomicBool = AtomicBool::new(false);
/// Gates spans and histograms (wall-clock / distribution recording).
static TIMING_ON: AtomicBool = AtomicBool::new(false);

struct Registry {
    events: Mutex<Vec<Event>>,
    counters: Mutex<BTreeMap<&'static str, &'static AtomicU64>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
    profile: Mutex<ProfileNode>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        events: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        profile: Mutex::new(ProfileNode::new("")),
    })
}

thread_local! {
    /// Current logical ordering scope for this thread.
    static SCOPE: Cell<u64> = const { Cell::new(0) };
    /// Next event sequence number within the current scope.
    static SEQ: Cell<u64> = const { Cell::new(0) };
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_PATH: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Enables everything: events, spans, and histograms.
pub fn enable() {
    EVENTS_ON.store(true, Ordering::Relaxed);
    TIMING_ON.store(true, Ordering::Relaxed);
}

/// Enables spans and histograms but not the event stream.
///
/// This is the `--metrics`-only mode: campaign-scale runs keep their
/// counters, distributions, and self-profile without buffering a
/// potentially huge event stream.
pub fn enable_metrics() {
    TIMING_ON.store(true, Ordering::Relaxed);
}

/// Disables events, spans, and histograms (counters always stay on).
pub fn disable() {
    EVENTS_ON.store(false, Ordering::Relaxed);
    TIMING_ON.store(false, Ordering::Relaxed);
}

/// True when the event stream is being recorded.
#[inline]
#[must_use]
pub fn events_enabled() -> bool {
    EVENTS_ON.load(Ordering::Relaxed)
}

/// True when spans and histograms are being recorded.
#[inline]
#[must_use]
pub fn timing_enabled() -> bool {
    TIMING_ON.load(Ordering::Relaxed)
}

/// True when any gated instrumentation (events or timing) is on.
#[inline]
#[must_use]
pub fn active() -> bool {
    events_enabled() || timing_enabled()
}

/// Sets this thread's ordering scope and resets its sequence counter.
///
/// Call at the start of each logical unit of parallel work (one campaign
/// set, one experiment evaluation) with an identifier that is unique across
/// units and independent of thread assignment; every event the unit emits
/// then sorts into one canonical position regardless of worker count.
pub fn set_scope(scope: u64) {
    SCOPE.with(|s| s.set(scope));
    SEQ.with(|s| s.set(0));
}

/// This thread's current ordering scope.
#[must_use]
pub fn scope() -> u64 {
    SCOPE.with(Cell::get)
}

/// Saves this thread's ordering state — scope *and* next sequence
/// number — so an inline parallel region (a pool running its items on
/// the calling thread) can re-scope per item and then hand the thread
/// back exactly as it found it. Pair with [`restore_scope_state`];
/// plain [`set_scope`] is not a substitute because it rewinds the
/// sequence counter, which would let later caller events collide with
/// earlier ones in the canonical `(scope, seq)` order.
#[must_use]
pub fn scope_state() -> (u64, u64) {
    (SCOPE.with(Cell::get), SEQ.with(Cell::get))
}

/// Restores ordering state saved by [`scope_state`].
pub fn restore_scope_state(state: (u64, u64)) {
    SCOPE.with(|s| s.set(state.0));
    SEQ.with(|s| s.set(state.1));
}

/// The spans open on this thread, outermost first; empty while timing is
/// off. A pool hands it to each worker it spawns ([`set_span_path`]), so
/// the spans the worker opens nest under the span that dispatched its work,
/// as they do when the pool runs the items on the calling thread.
#[must_use]
pub fn span_path() -> Vec<&'static str> {
    if !timing_enabled() {
        return Vec::new();
    }
    SPAN_PATH.with(|path| path.borrow().clone())
}

/// Makes `path` (from [`span_path`] on the dispatching thread) the parent
/// of every span this thread opens from now on. Call it first thing on a
/// freshly spawned worker.
pub fn set_span_path(path: &[&'static str]) {
    if !path.is_empty() {
        SPAN_PATH.with(|spans| *spans.borrow_mut() = path.to_vec());
    }
}

/// Process-wide scope-epoch allocator: drivers that run many scoped
/// parallel regions in sequence (the experiment sweeps re-use point ids
/// across panels) take one epoch per region and derive their per-unit
/// scopes from `(epoch, unit)` so regions never share scope blocks.
///
/// Lives here — not in the drivers — because [`reset`] must rewind it
/// along with the rest of the ordering state: a traced run after a reset
/// re-allocates the same epochs and therefore reproduces byte-identical
/// scope values.
static SCOPE_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Takes the next scope epoch (starting from 0 after [`reset`]).
#[must_use]
pub fn next_scope_epoch() -> u64 {
    SCOPE_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Records an event under the current `(scope, seq)`; used by
/// [`crate::event!`], which performs the [`events_enabled`] check first.
pub fn emit(name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    let scope = SCOPE.with(Cell::get);
    let seq = SEQ.with(|s| {
        let v = s.get();
        s.set(v + 1);
        v
    });
    let event = Event {
        scope,
        seq,
        name,
        fields,
    };
    if let Ok(mut events) = registry().events.lock() {
        events.push(event);
    }
}

/// Drains the buffered events, sorted canonically by `(scope, seq, name)`.
#[must_use]
pub fn take_events() -> Vec<Event> {
    let mut events = match registry().events.lock() {
        Ok(mut guard) => std::mem::take(&mut *guard),
        Err(_) => Vec::new(),
    };
    events.sort_by_key(|e| (e.scope, e.seq, e.name));
    events
}

/// Returns the always-on counter registered under `name`, interning it on
/// first use. Handles are `Copy` and remain valid for the process lifetime;
/// obtain them once outside hot loops.
#[must_use]
pub fn counter(name: &'static str) -> Counter {
    let mut counters = match registry().counters.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let cell = counters
        .entry(name)
        .or_insert_with(|| &*Box::leak(Box::new(AtomicU64::new(0))));
    Counter { name, cell }
}

/// Records `value` into the histogram registered under `name`; used by
/// [`crate::histogram!`], which performs the [`timing_enabled`] check first.
pub fn histogram_record(name: &'static str, value: u64) {
    if let Ok(mut histograms) = registry().histograms.lock() {
        histograms.entry(name).or_default().record(value);
    }
}

/// Copies every registered counter and histogram into a sorted snapshot.
#[must_use]
pub fn metrics_snapshot() -> MetricsSnapshot {
    let registry = registry();
    let counters = match registry.counters.lock() {
        Ok(guard) => guard
            .iter()
            .map(|(name, cell)| ((*name).to_string(), cell.load(Ordering::Relaxed)))
            .collect(),
        Err(_) => Vec::new(),
    };
    let histograms = match registry.histograms.lock() {
        Ok(guard) => guard
            .iter()
            .map(|(name, hist)| ((*name).to_string(), hist.clone()))
            .collect(),
        Err(_) => Vec::new(),
    };
    MetricsSnapshot {
        counters,
        histograms,
    }
}

/// Copies the aggregated span tree, sorted by descending wall time.
#[must_use]
pub fn profile_snapshot() -> ProfileNode {
    let mut root = match registry().profile.lock() {
        Ok(guard) => guard.clone(),
        Err(_) => ProfileNode::new(""),
    };
    root.sort();
    root
}

/// Clears events, histograms, and the profile, and zeroes every counter.
/// Enable flags are left untouched. Intended for tests and for separating
/// phases within one process.
pub fn reset() {
    let registry = registry();
    if let Ok(mut events) = registry.events.lock() {
        events.clear();
    }
    if let Ok(mut histograms) = registry.histograms.lock() {
        histograms.clear();
    }
    if let Ok(mut profile) = registry.profile.lock() {
        *profile = ProfileNode::new("");
    }
    if let Ok(counters) = registry.counters.lock() {
        for cell in counters.values() {
            cell.store(0, Ordering::Relaxed);
        }
    }
    SCOPE_EPOCH.store(0, Ordering::Relaxed);
    SCOPE.with(|s| s.set(0));
    SEQ.with(|s| s.set(0));
}

/// RAII guard timing one span execution; created by [`crate::span!`].
///
/// When timing is disabled at creation the guard is inert (a `None` start,
/// nothing pushed). On drop, an active guard records its inclusive elapsed
/// wall time into the global profile tree under the thread's current span
/// path.
#[derive(Debug)]
pub struct SpanGuard {
    start: Option<Instant>,
}

/// Opens a span; prefer the [`crate::span!`] macro.
#[must_use]
pub fn span_enter(name: &'static str) -> SpanGuard {
    if !timing_enabled() {
        return SpanGuard { start: None };
    }
    SPAN_PATH.with(|path| path.borrow_mut().push(name));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let path: Vec<&'static str> = SPAN_PATH.with(|path| {
            let mut path = path.borrow_mut();
            let snapshot = path.clone();
            path.pop();
            snapshot
        });
        if path.is_empty() {
            return;
        }
        if let Ok(mut profile) = registry().profile.lock() {
            profile.record(&path, elapsed);
        }
    }
}
