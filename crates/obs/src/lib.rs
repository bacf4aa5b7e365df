//! `cpa-obs` — zero-dependency structured tracing, metrics, and
//! self-profiling for the persistence-bus workspace.
//!
//! The WCRT recurrence (Eq. 19) is a nested fixed point whose cost and
//! outcome hinge on internals — outer sweeps, per-task inner iterations,
//! which term (BAS/BAO/CPRO/CRPD) dominates the bound. This crate is the
//! substrate every layer reports those internals through:
//!
//! * **Events** ([`event!`]) — structured, *deterministic* trace records.
//!   Payloads carry iteration counts, seeds, and indices, never wall-clock
//!   values, and each event is stamped with a `(scope, seq)` ordering key
//!   ([`set_scope`]) so the drained stream ([`take_events`]) sorts into one
//!   canonical order regardless of worker-thread interleaving: same seed ⇒
//!   byte-identical JSON.
//! * **Spans** ([`span!`]) — RAII wall-time measurement aggregated into a
//!   global span tree ([`profile_snapshot`]); timing lives *only* here,
//!   quarantined from the event stream.
//! * **Counters** ([`counter`]) — always-on atomic totals (one relaxed
//!   `fetch_add`), shared by progress reporting and `--metrics`.
//! * **Histograms** ([`histogram!`]) — power-of-two-bucketed distributions
//!   (queue depths, iteration counts).
//!
//! Everything but counters is gated behind a global subscriber that is a
//! no-op when disabled: [`event!`]/[`span!`]/[`histogram!`] cost one relaxed
//! atomic load and a predictable branch, so instrumented hot paths stay
//! within the <2% overhead budget enforced by the `obs_overhead` guard.
//! Enable with [`enable`] (events + timing) or [`enable_metrics`]
//! (timing only, for campaign-scale runs where buffering every event would
//! be prohibitive).
//!
//! # Example
//!
//! ```
//! cpa_obs::enable();
//! cpa_obs::set_scope(7);
//! {
//!     let _span = cpa_obs::span!("demo.work");
//!     cpa_obs::event!("demo.step", iter = 1u64, done = false);
//!     cpa_obs::counter("demo.items").incr();
//!     cpa_obs::histogram!("demo.depth", 3);
//! }
//! let events = cpa_obs::take_events();
//! assert_eq!(events[0].render_human(), "[7.0] demo.step iter=1 done=false");
//! cpa_obs::disable();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;
mod registry;
pub mod value;

pub use event::{events_to_json_lines, Event};
pub use metrics::{Counter, Histogram, MetricsSnapshot};
pub use profile::{format_nanos, ProfileNode};
pub use registry::{
    active, counter, disable, emit, enable, enable_metrics, events_enabled, histogram_record,
    metrics_snapshot, next_scope_epoch, profile_snapshot, reset, restore_scope_state, scope,
    scope_state, set_scope, set_span_path, span_enter, span_path, take_events, timing_enabled,
    SpanGuard,
};
pub use value::FieldValue;

/// Records a structured trace event when events are enabled.
///
/// Fields are `name = value` pairs; values go through
/// [`FieldValue::from`], and field order is preserved in the JSON output.
/// When disabled this is one relaxed atomic load — no field is evaluated.
///
/// ```
/// cpa_obs::event!("wcrt.outer", iter = 3u64, changed = 2usize);
/// ```
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::events_enabled() {
            $crate::emit(
                $name,
                vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            );
        }
    };
}

/// Opens a wall-time span, closed when the returned guard drops.
///
/// Bind the guard to a named variable (`let _span = …`) — binding to `_`
/// drops it immediately. When timing is disabled the guard is inert.
///
/// ```
/// let _span = cpa_obs::span!("cache.extract");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_enter($name)
    };
}

/// Records a `u64` sample into a named histogram when timing is enabled.
///
/// ```
/// cpa_obs::histogram!("sim.queue_depth", 4u64);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        if $crate::timing_enabled() {
            $crate::histogram_record($name, $value);
        }
    };
}

#[cfg(test)]
mod tests {
    // The global subscriber is process-wide state; every test that toggles
    // it serializes on this mutex so `cargo test`'s parallel runner cannot
    // interleave enable/reset windows.
    use std::sync::{Mutex, MutexGuard, OnceLock};

    fn lock() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        let gate = GATE.get_or_init(|| Mutex::new(()));
        match gate.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn disabled_subscriber_records_nothing_gated() {
        let _gate = lock();
        crate::disable();
        crate::reset();
        crate::event!("test.never", x = 1u64);
        crate::histogram!("test.never_hist", 1);
        {
            let _span = crate::span!("test.never_span");
        }
        assert!(crate::take_events().is_empty());
        let metrics = crate::metrics_snapshot();
        assert!(metrics
            .histograms
            .iter()
            .all(|(name, _)| !name.starts_with("test.never")));
        assert!(crate::profile_snapshot()
            .children
            .iter()
            .all(|c| c.name != "test.never_span"));
    }

    #[test]
    fn counters_count_even_when_disabled() {
        let _gate = lock();
        crate::disable();
        crate::reset();
        let c = crate::counter("test.always");
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        assert_eq!(
            crate::counter("test.always").get(),
            4,
            "same handle on re-intern"
        );
    }

    #[test]
    fn events_sort_canonically_by_scope_then_seq() {
        let _gate = lock();
        crate::reset();
        crate::enable();
        crate::set_scope(9);
        crate::event!("test.b");
        crate::set_scope(2);
        crate::event!("test.a", k = "v");
        crate::disable();
        let events = crate::take_events();
        let ours: Vec<_> = events
            .iter()
            .filter(|e| e.name.starts_with("test."))
            .collect();
        assert_eq!(ours.len(), 2);
        assert_eq!((ours[0].scope, ours[0].name), (2, "test.a"));
        assert_eq!((ours[1].scope, ours[1].name), (9, "test.b"));
        let json = crate::events_to_json_lines(&[ours[0].clone()]);
        assert_eq!(
            json,
            "{\"scope\":2,\"seq\":0,\"name\":\"test.a\",\"fields\":{\"k\":\"v\"}}\n"
        );
    }

    #[test]
    fn spans_nest_into_the_profile_tree() {
        let _gate = lock();
        crate::reset();
        crate::enable_metrics();
        {
            let _outer = crate::span!("test.outer");
            let _inner = crate::span!("test.inner");
        }
        crate::disable();
        let profile = crate::profile_snapshot();
        let outer = profile
            .children
            .iter()
            .find(|c| c.name == "test.outer")
            .expect("outer span recorded");
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "test.inner");
        assert!(outer.nanos >= outer.children[0].nanos);
        assert!(!profile.render_text().is_empty());
    }
}
