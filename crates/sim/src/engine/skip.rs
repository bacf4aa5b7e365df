//! Event-horizon computation for the event-skipping fast path.
//!
//! [`Simulator::run`](super::Simulator::run) alternates one exactly
//! stepped cycle with bulk-executed work from this module, in two tiers:
//!
//! * **dead spans** ([`Simulator::skip_ahead`]'s jump): the half-open
//!   range of cycles up to (excluding) the next cycle at which the
//!   simulation state can change at all. Per core the span extends the
//!   RLE trace and bulk-decrements the running job's `remaining_compute`;
//!   nothing else can move.
//! * **serial bus phases** ([`Simulator::batch_transactions`]): runs of
//!   back-to-back bus completions and re-grants inside a window with no
//!   releases and no compute-burst ends. Each such cycle is executed by
//!   calling the *real* stepper phases `complete_bus_transaction` and
//!   `grant_bus` — identical mutations by construction — while the
//!   per-core scheduling scan, provably a no-op there, is skipped.
//!
//! # Why the event set is sufficient
//!
//! Inside a dead span no stepper phase can do anything, because every
//! state transition is anchored to one of the candidate events:
//!
//! * **job release** — `release_jobs` fires exactly at `next_release[i]`;
//!   releases are the only way the per-core ready sets grow, and the only
//!   RNG consumer. The earliest `next_release` bounds the span.
//! * **bus completion** — `complete_bus_transaction` fires exactly at
//!   `bus.busy_until`; it is the only place `pending_loads` shrink,
//!   caches mutate, and bus statistics accrue. While the bus is busy,
//!   `grant_bus` early-returns without touching arbiter state.
//! * **compute-burst end** — the only per-cycle mutation inside a span is
//!   the running, unstalled job's `remaining_compute -= 1`; it completes
//!   (and leaves the ready set) at `now + remaining - 1`, which bounds
//!   the span, so bulk-decrementing is exact and never reaches zero
//!   inside a span.
//! * **TDMA slot boundary** — the only situation in which an *idle* bus
//!   can grant later without any other event happening first: TDMA only
//!   grants at multiples of `d_mem`, so with a request pending the next
//!   boundary bounds the span. FP and RR are work-conserving — they
//!   grant in the same cycle a request appears, and requests only appear
//!   at event cycles — so "idle bus + pending request" cannot survive a
//!   stepped cycle under them (the code still guards it conservatively).
//! * **horizon** — the driver loop's own bound.
//!
//! Dispatch and resume work (first-load queuing, post-preemption UCB
//! reload queuing, preemption snapshots) happens in the first cycle a job
//! is picked, which is always the stepped cycle right after the event
//! that changed the pick; `next_event_cycle` detects a pending dispatch
//! or resume (`!started`, `!was_running`, or a live snapshot) and refuses
//! to skip. Round-robin arbiter state is a fixed point under idle
//! no-requester cycles (the cursor walks all `m` cores, a net no-op, and
//! `rr_remaining` is already 0 after any failed grant), so skipping those
//! cycles leaves the arbiter bit-identical to stepping them.
//!
//! # Why batched transaction cycles skip the scheduling scan
//!
//! `batch_transactions` only runs inside a window bounded by the earliest
//! release, the earliest compute-burst end, and the horizon, and it stops
//! before completing any job's *final* pending load. Within that window
//! the per-core picks cannot change (ready sets only change at releases
//! and job completions), no dispatch or resume work is due (the picked
//! jobs were verified steady), stalled jobs stay stalled (every served
//! job keeps at least one pending load) and computing jobs keep computing
//! (the window ends strictly before any burst does). So the reference's
//! `schedule_and_execute` reduces, cycle for cycle, to trace recording
//! plus `remaining_compute -= 1` — exactly what the batch applies in bulk
//! afterwards — while `release_jobs` is a no-op. Completions and grants
//! are *not* reimplemented: the batch calls the stepper's own phase
//! functions at the same cycles the reference would, so arbiter state
//! (including the RR cursor walk and the TDMA boundary rule), cache
//! ownership, statistics, and the bus trace evolve bit-identically.
//!
//! The equivalence is pinned by `tests/skip_equivalence.rs` across every
//! arbitration × release model and by the `sim_speedup` guard, which
//! cross-checks full reports while timing the ≥5× speedup gate.

use super::Simulator;
use crate::config::BusArbitration;

impl Simulator<'_> {
    /// Advances from `self.now` to the next cycle that truly needs the
    /// stepper, executing everything in between in bulk: dead spans are
    /// jumped, serial bus phases are batched. A no-op when the very next
    /// cycle must be stepped.
    pub(super) fn skip_ahead(&mut self, horizon: u64) {
        while let Some(until) = self.next_event_cycle(horizon) {
            self.execute_span(until);
            if !self.batch_transactions(horizon) {
                return;
            }
        }
    }

    /// Bulk-executes the dead span `[self.now, until)`: extends each
    /// core's RLE trace and decrements the running unstalled jobs'
    /// remaining compute. `until` must not exceed the next event cycle.
    fn execute_span(&mut self, until: u64) {
        let span = until - self.now;
        if span == 0 {
            return;
        }
        for core in 0..self.platform.cores() {
            match self.pick(core) {
                None => self.recorder.record_span(core, self.now, span, None),
                Some(j) => {
                    let job = &self.jobs[j];
                    let (task, stalled) = (job.task, !job.pending_loads.is_empty());
                    self.recorder
                        .record_span(core, self.now, span, Some((task, stalled)));
                    if !stalled {
                        // `until` is bounded by this job's completion
                        // cycle, so the bulk decrement stays positive.
                        self.jobs[j].remaining_compute -= span;
                    }
                }
            }
        }
        self.skip_spans += 1;
        self.cycles_skipped += span;
        self.now = until;
    }

    /// Inline-executes a serial bus phase starting at `self.now`: while
    /// the only thing happening is a transaction completing and the bus
    /// being re-granted, runs those two stepper phases directly and skips
    /// the provably no-op rest of the cycle (see the module docs for the
    /// argument). Returns `true` if any cycle was executed this way —
    /// the caller then re-evaluates the event horizon — and `false` when
    /// the cycle at `self.now` needs a full step.
    fn batch_transactions(&mut self, horizon: u64) -> bool {
        // Only a completion due exactly now starts a batch; any other
        // event (release, burst end, TDMA boundary) needs the stepper.
        if self.bus.current.is_none() || self.bus.busy_until != self.now {
            return false;
        }
        // The window: strictly before the earliest release, the earliest
        // compute-burst end, and the horizon, the per-core schedule is
        // frozen. (Steadiness of every pick was just verified by
        // `next_event_cycle`, and a pure jump changes no state.)
        let mut window = horizon;
        for i in self.tasks.ids() {
            window = window.min(self.next_release[i.index()]);
        }
        for core in 0..self.platform.cores() {
            if let Some(j) = self.pick(core) {
                let job = &self.jobs[j];
                if job.pending_loads.is_empty() {
                    window = window.min(self.now + job.remaining_compute - 1);
                }
            }
        }

        let start = self.now;
        let d_mem = self.d_mem();
        loop {
            let completion = self.bus.busy_until;
            if completion >= window {
                // Cycles up to the window end are dead: the bus stays
                // busy past it and nothing else can move before it.
                self.now = window.max(start);
                break;
            }
            let served = self.bus.current.expect("batch invariant: bus busy");
            if self.jobs[served].pending_loads.len() < 2 {
                // A job's *final* load unstalls it the cycle it lands —
                // that cycle changes the schedule, so leave it (and
                // everything after) to the stepper.
                self.now = completion;
                break;
            }
            // Execute the completion cycle with the stepper's own phases.
            self.now = completion;
            self.complete_bus_transaction();
            self.grant_bus();
            if self.bus.current.is_none() {
                // Only TDMA idles with a request pending: grants happen
                // at slot boundaries, so try exactly those. FP/RR are
                // work-conserving and regrant in the completion cycle.
                let mut granted = false;
                if let BusArbitration::Tdma { .. } = self.config.bus {
                    let mut boundary = completion + d_mem;
                    while boundary < window {
                        self.now = boundary;
                        self.grant_bus();
                        if self.bus.current.is_some() {
                            granted = true;
                            break;
                        }
                        boundary += d_mem;
                    }
                }
                if !granted {
                    // No grant can land before the window end (TDMA), or
                    // the arbiter genuinely left the bus idle with no
                    // requester change possible (FP/RR: the remaining
                    // cycle is identical to what the reference computes,
                    // so handing back after this cycle is exact).
                    self.now = match self.config.bus {
                        BusArbitration::Tdma { .. } => window,
                        _ => completion + 1,
                    };
                    break;
                }
            }
        }

        let end = self.now;
        if end == start {
            return false;
        }
        // Record the batch as one span: within the window every core's
        // (task, stalled) state is constant, and computing jobs burn one
        // cycle each — the same bulk application as a dead span.
        self.now = start;
        self.execute_span(end);
        true
    }

    /// The earliest cycle `> self.now` at which the state can change, or
    /// `None` when the very next cycle must be stepped (an event is due
    /// now, or a conservative guard fired).
    fn next_event_cycle(&self, horizon: u64) -> Option<u64> {
        let now = self.now;
        if now >= horizon {
            return None;
        }
        let mut next = horizon;
        for i in self.tasks.ids() {
            next = next.min(self.next_release[i.index()]);
        }
        if self.bus.current.is_some() {
            next = next.min(self.bus.busy_until);
        }
        let mut idle_request = false;
        for core in 0..self.platform.cores() {
            let Some(j) = self.pick(core) else {
                continue; // an idle core stays idle until a release
            };
            let job = &self.jobs[j];
            if !job.started || !job.was_running || job.snapshot.is_some() {
                // Dispatch or resume work is due this cycle: initial
                // loads, UCB reloads, or preemption bookkeeping.
                return None;
            }
            if job.pending_loads.is_empty() {
                if job.remaining_compute == 0 {
                    return None; // completes the moment it is stepped
                }
                next = next.min(now + job.remaining_compute - 1);
            } else if self.bus.current.is_none() {
                idle_request = true;
            }
            // Stalled with the bus busy: the next change is the bus
            // completion, already accounted above.
        }
        if idle_request {
            match self.config.bus {
                BusArbitration::Tdma { .. } => {
                    // Idle bus, pending request: the next grant decision
                    // is at the next slot boundary.
                    next = next.min(now.next_multiple_of(self.d_mem()));
                }
                // Work-conserving arbiters grant the cycle a request
                // exists; this state should not survive a stepped cycle,
                // but stepping is always a safe fallback.
                BusArbitration::FixedPriority | BusArbitration::RoundRobin { .. } => return None,
            }
        }
        (next > now).then_some(next)
    }
}
