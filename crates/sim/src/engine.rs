//! The simulation engine: a cycle-granular stepper and two drivers.
//!
//! The engine is split into two layers:
//!
//! * **the stepper** ([`Simulator::step`]): executes exactly one cycle —
//!   releases, bus completion, per-core scheduling/execution, bus grant —
//!   and is the single source of truth for the simulated semantics;
//! * **the drivers**: [`Simulator::run`] (the default) interleaves stepped
//!   *event* cycles with bulk-executed dead spans computed by the
//!   event-horizon module ([`skip`]), while [`Simulator::run_reference`]
//!   steps every cycle. Both produce byte-identical [`SimReport`]s —
//!   pinned by `tests/skip_equivalence.rs` and re-checked in situ by the
//!   `sim_speedup` guard (`cpa-validate`).

use std::collections::VecDeque;

use cpa_model::{ModelError, Platform, TaskId, TaskSet, Time};
use rand::Rng as _;
use rand::SeedableRng as _;
use rand_chacha::ChaCha8Rng;

use crate::config::{BusArbitration, ReleaseModel, SimConfig};
use crate::report::SimReport;
use crate::trace::TraceRecorder;

mod skip;

/// What a single bus transaction loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadKind {
    /// First load (or post-eviction reload) of a persistent block into the
    /// given cache set.
    Pcb(usize),
    /// One access of the residual demand `MD^r`; optionally takes
    /// ownership of a non-persistent set.
    Residual(Option<usize>),
    /// Post-preemption reload of a useful block (CRPD traffic).
    Ucb(usize),
}

#[derive(Debug)]
struct Job {
    task: TaskId,
    release: u64,
    abs_deadline: u64,
    remaining_compute: u64,
    pending_loads: VecDeque<LoadKind>,
    started: bool,
    /// UCB sets owned at the last preemption, to diff at resume.
    snapshot: Option<Vec<usize>>,
    /// Was this job the one running on its core last cycle?
    was_running: bool,
    done: bool,
}

#[derive(Debug)]
struct BusState {
    busy_until: u64,
    current: Option<usize>, // job arena index
    rr_cursor: usize,
    rr_remaining: u64,
}

/// The discrete-event (cycle-stepped) multicore simulator.
///
/// See the crate docs for the executed model and an example.
#[derive(Debug)]
pub struct Simulator<'a> {
    platform: &'a Platform,
    tasks: &'a TaskSet,
    config: SimConfig,
    /// Per core, per cache set: the task owning the resident block.
    caches: Vec<Vec<Option<TaskId>>>,
    jobs: Vec<Job>,
    /// Active (released, incomplete) job indices per core.
    ready: Vec<Vec<usize>>,
    next_release: Vec<u64>,
    rngs: Vec<ChaCha8Rng>,
    bus: BusState,
    now: u64,
    report: SimReport,
    recorder: TraceRecorder,
    /// Cycles the event-skipping driver jumped over (0 under
    /// [`Simulator::run_reference`]).
    cycles_skipped: u64,
    /// Dead spans the event-skipping driver executed in bulk.
    skip_spans: u64,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for one task set on one platform.
    ///
    /// # Errors
    ///
    /// Propagates [`TaskSet::validate_against`] errors.
    pub fn new(
        platform: &'a Platform,
        tasks: &'a TaskSet,
        config: SimConfig,
    ) -> Result<Self, ModelError> {
        tasks.validate_against(platform)?;
        let n = tasks.len();
        let rngs = (0..n)
            .map(|i| {
                let seed = match config.releases {
                    ReleaseModel::Synchronous => 0,
                    ReleaseModel::Sporadic { seed, .. } => seed,
                };
                ChaCha8Rng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            })
            .collect();
        Ok(Simulator {
            platform,
            tasks,
            config,
            caches: vec![vec![None; platform.cache().sets()]; platform.cores()],
            jobs: Vec::new(),
            ready: vec![Vec::new(); platform.cores()],
            next_release: vec![0; n],
            rngs,
            bus: BusState {
                busy_until: 0,
                current: None,
                rr_cursor: 0,
                rr_remaining: 0,
            },
            now: 0,
            report: SimReport::new(n, config.horizon),
            recorder: TraceRecorder::new(platform.cores(), config.record_trace),
            cycles_skipped: 0,
            skip_spans: 0,
        })
    }

    /// Runs the simulation to the configured horizon and returns the
    /// report. Jobs still incomplete at the horizon whose deadline has
    /// passed are counted as deadline misses.
    ///
    /// This is the event-skipping fast path: it steps every *interesting*
    /// cycle exactly and jumps the dead spans in between (see the
    /// [`skip`] module for the event-horizon computation). The result is
    /// byte-identical to [`Simulator::run_reference`].
    #[must_use]
    pub fn run(mut self) -> SimReport {
        let _span = cpa_obs::span!("sim.run");
        let horizon = self.config.horizon.cycles();
        while self.now < horizon {
            self.step();
            self.skip_ahead(horizon);
        }
        self.finish(horizon)
    }

    /// Runs the simulation stepping every single cycle — the pre-fast-path
    /// loop, retained as the differential reference for
    /// `tests/skip_equivalence.rs`, `tests/trace_invariants.rs` and the
    /// `sim_speedup` guard.
    #[must_use]
    pub fn run_reference(mut self) -> SimReport {
        let _span = cpa_obs::span!("sim.run");
        let horizon = self.config.horizon.cycles();
        while self.now < horizon {
            self.step();
        }
        self.finish(horizon)
    }

    /// Executes exactly one cycle: the four phases, then the clock tick.
    /// Both drivers funnel through this, so the semantics cannot drift.
    fn step(&mut self) {
        self.release_jobs();
        self.complete_bus_transaction();
        self.schedule_and_execute();
        self.grant_bus();
        self.now += 1;
    }

    /// Horizon-end accounting shared by both drivers.
    fn finish(mut self, horizon: u64) -> SimReport {
        // Account incomplete-but-late jobs.
        for job in &self.jobs {
            if !job.done && job.abs_deadline < horizon {
                self.report.task_mut(job.task).deadline_misses += 1;
            }
        }
        self.observe_run(horizon);
        self.report.trace = self.recorder.finish();
        self.report
    }

    /// Reports the run's totals through `cpa-obs`: cumulative counters for
    /// campaign metrics and one `sim.report` event for traces. Counters are
    /// only touched when a subscriber is active, so untraced simulations pay
    /// a single branch.
    fn observe_run(&self, horizon: u64) {
        if !cpa_obs::active() {
            return;
        }
        let released: u64 = self.tasks.ids().map(|i| self.report.task(i).released).sum();
        let completed: u64 = self
            .tasks
            .ids()
            .map(|i| self.report.task(i).completed)
            .sum();
        let misses: u64 = self
            .tasks
            .ids()
            .map(|i| self.report.task(i).deadline_misses)
            .sum();
        cpa_obs::counter("sim.runs").incr();
        // `sim.cycles` is the *simulated* horizon; the event-skipping
        // driver only steps `sim.cycles_stepped` of them and jumps the
        // rest, so the stepped/skipped split makes the skip ratio visible
        // (`cpa-trace sim` reports it per run).
        cpa_obs::counter("sim.cycles").add(horizon);
        cpa_obs::counter("sim.cycles_stepped").add(horizon - self.cycles_skipped);
        cpa_obs::counter("sim.cycles_skipped").add(self.cycles_skipped);
        cpa_obs::counter("sim.skip_spans").add(self.skip_spans);
        cpa_obs::counter("sim.jobs_released").add(released);
        cpa_obs::counter("sim.jobs_completed").add(completed);
        cpa_obs::counter("sim.deadline_misses").add(misses);
        cpa_obs::counter("sim.bus_transactions").add(self.report.bus_transactions);
        cpa_obs::counter("sim.bus_busy_cycles").add(self.report.bus_busy_cycles);
        cpa_obs::event!(
            "sim.report",
            horizon = horizon,
            cycles_stepped = horizon - self.cycles_skipped,
            cycles_skipped = self.cycles_skipped,
            skip_spans = self.skip_spans,
            released = released,
            completed = completed,
            deadline_misses = misses,
            bus_transactions = self.report.bus_transactions,
            bus_busy_cycles = self.report.bus_busy_cycles,
        );
    }

    fn d_mem(&self) -> u64 {
        self.platform.memory_latency().cycles()
    }

    fn release_jobs(&mut self) {
        for i in self.tasks.ids() {
            if self.next_release[i.index()] != self.now {
                continue;
            }
            let task = &self.tasks[i];
            let release = self.now;
            let job = Job {
                task: i,
                release,
                abs_deadline: release + task.deadline().cycles(),
                remaining_compute: task.processing_demand().cycles(),
                pending_loads: VecDeque::new(),
                started: false,
                snapshot: None,
                was_running: false,
                done: false,
            };
            let idx = self.jobs.len();
            self.jobs.push(job);
            self.ready[task.core().index()].push(idx);
            self.report.task_mut(i).released += 1;
            cpa_obs::event!("sim.release", task = i.index(), t = self.now);

            let period = task.period().cycles();
            let extra = match self.config.releases {
                ReleaseModel::Synchronous => 0,
                ReleaseModel::Sporadic {
                    max_extra_percent, ..
                } => {
                    let max_extra = period.saturating_mul(u64::from(max_extra_percent)) / 100;
                    if max_extra == 0 {
                        0
                    } else {
                        // Draw counts are part of the report so the
                        // event-skipping pin also covers RNG consumption.
                        self.report.task_mut(i).rng_draws += 1;
                        self.rngs[i.index()].gen_range(0..=max_extra)
                    }
                }
            };
            self.next_release[i.index()] = release + period + extra;
        }
    }

    /// Delivers a finished bus transaction (the bus is non-preemptive:
    /// the load completes even if its job was preempted meanwhile).
    fn complete_bus_transaction(&mut self) {
        if self.bus.current.is_none() || self.now < self.bus.busy_until {
            return;
        }
        let job_idx = self.bus.current.take().expect("checked above");
        let (task, core, kind) = {
            let job = &mut self.jobs[job_idx];
            let kind = job.pending_loads.pop_front().expect("load was in flight");
            (job.task, self.tasks[job.task].core().index(), kind)
        };
        let stats = self.report.task_mut(task);
        stats.bus_accesses += 1;
        match kind {
            LoadKind::Pcb(set) => {
                stats.pcb_loads += 1;
                self.caches[core][set] = Some(task);
            }
            LoadKind::Residual(Some(set)) => {
                self.caches[core][set] = Some(task);
            }
            LoadKind::Residual(None) => {}
            LoadKind::Ucb(set) => {
                stats.crpd_reloads += 1;
                self.caches[core][set] = Some(task);
            }
        }
        self.report.bus_transactions += 1;
        self.report.bus_busy_cycles += self.d_mem();
    }

    /// Index (into the arena) of the highest-priority active job on a
    /// core, if any.
    fn pick(&self, core: usize) -> Option<usize> {
        self.ready[core]
            .iter()
            .copied()
            .min_by_key(|&j| (self.jobs[j].task, self.jobs[j].release))
    }

    fn schedule_and_execute(&mut self) {
        for core in 0..self.platform.cores() {
            let Some(running) = self.pick(core) else {
                self.recorder.record(core, self.now, None);
                continue;
            };
            // Preemption bookkeeping: jobs that were running but are no
            // longer chosen snapshot their owned UCB sets.
            let preempted: Vec<usize> = self.ready[core]
                .iter()
                .copied()
                .filter(|&j| j != running && self.jobs[j].was_running)
                .collect();
            for j in preempted {
                let task = self.jobs[j].task;
                let owned: Vec<usize> = self.tasks[task]
                    .ucb()
                    .iter()
                    .filter(|&s| self.caches[core][s] == Some(task))
                    .collect();
                let job = &mut self.jobs[j];
                job.was_running = false;
                if job.started {
                    job.snapshot = Some(owned);
                }
            }

            let task_id = self.jobs[running].task;
            // First dispatch: queue the job's memory work.
            if !self.jobs[running].started {
                let loads = self.initial_loads(task_id, core);
                let job = &mut self.jobs[running];
                job.pending_loads = loads;
                job.started = true;
            }
            // Resume after preemption: reload evicted useful blocks.
            if let Some(snapshot) = self.jobs[running].snapshot.take() {
                if !self.jobs[running].was_running {
                    let reloads: Vec<LoadKind> = snapshot
                        .into_iter()
                        .filter(|&s| self.caches[core][s] != Some(task_id))
                        .map(LoadKind::Ucb)
                        .collect();
                    for load in reloads.into_iter().rev() {
                        self.jobs[running].pending_loads.push_front(load);
                    }
                }
            }
            self.jobs[running].was_running = true;

            let waiting_for_bus = !self.jobs[running].pending_loads.is_empty();
            self.recorder
                .record(core, self.now, Some((task_id, waiting_for_bus)));
            if waiting_for_bus {
                continue; // stalled on memory
            }
            let job = &mut self.jobs[running];
            if job.remaining_compute > 0 {
                job.remaining_compute -= 1;
            }
            if job.remaining_compute == 0 {
                job.done = true;
                let response = self.now + 1 - job.release;
                let (task, deadline) = (job.task, job.abs_deadline);
                self.ready[core].retain(|&j| j != running);
                let stats = self.report.task_mut(task);
                stats.completed += 1;
                stats.max_response = stats.max_response.max(Time::from_cycles(response));
                stats.total_response += Time::from_cycles(response);
                let missed = self.now + 1 > deadline;
                if missed {
                    stats.deadline_misses += 1;
                }
                cpa_obs::event!(
                    "sim.complete",
                    task = task.index(),
                    t = self.now + 1,
                    response = response,
                    missed = missed,
                );
            }
        }
    }

    /// The memory work of a fresh job: missing persistent blocks plus the
    /// residual demand, capped at `MD` total (Eq. (10)'s `min`: a job
    /// never issues more than its isolation worst case).
    fn initial_loads(&self, task_id: TaskId, core: usize) -> VecDeque<LoadKind> {
        let task = &self.tasks[task_id];
        let md = task.memory_demand();
        let md_r = task.residual_memory_demand();
        let missing_pcbs: Vec<usize> = task
            .pcb()
            .iter()
            .filter(|&s| self.caches[core][s] != Some(task_id))
            .collect();
        let pcb_budget = md.saturating_sub(md_r).min(missing_pcbs.len() as u64) as usize;
        let residual_count = md_r.min(md);
        // Residual accesses cycle over the non-persistent footprint,
        // churning ownership there (which is what evicts neighbours and
        // produces CPRO for them).
        let churn: Vec<usize> = task.ecb().difference(task.pcb()).iter().collect();
        let mut loads = VecDeque::with_capacity(pcb_budget + residual_count as usize);
        for &set in missing_pcbs.iter().take(pcb_budget) {
            loads.push_back(LoadKind::Pcb(set));
        }
        for k in 0..residual_count {
            let target = if churn.is_empty() {
                None
            } else {
                Some(churn[(k as usize) % churn.len()])
            };
            loads.push_back(LoadKind::Residual(target));
        }
        loads
    }

    /// Pending-bus cores: the currently scheduled job per core, if it is
    /// stalled on a load and not already being served.
    fn requesting_job(&self, core: usize) -> Option<usize> {
        let job = self.pick(core)?;
        if self.bus.current == Some(job) {
            return None;
        }
        let j = &self.jobs[job];
        (j.started && !j.pending_loads.is_empty()).then_some(job)
    }

    fn grant_bus(&mut self) {
        if self.bus.current.is_some() && self.now < self.bus.busy_until {
            return;
        }
        let cores = self.platform.cores();
        let d_mem = self.d_mem();
        let grant = match self.config.bus {
            BusArbitration::FixedPriority => (0..cores)
                .filter_map(|c| self.requesting_job(c))
                .min_by_key(|&j| (self.jobs[j].task, self.jobs[j].release)),
            BusArbitration::RoundRobin { slots } => {
                let mut chosen = None;
                for _ in 0..cores {
                    if self.bus.rr_remaining == 0 {
                        self.bus.rr_cursor = (self.bus.rr_cursor + 1) % cores;
                        self.bus.rr_remaining = slots;
                    }
                    if let Some(j) = self.requesting_job(self.bus.rr_cursor) {
                        self.bus.rr_remaining -= 1;
                        chosen = Some(j);
                        break;
                    }
                    // Work-conserving: skip to the next core.
                    self.bus.rr_remaining = 0;
                }
                chosen
            }
            BusArbitration::Tdma { slots } => {
                // Grants only at slot boundaries; the slot's owner either
                // uses it or it idles.
                if !self.now.is_multiple_of(d_mem) {
                    None
                } else {
                    let slot = self.now / d_mem;
                    let owner = ((slot / slots) % cores as u64) as usize;
                    self.requesting_job(owner)
                }
            }
        };
        if let Some(job) = grant {
            self.bus.current = Some(job);
            self.bus.busy_until = self.now + d_mem;
            self.recorder
                .record_bus(self.jobs[job].task, self.now, self.now + d_mem);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_model::{CacheBlockSet, CoreId, Priority, Task};

    fn platform(cores: usize, d_mem: u64) -> Platform {
        Platform::builder()
            .cores(cores)
            .memory_latency(Time::from_cycles(d_mem))
            .build()
            .unwrap()
    }

    #[allow(clippy::too_many_arguments)] // test fixture
    fn task(
        name: &str,
        prio: u32,
        core: usize,
        pd: u64,
        md: u64,
        md_r: u64,
        period: u64,
        ecb_start: usize,
        ecb_len: usize,
        pcb_len: usize,
    ) -> Task {
        let ecb = CacheBlockSet::contiguous(256, ecb_start, ecb_len);
        let pcb = CacheBlockSet::contiguous(256, ecb_start, pcb_len.min(ecb_len));
        Task::builder(name)
            .processing_demand(Time::from_cycles(pd))
            .memory_demand(md)
            .residual_memory_demand(md_r)
            .period(Time::from_cycles(period))
            .deadline(Time::from_cycles(period))
            .core(CoreId::new(core))
            .priority(Priority::new(prio))
            .ucb(pcb.clone())
            .ecb(ecb)
            .pcb(pcb)
            .build()
            .unwrap()
    }

    #[test]
    fn single_task_first_job_pays_pcbs_then_persists() {
        // PD 10, MD 8, MD^r 2, 6 PCBs. d_mem 5. First job: 6 PCB loads +
        // 2 residual = 8 accesses → R = 10 + 8·5 = 50. Later jobs: only 2
        // residual → R = 10 + 2·5 = 20.
        let p = platform(1, 5);
        let ts = TaskSet::new(vec![task("t", 1, 0, 10, 8, 2, 200, 0, 8, 6)]).unwrap();
        let cfg =
            SimConfig::new(BusArbitration::FixedPriority).with_horizon(Time::from_cycles(1_000));
        let report = Simulator::new(&p, &ts, cfg).unwrap().run();
        let stats = report.task(TaskId::new(0));
        assert_eq!(stats.released, 5);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.max_response, Time::from_cycles(50));
        // 5 jobs: 8 + 4×2 accesses.
        assert_eq!(stats.bus_accesses, 16);
        assert_eq!(stats.pcb_loads, 6);
        assert_eq!(stats.deadline_misses, 0);
        assert_eq!(report.bus_transactions, 16);
        assert_eq!(report.bus_busy_cycles, 80);
    }

    #[test]
    fn same_core_neighbour_evicts_pcbs_cpro() {
        // Two tasks sharing cache sets on one core: the high-priority
        // task's residual churn overlaps the low one's PCBs, forcing PCB
        // reloads (CPRO) on every job.
        let p = platform(1, 5);
        let hi = task("hi", 1, 0, 10, 4, 4, 100, 0, 4, 0); // churns sets 0..4
        let lo = task("lo", 2, 0, 10, 6, 0, 300, 0, 6, 6); // PCBs 0..6
        let ts = TaskSet::new(vec![hi, lo]).unwrap();
        let cfg =
            SimConfig::new(BusArbitration::FixedPriority).with_horizon(Time::from_cycles(900));
        let report = Simulator::new(&p, &ts, cfg).unwrap().run();
        let lo_stats = report.task(TaskId::new(1));
        assert_eq!(lo_stats.completed, 3);
        // Job 1: 6 PCB loads. Jobs 2,3: sets 0..4 were churned by "hi"
        // (3–4 of its jobs ran in between), so 4 PCBs reload each time.
        assert_eq!(lo_stats.pcb_loads, 6 + 4 + 4);
        assert_eq!(lo_stats.bus_accesses, lo_stats.pcb_loads);
    }

    #[test]
    fn preemption_triggers_ucb_reloads() {
        // Low task (PD long) gets preempted by high task whose churn
        // evicts its UCBs; resume pays CRPD reloads.
        let p = platform(1, 2);
        let hi = task("hi", 1, 0, 10, 3, 3, 60, 0, 3, 0); // churns sets 0..3
        let lo = task("lo", 2, 0, 100, 3, 0, 400, 0, 3, 3); // UCB/PCB 0..3
        let ts = TaskSet::new(vec![hi, lo]).unwrap();
        let cfg =
            SimConfig::new(BusArbitration::FixedPriority).with_horizon(Time::from_cycles(400));
        let report = Simulator::new(&p, &ts, cfg).unwrap().run();
        let lo_stats = report.task(TaskId::new(1));
        assert_eq!(lo_stats.completed, 1);
        assert!(lo_stats.crpd_reloads > 0, "preemptions must cost reloads");
    }

    #[test]
    fn md_caps_job_traffic() {
        // md < md_r + |PCB|: the job must not exceed MD accesses.
        let p = platform(1, 5);
        let ts = TaskSet::new(vec![task("t", 1, 0, 10, 3, 1, 500, 0, 8, 8)]).unwrap();
        let cfg =
            SimConfig::new(BusArbitration::FixedPriority).with_horizon(Time::from_cycles(499));
        let report = Simulator::new(&p, &ts, cfg).unwrap().run();
        let stats = report.task(TaskId::new(0));
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.bus_accesses, 3);
    }

    #[test]
    fn tdma_is_not_work_conserving() {
        // One task on core 0 of a 2-core platform, TDMA s=1, d_mem 10:
        // core 0 owns every other 10-cycle slot. First access waits for
        // slot 0 (granted at t=0), second must wait for slot 2 (t=20).
        let p = platform(2, 10);
        let ts = TaskSet::new(vec![task("t", 1, 0, 5, 2, 2, 1_000, 0, 2, 0)]).unwrap();
        let cfg_tdma =
            SimConfig::new(BusArbitration::Tdma { slots: 1 }).with_horizon(Time::from_cycles(500));
        let tdma = Simulator::new(&p, &ts, cfg_tdma).unwrap().run();
        let cfg_rr = SimConfig::new(BusArbitration::RoundRobin { slots: 1 })
            .with_horizon(Time::from_cycles(500));
        let rr = Simulator::new(&p, &ts, cfg_rr).unwrap().run();
        // RR (work-conserving) back-to-back: 2·10 + 5 = 25.
        assert_eq!(rr.task(TaskId::new(0)).max_response, Time::from_cycles(25));
        // TDMA: second access waits out core 1's slot: 10 idle cycles more.
        assert_eq!(
            tdma.task(TaskId::new(0)).max_response,
            Time::from_cycles(35)
        );
    }

    #[test]
    fn cross_core_contention_delays() {
        let p = platform(2, 5);
        let mk =
            |name: &str, prio, core, start| task(name, prio, core, 20, 10, 10, 500, start, 10, 0);
        let solo_ts = TaskSet::new(vec![mk("a", 1, 0, 0)]).unwrap();
        let solo_p = platform(1, 5);
        let cfg =
            SimConfig::new(BusArbitration::FixedPriority).with_horizon(Time::from_cycles(499));
        let solo = Simulator::new(&solo_p, &solo_ts, cfg).unwrap().run();

        let pair_ts = TaskSet::new(vec![mk("a", 1, 0, 0), mk("b", 2, 1, 100)]).unwrap();
        let pair = Simulator::new(&p, &pair_ts, cfg).unwrap().run();
        // "a" wins FP arbitration, so it is unaffected; "b" is delayed.
        assert_eq!(
            solo.task(TaskId::new(0)).max_response,
            pair.task(TaskId::new(0)).max_response
        );
        assert!(pair.task(TaskId::new(1)).max_response > pair.task(TaskId::new(0)).max_response);
        // Bus utilization is sane.
        assert!(pair.bus_utilization() > 0.0 && pair.bus_utilization() <= 1.0);
    }

    #[test]
    fn deadline_misses_detected_when_overloaded() {
        let p = platform(1, 5);
        // Demand 10 + 10·5 = 60 per 50-cycle period: overload.
        let ts = TaskSet::new(vec![task("t", 1, 0, 10, 10, 10, 50, 0, 10, 0)]).unwrap();
        let cfg =
            SimConfig::new(BusArbitration::FixedPriority).with_horizon(Time::from_cycles(1_000));
        let report = Simulator::new(&p, &ts, cfg).unwrap().run();
        assert!(report.task(TaskId::new(0)).deadline_misses > 0);
        assert!(!report.no_deadline_misses());
    }

    #[test]
    fn sporadic_releases_are_spaced_by_at_least_the_period() {
        let p = platform(1, 5);
        let ts = TaskSet::new(vec![task("t", 1, 0, 10, 2, 2, 100, 0, 2, 0)]).unwrap();
        let cfg = SimConfig::new(BusArbitration::FixedPriority)
            .with_horizon(Time::from_cycles(10_000))
            .with_releases(ReleaseModel::Sporadic {
                seed: 9,
                max_extra_percent: 50,
            });
        let report = Simulator::new(&p, &ts, cfg).unwrap().run();
        let released = report.task(TaskId::new(0)).released;
        // With up to +50% inter-arrival, between 10_000/150 and 10_000/100.
        assert!((66..=100).contains(&released), "{released}");
        // Deterministic under the same seed.
        let again = Simulator::new(&p, &ts, cfg).unwrap().run();
        assert_eq!(again.task(TaskId::new(0)).released, released);
    }
}
