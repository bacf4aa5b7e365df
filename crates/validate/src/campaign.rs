//! Parallel, deterministic validation campaigns.
//!
//! A campaign draws `sets` randomized task sets and runs the full oracle
//! bundle ([`crate::oracle::check_task_set`]) on each. Seeding follows the
//! same discipline as `cpa_experiments::runner`: every task set's RNG
//! stream is derived from `(base seed, campaign tag, set index)` via
//! [`derive_seed`], and the sets are dispatched through the shared
//! [`cpa_pool`] worker pool, which returns per-set outcomes in set-index
//! order regardless of how workers interleaved. Campaigns with the same
//! options therefore produce byte-equal [`CampaignStats`] (and retained
//! [`ViolationCase`]s) whether they run on 1 thread or 16.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cpa_analysis::{AnalysisScratch, ContextBuffers};
use cpa_experiments::cli::{Args, CliError};
use cpa_experiments::runner::{derive_seed, platform_for};
use cpa_model::{TaskSet, Time};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::oracle::{check_task_set_with, CheckOptions, Inject, OracleKind, Violation};
use crate::report::{
    CampaignStats, OptionsSummary, OracleStats, ValidationReport, ViolationRecord, REPORT_SCHEMA,
};

/// Campaign tag mixed into [`derive_seed`] so validation streams never
/// collide with the experiment sweeps (which use their point ids).
pub const CAMPAIGN_POINT: u64 = 0x5AFE;

/// Run the (expensive) determinism oracle on every `DETERMINISM_STRIDE`-th
/// set rather than all of them.
const DETERMINISM_STRIDE: u64 = 8;

/// At most this many full violation cases (task set included) are kept for
/// shrinking, lowest set indices first; every violation still lands in the
/// report. The cap is applied during the index-ordered merge, so the
/// retained cases are identical at any thread count (the old per-worker
/// cap made them depend on how sets were striped across workers).
const MAX_CASES: usize = 16;

/// Options for [`run_campaign`].
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Number of task sets to validate.
    pub sets: u64,
    /// Base seed; everything else derives from it.
    pub seed: u64,
    /// Worker threads; `0` picks a value from the available parallelism.
    pub threads: usize,
    /// RR/TDMA slot count.
    pub slots: u64,
    /// Use the cheap smoke profile (short horizon, synchronous releases
    /// only, one CRPD approach).
    pub quick: bool,
    /// Fault injection, for exercising the violation pipeline.
    pub inject: Inject,
    /// Stream progress to stderr.
    pub progress: bool,
    /// Drive the cycle-stepped reference simulator instead of the default
    /// event-skipping fast path (`--reference-sim`).
    pub reference_sim: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            sets: 1000,
            seed: 0x0DA7_E202_0001,
            threads: 0,
            slots: 2,
            quick: false,
            inject: Inject::None,
            progress: false,
            reference_sim: false,
        }
    }
}

impl CampaignOptions {
    /// Default options (1000 sets, full profile).
    #[must_use]
    pub fn new() -> Self {
        CampaignOptions::default()
    }

    /// Sets the number of task sets.
    #[must_use]
    pub fn with_sets(mut self, sets: u64) -> Self {
        self.sets = sets;
        self
    }

    /// Sets the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker thread count (`0` = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Toggles the quick smoke profile.
    #[must_use]
    pub fn with_quick(mut self, quick: bool) -> Self {
        self.quick = quick;
        self
    }

    /// Sets the fault-injection mode.
    #[must_use]
    pub fn with_inject(mut self, inject: Inject) -> Self {
        self.inject = inject;
        self
    }

    /// Toggles the cycle-stepped reference simulator escape hatch.
    #[must_use]
    pub fn with_reference_sim(mut self, reference_sim: bool) -> Self {
        self.reference_sim = reference_sim;
        self
    }

    /// Applies one campaign-related flag, consuming its value from `args`.
    /// Returns `Ok(true)` when `flag` was one of the shared campaign flags
    /// (`--sets`, `--seed`, `--threads`, `--slots`, `--quick`, `--inject`,
    /// `--reference-sim`, `--no-progress`) and `Ok(false)` when the caller
    /// should handle it itself.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] when the flag's value is missing or
    /// malformed, or `--sets` or `--slots` is 0.
    pub fn apply_cli_flag(&mut self, args: &mut Args, flag: &str) -> Result<bool, CliError> {
        match flag {
            "--sets" => self.sets = args.count_for("--sets")?,
            "--seed" => self.seed = args.value_for("--seed")?,
            "--threads" => self.threads = args.value_for("--threads")?,
            "--slots" => self.slots = args.slots_for("--slots")?,
            "--quick" => self.quick = true,
            "--inject" => self.inject = args.value_for("--inject")?,
            "--reference-sim" => self.reference_sim = true,
            "--no-progress" => self.progress = false,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Worker threads to use, resolving `0` via the workspace-wide policy
    /// in [`cpa_pool::resolve_threads`] (auto-detection capped at
    /// [`cpa_pool::MAX_AUTO_THREADS`], matching the experiment runner).
    #[must_use]
    pub fn worker_threads(&self) -> usize {
        cpa_pool::resolve_threads(self.threads)
    }

    /// The oracle bundle configuration these options imply.
    #[must_use]
    pub fn check_options(&self) -> CheckOptions {
        let mut check = if self.quick {
            CheckOptions::quick()
        } else {
            CheckOptions::new()
        };
        check.slots = self.slots;
        check.inject = self.inject;
        check.reference_sim = self.reference_sim;
        check
    }
}

/// A violation together with the full task set that produced it — the
/// input to the shrinker.
#[derive(Debug, Clone)]
pub struct ViolationCase {
    /// Campaign-wide set index.
    pub set_index: u64,
    /// Derived seed that regenerates the set.
    pub set_seed: u64,
    /// Memory latency the set was validated with.
    pub d_mem: Time,
    /// The offending task set.
    pub tasks: TaskSet,
    /// The first violation the oracle bundle recorded for it.
    pub violation: Violation,
}

/// Result of [`run_campaign`].
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The structured report (serialize with [`ValidationReport::to_json`]).
    pub report: ValidationReport,
    /// Violation cases retained for shrinking, ordered by set index.
    pub cases: Vec<ViolationCase>,
}

/// The randomized per-set workload profile: small two-core sets across a
/// band of per-core utilizations, drawn deterministically from `set_seed`.
/// Returns the configuration and the RNG (already advanced past the
/// profile draws) that generation must continue from.
fn profile_for(set_seed: u64) -> (GeneratorConfig, ChaCha8Rng) {
    let mut rng = ChaCha8Rng::seed_from_u64(set_seed);
    let utilization = rng.gen_range(0.10..0.55);
    let tasks_per_core = rng.gen_range(3usize..6);
    let cache_sets = if rng.gen_bool(0.5) { 256 } else { 128 };
    let mut config = GeneratorConfig {
        cores: 2,
        tasks_per_core,
        ..GeneratorConfig::paper_default()
    }
    .with_per_core_utilization(utilization)
    .with_cache_sets(cache_sets);
    config.d_mem = GeneratorConfig::paper_default().d_mem;
    (config, rng)
}

/// Everything one validated set contributes to the campaign. Produced by
/// [`validate_one_set`] inside the pool and folded into [`CampaignStats`]
/// in set-index order.
#[derive(Default)]
struct SetOutcome {
    checked: bool,
    generation_failure: bool,
    schedulable: bool,
    oracles: OracleStats,
    records: Vec<ViolationRecord>,
    /// The first violation of the set, retained for shrinking.
    case: Option<ViolationCase>,
}

/// Runs a validation campaign.
///
/// # Panics
///
/// Panics if a worker thread panics (which only happens on internal
/// invariant failures, not on oracle violations — those are reported).
#[must_use]
pub fn run_campaign(opts: &CampaignOptions) -> CampaignOutcome {
    let _span = cpa_obs::span!("campaign.run");
    let started = Instant::now();
    let sets = opts.sets;
    let threads = opts.worker_threads();
    let base_check = opts.check_options();
    let base_seed = opts.seed;
    let pool_opts = cpa_pool::PoolOptions::new().with_threads(threads);
    // One scope epoch per campaign. A fresh process (and every campaign
    // after `cpa_obs::reset()`) gets epoch 0, and `scope_key(0, set)`
    // equals `set`, so the trace bytes match the historical scheme of
    // scoping events by raw set index.
    let epoch = cpa_obs::next_scope_epoch();

    // Progress and `--metrics` share one code path: workers bump the
    // always-on `campaign.sets_validated` counter and the progress thread
    // polls it (relative to the campaign's starting value, since counters
    // are cumulative across campaigns in one process).
    let validated = cpa_obs::counter("campaign.sets_validated");
    let validated_base = validated.get();
    let done = AtomicBool::new(false);
    let mut outcomes: Vec<SetOutcome> = Vec::new();
    std::thread::scope(|scope| {
        if opts.progress {
            let done = &done;
            scope.spawn(move || {
                let mut last = u64::MAX;
                while !done.load(Ordering::Relaxed) {
                    let n = validated.get() - validated_base;
                    if n != last {
                        eprint!("\rvalidated {n}/{sets} task sets");
                        last = n;
                    }
                    std::thread::sleep(Duration::from_millis(200));
                }
                eprintln!(
                    "\rvalidated {}/{sets} task sets",
                    validated.get() - validated_base
                );
            });
        }
        let items = usize::try_from(sets).expect("set count fits in usize");
        outcomes = cpa_pool::map(
            items,
            pool_opts,
            epoch,
            // One engine scratch + context-table buffers per worker:
            // allocations amortize across the worker's whole stream of
            // sets.
            |_worker| (AnalysisScratch::new(), ContextBuffers::new()),
            |(scratch, buffers), set| {
                let outcome =
                    validate_one_set(set as u64, base_seed, &base_check, scratch, buffers);
                validated.incr();
                outcome
            },
        );
        done.store(true, Ordering::Relaxed);
    });

    // `cpa_pool::map` returns outcomes in set-index order no matter how
    // workers interleaved, so folding them sequentially yields the same
    // stats — and the same first-`MAX_CASES` retained cases — at any
    // thread count, with no post-hoc sorting.
    let mut stats = CampaignStats::default();
    let mut cases = Vec::new();
    for outcome in outcomes {
        stats.checked_sets += u64::from(outcome.checked);
        stats.generation_failures += u64::from(outcome.generation_failure);
        stats.schedulable_sets += u64::from(outcome.schedulable);
        stats.oracles.merge(&outcome.oracles);
        stats.violations.extend(outcome.records);
        if cases.len() < MAX_CASES {
            cases.extend(outcome.case);
        }
    }
    cpa_obs::counter("campaign.checked_sets").add(stats.checked_sets);
    cpa_obs::counter("campaign.generation_failures").add(stats.generation_failures);
    cpa_obs::counter("campaign.schedulable_sets").add(stats.schedulable_sets);
    cpa_obs::counter("campaign.violations").add(stats.violations.len() as u64);

    let wall_clock_secs = started.elapsed().as_secs_f64();
    let report = ValidationReport {
        schema: REPORT_SCHEMA,
        options: OptionsSummary {
            sets,
            seed: opts.seed,
            threads,
            slots: opts.slots,
            quick: opts.quick,
            inject: opts.inject.label().to_string(),
            reference_sim: opts.reference_sim,
        },
        stats,
        wall_clock_secs,
        sets_per_second: if wall_clock_secs > 0.0 {
            sets as f64 / wall_clock_secs
        } else {
            0.0
        },
    };
    CampaignOutcome { report, cases }
}

fn validate_one_set(
    set: u64,
    base_seed: u64,
    base_check: &CheckOptions,
    scratch: &mut AnalysisScratch,
    buffers: &mut ContextBuffers,
) -> SetOutcome {
    let mut outcome = SetOutcome::default();
    let set_seed = derive_seed(base_seed, CAMPAIGN_POINT, set);
    let (config, mut rng) = profile_for(set_seed);
    let generator = TaskSetGenerator::new(config.clone())
        .expect("campaign profiles are always valid generator configs");
    let Ok(tasks) = generator.generate(&mut rng) else {
        outcome.generation_failure = true;
        cpa_obs::event!("campaign.generation_failure", set = set, seed = set_seed);
        return outcome;
    };
    let platform = platform_for(&config);

    let mut check = base_check.clone();
    check.sporadic_seed = set_seed;
    check.determinism = set.is_multiple_of(DETERMINISM_STRIDE);

    // Generation determinism: the same derived seed must reproduce the
    // task set exactly (folded into the determinism oracle).
    if check.determinism {
        let (config_again, mut rng_again) = profile_for(set_seed);
        let regenerated = TaskSetGenerator::new(config_again)
            .ok()
            .and_then(|g| g.generate(&mut rng_again).ok());
        let stat = outcome.oracles.stat_mut(OracleKind::Determinism);
        stat.checks += 1;
        if regenerated.as_ref() != Some(&tasks) {
            stat.violations += 1;
            record_violation(
                &mut outcome,
                set,
                set_seed,
                config.d_mem,
                &tasks,
                Violation {
                    oracle: OracleKind::Determinism,
                    message: "regenerating from the same seed produced a different task set"
                        .to_string(),
                },
            );
        }
    }

    let checked = check_task_set_with(&platform, &tasks, &check, scratch, buffers)
        .expect("generated task sets always fit their platform");
    outcome.checked = true;
    outcome.schedulable = checked.any_schedulable;
    outcome.oracles.merge(&checked.stats);
    cpa_obs::event!(
        "campaign.set_done",
        set = set,
        seed = set_seed,
        tasks = tasks.len(),
        schedulable = checked.any_schedulable,
        violations = checked.violations.len(),
    );
    for violation in checked.violations {
        record_violation(&mut outcome, set, set_seed, config.d_mem, &tasks, violation);
    }
    outcome
}

fn record_violation(
    outcome: &mut SetOutcome,
    set: u64,
    set_seed: u64,
    d_mem: Time,
    tasks: &TaskSet,
    violation: Violation,
) {
    outcome.records.push(ViolationRecord {
        set_index: set,
        set_seed,
        oracle: violation.oracle,
        message: violation.message.clone(),
        repro: None,
    });
    // Keep one shrinkable case per set: the first violation.
    if outcome.case.is_none() {
        outcome.case = Some(ViolationCase {
            set_index: set,
            set_seed,
            d_mem,
            tasks: tasks.clone(),
            violation,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(sets: u64) -> CampaignOptions {
        CampaignOptions::new()
            .with_sets(sets)
            .with_quick(true)
            .with_seed(42)
    }

    #[test]
    fn clean_campaign_passes_and_counts_every_set() {
        let outcome = run_campaign(&quick_opts(6));
        assert!(outcome.report.passed(), "{}", outcome.report.summary());
        assert_eq!(outcome.report.stats.checked_sets, 6);
        assert!(outcome.report.stats.oracles.total_checks() > 0);
        assert!(outcome.cases.is_empty());
    }

    #[test]
    fn campaign_stats_are_thread_count_invariant() {
        let single = run_campaign(&quick_opts(5).with_threads(1));
        let multi = run_campaign(&quick_opts(5).with_threads(4));
        assert_eq!(single.report.stats, multi.report.stats);
    }

    #[test]
    fn injected_faults_surface_as_cases_and_records() {
        let outcome = run_campaign(&quick_opts(4).with_inject(Inject::Soundness));
        assert!(!outcome.report.passed());
        assert!(!outcome.cases.is_empty());
        assert!(outcome
            .report
            .stats
            .violations
            .iter()
            .all(|v| v.oracle == OracleKind::Soundness));
        // Cases arrive sorted and reference sets the report also lists.
        let indices: Vec<u64> = outcome.cases.iter().map(|c| c.set_index).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted);
    }

    #[test]
    fn cli_flags_reach_campaign_options() {
        let mut args = Args::new(["12", "9", "3", "4"].map(String::from), "usage: test");
        let mut opts = CampaignOptions::new();
        for flag in ["--sets", "--seed", "--threads", "--slots"] {
            assert_eq!(opts.apply_cli_flag(&mut args, flag), Ok(true));
        }
        for flag in ["--quick", "--reference-sim", "--no-progress"] {
            assert_eq!(opts.apply_cli_flag(&mut args, flag), Ok(true));
        }
        assert_eq!(opts.sets, 12);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.threads, 3);
        // Explicit thread requests resolve verbatim, above the auto cap.
        assert_eq!(opts.worker_threads(), 3);
        assert_eq!(opts.slots, 4);
        assert!(opts.quick);
        assert!(opts.reference_sim);
        assert!(!opts.progress);
        // A slotted bus needs s ≥ 1: `--slots 0` is a usage error.
        let mut args = Args::new(["0".to_string()], "usage: test");
        assert!(opts.apply_cli_flag(&mut args, "--slots").is_err());
        // Binary-specific flags fall through to the caller.
        let mut args = Args::new(std::iter::empty::<String>(), "usage: test");
        assert_eq!(opts.apply_cli_flag(&mut args, "--report"), Ok(false));
    }

    #[test]
    fn profile_is_deterministic_in_the_seed() {
        let (a, _) = profile_for(99);
        let (b, _) = profile_for(99);
        assert_eq!(a.per_core_utilization, b.per_core_utilization);
        assert_eq!(a.tasks_per_core, b.tasks_per_core);
        assert_eq!(a.cache_sets, b.cache_sets);
    }
}
