//! The differential oracles checked on every generated task set.
//!
//! [`check_task_set`] runs the full analysis matrix (every bus policy ×
//! persistence mode × CRPD approach) and the cycle-accurate simulator
//! (synchronous and, optionally, sporadic releases) on one task set, and
//! compares the two against the properties listed in the crate docs.
//!
//! The checker is deliberately *pure*: same inputs, same
//! [`SetOutcome`] — which is itself one of the properties it verifies
//! (the determinism oracle re-runs analysis and simulation and demands
//! bit-identical results).

use std::fmt;
use std::str::FromStr;

use cpa_analysis::{
    analyze, analyze_with, spec, AnalysisConfig, AnalysisContext, AnalysisResult, AnalysisScratch,
    BusPolicy, ContextBuffers, CrpdApproach, PersistenceMode,
};
use cpa_model::{CacheGeometry, ModelError, Platform, TaskSet, Time};
use cpa_sim::{BusArbitration, ReleaseModel, SimConfig, SimReport, Simulator};
use serde::{Deserialize, Serialize};

use crate::report::OracleStats;

/// Upper bound on recorded [`Violation`]s per task set; the per-oracle
/// counters keep counting past it.
const MAX_VIOLATIONS_PER_SET: usize = 8;

/// Which oracle a check or violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OracleKind {
    /// Observed behaviour within analytical bounds.
    Soundness,
    /// Persistence-aware bounds ≤ persistence-oblivious bounds.
    Dominance,
    /// Same seed reproduces bit-identical results.
    Determinism,
    /// Simulator bookkeeping invariants.
    Accounting,
    /// The analysis engine agrees with the literal spec
    /// ([`cpa_analysis::spec::analyze`]).
    Equivalence,
}

impl OracleKind {
    /// Short machine-friendly label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            OracleKind::Soundness => "soundness",
            OracleKind::Dominance => "dominance",
            OracleKind::Determinism => "determinism",
            OracleKind::Accounting => "accounting",
            OracleKind::Equivalence => "equivalence",
        }
    }
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Deliberate fault injection, used to exercise the violation-handling
/// pipeline (shrinker, repro files, exit codes) end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Inject {
    /// No injection: every reported violation is a real finding.
    #[default]
    None,
    /// Tighten the soundness oracle to an unsatisfiable bound so any
    /// completed job trips it.
    Soundness,
    /// Require *strict* dominance, which fails whenever aware and
    /// oblivious bounds coincide.
    Dominance,
}

impl Inject {
    /// Short machine-friendly label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Inject::None => "none",
            Inject::Soundness => "soundness",
            Inject::Dominance => "dominance",
        }
    }
}

impl fmt::Display for Inject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Inject {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(Inject::None),
            "soundness" => Ok(Inject::Soundness),
            "dominance" => Ok(Inject::Dominance),
            other => Err(format!(
                "unknown injection `{other}` (expected none, soundness, or dominance)"
            )),
        }
    }
}

/// One failed check, with a human-readable description of what diverged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// The oracle that failed.
    pub oracle: OracleKind,
    /// What was compared and how it diverged.
    pub message: String,
}

/// Everything that parameterizes one oracle bundle run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckOptions {
    /// RR/TDMA slot count for both analysis and simulation.
    pub slots: u64,
    /// Upper bound on the simulated horizon (cycles); the horizon is
    /// `4 × max period`, capped here.
    pub horizon_cap: u64,
    /// Also simulate sporadic releases (synchronous is always simulated).
    pub sporadic: bool,
    /// Seed for the sporadic inter-arrival jitter.
    pub sporadic_seed: u64,
    /// CRPD approaches to cover in the analysis matrix.
    pub approaches: Vec<CrpdApproach>,
    /// Run the determinism oracle (re-analyze and re-simulate).
    pub determinism: bool,
    /// Fault injection mode.
    pub inject: Inject,
    /// Escape hatch: drive the cycle-stepped reference simulator loop
    /// instead of the event-skipping fast path (see DESIGN.md §11). The
    /// two are pinned byte-identical, so this only changes wall-clock
    /// time; it exists to cross-check the fast path in the field.
    #[serde(default)]
    pub reference_sim: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            slots: 2,
            horizon_cap: 1_500_000,
            sporadic: true,
            sporadic_seed: 0x00C0_FFEE,
            approaches: vec![
                CrpdApproach::EcbUnion,
                CrpdApproach::UcbUnion,
                CrpdApproach::EcbOnly,
            ],
            determinism: true,
            inject: Inject::None,
            reference_sim: false,
        }
    }
}

impl CheckOptions {
    /// The full default bundle.
    #[must_use]
    pub fn new() -> Self {
        CheckOptions::default()
    }

    /// A cheaper bundle for smoke campaigns: shorter horizon, synchronous
    /// releases only, one CRPD approach.
    #[must_use]
    pub fn quick() -> Self {
        CheckOptions {
            horizon_cap: 400_000,
            sporadic: false,
            approaches: vec![CrpdApproach::EcbUnion],
            ..CheckOptions::default()
        }
    }
}

/// Result of running the oracle bundle on one task set.
#[derive(Debug, Clone, Default)]
pub struct SetOutcome {
    /// Per-oracle check and violation counts.
    pub stats: OracleStats,
    /// Recorded violations (capped at a few per set; counts are exact).
    pub violations: Vec<Violation>,
    /// Whether any (bus, mode, approach) configuration was schedulable.
    pub any_schedulable: bool,
}

impl SetOutcome {
    fn record(&mut self, kind: OracleKind, ok: bool, message: impl FnOnce() -> String) {
        let stat = self.stats.stat_mut(kind);
        stat.checks += 1;
        if !ok {
            stat.violations += 1;
            if self.violations.len() < MAX_VIOLATIONS_PER_SET {
                self.violations.push(Violation {
                    oracle: kind,
                    message: message(),
                });
            }
        }
    }
}

/// Runs one simulation, honouring the [`CheckOptions::reference_sim`]
/// escape hatch: the event-skipping fast path by default, the retained
/// cycle-stepped loop when asked.
fn run_sim(
    platform: &Platform,
    tasks: &TaskSet,
    config: SimConfig,
    reference: bool,
) -> Result<cpa_sim::SimReport, ModelError> {
    let sim = Simulator::new(platform, tasks, config)?;
    Ok(if reference {
        sim.run_reference()
    } else {
        sim.run()
    })
}

/// Maps an analysed bus policy to its simulated counterpart.
#[must_use]
pub fn arbitration_of(bus: BusPolicy) -> BusArbitration {
    match bus {
        BusPolicy::FixedPriority | BusPolicy::Perfect => BusArbitration::FixedPriority,
        BusPolicy::RoundRobin { slots } => BusArbitration::RoundRobin { slots },
        BusPolicy::Tdma { slots } => BusArbitration::Tdma { slots },
    }
}

/// The simulated horizon for a task set: `4 × max period`, capped.
#[must_use]
pub fn horizon_for(tasks: &TaskSet, cap: u64) -> Time {
    let max_period = tasks.iter().map(|t| t.period().cycles()).max().unwrap_or(1);
    Time::from_cycles(max_period.saturating_mul(4).min(cap).max(1))
}

/// Builds the smallest platform a task set fits on: `max core + 1` cores,
/// a direct-mapped cache matching the set's footprint capacity (32-byte
/// lines, as everywhere in this workspace), and the given `d_mem`.
///
/// # Errors
///
/// Returns the [`ModelError`] of the platform builder for degenerate
/// parameters (e.g. zero `d_mem`).
pub fn platform_for_tasks(tasks: &TaskSet, d_mem: Time) -> Result<Platform, ModelError> {
    let cores = tasks
        .iter()
        .map(|t| t.core().index() + 1)
        .max()
        .unwrap_or(1);
    Platform::builder()
        .cores(cores)
        .cache(CacheGeometry::direct_mapped(tasks.cache_sets().max(1), 32))
        .memory_latency(d_mem)
        .build()
}

struct MatrixEntry {
    approach: CrpdApproach,
    bus: BusPolicy,
    aware: AnalysisResult,
    oblivious: AnalysisResult,
}

fn release_label(releases: ReleaseModel) -> &'static str {
    match releases {
        ReleaseModel::Synchronous => "sync",
        ReleaseModel::Sporadic { .. } => "sporadic",
    }
}

/// Runs the full oracle bundle on one task set.
///
/// # Errors
///
/// Returns a [`ModelError`] when the task set does not fit the platform —
/// a configuration mistake of the caller, not an oracle violation.
pub fn check_task_set(
    platform: &Platform,
    tasks: &TaskSet,
    opts: &CheckOptions,
) -> Result<SetOutcome, ModelError> {
    check_task_set_with(
        platform,
        tasks,
        opts,
        &mut AnalysisScratch::new(),
        &mut ContextBuffers::new(),
    )
}

/// [`check_task_set`] with caller-owned engine scratch and context-table
/// buffers, for campaign workers that validate long streams of sets. The
/// outcome is identical to a fresh-scratch run — the determinism oracle
/// re-checks exactly that on sampled sets.
///
/// # Errors
///
/// Returns a [`ModelError`] when the task set does not fit the platform —
/// a configuration mistake of the caller, not an oracle violation.
pub fn check_task_set_with(
    platform: &Platform,
    tasks: &TaskSet,
    opts: &CheckOptions,
    scratch: &mut AnalysisScratch,
    buffers: &mut ContextBuffers,
) -> Result<SetOutcome, ModelError> {
    let _span = cpa_obs::span!("oracle.check_set");
    let buses = BusPolicy::paper_buses(opts.slots);
    let mut out = SetOutcome::default();

    // Analysis matrix + dominance and equivalence oracles (pure
    // computation, cheap).
    let analysis_span = cpa_obs::span!("oracle.analysis");
    let mut entries = Vec::with_capacity(opts.approaches.len() * buses.len());
    for &approach in &opts.approaches {
        let ctx = AnalysisContext::with_crpd_approach_buffers(platform, tasks, approach, buffers)?;
        for &bus in &buses {
            let [aware, oblivious] =
                [PersistenceMode::Aware, PersistenceMode::Oblivious].map(|mode| {
                    let config = AnalysisConfig::new(bus, mode);
                    let result = analyze_with(&ctx, &config, scratch);
                    check_equivalence(&ctx, &config, approach, &result, &mut out);
                    result
                });
            check_dominance(
                tasks,
                approach,
                bus,
                &aware,
                &oblivious,
                opts.inject,
                &mut out,
            );
            if aware.is_schedulable() || oblivious.is_schedulable() {
                out.any_schedulable = true;
            }
            entries.push(MatrixEntry {
                approach,
                bus,
                aware,
                oblivious,
            });
        }
        ctx.recycle(buffers);
    }

    drop(analysis_span);

    // Simulation + soundness/accounting oracles (the expensive part).
    // Simulation is independent of persistence mode and CRPD approach, so
    // one run per (bus, release model) covers every analysis column.
    let simulate_span = cpa_obs::span!("oracle.simulate");
    let horizon = horizon_for(tasks, opts.horizon_cap);
    for (bus_index, &bus) in buses.iter().enumerate() {
        let bus_entries: Vec<&MatrixEntry> = entries
            .iter()
            .filter(|e| e.bus == bus && (e.aware.is_schedulable() || e.oblivious.is_schedulable()))
            .collect();
        // Unschedulable sets carry no soundness obligation; still simulate
        // the first bus so the accounting oracle sees every set at least
        // once.
        if bus_entries.is_empty() && bus_index != 0 {
            continue;
        }
        let mut release_models = vec![ReleaseModel::Synchronous];
        if opts.sporadic && !bus_entries.is_empty() {
            release_models.push(ReleaseModel::Sporadic {
                seed: opts.sporadic_seed,
                max_extra_percent: 40,
            });
        }
        for releases in release_models {
            let config = SimConfig::new(arbitration_of(bus))
                .with_horizon(horizon)
                .with_releases(releases);
            let report = run_sim(platform, tasks, config, opts.reference_sim)?;
            check_accounting(platform, tasks, &report, releases, &mut out);
            for entry in &bus_entries {
                for (mode, result) in [
                    (PersistenceMode::Aware, &entry.aware),
                    (PersistenceMode::Oblivious, &entry.oblivious),
                ] {
                    if result.is_schedulable() {
                        check_soundness(
                            tasks,
                            entry.approach,
                            bus,
                            mode,
                            releases,
                            result,
                            &report,
                            opts.inject,
                            &mut out,
                        );
                    }
                }
            }
        }
    }

    drop(simulate_span);

    if opts.determinism {
        let _span = cpa_obs::span!("oracle.determinism");
        check_determinism(platform, tasks, opts, &entries, horizon, &mut out)?;
    }
    Ok(out)
}

/// The engine's result against the literal spec on the same context: the
/// same response times and verdict. An engine verdict of "schedulable"
/// where the spec overflows `u64` is a violation too — saturated
/// arithmetic must end unschedulable.
fn check_equivalence(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    approach: CrpdApproach,
    engine: &AnalysisResult,
    out: &mut SetOutcome,
) {
    let tag = || {
        format!(
            "{} {} {}",
            config.bus.label(),
            approach.label(),
            config.persistence.label()
        )
    };
    match spec::analyze(ctx, config) {
        Ok(reference) => {
            out.record(
                OracleKind::Equivalence,
                engine.response_times() == reference.response_times()
                    && engine.is_schedulable() == reference.is_schedulable(),
                || {
                    format!(
                        "{}: engine response times {:?} (schedulable {}) differ from the spec's \
                         {:?} (schedulable {})",
                        tag(),
                        engine.response_times(),
                        engine.is_schedulable(),
                        reference.response_times(),
                        reference.is_schedulable()
                    )
                },
            );
        }
        Err(overflow) => {
            out.record(OracleKind::Equivalence, !engine.is_schedulable(), || {
                format!(
                    "{}: engine reports schedulable where the spec hit {overflow}",
                    tag()
                )
            });
        }
    }
}

fn check_dominance(
    tasks: &TaskSet,
    approach: CrpdApproach,
    bus: BusPolicy,
    aware: &AnalysisResult,
    oblivious: &AnalysisResult,
    inject: Inject,
    out: &mut SetOutcome,
) {
    // Schedulability-level implication: anything the oblivious analysis
    // admits, the aware analysis must admit too.
    out.record(
        OracleKind::Dominance,
        !oblivious.is_schedulable() || aware.is_schedulable(),
        || {
            format!(
                "{} {}: oblivious schedulable but aware is not",
                bus.label(),
                approach.label()
            )
        },
    );
    // Per-task dominance is only a theorem when both analyses converge for
    // the whole set (a diverging task inflates the aware outer loop's
    // persistence windows for everything else) — same precondition as the
    // property tests in `cpa-analysis/tests/dominance.rs`.
    if !(aware.is_schedulable() && oblivious.is_schedulable()) {
        return;
    }
    for id in tasks.ids() {
        let a = aware
            .response_time(id)
            .expect("schedulable results bound every task");
        let o = oblivious
            .response_time(id)
            .expect("schedulable results bound every task");
        let dominated = if inject == Inject::Dominance {
            a < o
        } else {
            a <= o
        };
        out.record(OracleKind::Dominance, dominated, || {
            let name = tasks.get(id).map_or("?", |t| t.name());
            let injected = if inject == Inject::Dominance {
                " [injected strict]"
            } else {
                ""
            };
            format!(
                "{} {}: task {name} aware bound {a} exceeds oblivious bound {o}{injected}",
                bus.label(),
                approach.label(),
            )
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn check_soundness(
    tasks: &TaskSet,
    approach: CrpdApproach,
    bus: BusPolicy,
    mode: PersistenceMode,
    releases: ReleaseModel,
    result: &AnalysisResult,
    report: &SimReport,
    inject: Inject,
    out: &mut SetOutcome,
) {
    let rel = release_label(releases);
    out.record(OracleKind::Soundness, report.no_deadline_misses(), || {
        format!(
            "{} {} {} [{rel}]: schedulable per analysis but the simulator missed a deadline",
            bus.label(),
            approach.label(),
            mode.label()
        )
    });
    for id in tasks.ids() {
        let bound = result
            .response_time(id)
            .expect("schedulable results bound every task");
        let observed = report.task(id).max_response;
        let within = if inject == Inject::Soundness {
            observed.is_zero()
        } else {
            observed <= bound
        };
        out.record(OracleKind::Soundness, within, || {
            let name = tasks.get(id).map_or("?", |t| t.name());
            let effective = if inject == Inject::Soundness {
                " [injected bound 0]".to_string()
            } else {
                String::new()
            };
            format!(
                "{} {} {} [{rel}]: task {name} observed response {observed} exceeds bound \
                 {bound}{effective}",
                bus.label(),
                approach.label(),
                mode.label()
            )
        });
    }
}

fn check_accounting(
    platform: &Platform,
    tasks: &TaskSet,
    report: &SimReport,
    releases: ReleaseModel,
    out: &mut SetOutcome,
) {
    let rel = release_label(releases);
    let mut access_sum: u64 = 0;
    for id in tasks.ids() {
        let stats = report.task(id);
        access_sum += stats.bus_accesses;
        let name = tasks.get(id).map_or("?", |t| t.name());
        out.record(
            OracleKind::Accounting,
            stats.completed <= stats.released,
            || {
                format!(
                    "[{rel}] task {name}: {} completions out of {} releases",
                    stats.completed, stats.released
                )
            },
        );
        if stats.completed >= 1 {
            out.record(
                OracleKind::Accounting,
                stats.total_response >= stats.max_response,
                || {
                    format!(
                        "[{rel}] task {name}: total response {} below max response {}",
                        stats.total_response, stats.max_response
                    )
                },
            );
        }
    }
    out.record(
        OracleKind::Accounting,
        access_sum == report.bus_transactions,
        || {
            format!(
                "[{rel}] per-task bus accesses sum to {access_sum} but the bus served {} \
                 transactions",
                report.bus_transactions
            )
        },
    );
    let d_mem = platform.memory_latency().cycles();
    out.record(
        OracleKind::Accounting,
        report.bus_busy_cycles == report.bus_transactions * d_mem,
        || {
            format!(
                "[{rel}] bus busy for {} cycles, expected {} transactions x d_mem {d_mem}",
                report.bus_busy_cycles, report.bus_transactions
            )
        },
    );
    out.record(
        OracleKind::Accounting,
        report.bus_busy_cycles <= report.horizon.cycles() + d_mem,
        || {
            format!(
                "[{rel}] bus busy for {} cycles over a horizon of {}",
                report.bus_busy_cycles, report.horizon
            )
        },
    );
}

fn check_determinism(
    platform: &Platform,
    tasks: &TaskSet,
    opts: &CheckOptions,
    entries: &[MatrixEntry],
    horizon: Time,
    out: &mut SetOutcome,
) -> Result<(), ModelError> {
    let Some(&approach) = opts.approaches.first() else {
        return Ok(());
    };
    // Re-derive the analysis from scratch: a second context + fixed-point
    // run must land on exactly the same response times.
    let ctx = AnalysisContext::with_crpd_approach(platform, tasks, approach)?;
    let fresh = analyze(
        &ctx,
        &AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware),
    );
    let stored = entries
        .iter()
        .find(|e| e.approach == approach && e.bus == BusPolicy::FixedPriority)
        .expect("FP entry exists for every approach");
    out.record(
        OracleKind::Determinism,
        fresh.response_times() == stored.aware.response_times(),
        || "re-running the FP/aware analysis produced different response times".to_string(),
    );
    // Two sim runs with identical config must be bit-identical
    // (`SimReport` is `PartialEq` over every counter).
    let config = SimConfig::new(BusArbitration::FixedPriority)
        .with_horizon(horizon.min(Time::from_cycles(200_000)));
    let first = run_sim(platform, tasks, config, opts.reference_sim)?;
    let second = run_sim(platform, tasks, config, opts.reference_sim)?;
    out.record(OracleKind::Determinism, first == second, || {
        "two simulator runs with the same seed and config diverged".to_string()
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_workload::{GeneratorConfig, TaskSetGenerator};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_set(seed: u64) -> (Platform, TaskSet) {
        let config = GeneratorConfig {
            cores: 2,
            tasks_per_core: 3,
            ..GeneratorConfig::paper_default()
        }
        .with_per_core_utilization(0.3);
        let generator = TaskSetGenerator::new(config.clone()).expect("valid config");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tasks = generator.generate(&mut rng).expect("generation succeeds");
        let platform = platform_for_tasks(&tasks, config.d_mem).expect("valid platform");
        (platform, tasks)
    }

    #[test]
    fn clean_set_passes_every_oracle() {
        let (platform, tasks) = small_set(7);
        let opts = CheckOptions {
            horizon_cap: 300_000,
            ..CheckOptions::quick()
        };
        let out = check_task_set(&platform, &tasks, &opts).expect("checkable");
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.stats.soundness.checks + out.stats.dominance.checks > 0);
        assert_eq!(out.stats.total_violations(), 0);
    }

    #[test]
    fn injected_soundness_fault_is_caught() {
        let (platform, tasks) = small_set(7);
        let opts = CheckOptions {
            horizon_cap: 300_000,
            inject: Inject::Soundness,
            ..CheckOptions::quick()
        };
        let out = check_task_set(&platform, &tasks, &opts).expect("checkable");
        assert!(
            out.violations
                .iter()
                .any(|v| v.oracle == OracleKind::Soundness),
            "expected an injected soundness violation, got {:?}",
            out.violations
        );
    }

    #[test]
    fn outcome_is_reproducible() {
        let (platform, tasks) = small_set(11);
        let opts = CheckOptions {
            horizon_cap: 300_000,
            ..CheckOptions::quick()
        };
        let a = check_task_set(&platform, &tasks, &opts).expect("checkable");
        let b = check_task_set(&platform, &tasks, &opts).expect("checkable");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn inject_parses_and_round_trips() {
        for (text, expected) in [
            ("none", Inject::None),
            ("soundness", Inject::Soundness),
            ("dominance", Inject::Dominance),
        ] {
            let parsed: Inject = text.parse().expect("parses");
            assert_eq!(parsed, expected);
            assert_eq!(parsed.label(), text);
        }
        assert!("bogus".parse::<Inject>().is_err());
    }
}
