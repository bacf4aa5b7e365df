//! One traced analysis or simulation run, with convergence diagnostics.
//!
//! ```text
//! cpa-trace analyze  [--seed S] [--cores N] [--tasks-per-core K] [--util U]
//!                    [--bus fp|rr|tdma|perfect] [--slots K]
//!                    [--mode aware|oblivious] [SINKS]
//! cpa-trace sim      [--seed S] [--cores N] [--tasks-per-core K] [--util U]
//!                    [--bus fp|rr|tdma] [--slots K] [--horizon H] [SINKS]
//! cpa-trace sweep    [--seed S] [--cores N] [--tasks-per-core K] [--util U]
//!                    [--bus fp|rr|tdma|perfect] [--slots K] [--sets N]
//!                    [--threads T] [SINKS]
//! cpa-trace optimize [--seed S] [--cores N] [--tasks-per-core K] [--util U]
//!                    [--bus fp|rr|tdma|perfect] [--slots K]
//!                    [--mode aware|oblivious] [--sets N] [--threads T]
//!                    [SINKS]
//!
//! SINKS: [--trace FILE] [--metrics FILE] [--json]
//!        [--export chrome|openmetrics] [--export-out FILE]
//! ```
//!
//! `analyze` generates one task set (paper-default profile with the given
//! overrides), runs the WCRT analysis with the `cpa-obs` subscriber
//! enabled, and prints a per-task convergence report: WCRT, slack
//! `D − R`, inner iteration counts, and the BAS/BAO/CPRO/CRPD
//! decomposition of the bound at its fixed point, naming the dominant
//! term — every one of the terms tied for the largest share, in the order
//! BAS, BAO, CPRO, CRPD, whose first is `dominant`. `sim` runs the
//! cycle-accurate simulator on the same workload instead and reports the
//! observed per-task statistics, bus occupancy, and an event-skip summary
//! (spans executed, mean span length, fraction of the horizon jumped).
//! `sweep` evaluates one experiment grid point (`--sets` task sets,
//! persistence-aware and -oblivious under the chosen bus) through the
//! shared `cpa-pool` worker pool and reports the pool's dynamic-scheduling
//! statistics — chunks claimed, chunks stolen beyond the fair share, steal
//! ratio — together with the engine's scratch-reuse count (DESIGN.md §12).
//!
//! Every run subcommand ends with a per-stage pipeline breakdown (wall
//! time, calls, work items, and throughput per phase — DESIGN.md §14) and
//! a self-profile: the span tree with wall-time aggregation,
//! pretty-printed (or embedded in the `--json` document).
//! `--trace FILE` writes the deterministic JSON-lines event stream
//! (payloads carry iterations and seeds, never wall-clock values);
//! `--metrics FILE` writes the metrics + profile JSON document. Both go
//! through the shared `cpa_experiments::cli::ObsSinks`.
//!
//! `--export chrome|openmetrics` renders the run through
//! `cpa-telemetry`: a Chrome Trace Event / Perfetto JSON document or an
//! OpenMetrics text exposition (the stage breakdown is part of the
//! `--json` report). Both exports are byte-deterministic (same seed ⇒
//! identical bytes at any `--threads`). With `--export-out FILE` the
//! export is written beside the normal report; without it the export
//! document replaces the report on stdout (`cpa-trace sweep --export
//! chrome > sweep.json`, then open in Perfetto).
//!
//! Exits 2 on bad input and 1 when a sink or export cannot be written
//! (`cpa_experiments::cli`).

use std::path::PathBuf;
use std::process::ExitCode;

use cpa_analysis::{
    analyze, decompose, AnalysisConfig, AnalysisContext, BusPolicy, CrpdApproach, DominantTerm,
    PersistenceMode, TermDecomposition,
};
use cpa_experiments::cli::{self, Args, CliError, ObsSinks};
use cpa_experiments::runner::{evaluate_population, Evaluation};
use cpa_experiments::SweepOptions;
use cpa_model::{Platform, TaskId, TaskSet, Time};
use cpa_sim::{SimConfig, SimReport, Simulator};
use cpa_telemetry::{chrome_trace, openmetrics, StageReport};
use cpa_validate::oracle::{arbitration_of, horizon_for};
use cpa_validate::platform_for_tasks;
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// One row of the `analyze --json` convergence report.
#[derive(Serialize)]
struct AnalyzeTaskRow {
    task: String,
    core: usize,
    priority: u32,
    wcrt: Option<u64>,
    deadline: u64,
    /// `D_i − R_i`; `null` when the task is unbounded.
    slack: Option<u64>,
    converged: bool,
    inner_iterations: u64,
    /// The first of `tied` in [`DominantTerm::ALL`]'s order.
    dominant: &'static str,
    /// Every term tied for the largest share, in `tie_order`.
    tied: Vec<&'static str>,
    bas: u64,
    bao: u64,
    cpro: u64,
    crpd: u64,
    blocking: u64,
}

/// Engine-internals section of the `analyze` report: `BAO` segment-cache
/// effectiveness and solve counts, from the `engine.*` counters.
#[derive(Serialize)]
struct EngineStats {
    bao_hits: u64,
    bao_misses: u64,
    tasks_solved: u64,
    scratch_reuses: u64,
}

impl EngineStats {
    /// Reads the engine counters after the `analyze` run, the only work
    /// that bumps them.
    fn read() -> EngineStats {
        EngineStats {
            bao_hits: count("engine.bao_hit"),
            bao_misses: count("engine.bao_miss"),
            tasks_solved: count("engine.tasks_solved"),
            scratch_reuses: count("engine.scratch_reuses"),
        }
    }
}

/// Pool section of the `sweep` report: dynamic-scheduling statistics from
/// the `pool.*` counters of one pooled evaluation, plus the engine's
/// scratch-reuse count (DESIGN.md §12), the solves a dominating
/// configuration's verdict decided and the verdicts certified at the
/// deadlines without a solve (DESIGN.md §10).
#[derive(Serialize)]
struct PoolStats {
    threads: usize,
    chunks_claimed: u64,
    chunks_stolen: u64,
    steal_ratio: f64,
    scratch_reuses: u64,
    verdicts_implied: u64,
    verdicts_certified: u64,
}

impl PoolStats {
    /// Reads the pool and scratch counters after the pooled evaluation,
    /// the only work that bumps them.
    fn read(threads: usize) -> PoolStats {
        let (claimed, stolen) = (count("pool.chunks_claimed"), count("pool.chunks_stolen"));
        PoolStats {
            threads,
            chunks_claimed: claimed,
            chunks_stolen: stolen,
            steal_ratio: ratio(stolen, claimed),
            scratch_reuses: count("engine.scratch_reuses"),
            verdicts_implied: count("experiments.verdicts_implied"),
            verdicts_certified: count("engine.verdicts_certified"),
        }
    }
}

/// One per-configuration row of the `sweep --json` report.
#[derive(Serialize)]
struct SweepConfigRow {
    bus: &'static str,
    mode: &'static str,
    schedulable: u64,
    samples: u64,
}

/// The `sweep --json` report (profile spliced in separately).
#[derive(Serialize)]
struct SweepDoc {
    command: &'static str,
    seed: u64,
    sets: usize,
    pool: PoolStats,
    configs: Vec<SweepConfigRow>,
}

/// Search section of the `optimize` report: design-space search activity
/// from the `optimize.*` counters across both batch runs
/// (DESIGN.md §13).
#[derive(Serialize)]
struct OptimizeStats {
    candidates: u64,
    cache_hits: u64,
    cache_misses: u64,
    moves_accepted: u64,
    moves_rejected: u64,
    restarts: u64,
    exhaustive_runs: u64,
    improved: u64,
    /// Audsley seeding probes evaluated.
    audsley_probes: u64,
    /// Audsley levels where no probe converged (the level went to the
    /// first unassigned task).
    audsley_fallbacks: u64,
}

impl OptimizeStats {
    /// Reads the optimizer counters after the cold and warm batch runs,
    /// the only work that bumps them.
    fn read() -> OptimizeStats {
        OptimizeStats {
            candidates: count("optimize.candidates"),
            cache_hits: count("optimize.cache_hits"),
            cache_misses: count("optimize.cache_misses"),
            moves_accepted: count("optimize.moves_accepted"),
            moves_rejected: count("optimize.moves_rejected"),
            restarts: count("optimize.restarts"),
            exhaustive_runs: count("optimize.exhaustive_runs"),
            improved: count("optimize.improved"),
            audsley_probes: count("optimize.audsley_probes"),
            audsley_fallbacks: count("optimize.audsley_fallbacks"),
        }
    }
}

/// The `optimize --json` report (profile spliced in separately): one toy
/// batch run cold, then again warm against the same in-memory cache.
#[derive(Serialize)]
struct OptimizeDoc {
    command: &'static str,
    seed: u64,
    sets: usize,
    replay_identical: bool,
    counters: OptimizeStats,
    cold: cpa_optimize::BatchStats,
    warm: cpa_optimize::BatchStats,
}

/// The `analyze --json` report (profile spliced in separately).
#[derive(Serialize)]
struct AnalyzeDoc {
    command: &'static str,
    seed: u64,
    bus: &'static str,
    mode: &'static str,
    schedulable: bool,
    outer_iterations: u32,
    hit_outer_cap: bool,
    engine: EngineStats,
    /// The order ties for the dominant term resolve in.
    tie_order: [&'static str; 4],
    tasks: Vec<AnalyzeTaskRow>,
}

/// One row of the `sim --json` report.
#[derive(Serialize)]
struct SimTaskRow {
    task: String,
    core: usize,
    released: u64,
    completed: u64,
    max_response: u64,
    deadline_misses: u64,
}

/// Event-skip section of the `sim` report, from the `sim.*` counters of
/// this run (see `cpa_sim::Simulator::run`).
#[derive(Serialize)]
struct SkipStats {
    spans: u64,
    cycles_skipped: u64,
    cycles_stepped: u64,
    mean_span: f64,
    skip_ratio: f64,
}

impl SkipStats {
    /// Reads the simulator counters after the one simulation run that
    /// bumps them.
    fn read(horizon: u64) -> SkipStats {
        let spans = count("sim.skip_spans");
        let skipped = count("sim.cycles_skipped");
        SkipStats {
            spans,
            cycles_skipped: skipped,
            cycles_stepped: count("sim.cycles_stepped"),
            mean_span: ratio(skipped, spans),
            skip_ratio: ratio(skipped, horizon),
        }
    }
}

/// The current value of an always-on counter. Counters start at zero in
/// this process, so after a run it is exactly that run's tally.
fn count(name: &'static str) -> u64 {
    cpa_obs::counter(name).get()
}

/// `num / den`, or 0 for an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The `sim --json` report (profile spliced in separately).
#[derive(Serialize)]
struct SimDoc {
    command: &'static str,
    seed: u64,
    bus: &'static str,
    horizon: u64,
    no_deadline_misses: bool,
    bus_transactions: u64,
    bus_busy_cycles: u64,
    bus_utilization: f64,
    skip: SkipStats,
    tasks: Vec<SimTaskRow>,
}

const USAGE: &str = "usage: cpa-trace analyze [--seed S] [--cores N] [--tasks-per-core K] \
[--util U] [--bus fp|rr|tdma|perfect] [--slots K] [--mode aware|oblivious] [SINKS]\n       \
cpa-trace sim [--seed S] [--cores N] [--tasks-per-core K] [--util U] [--bus fp|rr|tdma] \
[--slots K] [--horizon H] [SINKS]\n       \
cpa-trace sweep [--seed S] [--cores N] [--tasks-per-core K] [--util U] \
[--bus fp|rr|tdma|perfect] [--slots K] [--sets N] [--threads T] [SINKS]\n       \
cpa-trace optimize [--seed S] [--cores N] [--tasks-per-core K] [--util U] \
[--bus fp|rr|tdma|perfect] [--slots K] [--mode aware|oblivious] [--sets N] [--threads T] \
[SINKS]\n\
SINKS: [--trace FILE] [--metrics FILE] [--json] [--export chrome|openmetrics] \
[--export-out FILE]";

/// Everything both subcommands share.
struct TraceOptions {
    seed: u64,
    cores: usize,
    tasks_per_core: usize,
    util: f64,
    bus: String,
    slots: u64,
    mode: String,
    horizon: u64,
    sets: usize,
    threads: usize,
    sinks: ObsSinks,
    json: bool,
    export: Option<String>,
    export_out: Option<PathBuf>,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            seed: 42,
            cores: 2,
            tasks_per_core: 4,
            util: 0.3,
            bus: "fp".to_string(),
            slots: 2,
            mode: "aware".to_string(),
            horizon: 1_500_000,
            sets: 32,
            threads: 0,
            sinks: ObsSinks::default(),
            json: false,
            export: None,
            export_out: None,
        }
    }
}

impl TraceOptions {
    fn parse(mut args: Args) -> Result<TraceOptions, CliError> {
        let mut opts = TraceOptions::default();
        while let Some(arg) = args.next_arg() {
            if opts.sinks.apply_flag(&mut args, &arg)? {
                continue;
            }
            match arg.as_str() {
                "--seed" => opts.seed = args.value_for("--seed")?,
                "--cores" => opts.cores = args.value_for("--cores")?,
                "--tasks-per-core" => opts.tasks_per_core = args.value_for("--tasks-per-core")?,
                "--util" => opts.util = args.value_for("--util")?,
                "--bus" => opts.bus = args.value_for("--bus")?,
                "--slots" => opts.slots = args.value_for("--slots")?,
                "--mode" => opts.mode = args.value_for("--mode")?,
                "--horizon" => opts.horizon = args.count_for("--horizon")?,
                "--sets" => opts.sets = args.count_for("--sets")?,
                "--threads" => opts.threads = args.value_for("--threads")?,
                "--json" => opts.json = true,
                "--export" => {
                    let format: String = args.value_for("--export")?;
                    if !matches!(format.as_str(), "chrome" | "openmetrics") {
                        return Err(CliError::bad_input(format!(
                            "unknown export format `{format}` (expected chrome or openmetrics)"
                        )));
                    }
                    opts.export = Some(format);
                }
                "--export-out" => opts.export_out = Some(args.value_for("--export-out")?),
                other => return Err(args.unknown_flag(other)),
            }
        }
        Ok(opts)
    }

    fn bus_policy(&self) -> Result<BusPolicy, CliError> {
        BusPolicy::try_parse(&self.bus, self.slots).map_err(CliError::bad_input)
    }

    fn persistence(&self) -> Result<PersistenceMode, CliError> {
        PersistenceMode::try_parse(&self.mode).map_err(CliError::bad_input)
    }

    /// The generator for the requested shape; a bad shape is bad input.
    fn generator(&self) -> Result<(GeneratorConfig, TaskSetGenerator), CliError> {
        let config = GeneratorConfig {
            cores: self.cores,
            tasks_per_core: self.tasks_per_core,
            ..GeneratorConfig::paper_default()
        }
        .with_per_core_utilization(self.util);
        let generator = TaskSetGenerator::new(config.clone()).map_err(CliError::bad_input)?;
        Ok((config, generator))
    }

    fn workload(&self) -> Result<(GeneratorConfig, Platform, TaskSet), CliError> {
        let (config, generator) = self.generator()?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let tasks = generator.generate(&mut rng).map_err(CliError::bad_input)?;
        let platform = platform_for_tasks(&tasks, config.d_mem).map_err(CliError::bad_input)?;
        Ok((config, platform, tasks))
    }

    fn describe(&self, config: &GeneratorConfig) -> String {
        format!(
            "task set: seed {:#x}, {} cores x {} tasks, util {:.2}/core, d_mem {}",
            self.seed,
            self.cores,
            self.tasks_per_core,
            self.util,
            config.d_mem.cycles()
        )
    }
}

fn main() -> ExitCode {
    cli::run(USAGE, |mut args| {
        let cmd: fn(&TraceOptions) -> Result<(), CliError> = match args.next_arg().as_deref() {
            Some("analyze") => analyze_cmd,
            Some("sim") => sim_cmd,
            Some("sweep") => sweep_cmd,
            Some("optimize") => optimize_cmd,
            other => return Err(args.unknown_subcommand(other)),
        };
        let opts = TraceOptions::parse(args)?;
        cpa_obs::enable();
        cpa_obs::set_scope(0);
        cmd(&opts)
    })
}

fn analyze_cmd(opts: &TraceOptions) -> Result<(), CliError> {
    let bus = opts.bus_policy()?;
    let mode = opts.persistence()?;
    let (gen_config, platform, tasks) = opts.workload()?;
    let ctx = AnalysisContext::new(&platform, &tasks).map_err(CliError::bad_input)?;
    let config = AnalysisConfig::new(bus, mode);
    let result = analyze(&ctx, &config);
    let engine = EngineStats::read();

    // Decomposition windows: the fixed point where one exists, the
    // deadline otherwise.
    let windows: Vec<Time> = tasks
        .ids()
        .map(|i| {
            result
                .response_time(i)
                .unwrap_or_else(|| tasks[i].deadline())
        })
        .collect();
    let decompositions: Vec<_> = tasks
        .ids()
        .map(|i| decompose(&ctx, &config, i, windows[i.index()], &windows))
        .collect();
    let slack = |i: TaskId| {
        let deadline = tasks[i].deadline().cycles();
        result.response_time(i).map(|r| deadline - r.cycles())
    };
    let labels = |d: &TermDecomposition| -> Vec<&'static str> {
        d.tied().into_iter().map(DominantTerm::label).collect()
    };

    let run = finish_run(opts)?;
    if run.exported_to_stdout {
        return Ok(());
    }

    if opts.json {
        let task_rows: Vec<AnalyzeTaskRow> = tasks
            .ids()
            .map(|i| {
                let task = &tasks[i];
                let d = &decompositions[i.index()];
                AnalyzeTaskRow {
                    task: task.name().to_string(),
                    core: task.core().index(),
                    priority: task.priority().level(),
                    wcrt: result.response_time(i).map(|t| t.cycles()),
                    deadline: task.deadline().cycles(),
                    slack: slack(i),
                    converged: result.response_time(i).is_some(),
                    inner_iterations: result.inner_iteration_counts()[i.index()],
                    dominant: d.dominant().label(),
                    tied: labels(d),
                    bas: d.bas_accesses,
                    bao: d.bao_accesses,
                    cpro: d.cpro_accesses,
                    crpd: d.crpd_accesses,
                    blocking: d.blocking_accesses,
                }
            })
            .collect();
        let doc = AnalyzeDoc {
            command: "analyze",
            seed: opts.seed,
            bus: bus.label(),
            mode: mode.label(),
            schedulable: result.is_schedulable(),
            outer_iterations: result.outer_iterations(),
            hit_outer_cap: result.hit_outer_iteration_cap(),
            engine,
            tie_order: DominantTerm::ALL.map(DominantTerm::label),
            tasks: task_rows,
        };
        println!("{}", with_profile(&doc, &run)?);
        return Ok(());
    }

    println!("{}", opts.describe(&gen_config));
    println!(
        "analysis: bus {}, persistence {} ({} outer sweeps{})",
        bus.label(),
        mode.label(),
        result.outer_iterations(),
        if result.hit_outer_iteration_cap() {
            ", OUTER CAP HIT"
        } else {
            ""
        }
    );
    println!(
        "engine: bao cache {:.1}% hit ({} hits / {} misses); {} task solves",
        ratio(engine.bao_hits, engine.bao_hits + engine.bao_misses) * 100.0,
        engine.bao_hits,
        engine.bao_misses,
        engine.tasks_solved,
    );
    if engine.scratch_reuses > 0 {
        println!("engine: {} scratch reuses", engine.scratch_reuses);
    }
    println!();
    println!(
        "{:<14} {:>4} {:>4} {:>10} {:>10} {:>10} {:>5} {:>7}  {:<8} shares",
        "task", "core", "prio", "wcrt", "deadline", "slack", "conv", "inner", "dominant"
    );
    let or_dash = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    for i in tasks.ids() {
        let task = &tasks[i];
        let d = &decompositions[i.index()];
        let shares = DominantTerm::ALL
            .map(|t| format!("{}={:.1}%", t.label(), d.share(t) * 100.0))
            .join(" ");
        println!(
            "{:<14} {:>4} {:>4} {:>10} {:>10} {:>10} {:>5} {:>7}  {:<8} {}",
            task.name(),
            task.core().index(),
            task.priority().level(),
            or_dash(result.response_time(i).map(Time::cycles)),
            task.deadline().cycles(),
            or_dash(slack(i)),
            if result.response_time(i).is_some() {
                "yes"
            } else {
                "no"
            },
            result.inner_iteration_counts()[i.index()],
            labels(d).join("="),
            shares
        );
    }
    println!(
        "dominant: the largest share; tied terms are all printed, joined by `=`, in the order {}",
        DominantTerm::ALL.map(DominantTerm::label).join(", ")
    );
    println!();
    println!(
        "schedulable: {}",
        if result.is_schedulable() { "yes" } else { "no" }
    );
    print_stages(&run.stages);
    print_profile(&run.profile);
    Ok(())
}

fn sim_cmd(opts: &TraceOptions) -> Result<(), CliError> {
    let bus = opts.bus_policy()?;
    if bus == BusPolicy::Perfect {
        return Err(CliError::bad_input(
            "sim: bus `perfect` has no arbiter to simulate (expected fp, rr, or tdma)",
        ));
    }
    let (gen_config, platform, tasks) = opts.workload()?;
    let horizon = horizon_for(&tasks, opts.horizon);
    let config = SimConfig::new(arbitration_of(bus)).with_horizon(horizon);
    let report = Simulator::new(&platform, &tasks, config)
        .map_err(CliError::bad_input)?
        .run();
    let skip = SkipStats::read(report.horizon.cycles());

    let run = finish_run(opts)?;
    if run.exported_to_stdout {
        return Ok(());
    }

    if opts.json {
        let doc = SimDoc {
            command: "sim",
            seed: opts.seed,
            bus: bus.label(),
            horizon: report.horizon.cycles(),
            no_deadline_misses: report.no_deadline_misses(),
            bus_transactions: report.bus_transactions,
            bus_busy_cycles: report.bus_busy_cycles,
            bus_utilization: report.bus_utilization(),
            skip,
            tasks: task_sim_rows(&tasks, &report),
        };
        println!("{}", with_profile(&doc, &run)?);
        return Ok(());
    }

    println!("{}", opts.describe(&gen_config));
    println!(
        "simulation: bus {}, horizon {} cycles",
        bus.label(),
        report.horizon.cycles()
    );
    println!(
        "event-skip: {} spans jumped {} cycles (mean span {:.1}), {} stepped ({:.1}% of the horizon skipped)",
        skip.spans,
        skip.cycles_skipped,
        skip.mean_span,
        skip.cycles_stepped,
        skip.skip_ratio * 100.0,
    );
    println!();
    println!(
        "{:<14} {:>4} {:>9} {:>9} {:>12} {:>7}",
        "task", "core", "released", "completed", "max_response", "misses"
    );
    for i in tasks.ids() {
        let task = &tasks[i];
        let stats = report.task(i);
        println!(
            "{:<14} {:>4} {:>9} {:>9} {:>12} {:>7}",
            task.name(),
            task.core().index(),
            stats.released,
            stats.completed,
            stats.max_response.cycles(),
            stats.deadline_misses
        );
    }
    println!();
    println!(
        "bus: {} transactions, {} busy cycles, {:.1}% occupancy",
        report.bus_transactions,
        report.bus_busy_cycles,
        report.bus_utilization() * 100.0
    );
    print_stages(&run.stages);
    print_profile(&run.profile);
    Ok(())
}

fn sweep_cmd(opts: &TraceOptions) -> Result<(), CliError> {
    let bus = opts.bus_policy()?;
    // `evaluate_population` expects a valid generator: reject a bad shape here.
    let (gen_config, _) = opts.generator()?;
    let configs = [
        AnalysisConfig::new(bus, PersistenceMode::Aware),
        AnalysisConfig::new(bus, PersistenceMode::Oblivious),
    ];
    let sweep = SweepOptions::quick()
        .with_sets_per_point(opts.sets)
        .with_seed(opts.seed)
        .with_threads(opts.threads);
    let threads = cpa_pool::resolve_threads(opts.threads);

    let evaluation = Evaluation::new(gen_config.d_mem, CrpdApproach::EcbUnion, configs.to_vec());
    let point = evaluate_population(&gen_config, &[evaluation], &sweep, 0).remove(0);
    let pool = PoolStats::read(threads);

    let run = finish_run(opts)?;
    if run.exported_to_stdout {
        return Ok(());
    }

    let rows: Vec<SweepConfigRow> = configs
        .iter()
        .enumerate()
        .map(|(i, cfg)| SweepConfigRow {
            bus: cfg.bus.label(),
            mode: cfg.persistence.label(),
            schedulable: point.config(i).schedulable_count(),
            samples: point.config(i).samples(),
        })
        .collect();

    if opts.json {
        let doc = SweepDoc {
            command: "sweep",
            seed: opts.seed,
            sets: opts.sets,
            pool,
            configs: rows,
        };
        println!("{}", with_profile(&doc, &run)?);
        return Ok(());
    }

    println!("{}", opts.describe(&gen_config));
    println!(
        "sweep: {} task sets x {} configs on {} worker threads",
        opts.sets,
        configs.len(),
        pool.threads,
    );
    println!(
        "pool: {} chunks claimed, {} stolen beyond the fair share ({:.1}% steal ratio); \
         {} scratch reuses; {} verdicts implied, {} verdicts certified",
        pool.chunks_claimed,
        pool.chunks_stolen,
        pool.steal_ratio * 100.0,
        pool.scratch_reuses,
        pool.verdicts_implied,
        pool.verdicts_certified,
    );
    println!();
    for row in &rows {
        println!(
            "{:<10} {:<10} schedulable {}/{}",
            row.bus, row.mode, row.schedulable, row.samples
        );
    }
    print_stages(&run.stages);
    print_profile(&run.profile);
    Ok(())
}

fn optimize_cmd(opts: &TraceOptions) -> Result<(), CliError> {
    // Validate the labels up front for consistent CLI errors.
    opts.bus_policy()?;
    opts.persistence()?;
    let gen = cpa_optimize::GenOptions {
        sets: opts.sets,
        seed: opts.seed,
        cores: opts.cores,
        tasks_per_core: opts.tasks_per_core,
        util: opts.util,
        bus: opts.bus.clone(),
        slots: opts.slots,
        mode: opts.mode.clone(),
        toy: true,
        ..cpa_optimize::GenOptions::default()
    };
    let batch = cpa_optimize::gen_batch(&gen).map_err(CliError::bad_input)?;
    let service = cpa_optimize::ServiceOptions {
        threads: opts.threads,
        ..cpa_optimize::ServiceOptions::default()
    };

    // Run the same batch twice against one cache: the cold run searches,
    // the warm run must replay the exact bytes from the cache.
    let mut cache = cpa_optimize::ResultCache::in_memory();
    let (cold_doc, cold) =
        cpa_optimize::process_batch(&batch, &service, &mut cache).map_err(CliError::failed)?;
    let (warm_doc, warm) =
        cpa_optimize::process_batch(&batch, &service, &mut cache).map_err(CliError::failed)?;
    let counters = OptimizeStats::read();
    let replay_identical = cold_doc == warm_doc;

    let run = finish_run(opts)?;
    if run.exported_to_stdout {
        return Ok(());
    }

    if opts.json {
        let doc = OptimizeDoc {
            command: "optimize",
            seed: opts.seed,
            sets: opts.sets,
            replay_identical,
            counters,
            cold,
            warm,
        };
        println!("{}", with_profile(&doc, &run)?);
        return Ok(());
    }

    println!(
        "optimize: {} requests, seed {:#x}, {} cores x {} tasks, util {:.2}/core, bus {}/{}",
        opts.sets, opts.seed, opts.cores, opts.tasks_per_core, opts.util, opts.bus, opts.mode
    );
    println!(
        "search: {} candidates evaluated, {} restarts, {} exhaustive run(s); \
         {} moves accepted, {} rejected",
        counters.candidates,
        counters.restarts,
        counters.exhaustive_runs,
        counters.moves_accepted,
        counters.moves_rejected,
    );
    println!(
        "audsley: {} probes evaluated, {} level(s) without a converging probe",
        counters.audsley_probes, counters.audsley_fallbacks,
    );
    println!(
        "cache: {} hits, {} misses across cold+warm; warm replay byte-identical: {}",
        counters.cache_hits, counters.cache_misses, replay_identical
    );
    println!(
        "verdicts: default schedulable {}/{}, optimized {}/{}, strictly improved {}",
        cold.schedulable_default,
        cold.requests,
        cold.schedulable_optimized,
        cold.requests,
        cold.strictly_improved,
    );
    print_stages(&run.stages);
    print_profile(&run.profile);
    Ok(())
}

fn task_sim_rows(tasks: &TaskSet, report: &SimReport) -> Vec<SimTaskRow> {
    tasks
        .ids()
        .map(|i| {
            let stats = report.task(i);
            SimTaskRow {
                task: tasks[i].name().to_string(),
                core: tasks[i].core().index(),
                released: stats.released,
                completed: stats.completed,
                max_response: stats.max_response.cycles(),
                deadline_misses: stats.deadline_misses,
            }
        })
        .collect()
}

/// Everything a run subcommand needs after its workload finished: the
/// span-tree profile, the per-stage attribution, and whether an
/// `--export` document already claimed stdout (suppressing the report).
struct RunArtifacts {
    profile: cpa_obs::ProfileNode,
    stages: StageReport,
    exported_to_stdout: bool,
}

/// Drains the event buffer once, writes the `--trace`/`--metrics` sinks,
/// captures the profile + stage breakdown, and renders any `--export`.
fn finish_run(opts: &TraceOptions) -> Result<RunArtifacts, CliError> {
    let events = cpa_obs::take_events();
    opts.sinks.write_events(&events)?;
    let profile = cpa_obs::profile_snapshot();
    // Counters start at zero in this process, so the full snapshot is
    // exactly this run's delta.
    let stages = StageReport::from_parts(&cpa_obs::metrics_snapshot(), &profile);
    let exported_to_stdout = write_export(opts, &events, &profile)?;
    Ok(RunArtifacts {
        profile,
        stages,
        exported_to_stdout,
    })
}

/// Renders the `--export` document, if one was requested. Returns `true`
/// when the export went to stdout (replacing the report), `false` when it
/// went to `--export-out` or no export was requested.
fn write_export(
    opts: &TraceOptions,
    events: &[cpa_obs::Event],
    profile: &cpa_obs::ProfileNode,
) -> Result<bool, CliError> {
    let body = match opts.export.as_deref() {
        None => return Ok(false),
        Some("chrome") => chrome_trace(events, profile),
        // The parser admits no format but these two.
        Some(_openmetrics) => openmetrics(&cpa_obs::metrics_snapshot()),
    };
    match &opts.export_out {
        Some(path) => {
            std::fs::write(path, &body)
                .map_err(|e| CliError::failed(format!("cannot write {}: {e}", path.display())))?;
            eprintln!("wrote {}", path.display());
            Ok(false)
        }
        None => {
            print!("{body}");
            Ok(true)
        }
    }
}

/// Serializes `doc` and splices the stage breakdown and span-tree profile
/// in as top-level `"stages"` / `"profile"` keys (both render their own
/// JSON).
fn with_profile<T: Serialize>(doc: &T, run: &RunArtifacts) -> Result<String, CliError> {
    let body = serde_json::to_string(doc).map_err(CliError::failed)?;
    let without_brace = body
        .strip_suffix('}')
        .ok_or_else(|| CliError::failed("report did not serialize to a JSON object"))?;
    Ok(format!(
        "{without_brace},\"stages\":{},\"profile\":{}}}",
        run.stages.to_json(),
        run.profile.to_json()
    ))
}

fn print_stages(stages: &StageReport) {
    println!();
    println!("stage breakdown:");
    print!("{}", stages.render_text());
}

fn print_profile(profile: &cpa_obs::ProfileNode) {
    println!();
    println!("self-profile:");
    print!("{}", profile.render_text());
}
