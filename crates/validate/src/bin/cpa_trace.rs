//! One traced analysis or simulation run, with convergence diagnostics.
//!
//! ```text
//! cpa-trace analyze  [--seed S] [--cores N] [--tasks-per-core K] [--util U]
//!                    [--bus fp|rr|tdma|perfect] [--slots K]
//!                    [--mode aware|oblivious] [SINKS]
//! cpa-trace sim      [--seed S] [--cores N] [--tasks-per-core K] [--util U]
//!                    [--bus fp|rr|tdma] [--slots K] [--horizon H]
//!                    [--reference-sim] [SINKS]
//! cpa-trace sweep    [--seed S] [--cores N] [--tasks-per-core K] [--util U]
//!                    [--bus fp|rr|tdma|perfect] [--slots K] [--sets N]
//!                    [--threads T] [--chunk C] [SINKS]
//! cpa-trace optimize [--seed S] [--cores N] [--tasks-per-core K] [--util U]
//!                    [--bus fp|rr|tdma|perfect] [--slots K]
//!                    [--mode aware|oblivious] [--sets N] [--threads T]
//!                    [--chunk C] [SINKS]
//!
//! SINKS: [--trace FILE] [--profile FILE] [--json]
//!        [--export chrome|openmetrics|json] [--export-out FILE]
//! ```
//!
//! `analyze` generates one task set (paper-default profile with the given
//! overrides), runs the WCRT analysis with the `cpa-obs` subscriber
//! enabled, and prints a per-task convergence report: WCRT, inner
//! iteration counts, and the BAS/BAO/CPRO/CRPD decomposition of the bound
//! at its fixed point, naming the dominant term. `sim` runs the
//! cycle-accurate simulator on the same workload instead and reports the
//! observed per-task statistics, bus occupancy, and an event-skip summary
//! (spans executed, mean span length, fraction of the horizon jumped).
//! `--reference-sim` drives the cycle-stepped reference loop instead of
//! the event-skipping fast path (DESIGN.md §11). `sweep` evaluates one
//! experiment grid point (`--sets` task sets, persistence-aware and
//! -oblivious under the chosen bus) through the shared `cpa-pool` worker
//! pool and reports the pool's dynamic-scheduling statistics — chunks
//! claimed, chunks stolen beyond the fair share, steal ratio — together
//! with the engine's scratch-reuse count (DESIGN.md §12).
//!
//! Every run subcommand ends with a per-stage pipeline breakdown (wall
//! time, calls, work items, and throughput per phase — DESIGN.md §14) and
//! a self-profile: the span tree with wall-time aggregation,
//! pretty-printed (or embedded in the `--json` document).
//! `--trace FILE` writes the deterministic JSON-lines event stream
//! (payloads carry iterations and seeds, never wall-clock values);
//! `--profile FILE` writes the metrics + profile JSON document.
//!
//! `--export chrome|openmetrics|json` renders the run through
//! `cpa-telemetry`: a Chrome Trace Event / Perfetto JSON document, an
//! OpenMetrics text exposition, or the stage-breakdown JSON. Chrome and
//! OpenMetrics exports are byte-deterministic (same seed ⇒ identical
//! bytes at any `--threads`/`--chunk`). With `--export-out FILE` the
//! export is written beside the normal report; without it the export
//! document replaces the report on stdout (`cpa-trace sweep --export
//! chrome > sweep.json`, then open in Perfetto).

use std::path::PathBuf;
use std::process::ExitCode;

use cpa_analysis::{
    analyze, decompose, AnalysisConfig, AnalysisContext, BusPolicy, CrpdApproach, DominantTerm,
    PersistenceMode,
};
use cpa_experiments::cli::Args;
use cpa_experiments::runner::{evaluate_population, Evaluation};
use cpa_experiments::SweepOptions;
use cpa_model::{Platform, TaskSet, Time};
use cpa_sim::{SimConfig, SimReport, Simulator};
use cpa_telemetry::{chrome_trace, openmetrics, ExportScope, StageReport};
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
    converged: bool,
    inner_iterations: u64,
    dominant: &'static str,
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
/// scratch-reuse count (DESIGN.md §12).
#[derive(Serialize)]
struct PoolStats {
    threads: usize,
    chunks_claimed: u64,
    chunks_stolen: u64,
    steal_ratio: f64,
    scratch_reuses: u64,
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
[--slots K] [--horizon H] [--reference-sim] [SINKS]\n       \
cpa-trace sweep [--seed S] [--cores N] [--tasks-per-core K] [--util U] \
[--bus fp|rr|tdma|perfect] [--slots K] [--sets N] [--threads T] [--chunk C] [SINKS]\n       \
cpa-trace optimize [--seed S] [--cores N] [--tasks-per-core K] [--util U] \
[--bus fp|rr|tdma|perfect] [--slots K] [--mode aware|oblivious] [--sets N] [--threads T] \
[--chunk C] [SINKS]\n\
SINKS: [--trace FILE] [--profile FILE] [--json] [--export chrome|openmetrics|json] \
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
    chunk: usize,
    trace_path: Option<PathBuf>,
    profile_path: Option<PathBuf>,
    json: bool,
    reference_sim: bool,
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
            chunk: 0,
            trace_path: None,
            profile_path: None,
            json: false,
            reference_sim: false,
            export: None,
            export_out: None,
        }
    }
}

impl TraceOptions {
    fn parse(args: &mut Args) -> Result<TraceOptions, String> {
        let mut opts = TraceOptions::default();
        while let Some(arg) = args.next_arg() {
            match arg.as_str() {
                "--seed" => opts.seed = args.value_for("--seed").map_err(|e| e.to_string())?,
                "--cores" => opts.cores = args.value_for("--cores").map_err(|e| e.to_string())?,
                "--tasks-per-core" => {
                    opts.tasks_per_core = args
                        .value_for("--tasks-per-core")
                        .map_err(|e| e.to_string())?;
                }
                "--util" => opts.util = args.value_for("--util").map_err(|e| e.to_string())?,
                "--bus" => opts.bus = args.value_for("--bus").map_err(|e| e.to_string())?,
                "--slots" => opts.slots = args.value_for("--slots").map_err(|e| e.to_string())?,
                "--mode" => opts.mode = args.value_for("--mode").map_err(|e| e.to_string())?,
                "--horizon" => {
                    opts.horizon = args.value_for("--horizon").map_err(|e| e.to_string())?;
                }
                "--sets" => opts.sets = args.count_for("--sets").map_err(|e| e.to_string())?,
                "--threads" => {
                    opts.threads = args.value_for("--threads").map_err(|e| e.to_string())?;
                }
                "--chunk" => opts.chunk = args.value_for("--chunk").map_err(|e| e.to_string())?,
                "--trace" => {
                    opts.trace_path = Some(args.value_for("--trace").map_err(|e| e.to_string())?);
                }
                "--profile" => {
                    opts.profile_path =
                        Some(args.value_for("--profile").map_err(|e| e.to_string())?);
                }
                "--json" => opts.json = true,
                "--reference-sim" => opts.reference_sim = true,
                "--export" => {
                    let format: String = args.value_for("--export").map_err(|e| e.to_string())?;
                    if !matches!(format.as_str(), "chrome" | "openmetrics" | "json") {
                        return Err(format!(
                            "unknown export format `{format}` (expected chrome, openmetrics, \
                             or json)"
                        ));
                    }
                    opts.export = Some(format);
                }
                "--export-out" => {
                    opts.export_out =
                        Some(args.value_for("--export-out").map_err(|e| e.to_string())?);
                }
                "--help" | "-h" => return Err(args.help().to_string()),
                other => return Err(args.unknown_flag(other).to_string()),
            }
        }
        Ok(opts)
    }

    fn bus_policy(&self) -> Result<BusPolicy, String> {
        BusPolicy::try_parse(&self.bus, self.slots)
    }

    fn persistence(&self) -> Result<PersistenceMode, String> {
        match self.mode.as_str() {
            "aware" => Ok(PersistenceMode::Aware),
            "oblivious" => Ok(PersistenceMode::Oblivious),
            other => Err(format!(
                "unknown mode `{other}` (expected aware or oblivious)"
            )),
        }
    }

    fn workload(&self) -> Result<(GeneratorConfig, Platform, TaskSet), String> {
        let config = GeneratorConfig {
            cores: self.cores,
            tasks_per_core: self.tasks_per_core,
            ..GeneratorConfig::paper_default()
        }
        .with_per_core_utilization(self.util);
        let generator = TaskSetGenerator::new(config.clone()).map_err(|e| e.to_string())?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let tasks = generator.generate(&mut rng).map_err(|e| e.to_string())?;
        let platform = platform_for_tasks(&tasks, config.d_mem).map_err(|e| e.to_string())?;
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
    let mut args = Args::from_env(USAGE);
    match args.next_arg().as_deref() {
        Some("analyze") => dispatch(&mut args, analyze_cmd),
        Some("sim") => dispatch(&mut args, sim_cmd),
        Some("sweep") => dispatch(&mut args, sweep_cmd),
        Some("optimize") => dispatch(&mut args, optimize_cmd),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("{}", args.unknown_flag(other));
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &mut Args, cmd: fn(&TraceOptions) -> Result<(), String>) -> ExitCode {
    let opts = match TraceOptions::parse(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    cpa_obs::enable();
    cpa_obs::set_scope(0);
    match cmd(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

fn analyze_cmd(opts: &TraceOptions) -> Result<(), String> {
    let bus = opts.bus_policy()?;
    let mode = opts.persistence()?;
    let (gen_config, platform, tasks) = opts.workload()?;
    let ctx = AnalysisContext::new(&platform, &tasks).map_err(|e| e.to_string())?;
    let config = AnalysisConfig::new(bus, mode);
    let result = analyze(&ctx, &config);
    let engine = EngineStats::read();

    // Decomposition windows: the fixed point where one exists, the
    // deadline (the last window the sufficiency test probed) otherwise.
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
                    converged: result.converged(i),
                    inner_iterations: result.inner_iterations(i),
                    dominant: d.dominant().label(),
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
        "{:<14} {:>4} {:>4} {:>10} {:>10} {:>5} {:>7}  {:<8} shares",
        "task", "core", "prio", "wcrt", "deadline", "conv", "inner", "dominant"
    );
    for i in tasks.ids() {
        let task = &tasks[i];
        let d = &decompositions[i.index()];
        let wcrt = result
            .response_time(i)
            .map_or_else(|| "-".to_string(), |t| t.cycles().to_string());
        let shares = [
            DominantTerm::Bas,
            DominantTerm::Bao,
            DominantTerm::Cpro,
            DominantTerm::Crpd,
        ]
        .map(|t| format!("{}={:.1}%", t.label(), d.share(t) * 100.0))
        .join(" ");
        println!(
            "{:<14} {:>4} {:>4} {:>10} {:>10} {:>5} {:>7}  {:<8} {}",
            task.name(),
            task.core().index(),
            task.priority().level(),
            wcrt,
            task.deadline().cycles(),
            if result.converged(i) { "yes" } else { "no" },
            result.inner_iterations(i),
            d.dominant().label(),
            shares
        );
    }
    println!();
    println!(
        "schedulable: {}",
        if result.is_schedulable() { "yes" } else { "no" }
    );
    print_stages(&run.stages);
    print_profile(&run.profile);
    Ok(())
}

fn sim_cmd(opts: &TraceOptions) -> Result<(), String> {
    let bus = opts.bus_policy()?;
    if bus == BusPolicy::Perfect {
        return Err(
            "sim: bus `perfect` has no arbiter to simulate (expected fp, rr, or tdma)".to_string(),
        );
    }
    let (gen_config, platform, tasks) = opts.workload()?;
    let horizon = horizon_for(&tasks, opts.horizon);
    let config = SimConfig::new(arbitration_of(bus)).with_horizon(horizon);
    let sim = Simulator::new(&platform, &tasks, config).map_err(|e| e.to_string())?;
    let report = if opts.reference_sim {
        sim.run_reference()
    } else {
        sim.run()
    };
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
        "simulation: bus {}, horizon {} cycles{}",
        bus.label(),
        report.horizon.cycles(),
        if opts.reference_sim {
            " (cycle-stepped reference)"
        } else {
            ""
        }
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

fn sweep_cmd(opts: &TraceOptions) -> Result<(), String> {
    let bus = opts.bus_policy()?;
    let gen_config = GeneratorConfig {
        cores: opts.cores,
        tasks_per_core: opts.tasks_per_core,
        ..GeneratorConfig::paper_default()
    }
    .with_per_core_utilization(opts.util);
    // `evaluate_population` expects a valid generator: reject a bad shape here.
    TaskSetGenerator::new(gen_config.clone()).map_err(|e| e.to_string())?;
    let configs = [
        AnalysisConfig::new(bus, PersistenceMode::Aware),
        AnalysisConfig::new(bus, PersistenceMode::Oblivious),
    ];
    let mut sweep = SweepOptions::quick()
        .with_sets_per_point(opts.sets)
        .with_chunk(opts.chunk);
    sweep.seed = opts.seed;
    sweep.threads = opts.threads;
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
         {} scratch reuses",
        pool.chunks_claimed,
        pool.chunks_stolen,
        pool.steal_ratio * 100.0,
        pool.scratch_reuses,
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

fn optimize_cmd(opts: &TraceOptions) -> Result<(), String> {
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
    let batch = cpa_optimize::gen_batch(&gen)?;
    let service = cpa_optimize::ServiceOptions {
        threads: opts.threads,
        chunk: opts.chunk,
        ..cpa_optimize::ServiceOptions::default()
    };

    // Run the same batch twice against one cache: the cold run searches,
    // the warm run must replay the exact bytes from the cache.
    let mut cache = cpa_optimize::ResultCache::in_memory();
    let (cold_doc, cold) = cpa_optimize::process_batch(&batch, &service, &mut cache)?;
    let (warm_doc, warm) = cpa_optimize::process_batch(&batch, &service, &mut cache)?;
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

/// Drains the event buffer once, writes the `--trace`/`--profile` sinks,
/// captures the profile + stage breakdown, and renders any `--export`.
fn finish_run(opts: &TraceOptions) -> Result<RunArtifacts, String> {
    let events = cpa_obs::take_events();
    write_sinks(opts, &events)?;
    let profile = cpa_obs::profile_snapshot();
    // Counters start at zero in this process, so the full snapshot is
    // exactly this run's delta.
    let stages = StageReport::from_parts(&cpa_obs::metrics_snapshot(), &profile);
    let exported_to_stdout = write_export(opts, &events, &profile, &stages)?;
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
    stages: &StageReport,
) -> Result<bool, String> {
    let Some(format) = opts.export.as_deref() else {
        return Ok(false);
    };
    let body = match format {
        "chrome" => chrome_trace(events, profile, ExportScope::Deterministic),
        "openmetrics" => openmetrics(&cpa_obs::metrics_snapshot(), ExportScope::Deterministic),
        "json" => format!("{}\n", stages.to_json()),
        other => return Err(format!("unknown export format `{other}`")),
    };
    match &opts.export_out {
        Some(path) => {
            std::fs::write(path, &body)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
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
fn with_profile<T: Serialize>(doc: &T, run: &RunArtifacts) -> Result<String, String> {
    let body = serde_json::to_string(doc).map_err(|e| e.to_string())?;
    let without_brace = body
        .strip_suffix('}')
        .ok_or_else(|| "report did not serialize to a JSON object".to_string())?;
    Ok(format!(
        "{without_brace},\"stages\":{},\"profile\":{}}}",
        run.stages.to_json(),
        run.profile.to_json()
    ))
}

/// Writes the `--trace` / `--profile` sinks from the drained event buffer.
fn write_sinks(opts: &TraceOptions, events: &[cpa_obs::Event]) -> Result<(), String> {
    if let Some(path) = &opts.trace_path {
        let lines = cpa_obs::events_to_json_lines(events);
        std::fs::write(path, lines).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &opts.profile_path {
        let doc = format!(
            "{{\"metrics\":{},\"profile\":{}}}\n",
            cpa_obs::metrics_snapshot().to_json(),
            cpa_obs::profile_snapshot().to_json()
        );
        std::fs::write(path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
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
