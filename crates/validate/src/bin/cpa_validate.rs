//! Campaign driver for the differential validation subsystem.
//!
//! ```text
//! cpa-validate run [--sets N] [--seed S] [--threads T] [--slots K] [--quick]
//!                  [--inject none|soundness|dominance] [--report FILE]
//!                  [--repro-dir DIR] [--max-shrinks M] [--no-progress]
//!                  [--trace FILE] [--metrics FILE]
//! cpa-validate replay FILE...
//! ```
//!
//! `run` prints the JSON report to stdout (or `--report FILE`) and exits 1
//! when any oracle fired; violations are minimized and written as
//! replayable repro files under `--repro-dir`. `replay` re-executes stored
//! repros and exits 1 when one no longer reproduces. Bad input — a flag,
//! value or repro file that cannot be read — exits 2
//! (`cpa_experiments::cli`).
//!
//! `--trace FILE` enables the `cpa-obs` event subscriber and writes the
//! canonical JSON-lines event stream after the campaign (deterministic:
//! same seed and set count produce byte-identical output regardless of
//! `--threads`). `--metrics FILE` enables timing collection only and
//! writes a JSON document with counters, histograms, and the span-tree
//! self-profile.

use std::path::PathBuf;
use std::process::ExitCode;

use cpa_experiments::cli::{self, Args, CliError, ObsSinks};
use cpa_validate::repro::{ReproError, REPRO_SCHEMA};
use cpa_validate::{run_campaign, shrink_case, CampaignOptions, OracleKind, Repro, ViolationCase};

const USAGE: &str = "usage: cpa-validate run [--sets N] [--seed S] [--threads T] [--slots K] \
[--quick] [--inject none|soundness|dominance] [--report FILE] [--repro-dir DIR] \
[--max-shrinks M] [--no-progress] [--trace FILE] [--metrics FILE]\n       \
cpa-validate replay FILE...";

fn main() -> ExitCode {
    cli::run(USAGE, |mut args| match args.next_arg().as_deref() {
        Some("run") => run_cmd(args),
        Some("replay") => replay_cmd(args),
        other => Err(args.unknown_subcommand(other)),
    })
}

fn run_cmd(mut args: Args) -> Result<(), CliError> {
    let mut opts = CampaignOptions::new();
    opts.progress = true;
    let mut report_path: Option<PathBuf> = None;
    let mut sinks = ObsSinks::default();
    let mut repro_dir = PathBuf::from("validate-repros");
    let mut max_shrinks: usize = 3;
    while let Some(arg) = args.next_arg() {
        if opts.apply_cli_flag(&mut args, &arg)? || sinks.apply_flag(&mut args, &arg)? {
            continue;
        }
        match arg.as_str() {
            "--report" => report_path = Some(args.value_for("--report")?),
            "--repro-dir" => repro_dir = args.value_for("--repro-dir")?,
            "--max-shrinks" => max_shrinks = args.value_for("--max-shrinks")?,
            other => return Err(args.unknown_flag(other)),
        }
    }

    sinks.enable();

    eprintln!(
        "campaign: {} sets, seed {:#x}, {} threads, {} profile, inject {}",
        opts.sets,
        opts.seed,
        opts.worker_threads(),
        if opts.quick { "quick" } else { "full" },
        opts.inject
    );
    let mut outcome = run_campaign(&opts);
    sinks.write()?;

    let shrinks = outcome.cases.len().min(max_shrinks);
    for case in outcome.cases.iter().take(shrinks) {
        match write_repro(case, &opts, &repro_dir) {
            Ok(path) => {
                for record in outcome
                    .report
                    .stats
                    .violations
                    .iter_mut()
                    .filter(|r| r.set_index == case.set_index)
                {
                    record.repro = Some(path.clone());
                }
            }
            Err(msg) => eprintln!("warning: {msg}"),
        }
    }

    eprintln!("{}", outcome.report.summary());
    let json = outcome.report.to_json();
    match &report_path {
        Some(path) => {
            std::fs::write(path, json + "\n")
                .map_err(|e| CliError::failed(format!("cannot write {}: {e}", path.display())))?;
            eprintln!("wrote {}", path.display());
        }
        None => println!("{json}"),
    }
    if outcome.report.passed() {
        Ok(())
    } else {
        Err(CliError::failed("oracle violations found"))
    }
}

/// Minimizes one case and writes its repro file; returns the path.
fn write_repro(
    case: &ViolationCase,
    opts: &CampaignOptions,
    repro_dir: &std::path::Path,
) -> Result<String, String> {
    let mut check = opts.check_options();
    check.sporadic_seed = case.set_seed;
    check.determinism = case.violation.oracle == OracleKind::Determinism;

    let (tasks, message, minimized) = match shrink_case(case, &check) {
        Some(shrunk) => {
            eprintln!(
                "shrunk set {}: {} -> {} tasks in {} evaluations",
                case.set_index,
                case.tasks.len(),
                shrunk.tasks.len(),
                shrunk.evaluations
            );
            (shrunk.tasks, shrunk.violation.message, true)
        }
        None => (case.tasks.clone(), case.violation.message.clone(), false),
    };
    let repro = Repro {
        schema: REPRO_SCHEMA,
        description: format!(
            "{}{} violation found by `cpa-validate run --seed {:#x}` at set {}",
            case.violation.oracle,
            if minimized {
                " (minimized)"
            } else {
                " (unminimized)"
            },
            opts.seed,
            case.set_index
        ),
        campaign_seed: opts.seed,
        set_index: case.set_index,
        set_seed: case.set_seed,
        d_mem: case.d_mem.cycles(),
        options: check,
        oracle: case.violation.oracle,
        message,
        tasks,
    };
    std::fs::create_dir_all(repro_dir)
        .map_err(|e| format!("cannot create {}: {e}", repro_dir.display()))?;
    let path = repro_dir.join(format!(
        "repro-set{}-{}.json",
        case.set_index,
        case.violation.oracle.label()
    ));
    repro
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(path.display().to_string())
}

fn replay_cmd(mut args: Args) -> Result<(), CliError> {
    let mut files = Vec::new();
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            other if other.starts_with('-') => return Err(args.unknown_flag(other)),
            file => files.push(PathBuf::from(file)),
        }
    }
    if files.is_empty() {
        return Err(CliError::bad_input(format!(
            "replay needs at least one repro file\n{USAGE}"
        )));
    }

    let mut not_reproduced = 0;
    for file in &files {
        let input_error = |e: ReproError| CliError::bad_input(format!("{}: {e}", file.display()));
        let repro = Repro::load(file).map_err(input_error)?;
        let replay = repro.replay().map_err(input_error)?;
        if replay.reproduced {
            println!(
                "{}: {} violation reproduced ({} tasks): {}",
                file.display(),
                repro.oracle,
                repro.tasks.len(),
                replay
                    .outcome
                    .violations
                    .iter()
                    .find(|v| v.oracle == repro.oracle)
                    .map_or("", |v| v.message.as_str())
            );
        } else {
            not_reproduced += 1;
            println!(
                "{}: {} violation did NOT reproduce (recorded: {})",
                file.display(),
                repro.oracle,
                repro.message
            );
        }
    }
    if not_reproduced == 0 {
        Ok(())
    } else {
        Err(CliError::failed(format!(
            "{not_reproduced} of {} repros did not reproduce",
            files.len()
        )))
    }
}
