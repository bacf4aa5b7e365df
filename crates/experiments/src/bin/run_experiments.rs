//! CLI driver regenerating the paper's tables and figures.
//!
//! ```text
//! run_experiments [--quick] [--sets N] [--seed S] [--threads T]
//!                 [--out DIR] [--trace FILE] [--metrics FILE] [EXPERIMENT...]
//! ```
//!
//! `EXPERIMENT` is any of `table1`, `fig2`, `fig3a`, `fig3b`, `fig3c`,
//! `fig3d`, `ablation`, `gain`, or `all` (default). Results are printed as
//! Markdown and written as CSV files under `--out` (default `results/`).
//!
//! `--trace FILE` enables the `cpa-obs` event subscriber and writes the
//! deterministic JSON-lines event stream when every experiment has run;
//! `--metrics FILE` enables span timing only and writes the counters and
//! the span-tree self-profile as one JSON document.
//!
//! Exits 0 on success and on `--help`, 2 on an unknown flag, a malformed
//! value or an unknown experiment, and 1 when an output cannot be written
//! (`cpa_experiments::cli`).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use cpa_experiments::cli::{self, Args, CliError, ObsSinks, SweepFlags};
use cpa_experiments::{ablation, fig2, fig3, report, table1, ExperimentResult, SweepOptions};

const USAGE: &str = "usage: run_experiments [--quick] [--sets N] [--seed S] [--threads T] \
[--out DIR] [--trace FILE] [--metrics FILE] \
[table1|fig2|fig3a|fig3b|fig3c|fig3d|ablation|gain|all]...";

/// One single-result experiment.
type Sweep = fn(&SweepOptions) -> ExperimentResult;

/// The sweeps, in the order they run, after `table1` and `fig2`.
const SWEEPS: [(&str, Sweep); 6] = [
    ("fig3a", fig3::fig3a),
    ("fig3b", fig3::fig3b),
    ("fig3c", fig3::fig3c),
    ("fig3d", fig3::fig3d),
    ("ablation", ablation::crpd_ablation),
    ("gain", ablation::persistence_gain),
];

fn main() -> ExitCode {
    cli::run(USAGE, run)
}

fn run(mut args: Args) -> Result<(), CliError> {
    let mut sweep = SweepFlags::default();
    let mut out_dir = PathBuf::from("results");
    let mut experiments: Vec<String> = Vec::new();
    let mut sinks = ObsSinks::default();
    while let Some(arg) = args.next_arg() {
        if sweep.apply(&mut args, &arg)? || sinks.apply_flag(&mut args, &arg)? {
            continue;
        }
        match arg.as_str() {
            "--out" => out_dir = args.value_for("--out")?,
            other if other.starts_with('-') => return Err(args.unknown_flag(other)),
            name => experiments.push(name.to_string()),
        }
    }
    let known = |name: &str| {
        matches!(name, "all" | "table1" | "fig2") || SWEEPS.iter().any(|(n, _)| *n == name)
    };
    if let Some(name) = experiments.iter().find(|name| !known(name)) {
        return Err(CliError::bad_input(format!(
            "unknown experiment `{name}`\n{USAGE}"
        )));
    }
    let opts = sweep.options();
    fs::create_dir_all(&out_dir)
        .map_err(|e| CliError::failed(format!("cannot create {}: {e}", out_dir.display())))?;
    sinks.enable();

    let all = experiments.is_empty() || experiments.iter().any(|e| e == "all");
    let wants = |name: &str| all || experiments.iter().any(|e| e == name);
    if wants("table1") {
        println!("{}", table1::table1_markdown(false));
        write_out(&out_dir, "table1.csv", &table1::table1_csv(false))?;
    }
    if wants("fig2") {
        let start = Instant::now();
        for result in fig2::fig2(&opts) {
            emit(&out_dir, &result)?;
        }
        eprintln!("fig2 done in {:.1?}", start.elapsed());
    }
    for (name, f) in SWEEPS {
        if wants(name) {
            let start = Instant::now();
            emit(&out_dir, &f(&opts))?;
            eprintln!("{name} done in {:.1?}", start.elapsed());
        }
    }
    sinks.write()
}

fn emit(out_dir: &Path, result: &ExperimentResult) -> Result<(), CliError> {
    println!("{}", report::to_markdown(result));
    write_out(
        out_dir,
        &format!("{}.csv", result.id),
        &report::to_csv(result),
    )
}

fn write_out(out_dir: &Path, name: &str, contents: &str) -> Result<(), CliError> {
    let path = out_dir.join(name);
    fs::write(&path, contents)
        .map_err(|e| CliError::failed(format!("cannot write {}: {e}", path.display())))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
