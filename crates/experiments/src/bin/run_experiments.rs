//! CLI driver regenerating the paper's tables and figures.
//!
//! ```text
//! run_experiments [--quick] [--sets N] [--seed S] [--threads T] [--chunk C]
//!                 [--out DIR] [--trace FILE] [--metrics FILE] [EXPERIMENT...]
//! ```
//!
//! `EXPERIMENT` is any of `table1`, `fig2`, `fig3a`, `fig3b`, `fig3c`,
//! `fig3d`, or `all` (default). Results are printed as Markdown and written
//! as CSV files under `--out` (default `results/`).
//!
//! `--trace FILE` enables the `cpa-obs` event subscriber and writes the
//! deterministic JSON-lines event stream when every experiment has run;
//! `--metrics FILE` enables timing collection only and writes counters,
//! histograms, and the span-tree self-profile as one JSON document.
//!
//! Exits 0 on success and on `--help`, 2 on an unknown flag, a malformed
//! value or an unknown experiment, and 1 when an output cannot be written.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cpa_experiments::cli::{Args, ObsSinks, SweepFlags};
use cpa_experiments::{ablation, fig2, fig3, report, table1, ExperimentResult, SweepOptions};

struct Cli {
    opts: SweepOptions,
    out_dir: PathBuf,
    experiments: Vec<String>,
    sinks: ObsSinks,
}

/// The parsed command line, or `None` when `--help` asked for the usage.
fn parse_args() -> Result<Option<Cli>, String> {
    let mut sweep = SweepFlags::default();
    let mut out_dir = PathBuf::from("results");
    let mut experiments: Vec<String> = Vec::new();
    let mut sinks = ObsSinks::default();
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next_arg() {
        if sweep
            .apply(&mut args, arg.as_str())
            .map_err(|e| e.to_string())?
        {
            continue;
        }
        if sinks
            .apply_flag(&mut args, arg.as_str())
            .map_err(|e| e.to_string())?
        {
            continue;
        }
        match arg.as_str() {
            "--out" => out_dir = args.value_for("--out").map_err(|e| e.to_string())?,
            "--help" | "-h" => return Ok(None),
            other if other.starts_with('-') => return Err(args.unknown_flag(other).to_string()),
            name => experiments.push(name.to_string()),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    Ok(Some(Cli {
        opts: sweep.options(),
        out_dir,
        experiments,
        sinks,
    }))
}

const USAGE: &str = "usage: run_experiments [--quick] [--sets N] [--seed S] [--threads T] \
[--chunk C] [--out DIR] [--trace FILE] [--metrics FILE] \
[table1|fig2|fig3a|fig3b|fig3c|fig3d|ablation|gain|all]...";

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = fs::create_dir_all(&cli.out_dir) {
        eprintln!("cannot create {}: {e}", cli.out_dir.display());
        return ExitCode::FAILURE;
    }
    cli.sinks.enable();

    let all = cli.experiments.iter().any(|e| e == "all");
    let wants = |name: &str| all || cli.experiments.iter().any(|e| e == name);
    let mut ran_any = false;

    if wants("table1") {
        ran_any = true;
        println!("{}", table1::table1_markdown(false));
        write_out(&cli.out_dir, "table1.csv", &table1::table1_csv(false));
    }
    if wants("fig2") {
        ran_any = true;
        let start = Instant::now();
        for result in fig2::fig2(&cli.opts) {
            emit(&cli.out_dir, &result);
        }
        eprintln!("fig2 done in {:.1?}", start.elapsed());
    }
    for (name, f) in [
        (
            "fig3a",
            fig3::fig3a as fn(&SweepOptions) -> ExperimentResult,
        ),
        ("fig3b", fig3::fig3b),
        ("fig3c", fig3::fig3c),
        ("fig3d", fig3::fig3d),
        ("ablation", ablation::crpd_ablation),
        ("gain", ablation::persistence_gain),
    ] {
        if wants(name) {
            ran_any = true;
            let start = Instant::now();
            let result = f(&cli.opts);
            emit(&cli.out_dir, &result);
            eprintln!("{name} done in {:.1?}", start.elapsed());
        }
    }

    if !ran_any {
        eprintln!("no experiment matched {:?}\n{USAGE}", cli.experiments);
        return ExitCode::from(2);
    }
    if let Err(e) = cli.sinks.write() {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn emit(out_dir: &std::path::Path, result: &ExperimentResult) {
    println!("{}", report::to_markdown(result));
    write_out(
        out_dir,
        &format!("{}.csv", result.id),
        &report::to_csv(result),
    );
}

fn write_out(out_dir: &std::path::Path, name: &str, contents: &str) {
    let path = out_dir.join(name);
    if let Err(e) = fs::write(&path, contents) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}
