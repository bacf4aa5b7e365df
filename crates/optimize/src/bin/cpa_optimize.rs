//! `cpa-optimize`: the design-space optimization service, as a CLI.
//!
//! ```text
//! cpa-optimize run --requests FILE [--out FILE] [--cache DIR]
//!                  [--threads N] [--stats FILE]
//!                  [--trace FILE] [--metrics FILE]
//! cpa-optimize gen --sets N [--seed S] [--cores N] [--tasks-per-core N]
//!                  [--cache-sets N] [--util F] [--d-mem N] [--bus P]
//!                  [--slots N] [--mode M] [--toy] [--out FILE]
//! ```
//!
//! `run` processes a JSON batch of optimization requests and writes the
//! response array to `--out` (or stdout). The response bytes depend only
//! on the batch content: `--threads` and cache temperature are invisible
//! in the output. Batch statistics (cache hits, candidates evaluated,
//! improvements) go to stderr and optionally to `--stats` as JSON. `gen`
//! emits a seeded batch of generator-drawn requests.
//!
//! Exits 2 on bad input (`cpa_experiments::cli`): an unknown flag or
//! subcommand, a malformed value, an unreadable `--requests` file, or a
//! `gen` shape or label a request would be refused for. `run` exits 1 for
//! everything `process_batch` rejects (a batch that does not parse, or a
//! request that fails validation) and on a write error.

use std::process::ExitCode;

use cpa_experiments::cli::{self, Args, CliError, ObsSinks};
use cpa_optimize::{gen_batch, process_batch, GenOptions, ResultCache, ServiceOptions};

const USAGE: &str = "usage:
  cpa-optimize run --requests FILE [--out FILE] [--cache DIR]
                   [--threads N] [--stats FILE]
                   [--trace FILE] [--metrics FILE]
  cpa-optimize gen --sets N [--seed S] [--cores N] [--tasks-per-core N]
                   [--cache-sets N] [--util F] [--d-mem N] [--bus P]
                   [--slots N] [--mode M] [--toy] [--out FILE]

run processes a JSON array of optimization requests (see `gen` for the
format) and writes a JSON array of verdicts: schedulability before and
after, the optimized core/priority/coloring assignment, and search
statistics. Results are served from a content-addressed cache when one is
configured; --threads never changes the output bytes.";

fn main() -> ExitCode {
    cli::run(USAGE, |mut args| match args.next_arg().as_deref() {
        Some("run") => run(args),
        Some("gen") => gen(args),
        other => Err(args.unknown_subcommand(other)),
    })
}

fn write_out(path: Option<&str>, body: &str) -> Result<(), CliError> {
    match path {
        Some(path) => {
            std::fs::write(path, body).map_err(|e| CliError::failed(format!("write {path}: {e}")))
        }
        None => {
            print!("{body}");
            Ok(())
        }
    }
}

fn run(mut args: Args) -> Result<(), CliError> {
    let mut requests_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut stats_path: Option<String> = None;
    let mut service = ServiceOptions::default();
    let mut sinks = ObsSinks::default();
    while let Some(arg) = args.next_arg() {
        if sinks.apply_flag(&mut args, &arg)? {
            continue;
        }
        match arg.as_str() {
            "--requests" => requests_path = Some(args.value_for("--requests")?),
            "--out" => out = Some(args.value_for("--out")?),
            "--cache" => cache_dir = Some(args.value_for("--cache")?),
            "--stats" => stats_path = Some(args.value_for("--stats")?),
            "--threads" => service.threads = args.value_for("--threads")?,
            other => return Err(args.unknown_flag(other)),
        }
    }
    let requests_path = requests_path
        .ok_or_else(|| CliError::bad_input(format!("run needs --requests\n{USAGE}")))?;
    let batch = std::fs::read_to_string(&requests_path)
        .map_err(|e| CliError::bad_input(format!("read {requests_path}: {e}")))?;
    let mut cache = match &cache_dir {
        Some(dir) => ResultCache::persistent(dir)
            .map_err(|e| CliError::failed(format!("open cache {dir}: {e}")))?,
        None => ResultCache::in_memory(),
    };
    sinks.enable();
    let (body, stats) = process_batch(&batch, &service, &mut cache).map_err(CliError::failed)?;
    write_out(out.as_deref(), &body)?;
    sinks.write()?;
    let stats_doc = serde_json::to_string(&stats).map_err(CliError::failed)?;
    eprintln!("{stats_doc}");
    if let Some(path) = stats_path {
        std::fs::write(&path, format!("{stats_doc}\n"))
            .map_err(|e| CliError::failed(format!("write {path}: {e}")))?;
    }
    Ok(())
}

fn gen(mut args: Args) -> Result<(), CliError> {
    let mut opts = GenOptions::default();
    let mut out: Option<String> = None;
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--sets" => opts.sets = args.value_for("--sets")?,
            "--seed" => opts.seed = args.value_for("--seed")?,
            "--cores" => opts.cores = args.value_for("--cores")?,
            "--tasks-per-core" => opts.tasks_per_core = args.value_for("--tasks-per-core")?,
            "--cache-sets" => opts.cache_sets = args.value_for("--cache-sets")?,
            "--util" => opts.util = args.value_for("--util")?,
            "--d-mem" => opts.d_mem = args.value_for("--d-mem")?,
            "--bus" => opts.bus = args.value_for("--bus")?,
            "--slots" => opts.slots = args.value_for("--slots")?,
            "--mode" => opts.mode = args.value_for("--mode")?,
            "--toy" => opts.toy = true,
            "--out" => out = Some(args.value_for("--out")?),
            other => return Err(args.unknown_flag(other)),
        }
    }
    let batch = gen_batch(&opts).map_err(CliError::bad_input)?;
    write_out(out.as_deref(), &format!("{batch}\n"))
}
