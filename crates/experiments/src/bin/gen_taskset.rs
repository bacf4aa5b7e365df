//! Generates one paper-style task set and prints it as JSON — a quick way
//! to export workloads to other tools (the JSON round-trips through the
//! validated `cpa_model::TaskSet` deserializer).
//!
//! ```text
//! gen_taskset [--seed S] [--utilization U] [--cores M] [--tasks-per-core N]
//!             [--cache-sets C] [--d-mem D] [--summary]
//! ```
//!
//! Exits 0 on success and on `--help`, 2 on an unknown flag, a malformed
//! value or an invalid generator configuration, and 1 when generation
//! itself fails (`cpa_experiments::cli`).

use std::process::ExitCode;

use cpa_experiments::cli::{self, Args, CliError};
use cpa_model::Time;
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const USAGE: &str = "usage: gen_taskset [--seed S] [--utilization U] [--cores M] \
[--tasks-per-core N] [--cache-sets C] [--d-mem D] [--summary]";

fn main() -> ExitCode {
    cli::run(USAGE, run)
}

fn run(mut args: Args) -> Result<(), CliError> {
    let mut seed = 1u64;
    let mut config = GeneratorConfig::paper_default();
    let mut summary = false;
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--seed" => seed = args.value_for("--seed")?,
            "--utilization" => config.per_core_utilization = args.value_for("--utilization")?,
            "--cores" => config.cores = args.value_for("--cores")?,
            "--tasks-per-core" => config.tasks_per_core = args.value_for("--tasks-per-core")?,
            "--cache-sets" => config.cache_sets = args.value_for("--cache-sets")?,
            "--d-mem" => config.d_mem = Time::from_cycles(args.value_for("--d-mem")?),
            "--summary" => summary = true,
            other => return Err(args.unknown_flag(other)),
        }
    }

    let generator = TaskSetGenerator::new(config.clone())
        .map_err(|e| CliError::bad_input(format!("invalid configuration: {e}")))?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let tasks = generator
        .generate(&mut rng)
        .map_err(|e| CliError::failed(format!("generation failed: {e}")))?;

    if summary {
        // Σ MD_i · d_mem / T_i: the bus load if every task posts its full
        // isolation demand every period.
        let d_mem = config.d_mem.cycles() as f64;
        let bus_utilization: f64 = tasks
            .iter()
            .map(|t| t.memory_demand() as f64 * d_mem / t.period().cycles() as f64)
            .sum();
        print!("{tasks}");
        eprintln!(
            "total utilization {:.3}, bus utilization {bus_utilization:.3}",
            tasks.total_utilization(config.d_mem)
        );
    } else {
        println!("{}", tasks.to_json());
    }
    Ok(())
}
