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
//! itself fails.

use std::process::ExitCode;

use cpa_experiments::cli::Args;
use cpa_model::Time;
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const USAGE: &str = "usage: gen_taskset [--seed S] [--utilization U] [--cores M] \
[--tasks-per-core N] [--cache-sets C] [--d-mem D] [--summary]";

fn main() -> ExitCode {
    let mut seed = 1u64;
    let mut config = GeneratorConfig::paper_default();
    let mut summary = false;
    let mut args = Args::from_env(USAGE);
    while let Some(arg) = args.next_arg() {
        if matches!(arg.as_str(), "--help" | "-h") {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        let result: Result<(), String> = (|| {
            match arg.as_str() {
                "--seed" => seed = args.value_for("--seed").map_err(|e| e.to_string())?,
                "--utilization" => {
                    config.per_core_utilization =
                        args.value_for("--utilization").map_err(|e| e.to_string())?;
                }
                "--cores" => config.cores = args.value_for("--cores").map_err(|e| e.to_string())?,
                "--tasks-per-core" => {
                    config.tasks_per_core = args
                        .value_for("--tasks-per-core")
                        .map_err(|e| e.to_string())?;
                }
                "--cache-sets" => {
                    config.cache_sets =
                        args.value_for("--cache-sets").map_err(|e| e.to_string())?;
                }
                "--d-mem" => {
                    config.d_mem =
                        Time::from_cycles(args.value_for("--d-mem").map_err(|e| e.to_string())?);
                }
                "--summary" => summary = true,
                other => return Err(args.unknown_flag(other).to_string()),
            }
            Ok(())
        })();
        if let Err(msg) = result {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    }

    let generator = match TaskSetGenerator::new(config.clone()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let tasks = match generator.generate(&mut rng) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if summary {
        print!("{tasks}");
        eprintln!(
            "total utilization {:.3}, bus utilization {:.3}",
            tasks.total_utilization(config.d_mem),
            tasks.bus_utilization(config.d_mem)
        );
        return ExitCode::SUCCESS;
    }
    println!("{}", tasks.to_json());
    ExitCode::SUCCESS
}
