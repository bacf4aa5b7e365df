//! CI guard: the disabled `cpa-obs` subscriber must stay within the
//! overhead budget on the WCRT hot path.
//!
//! ```text
//! obs_overhead [--budget FRACTION]
//! ```
//!
//! Every `event!`/`span!`/`histogram!` call site costs one relaxed atomic
//! load and a predictable branch when the subscriber is disabled. This
//! binary bounds that cost against the `analysis_micro` workload
//! (`wcrt_full_fp_aware`: one full `analyze()` on the paper-default
//! 4x8-task set at utilization 0.3):
//!
//! 1. time `analyze()` with the subscriber disabled (the production path);
//! 2. time one disabled gate check in a tight loop;
//! 3. count the gate checks one `analyze()` actually reaches, by enabling
//!    the subscriber once and counting emitted events and span calls;
//! 4. assert `gate_cost x gates / analyze_time < budget` (default 2%).
//!
//! The measured numbers are printed as one JSON line on stdout; the process
//! exits 1 past the budget and 2 on a usage error (`cpa_experiments::cli`).
//! It writes no file.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use cpa_analysis::{analyze, AnalysisConfig, AnalysisContext, BusPolicy, PersistenceMode};
use cpa_experiments::cli::{self, Args, CliError};
use cpa_experiments::runner::platform_for;
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

const USAGE: &str = "usage: obs_overhead [--budget FRACTION]";

fn main() -> ExitCode {
    cli::run(USAGE, run)
}

fn run(mut args: Args) -> Result<(), CliError> {
    let mut budget = 0.02f64;
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--budget" => budget = args.value_for("--budget")?,
            other => return Err(args.unknown_flag(other)),
        }
    }
    if !(budget >= 0.0 && budget.is_finite()) {
        return Err(CliError::bad_input(format!(
            "--budget: must be a finite fraction of at least 0 (got {budget})"
        )));
    }

    let gen = GeneratorConfig::paper_default().with_per_core_utilization(0.3);
    let generator = TaskSetGenerator::new(gen.clone()).expect("generator");
    let platform = platform_for(&gen);
    let tasks = generator
        .generate(&mut ChaCha8Rng::seed_from_u64(11))
        .expect("task set");
    let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
    let cfg = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Aware);

    // 1. The production path: subscriber disabled.
    cpa_obs::disable();
    let analyze_ns = time_per_iter(200, || {
        black_box(analyze(black_box(&ctx), black_box(&cfg)));
    });

    // 2. One disabled gate: the exact check every macro call site pays.
    let gate_iters = 10_000_000u32;
    let gate_ns = time_per_iter(gate_iters, || {
        black_box(cpa_obs::events_enabled());
    });

    // 3. Gate checks reached by one analyze() call: with the subscriber
    // enabled, every reached event!/span! site records exactly once.
    cpa_obs::reset();
    cpa_obs::enable();
    let _ = analyze(&ctx, &cfg);
    cpa_obs::disable();
    let events = cpa_obs::take_events().len() as u64;
    let span_calls = total_calls(&cpa_obs::profile_snapshot());
    // Spans pay two checks (enter + drop), and give the estimate 2x head
    // room on top for field-expression branches the count cannot see.
    let gates = (events + 2 * span_calls) * 2;

    let overhead_ns = gate_ns * gates as f64;
    let fraction = overhead_ns / analyze_ns;
    let pass = fraction < budget;

    let verdict = Verdict {
        guard: "obs_overhead",
        workload: "analysis_micro/wcrt_full_fp_aware",
        analyze_ns,
        gate_ns,
        gates_per_analyze: gates,
        overhead_ns,
        overhead_fraction: fraction,
        budget,
        pass,
    };
    println!(
        "{}",
        serde_json::to_string(&verdict).expect("verdict serializes")
    );
    eprintln!(
        "obs overhead: analyze {analyze_ns:.0} ns, {gates} gates x {gate_ns:.2} ns = \
         {overhead_ns:.0} ns ({:.3}% of budget {:.1}%)",
        fraction * 100.0,
        budget * 100.0
    );
    if pass {
        Ok(())
    } else {
        Err(CliError::failed(format!(
            "FAIL: disabled-subscriber overhead {:.3}% exceeds the {:.1}% budget",
            fraction * 100.0,
            budget * 100.0
        )))
    }
}

/// The one JSON line this guard prints.
#[derive(Serialize)]
struct Verdict {
    guard: &'static str,
    workload: &'static str,
    analyze_ns: f64,
    gate_ns: f64,
    gates_per_analyze: u64,
    overhead_ns: f64,
    overhead_fraction: f64,
    budget: f64,
    pass: bool,
}

/// Median-of-three per-iteration wall time in nanoseconds.
fn time_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut runs = [0.0f64; 3];
    for run in &mut runs {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        *run = start.elapsed().as_nanos() as f64 / f64::from(iters);
    }
    runs.sort_by(f64::total_cmp);
    runs[1]
}

fn total_calls(node: &cpa_obs::ProfileNode) -> u64 {
    node.calls + node.children.iter().map(total_calls).sum::<u64>()
}
