//! End-to-end and per-layer benchmark of the persistence-aware bus
//! contention analysis workspace.
//!
//! ```text
//! perfbench --workload reproduce_paper|optimize_mixed
//!           [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Every workload runs in-process through the crates' public functions.
//! With `--trace 0` the run times passes over a fixed input, split into
//! short chunks, for `--seconds` seconds with the `cpa-obs` subscriber
//! off and reports the end-to-end metrics; with `--trace 1` it runs
//! untraced and traced passes over a fixed input and reports the
//! per-layer metrics. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it is the run record (seed,
//! held-out seed, output digest, exact counts). The exit code is 0 when
//! every output check passed, 1 when one failed, 2 on bad arguments.
//! See README.md for why each workload was chosen.

mod measure;
mod obs;
mod optimize;
mod reproduce;
mod validate;

use std::process::ExitCode;

use measure::{Metric, Timed};

/// A seed no benchmark figure was tuned on: recheck a claimed gain with
/// `--seed 20200309` before accepting it.
pub const HELD_OUT_SEED: u64 = 20_200_309;

const USAGE: &str = "usage: perfbench --workload reproduce_paper|optimize_mixed \
[--seed N] [--seconds N] [--trace 0|1]";

/// Every per-layer metric a traced run prints, with its unit. A metric of
/// a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_ns_per_set", "ns"),
    ("analysis.context_ns_per_set", "ns"),
    ("analysis.solve_ns_per_call", "ns"),
    ("analysis.solve_calls", "count"),
    ("analysis.first_solve_share", "ratio"),
    ("engine.tasks_solved", "count"),
    ("engine.tasks_skipped", "count"),
    ("engine.curve_hit_ratio", "ratio"),
    ("engine.curve_lookups", "count"),
    ("engine.bao_hit_ratio", "ratio"),
    ("engine.bao_lookups", "count"),
    ("wcrt.outer_cap_hits", "count"),
    ("experiments.figure_s.table1", "s"),
    ("experiments.figure_s.fig2", "s"),
    ("experiments.figure_s.fig3a", "s"),
    ("experiments.figure_s.fig3b", "s"),
    ("experiments.figure_s.fig3c", "s"),
    ("experiments.figure_s.fig3d", "s"),
    ("experiments.figure_s.ablation", "s"),
    ("experiments.figure_s.gain", "s"),
    ("experiments.driver_ns_per_set", "ns"),
    ("experiments.export_ns", "ns"),
    ("experiments.sets_per_pass", "count"),
    ("optimize.request_ms_p50", "ms"),
    ("optimize.request_ms_tail", "ms"),
    ("optimize.request_tail_percentile", "percent"),
    ("optimize.request_samples", "count"),
    ("optimize.candidates_per_s", "1/s"),
    ("optimize.candidates", "count"),
    ("optimize.pruned_ratio", "ratio"),
    ("optimize.memo_hit_ratio", "ratio"),
    ("optimize.memo_lookups", "count"),
    ("optimize.cache_hit_ratio", "ratio"),
    ("optimize.cache_lookups", "count"),
    ("pool.speedup_2w", "ratio"),
    ("pool.items_per_s_1w", "1/s"),
    ("pool.items_per_s_2w", "1/s"),
    ("pool.items_per_batch", "count"),
    ("sim.run_ns_per_call", "ns"),
    ("sim.runs", "count"),
    ("sim.ns_per_bus_transaction", "ns"),
    ("sim.bus_transactions", "count"),
    ("sim.skip_ratio", "ratio"),
    ("sim.cycles", "count"),
    ("oracle.analysis_ns_per_set", "ns"),
    ("oracle.simulate_ns_per_set", "ns"),
    ("oracle.determinism_ns_per_set", "ns"),
    ("campaign.sets", "count"),
    ("campaign.trace_overhead", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Reproduce,
    Optimize,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "reproduce_paper" => Some(Workload::Reproduce),
            "optimize_mixed" => Some(Workload::Optimize),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Reproduce => "reproduce_paper",
            Workload::Optimize => "optimize_mixed",
        }
    }

    fn workers(self) -> usize {
        match self {
            Workload::Optimize => optimize::WORKERS,
            Workload::Reproduce => 1,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run reports: metrics, item counts, broken checks, and the
/// run-record fields beyond the common ones.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    broken: Vec<String>,
    record: Vec<(&'static str, String)>,
}

/// The timed loop over the chunks `setup` returns, with set-up itself
/// re-timed during the run. Checks that every round's deterministic
/// counter deltas repeat that chunk's first run exactly and returns the
/// first pass's deltas.
fn run_timed<I>(
    seconds: f64,
    mut setup: impl FnMut() -> Vec<I>,
    mut round: impl FnMut(&I) -> measure::Round,
) -> (Timed, obs::Counts) {
    let chunks = setup();
    let mut firsts: Vec<obs::Counts> = Vec::new();
    let mut repeat_broken = Vec::new();
    let mut calls = 0;
    let mut timed = measure::timed_loop(
        seconds,
        &chunks,
        || drop(setup()),
        |input| {
            let before = cpa_obs::metrics_snapshot();
            let out = round(input);
            let counts = obs::Counts::since(&before);
            let c = calls % chunks.len();
            calls += 1;
            match firsts.get(c) {
                None => firsts.push(counts),
                Some(first) => repeat_broken.extend(
                    first
                        .differences(&counts)
                        .into_iter()
                        .map(|d| format!("chunk {c}: counter did not repeat: {d}")),
                ),
            }
            out
        },
    );
    timed.broken.extend(repeat_broken);
    let mut pass = obs::Counts::default();
    for counts in firsts {
        pass.add(&counts);
    }
    (timed, pass)
}

fn untraced(args: &Args) -> Outcome {
    let seed = args.seed;
    let seconds = args.seconds as f64;
    let (timed, counts) = match args.workload {
        Workload::Reproduce => run_timed(seconds, || reproduce::setup(seed), reproduce::round),
        Workload::Optimize => run_timed(
            seconds,
            || optimize::setup(seed),
            |json| optimize::round(json),
        ),
    };
    let metrics = vec![
        Metric::new("items_per_s", timed.rate(), "1/s"),
        Metric::new("cpu_ms_per_item", timed.cpu_ms_per_item(), "ms"),
        Metric::new("peak_rss_mb", measure::peak_rss_mb(), "MiB"),
        Metric::new("setup_s", timed.setup_s(), "s"),
    ];
    // After the memory reading: the check runs a second pool worker.
    let mut broken = timed.broken.clone();
    if args.workload == Workload::Optimize {
        broken.extend(optimize::worker_identity(seed));
    }
    let error_rate = measure::per(timed.failed as f64, timed.attempted);
    let record = vec![
        ("passes", timed.walls[0].len().to_string()),
        (
            "items_per_pass",
            timed.items.iter().sum::<u64>().to_string(),
        ),
        (
            "measured_best_items_per_s",
            measure::json_number(timed.measured_best_rate()),
        ),
        (
            "measured_median_items_per_s",
            measure::json_number(timed.measured_median_rate()),
        ),
        ("error_rate", measure::json_number(error_rate)),
        ("digest", format!("\"{:016x}\"", timed.digest)),
        ("pass_counts", counts.to_json()),
    ];
    Outcome {
        metrics,
        attempted: timed.attempted,
        failed: timed.failed,
        broken,
        record,
    }
}

fn traced(args: &Args) -> Outcome {
    let (mut measured, mut broken, attempted) = match args.workload {
        Workload::Reproduce => reproduce::trace(args.seed),
        Workload::Optimize => optimize::trace(args.seed),
    };
    // The simulator and the oracles sit on no timed workload's path; the
    // traced reproduction validates its analysis against them.
    if args.workload == Workload::Reproduce {
        let (metrics, checks) = validate::trace(args.seed);
        measured.extend(metrics);
        broken.extend(checks);
    }
    for m in &measured {
        if !PER_LAYER.iter().any(|(name, _)| *name == m.name) {
            broken.push(format!(
                "metric {} is not a listed per-layer metric",
                m.name
            ));
        }
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect();
    let off_path: Vec<String> = PER_LAYER
        .iter()
        .filter(|(name, _)| !measured.iter().any(|m| m.name == *name))
        .map(|(name, _)| format!("\"{name}\""))
        .collect();
    Outcome {
        metrics,
        attempted,
        failed: (broken.len() as u64).min(attempted),
        broken,
        record: vec![("not_on_path", format!("[{}]", off_path.join(", ")))],
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for b in &outcome.broken {
        eprintln!("check failed: {b}");
    }
    let correct = outcome.broken.is_empty();
    let mut record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"trace\": {}, \"workers\": {}, \"available_parallelism\": {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.workload.workers(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for (key, value) in &outcome.record {
        record.push_str(&format!(", \"{key}\": {value}"));
    }
    record.push('}');
    println!("{record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        measure::metrics_json(&outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args(&[
            "--workload",
            "optimize_mixed",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::Optimize);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "reproduce_paper", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "reproduce_paper", "--seed"]).is_err());
    }

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&entry), "{entry} missing");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }
}
