//! Guard: the event-skipping simulator must stay at least 5× faster than
//! its cycle-stepped reference, and report exactly what the reference
//! reports.
//!
//! ```text
//! sim_speedup
//! ```
//!
//! Times [`Simulator::run`] against [`Simulator::run_reference`] on the
//! validation campaign's workload mix (the simulator's hot caller:
//! `cpa-validate` spends most of its time here), under every bus and
//! release model the campaign simulates. Before timing, every run is
//! cross-checked for full-report equality, so a speedup obtained by
//! diverging from the stepped semantics fails here too.
//!
//! The measured numbers are printed as one JSON line on stdout. The
//! process exits 1 when a report differs or the campaign-mix speedup is
//! below [`SPEEDUP_GATE`], and writes no file.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use cpa_model::{Platform, TaskSet};
use cpa_sim::{BusArbitration, ReleaseModel, SimConfig, SimReport, Simulator};
use cpa_validate::oracle::{horizon_for, platform_for_tasks};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Content, Serialize};

/// Task sets in the campaign mix. Each draws its utilization, task count
/// and cache pressure from the same bands `cpa-validate` samples.
const SETS: u64 = 8;
/// Horizon cap, matching the full campaign profile.
const HORIZON_CAP: u64 = 1_500_000;
/// Required fast-path speedup on the campaign mix.
const SPEEDUP_GATE: f64 = 5.0;

struct Case {
    platform: Platform,
    tasks: TaskSet,
    config: SimConfig,
}

/// The one JSON line this guard prints.
#[derive(Serialize)]
struct Verdict {
    guard: &'static str,
    workload: &'static str,
    sets: u64,
    horizon_cap: u64,
    configs: Configs,
    reference_sims_per_sec: f64,
    engine_sims_per_sec: f64,
    speedup: f64,
    gate: f64,
    reports_equal: bool,
    mismatches: Vec<&'static str>,
    pass: bool,
}

/// Per-configuration timings, keyed by configuration label in matrix order.
struct Configs(Vec<(&'static str, ConfigTiming)>);

impl Serialize for Configs {
    fn serialize_content(&self) -> Content {
        Content::Map(
            self.0
                .iter()
                .map(|(label, timing)| (label.to_string(), timing.serialize_content()))
                .collect(),
        )
    }
}

#[derive(Serialize)]
struct ConfigTiming {
    reference_ns: f64,
    engine_ns: f64,
    speedup: f64,
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: sim_speedup (takes no arguments)");
        return ExitCode::from(2);
    }
    let base = GeneratorConfig::paper_default();
    let mut systems = Vec::new();
    for seed in 0..SETS {
        // The campaign's per-set profile: small two-core sets across a
        // band of utilizations (see cpa_validate::campaign::profile_for).
        let mut rng = ChaCha8Rng::seed_from_u64(0x51B3_11C5 ^ seed);
        let utilization = rng.gen_range(0.10..0.55);
        let tasks_per_core = rng.gen_range(3usize..6);
        let config = GeneratorConfig {
            cores: 2,
            tasks_per_core,
            ..base.clone()
        }
        .with_per_core_utilization(utilization);
        let generator = TaskSetGenerator::new(config).expect("generator");
        let tasks = generator.generate(&mut rng).expect("task set");
        let platform = platform_for_tasks(&tasks, base.d_mem).expect("platform");
        systems.push((platform, tasks));
    }

    // The campaign simulates each set per (bus, release model); mirror
    // that matrix here so every arbiter's skip logic is on the clock.
    let matrix: [(&str, BusArbitration, ReleaseModel); 4] = [
        (
            "fp_sync",
            BusArbitration::FixedPriority,
            ReleaseModel::Synchronous,
        ),
        (
            "rr_sync",
            BusArbitration::RoundRobin { slots: 2 },
            ReleaseModel::Synchronous,
        ),
        (
            "tdma_sync",
            BusArbitration::Tdma { slots: 2 },
            ReleaseModel::Synchronous,
        ),
        (
            "fp_sporadic",
            BusArbitration::FixedPriority,
            ReleaseModel::Sporadic {
                seed: 0x5EED,
                max_extra_percent: 40,
            },
        ),
    ];

    let mut configs = Configs(Vec::new());
    let mut mismatches = Vec::new();
    let mut mix_reference_ns = 0.0f64;
    let mut mix_engine_ns = 0.0f64;
    for (label, bus, releases) in matrix {
        let cases: Vec<Case> = systems
            .iter()
            .map(|(platform, tasks)| Case {
                platform: platform.clone(),
                tasks: tasks.clone(),
                config: SimConfig::new(bus)
                    .with_horizon(horizon_for(tasks, HORIZON_CAP))
                    .with_releases(releases),
            })
            .collect();

        // Semantics first: the differential pin, re-checked in situ.
        if cases.iter().any(|case| run(case, false) != run(case, true)) {
            eprintln!("{label}: fast path diverged from the reference");
            mismatches.push(label);
        }

        let reference_ns = time_sweep(&cases, true);
        let engine_ns = time_sweep(&cases, false);
        mix_reference_ns += reference_ns;
        mix_engine_ns += engine_ns;
        let speedup = reference_ns / engine_ns;
        eprintln!(
            "{label:<12} reference {reference_ns:>12.0} ns/sweep   fast {engine_ns:>12.0} \
             ns/sweep   speedup {speedup:.2}x"
        );
        configs.0.push((
            label,
            ConfigTiming {
                reference_ns: reference_ns.round(),
                engine_ns: engine_ns.round(),
                speedup,
            },
        ));
    }

    let speedup = mix_reference_ns / mix_engine_ns;
    let sims = (SETS * matrix.len() as u64) as f64;
    let reference_sims_per_sec = sims / (mix_reference_ns * 1e-9);
    let engine_sims_per_sec = sims / (mix_engine_ns * 1e-9);
    let reports_equal = mismatches.is_empty();
    let pass = reports_equal && speedup >= SPEEDUP_GATE;
    eprintln!(
        "campaign mix: reference {reference_sims_per_sec:.1} sims/s -> fast \
         {engine_sims_per_sec:.1} sims/s ({speedup:.2}x)"
    );
    let verdict = Verdict {
        guard: "sim_speedup",
        workload: "campaign_mix",
        sets: SETS,
        horizon_cap: HORIZON_CAP,
        configs,
        reference_sims_per_sec,
        engine_sims_per_sec,
        speedup,
        gate: SPEEDUP_GATE,
        reports_equal,
        mismatches,
        pass,
    };
    println!(
        "{}",
        serde_json::to_string(&verdict).expect("verdict serializes")
    );
    if !reports_equal {
        eprintln!("FAIL: the fast path's reports differ from the reference's");
        return ExitCode::FAILURE;
    }
    if !pass {
        eprintln!("FAIL: campaign-mix speedup {speedup:.2}x below the {SPEEDUP_GATE}x gate");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run(case: &Case, reference: bool) -> SimReport {
    let sim = Simulator::new(&case.platform, &case.tasks, case.config).expect("fits");
    if reference {
        sim.run_reference()
    } else {
        sim.run()
    }
}

/// Median-of-three wall time of one full sweep (all task sets once), in
/// nanoseconds, with one untimed warm-up sweep.
fn time_sweep(cases: &[Case], reference: bool) -> f64 {
    let sweep = || {
        for case in cases {
            black_box(run(black_box(case), reference));
        }
    };
    sweep();
    let mut runs = [0.0f64; 3];
    for run in &mut runs {
        let start = Instant::now();
        sweep();
        *run = start.elapsed().as_nanos() as f64;
    }
    runs.sort_by(f64::total_cmp);
    runs[1]
}
