//! `reproduce_paper`: every experiment `run_experiments all` runs, at a
//! reduced sets-per-point, on one worker.

use std::time::Instant;

use cpa_analysis::{
    analyze_with, AnalysisConfig, AnalysisContext, AnalysisScratch, BusPolicy, ContextBuffers,
    CrpdApproach, PersistenceMode, WeightedAccumulator,
};
use cpa_experiments::runner::{derive_seed, platform_for};
use cpa_experiments::{
    ablation, fig2, fig3, report, table1, CurvePoint, ExperimentResult, SweepOptions,
};
use cpa_model::Time;
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::measure::{self, Digest, Metric, Ratio, Round};
use crate::obs;

/// Task sets per (x-value, utilization) point of one chunk. The paper
/// uses 1000 for Fig. 2 and 200 for Fig. 3.
pub const SETS_PER_POINT: usize = 2;

/// Seeds every experiment runs under in one pass, one chunk each: a pass
/// evaluates `SETS_PER_POINT × SEEDS` sets per point, in chunks short
/// enough (20–120 ms) to be timed one by one.
pub const SEEDS: u64 = 3;

/// The experiments of `run_experiments all`, in its order, with the
/// evaluations each makes per utilization point: three Fig. 2 panels,
/// 5 + 5 + 6 + 6 Fig. 3 x-values, three CRPD approaches and three gain
/// buses. Table I is embedded data.
pub const EXPERIMENTS: [(&str, u64); 8] = [
    ("table1", 0),
    ("fig2", 3),
    ("fig3a", 5),
    ("fig3b", 5),
    ("fig3c", 6),
    ("fig3d", 6),
    ("ablation", 3),
    ("gain", 3),
];

fn grid_points() -> u64 {
    cpa_experiments::runner::default_grid().len() as u64
}

/// One chunk of the input: one experiment under one seed.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Experiment name, as `run_experiments` takes it.
    pub experiment: &'static str,
    /// Task sets the experiment evaluates.
    pub sets: u64,
    /// Its sweep options: one worker, the full utilization grid.
    pub opts: SweepOptions,
}

/// The chunks of one pass: Table I once, every sweep under [`SEEDS`]
/// seeds derived from `seed`.
#[must_use]
pub fn chunks(seed: u64) -> Vec<Chunk> {
    let mut out = Vec::new();
    for v in 0..SEEDS {
        for (experiment, evaluations) in EXPERIMENTS {
            if experiment == "table1" && v > 0 {
                continue;
            }
            out.push(Chunk {
                experiment,
                sets: evaluations * grid_points() * SETS_PER_POINT as u64,
                opts: SweepOptions::paper()
                    .with_sets_per_point(SETS_PER_POINT)
                    .with_seed(derive_seed(seed, 0x5EED, v))
                    .with_threads(1),
            });
        }
    }
    out
}

/// Runs one experiment exactly as `run_experiments` does.
fn run_experiment(name: &str, opts: &SweepOptions) -> Vec<ExperimentResult> {
    match name {
        "table1" => Vec::new(),
        "fig2" => fig2::fig2(opts),
        "fig3a" => vec![fig3::fig3a(opts)],
        "fig3b" => vec![fig3::fig3b(opts)],
        "fig3c" => vec![fig3::fig3c(opts)],
        "fig3d" => vec![fig3::fig3d(opts)],
        "ablation" => vec![ablation::crpd_ablation(opts)],
        "gain" => vec![ablation::persistence_gain(opts)],
        other => unreachable!("unknown experiment {other}"),
    }
}

/// The outputs of one chunk plus where its time went.
#[derive(Debug, Default)]
pub struct Outputs {
    /// The sweep results.
    pub results: Vec<ExperimentResult>,
    /// Wall seconds of the experiment call (Table I: its rendering).
    pub figure_s: f64,
    /// Wall nanoseconds rendering the results' CSV and Markdown.
    pub export_ns: u64,
    /// Digest of Table I or of every result's CSV and Markdown.
    pub digest: u64,
}

/// Runs one chunk's experiment and renders its output.
#[must_use]
pub fn run_chunk(chunk: &Chunk) -> Outputs {
    let mut digest = Digest::new();
    let t0 = Instant::now();
    let results = run_experiment(chunk.experiment, &chunk.opts);
    if chunk.experiment == "table1" {
        digest.str(&table1::table1_markdown(false));
        digest.str(&table1::table1_csv(false));
    }
    let figure_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for result in &results {
        digest.str(&report::to_csv(result));
        digest.str(&report::to_markdown(result));
    }
    Outputs {
        results,
        figure_s,
        export_ns: t0.elapsed().as_nanos() as u64,
        digest: digest.finish(),
    }
}

/// Series pairs that must satisfy aware ≥ oblivious, per result id.
fn dominance_pairs(id: &str) -> &'static [(usize, usize)] {
    match id {
        "fig2a" | "fig2b" | "fig2c" => &[(0, 1)],
        "fig3a" | "fig3b" | "fig3c" | "fig3d" => &[(0, 1), (2, 3), (4, 5)],
        _ => &[],
    }
}

/// Broken output invariants of one chunk: aware ≥ oblivious per bus and
/// point, gains within their totals, and every point evaluated in full.
#[must_use]
pub fn check(outputs: &Outputs) -> Vec<String> {
    let mut broken = Vec::new();
    for r in &outputs.results {
        for &(a, o) in dominance_pairs(&r.id) {
            for (pa, po) in r.series[a].points.iter().zip(&r.series[o].points) {
                if pa.schedulable < po.schedulable || pa.weighted < po.weighted - 1e-12 {
                    broken.push(format!(
                        "{}: {} below {} at x={}",
                        r.id, r.series[a].label, r.series[o].label, pa.x
                    ));
                }
            }
        }
        let fig3 = r.id.starts_with("fig3");
        let per_point = SETS_PER_POINT as u64 * if fig3 { grid_points() } else { 1 };
        for s in &r.series {
            for p in &s.points {
                if p.total != per_point || p.schedulable > p.total {
                    broken.push(format!("{} / {}: point {p:?} incomplete", r.id, s.label));
                }
            }
        }
    }
    broken
}

/// One timed round: one chunk.
#[must_use]
pub fn round(chunk: &Chunk) -> Round {
    let evaluated = cpa_obs::counter("experiments.sets_evaluated");
    let before = evaluated.get();
    let outputs = run_chunk(chunk);
    let items = evaluated.get() - before;
    let mut broken = check(&outputs);
    if items != chunk.sets {
        broken.push(format!(
            "{}: evaluated {items} sets, expected {}",
            chunk.experiment, chunk.sets
        ));
    }
    Round {
        items,
        failed: 0,
        digest: outputs.digest,
        broken,
    }
}

/// Set-up: the chunks plus one warm-up item, a task set evaluated under
/// the six Fig. 3 configurations.
pub fn setup(seed: u64) -> Vec<Chunk> {
    let chunks = chunks(seed);
    let opts = &chunks[0].opts;
    let mut replay = Replay::default();
    let _ = replay.point(
        &GeneratorConfig::paper_default(),
        &paper_configs(opts.slots),
        opts,
        0,
        CrpdApproach::EcbUnion,
    );
    chunks
}

/// The six bus × persistence configurations of Fig. 3, aware first.
fn paper_configs(slots: u64) -> Vec<AnalysisConfig> {
    BusPolicy::paper_buses(slots)
        .into_iter()
        .flat_map(|bus| {
            [
                AnalysisConfig::new(bus, PersistenceMode::Aware),
                AnalysisConfig::new(bus, PersistenceMode::Oblivious),
            ]
        })
        .collect()
}

/// Replays sweep points set by set through the public layer calls —
/// `TaskSetGenerator::generate`, `AnalysisContext::with_crpd_approach_buffers`
/// and `analyze_with` — timing each layer from outside.
#[derive(Debug, Default)]
pub struct Replay {
    scratch: AnalysisScratch,
    buffers: ContextBuffers,
    /// Sets replayed.
    pub sets: u64,
    /// `analyze_with` calls.
    pub solves: u64,
    /// Nanoseconds in `generate`.
    pub generate_ns: u64,
    /// Nanoseconds building analysis contexts (CRPD/CPRO tables).
    pub context_ns: u64,
    /// Nanoseconds in `analyze_with`, all configurations.
    pub solve_ns: u64,
    /// Nanoseconds in `analyze_with` for each set's first configuration.
    pub first_solve_ns: u64,
}

impl Replay {
    /// Replays one `evaluate_point` call, returning one accumulator per
    /// configuration, folded in set order exactly as the runner folds.
    pub fn point(
        &mut self,
        gen: &GeneratorConfig,
        configs: &[AnalysisConfig],
        opts: &SweepOptions,
        point_id: u64,
        crpd: CrpdApproach,
    ) -> Vec<WeightedAccumulator> {
        let generator =
            TaskSetGenerator::new(gen.clone()).expect("paper generator configs are valid");
        let platform = platform_for(gen);
        let mut accs = vec![WeightedAccumulator::new(); configs.len()];
        for set in 0..opts.sets_per_point {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(opts.seed, point_id, set as u64));
            let t0 = Instant::now();
            let tasks = generator.generate(&mut rng).expect("generation succeeds");
            let t1 = Instant::now();
            let ctx = AnalysisContext::with_crpd_approach_buffers(
                &platform,
                &tasks,
                crpd,
                &mut self.buffers,
            )
            .expect("task set fits platform");
            let mut t_prev = Instant::now();
            self.generate_ns += (t1 - t0).as_nanos() as u64;
            self.context_ns += (t_prev - t1).as_nanos() as u64;
            let utilization = tasks.total_utilization(gen.d_mem);
            for (i, cfg) in configs.iter().enumerate() {
                let schedulable = analyze_with(&ctx, cfg, &mut self.scratch).is_schedulable();
                let now = Instant::now();
                let ns = (now - t_prev).as_nanos() as u64;
                t_prev = now;
                self.solve_ns += ns;
                if i == 0 {
                    self.first_solve_ns += ns;
                }
                accs[i].record(utilization, schedulable);
            }
            ctx.recycle(&mut self.buffers);
            self.sets += 1;
            self.solves += configs.len() as u64;
        }
        accs
    }

    /// Replays one whole experiment and returns the mismatches between
    /// its tallies and the figure's (none when the replay did the same
    /// work).
    pub fn experiment(&mut self, result: &ExperimentResult, opts: &SweepOptions) -> Vec<String> {
        let grid = &opts.utilization_grid;
        let at = |u: f64| GeneratorConfig::paper_default().with_per_core_utilization(u);
        let mut expected: Vec<Vec<CurvePoint>> = vec![Vec::new(); result.series.len()];
        let mut push = |si: usize, x: f64, acc: &WeightedAccumulator| {
            expected[si].push(CurvePoint {
                x,
                schedulable: acc.schedulable_count(),
                total: acc.samples(),
                weighted: acc.value(),
            });
        };
        let ecb = CrpdApproach::EcbUnion;
        match result.id.as_str() {
            "fig2a" | "fig2b" | "fig2c" => {
                let [fp, rr, tdma] = BusPolicy::paper_buses(opts.slots);
                let bus = match result.id.as_str() {
                    "fig2a" => fp,
                    "fig2b" => rr,
                    _ => tdma,
                };
                let configs = [
                    AnalysisConfig::new(bus, PersistenceMode::Aware),
                    AnalysisConfig::new(bus, PersistenceMode::Oblivious),
                    AnalysisConfig::new(BusPolicy::Perfect, PersistenceMode::Aware),
                ];
                for (ui, &u) in grid.iter().enumerate() {
                    let accs = self.point(&at(u), &configs, opts, ui as u64, ecb);
                    for (si, acc) in accs.iter().enumerate() {
                        push(si, u, acc);
                    }
                }
            }
            "fig3a" | "fig3b" | "fig3c" | "fig3d" => {
                let reference_d_mem = GeneratorConfig::paper_default().d_mem;
                for point in &result.series[0].points {
                    let x = point.x;
                    let (base, slots) = match result.id.as_str() {
                        "fig3a" => (
                            GeneratorConfig::paper_default().with_cores(x as usize),
                            opts.slots,
                        ),
                        "fig3b" => (
                            GeneratorConfig::paper_default()
                                .with_d_mem(Time::from_cycles(x as u64 * fig3::CYCLES_PER_US))
                                .with_period_d_mem(reference_d_mem),
                            opts.slots,
                        ),
                        "fig3c" => (
                            GeneratorConfig::paper_default().with_cache_sets(x as usize),
                            opts.slots,
                        ),
                        _ => (GeneratorConfig::paper_default(), x as u64),
                    };
                    let configs = paper_configs(slots);
                    let mut totals = vec![WeightedAccumulator::new(); configs.len()];
                    for (ui, &u) in grid.iter().enumerate() {
                        let gen = base.clone().with_per_core_utilization(u);
                        let accs = self.point(&gen, &configs, opts, ui as u64, ecb);
                        for (t, a) in totals.iter_mut().zip(&accs) {
                            t.merge(a);
                        }
                    }
                    for (si, acc) in totals.iter().enumerate() {
                        push(si, x, acc);
                    }
                }
            }
            "ablation_crpd" => {
                let configs = [AnalysisConfig::new(
                    BusPolicy::FixedPriority,
                    PersistenceMode::Aware,
                )];
                for (ui, &u) in grid.iter().enumerate() {
                    for (si, approach) in [
                        CrpdApproach::EcbUnion,
                        CrpdApproach::UcbUnion,
                        CrpdApproach::EcbOnly,
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        let accs = self.point(&at(u), &configs, opts, ui as u64, approach);
                        push(si, u, &accs[0]);
                    }
                }
            }
            "ablation_gain" => {
                for (ui, &u) in grid.iter().enumerate() {
                    for (si, bus) in BusPolicy::paper_buses(opts.slots).into_iter().enumerate() {
                        let configs = [
                            AnalysisConfig::new(bus, PersistenceMode::Aware),
                            AnalysisConfig::new(bus, PersistenceMode::Oblivious),
                        ];
                        let accs = self.point(&at(u), &configs, opts, ui as u64, ecb);
                        let total = accs[0].samples();
                        let gain = accs[0].schedulable_count() - accs[1].schedulable_count();
                        expected[si].push(CurvePoint {
                            x: u,
                            schedulable: gain,
                            total,
                            weighted: measure::per(gain as f64, total),
                        });
                    }
                }
            }
            other => return vec![format!("no replay for experiment {other}")],
        }
        let mut mismatches = Vec::new();
        for (series, want) in result.series.iter().zip(&expected) {
            let same = series.points.len() == want.len()
                && series.points.iter().zip(want).all(|(a, b)| {
                    a.schedulable == b.schedulable
                        && a.total == b.total
                        && a.weighted.to_bits() == b.weighted.to_bits()
                });
            if !same {
                mismatches.push(format!(
                    "{} / {}: replayed tallies differ from the figure's",
                    result.id, series.label
                ));
            }
        }
        mismatches
    }
}

/// The traced run over the input of one pass: an untraced pass with
/// per-experiment timers, two traced passes for the engine counters, and
/// a replay of every result through the layer calls. Returns the
/// per-layer metrics, the broken checks and the sets replayed.
pub fn trace(seed: u64) -> (Vec<Metric>, Vec<String>, u64) {
    let chunks = setup(seed);
    let run_all = || chunks.iter().map(run_chunk).collect::<Vec<_>>();
    let passes = obs::TracePasses::run("reproduce_paper", run_all, |outs| {
        let mut digest = Digest::new();
        for o in outs {
            digest.u64(o.digest);
        }
        digest.finish()
    });
    let (plain, traced) = (&passes.plain, &passes.traced);
    let mut broken = passes.broken.clone();
    let mut replay = Replay::default();
    for (chunk, out) in chunks.iter().zip(&plain.out) {
        broken.extend(check(out));
        for result in &out.results {
            broken.extend(replay.experiment(result, &chunk.opts));
        }
    }
    let figure_sets: u64 = chunks.iter().map(|c| c.sets).sum();
    if replay.sets != figure_sets {
        broken.push(format!(
            "replayed {} sets, the figures evaluated {figure_sets}",
            replay.sets
        ));
    }
    let figure_s = |name: &str| -> f64 {
        chunks
            .iter()
            .zip(&plain.out)
            .filter(|(c, _)| c.experiment == name)
            .map(|(_, o)| o.figure_s)
            .sum()
    };
    let sweep_s: f64 = plain.out.iter().map(|o| o.figure_s).sum::<f64>() - figure_s("table1");
    let export_ns: u64 = plain.out.iter().map(|o| o.export_ns).sum();

    let c = &traced.counts;
    let replayed_ns = (replay.generate_ns + replay.context_ns + replay.solve_ns) as f64;
    let mut metrics = obs::engine_metrics(c);
    metrics.extend([
        Metric::new(
            "workload.generate_ns_per_set",
            measure::per(replay.generate_ns as f64, replay.sets),
            "ns",
        ),
        Metric::new(
            "analysis.context_ns_per_set",
            measure::per(replay.context_ns as f64, replay.sets),
            "ns",
        ),
        Metric::new(
            "analysis.solve_ns_per_call",
            measure::per(replay.solve_ns as f64, replay.solves),
            "ns",
        ),
        Metric::new(
            "analysis.first_solve_share",
            Ratio {
                part: replay.first_solve_ns,
                base: replay.solve_ns,
            }
            .value(),
            "ratio",
        ),
        Metric::new("analysis.solve_calls", replay.solves as f64, "count"),
        Metric::new(
            "experiments.driver_ns_per_set",
            measure::per((sweep_s * 1e9 - replayed_ns).max(0.0), replay.sets),
            "ns",
        ),
        Metric::new("experiments.export_ns", export_ns as f64, "ns"),
        Metric::new("experiments.sets_per_pass", replay.sets as f64, "count"),
    ]);
    for (name, _) in EXPERIMENTS {
        metrics.push(Metric::new(
            format!("experiments.figure_s.{name}"),
            figure_s(name),
            "s",
        ));
    }
    metrics.push(Metric::new(
        "obs.trace_overhead",
        passes.overhead(),
        "ratio",
    ));
    (metrics, broken, replay.sets)
}
