//! Pins the shared-population drivers against a per-series reference.
//!
//! Fig. 2, Fig. 3b, Fig. 3d, the CRPD ablation and the persistence gain
//! generate each utilization point's task sets once and evaluate them
//! under every panel or x-value in one pass. That is only the paper's
//! experiment if every panel or x-value would have drawn the very same
//! sets from its *own* generator configuration. This suite checks both
//! halves:
//!
//! * every driver's [`ExperimentResult`] equals (with `f64` fields
//!   compared bitwise) a reference built by one single-evaluation
//!   [`evaluate_population`] call per panel or x-value, each with that
//!   x-value's own
//!   [`GeneratorConfig`] — the pre-sharing definition of the figures;
//! * each x-value's own generator yields task sets with the same
//!   [`TaskSet::task_content_hashes`] as the shared population. Fig. 2,
//!   Fig. 3d and the ablations use one generator configuration for every
//!   panel by definition; Fig. 3b is the case to check, since its
//!   x-values differ in the generator's `d_mem`.

use cpa_analysis::{AnalysisConfig, BusPolicy, CrpdApproach, PersistenceMode, WeightedAccumulator};
use cpa_experiments::runner::{
    derive_seed, evaluate_population, ChainState, Evaluation, PointStats,
};
use cpa_experiments::{ablation, fig2, fig3, CurvePoint, ExperimentResult, SweepOptions};
use cpa_model::{TaskSet, Time};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn tiny() -> SweepOptions {
    SweepOptions::quick()
        .with_sets_per_point(3)
        .with_utilization_grid(vec![0.3, 0.6])
        .with_seed(0x5EED)
        .with_threads(2)
}

fn at(base: &GeneratorConfig, utilization: f64) -> GeneratorConfig {
    base.clone().with_per_core_utilization(utilization)
}

fn curve_point(x: f64, acc: &WeightedAccumulator) -> CurvePoint {
    CurvePoint {
        x,
        schedulable: acc.schedulable_count(),
        total: acc.samples(),
        weighted: acc.value(),
    }
}

/// The six Fig. 3 configurations at slot count `slots`, aware first.
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

/// Asserts `result`'s series carry exactly `expected`, `f64` fields
/// compared bit for bit.
fn assert_points_bitwise(result: &ExperimentResult, expected: &[Vec<CurvePoint>]) {
    assert_eq!(result.series.len(), expected.len(), "{}", result.id);
    for (series, want) in result.series.iter().zip(expected) {
        assert_eq!(
            series.points.len(),
            want.len(),
            "{} / {}",
            result.id,
            series.label
        );
        for (got, want) in series.points.iter().zip(want) {
            let tag = format!("{} / {} at x={}", result.id, series.label, want.x);
            assert_eq!(got.x.to_bits(), want.x.to_bits(), "{tag}: x");
            assert_eq!(got.schedulable, want.schedulable, "{tag}: schedulable");
            assert_eq!(got.total, want.total, "{tag}: total");
            assert_eq!(
                got.weighted.to_bits(),
                want.weighted.to_bits(),
                "{tag}: weighted"
            );
        }
    }
}

/// One evaluation of `configs` under `approach` at the generator's own
/// latency, on a population of its own.
fn evaluate_own(
    gen: &GeneratorConfig,
    configs: &[AnalysisConfig],
    opts: &SweepOptions,
    point_id: u64,
    approach: CrpdApproach,
) -> PointStats {
    let evaluation = Evaluation::new(gen.d_mem, approach, configs.to_vec());
    evaluate_population(
        gen,
        &[evaluation],
        opts,
        point_id,
        &mut ChainState::default(),
    )
    .remove(0)
}

/// Fig. 3 reference: per x-value, its own generator and configurations,
/// one `evaluate_own` per utilization point, merged in grid order.
fn fig3_reference(
    opts: &SweepOptions,
    xs: &[f64],
    own: impl Fn(f64) -> (GeneratorConfig, Vec<AnalysisConfig>),
) -> Vec<Vec<CurvePoint>> {
    let mut expected = vec![Vec::new(); 6];
    for &x in xs {
        let (base, configs) = own(x);
        let mut totals = vec![WeightedAccumulator::new(); configs.len()];
        for (ui, &u) in opts.utilization_grid.iter().enumerate() {
            let stats = evaluate_own(
                &at(&base, u),
                &configs,
                opts,
                ui as u64,
                CrpdApproach::EcbUnion,
            );
            for (i, total) in totals.iter_mut().enumerate() {
                total.merge(stats.config(i));
            }
        }
        for (series, total) in expected.iter_mut().zip(&totals) {
            series.push(curve_point(x, total));
        }
    }
    expected
}

fn hashes(generator: &TaskSetGenerator, opts: &SweepOptions, point: u64, set: u64) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(opts.seed, point, set));
    let tasks: TaskSet = generator.generate(&mut rng).expect("generation succeeds");
    tasks.task_content_hashes().to_vec()
}

/// Asserts every x-value's own generator draws the shared population's
/// task sets at every utilization point.
fn assert_same_population(
    opts: &SweepOptions,
    shared: &GeneratorConfig,
    own: impl IntoIterator<Item = GeneratorConfig>,
) {
    let own: Vec<GeneratorConfig> = own.into_iter().collect();
    for (ui, &u) in opts.utilization_grid.iter().enumerate() {
        let population = TaskSetGenerator::new(at(shared, u)).expect("valid generator");
        for config in &own {
            let generator = TaskSetGenerator::new(at(config, u)).expect("valid generator");
            for set in 0..opts.sets_per_point as u64 {
                assert_eq!(
                    hashes(&generator, opts, ui as u64, set),
                    hashes(&population, opts, ui as u64, set),
                    "d_mem {} point {ui} set {set}",
                    config.d_mem
                );
            }
        }
    }
}

#[test]
fn fig2_matches_per_panel_reference() {
    let opts = tiny();
    let results = fig2::fig2(&opts);
    let base = GeneratorConfig::paper_default();
    for (result, bus) in results.iter().zip(BusPolicy::paper_buses(opts.slots)) {
        let configs = [
            AnalysisConfig::new(bus, PersistenceMode::Aware),
            AnalysisConfig::new(bus, PersistenceMode::Oblivious),
            AnalysisConfig::new(BusPolicy::Perfect, PersistenceMode::Aware),
        ];
        let mut expected = vec![Vec::new(); 3];
        for (ui, &u) in opts.utilization_grid.iter().enumerate() {
            let stats = evaluate_own(
                &at(&base, u),
                &configs,
                &opts,
                ui as u64,
                CrpdApproach::EcbUnion,
            );
            for (i, series) in expected.iter_mut().enumerate() {
                series.push(curve_point(u, stats.config(i)));
            }
        }
        assert_points_bitwise(result, &expected);
    }
}

#[test]
fn fig3b_matches_per_latency_reference_and_shares_its_population() {
    let opts = tiny();
    let xs = [2.0, 4.0, 6.0, 8.0, 10.0];
    let reference = GeneratorConfig::paper_default().d_mem;
    let own = |x: f64| {
        GeneratorConfig::paper_default()
            .with_d_mem(Time::from_cycles(x as u64 * fig3::CYCLES_PER_US))
            .with_period_d_mem(reference)
    };
    let expected = fig3_reference(&opts, &xs, |x| (own(x), paper_configs(opts.slots)));
    assert_points_bitwise(&fig3::fig3b(&opts), &expected);
    // Periods are sized by `period_d_mem`, so the analysed latency never
    // reaches the generator: every x-value draws the shared population.
    let shared = GeneratorConfig::paper_default().with_period_d_mem(reference);
    assert_same_population(&opts, &shared, xs.iter().map(|&x| own(x)));
}

#[test]
fn fig3d_matches_per_slot_count_reference() {
    let opts = tiny();
    let xs: Vec<f64> = (1..=6).map(f64::from).collect();
    let expected = fig3_reference(&opts, &xs, |x| {
        (GeneratorConfig::paper_default(), paper_configs(x as u64))
    });
    assert_points_bitwise(&fig3::fig3d(&opts), &expected);
}

#[test]
fn crpd_ablation_matches_per_approach_reference() {
    let opts = tiny();
    let base = GeneratorConfig::paper_default();
    let configs = [AnalysisConfig::new(
        BusPolicy::FixedPriority,
        PersistenceMode::Aware,
    )];
    let mut expected = vec![Vec::new(); 3];
    for (ui, &u) in opts.utilization_grid.iter().enumerate() {
        for (series, approach) in expected.iter_mut().zip([
            CrpdApproach::EcbUnion,
            CrpdApproach::UcbUnion,
            CrpdApproach::EcbOnly,
        ]) {
            let stats = evaluate_own(&at(&base, u), &configs, &opts, ui as u64, approach);
            series.push(curve_point(u, stats.config(0)));
        }
    }
    assert_points_bitwise(&ablation::crpd_ablation(&opts), &expected);
}

#[test]
fn persistence_gain_matches_per_bus_reference() {
    let opts = tiny();
    let base = GeneratorConfig::paper_default();
    let mut expected = vec![Vec::new(); 3];
    for (ui, &u) in opts.utilization_grid.iter().enumerate() {
        for (series, bus) in expected.iter_mut().zip(BusPolicy::paper_buses(opts.slots)) {
            let configs = [
                AnalysisConfig::new(bus, PersistenceMode::Aware),
                AnalysisConfig::new(bus, PersistenceMode::Oblivious),
            ];
            let stats = evaluate_own(
                &at(&base, u),
                &configs,
                &opts,
                ui as u64,
                CrpdApproach::EcbUnion,
            );
            let gain = stats.config(0).schedulable_count() - stats.config(1).schedulable_count();
            let total = stats.config(0).samples();
            series.push(CurvePoint {
                x: u,
                schedulable: gain,
                total,
                weighted: gain as f64 / total as f64,
            });
        }
    }
    assert_points_bitwise(&ablation::persistence_gain(&opts), &expected);
}
