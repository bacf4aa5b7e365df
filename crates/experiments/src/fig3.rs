//! Fig. 3: weighted schedulability sweeps over platform parameters.
//!
//! Each sub-figure varies one parameter while integrating out the per-core
//! utilization dimension with the weighted schedulability measure
//! (Bastoni et al.; see [`cpa_analysis::weighted_schedulability`]):
//!
//! * **3a** — number of cores (2..10, step 2);
//! * **3b** — memory latency `d_mem` (2..10 µs, step 2);
//! * **3c** — cache size (32..1024 sets, powers of two);
//! * **3d** — RR/TDMA slot size `s` (1..6).

use cpa_analysis::{AnalysisConfig, BusPolicy, CrpdApproach, PersistenceMode, WeightedAccumulator};
use cpa_model::Time;
use cpa_workload::GeneratorConfig;

use crate::runner::{
    sweep_utilization, CurvePoint, Evaluation, ExperimentResult, Series, SweepOptions,
};

/// Cycles per microsecond in the evaluation timebase. One benchmark-table
/// cycle is interpreted as 1 µs (see `cpa_workload::GeneratorConfig::d_mem`
/// and DESIGN.md §4), so the paper's 2–10 µs sweep is 2–10 time units.
pub const CYCLES_PER_US: u64 = 1;

/// Fig. 3a: weighted schedulability vs number of cores (2, 4, 6, 8, 10).
#[must_use]
pub fn fig3a(opts: &SweepOptions) -> ExperimentResult {
    sweep(
        opts,
        "fig3a",
        "number of cores",
        &[2.0, 4.0, 6.0, 8.0, 10.0],
        |x| {
            let population = GeneratorConfig::paper_default().with_cores(x as usize);
            let evaluation = paper_evaluation(population.d_mem, opts.slots);
            (population, evaluation)
        },
    )
}

/// Fig. 3b: weighted schedulability vs memory latency `d_mem`
/// (2, 4, 6, 8, 10 µs).
///
/// Periods stay sized for the default 5 µs latency; only the analysed
/// latency varies, so larger `d_mem` means genuinely heavier memory load
/// (the paper's observed decline). The population therefore does not
/// depend on `d_mem`: it is generated once and analysed at every latency.
#[must_use]
pub fn fig3b(opts: &SweepOptions) -> ExperimentResult {
    let reference = GeneratorConfig::paper_default().d_mem;
    sweep(
        opts,
        "fig3b",
        "d_mem (µs)",
        &[2.0, 4.0, 6.0, 8.0, 10.0],
        |x| {
            let population = GeneratorConfig::paper_default().with_period_d_mem(reference);
            let d_mem = Time::from_cycles(x as u64 * CYCLES_PER_US);
            (population, paper_evaluation(d_mem, opts.slots))
        },
    )
}

/// Fig. 3c: weighted schedulability vs cache size (32..1024 sets).
#[must_use]
pub fn fig3c(opts: &SweepOptions) -> ExperimentResult {
    sweep(
        opts,
        "fig3c",
        "cache sets",
        &[32.0, 64.0, 128.0, 256.0, 512.0, 1024.0],
        |x| {
            let population = GeneratorConfig::paper_default().with_cache_sets(x as usize);
            let evaluation = paper_evaluation(population.d_mem, opts.slots);
            (population, evaluation)
        },
    )
}

/// Fig. 3d: weighted schedulability vs RR/TDMA slot size `s` (1..6).
///
/// The same task-set population is evaluated at every slot count (only the
/// analysis parameter changes), so the FP curves — which have no slot
/// parameter — are exactly flat references, as in the paper; the FP
/// configurations are solved once per set for all six slot counts.
#[must_use]
pub fn fig3d(opts: &SweepOptions) -> ExperimentResult {
    let xs: Vec<f64> = (1..=6).map(f64::from).collect();
    ExperimentResult {
        title: "Fig. 3d — weighted schedulability vs RR/TDMA slot size".to_string(),
        ..sweep(opts, "fig3d", "slots per core (s)", &xs, |x| {
            let population = GeneratorConfig::paper_default();
            let evaluation = paper_evaluation(population.d_mem, x as u64);
            (population, evaluation)
        })
    }
}

/// The six policy × persistence configurations of the paper at slot
/// count `s`.
fn paper_configs(slots: u64) -> ([AnalysisConfig; 6], [String; 6]) {
    let [fp, rr, tdma] = BusPolicy::paper_buses(slots);
    // Aware-first per bus: the plotting order of the figure.
    let configs = [
        AnalysisConfig::new(fp, PersistenceMode::Aware),
        AnalysisConfig::new(fp, PersistenceMode::Oblivious),
        AnalysisConfig::new(rr, PersistenceMode::Aware),
        AnalysisConfig::new(rr, PersistenceMode::Oblivious),
        AnalysisConfig::new(tdma, PersistenceMode::Aware),
        AnalysisConfig::new(tdma, PersistenceMode::Oblivious),
    ];
    let labels = [
        "FP aware".to_string(),
        "FP oblivious".to_string(),
        "RR aware".to_string(),
        "RR oblivious".to_string(),
        "TDMA aware".to_string(),
        "TDMA oblivious".to_string(),
    ];
    (configs, labels)
}

/// The paper's six configurations at latency `d_mem` and slot count
/// `slots`, under the paper's ECB-union CRPD bound.
fn paper_evaluation(d_mem: Time, slots: u64) -> Evaluation {
    let (configs, _) = paper_configs(slots);
    Evaluation::new(d_mem, CrpdApproach::EcbUnion, configs.to_vec())
}

fn point(x: f64, acc: &WeightedAccumulator) -> CurvePoint {
    CurvePoint {
        x,
        schedulable: acc.schedulable_count(),
        total: acc.samples(),
        weighted: acc.value(),
    }
}

/// Generic Fig. 3 sweep over a platform parameter: `at(x)` gives the
/// population an x-value draws its task sets from and the evaluation it
/// reports. Adjacent x-values with the same population are evaluated in
/// one pass over it; each x-value integrates the utilization dimension
/// into one accumulator per configuration, merged in grid order.
///
/// One set of worker buffers serves the whole sweep.
fn sweep(
    opts: &SweepOptions,
    id: &str,
    x_label: &str,
    xs: &[f64],
    at: impl Fn(f64) -> (GeneratorConfig, Evaluation),
) -> ExperimentResult {
    let points: Vec<(GeneratorConfig, Evaluation)> = xs.iter().map(|&x| at(x)).collect();
    let mut totals: Vec<Vec<WeightedAccumulator>> = Vec::with_capacity(xs.len());
    for group in points.chunk_by(|a, b| a.0 == b.0) {
        let evaluations: Vec<Evaluation> = group.iter().map(|(_, e)| e.clone()).collect();
        let mut group_totals: Vec<Vec<WeightedAccumulator>> = evaluations
            .iter()
            .map(|e| vec![WeightedAccumulator::new(); e.configs.len()])
            .collect();
        sweep_utilization(opts, &group[0].0, &evaluations, |_, stats| {
            for (total, point_stats) in group_totals.iter_mut().zip(stats) {
                for (i, t) in total.iter_mut().enumerate() {
                    t.merge(point_stats.config(i));
                }
            }
        });
        totals.extend(group_totals);
    }
    let (_, labels) = paper_configs(opts.slots);
    let series = labels
        .iter()
        .enumerate()
        .map(|(si, label)| Series {
            label: label.clone(),
            points: xs
                .iter()
                .zip(&totals)
                .map(|(&x, accs)| point(x, &accs[si]))
                .collect(),
        })
        .collect();
    ExperimentResult {
        id: id.to_string(),
        title: format!("Fig. 3 — weighted schedulability vs {x_label}"),
        x_label: x_label.to_string(),
        y_label: "weighted schedulability".to_string(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepOptions {
        SweepOptions::quick()
            .with_sets_per_point(4)
            .with_utilization_grid(vec![0.3, 0.7])
    }

    #[test]
    fn fig3a_shape_and_dominance() {
        let opts = tiny();
        let r = fig3a(&opts);
        assert_eq!(r.series.len(), 6);
        for s in &r.series {
            assert_eq!(s.points.len(), 5);
        }
        // Pairwise dominance: aware ≥ oblivious for the same bus.
        for pair in [(0, 1), (2, 3), (4, 5)] {
            for (a, o) in r.series[pair.0].points.iter().zip(&r.series[pair.1].points) {
                assert!(
                    a.weighted >= o.weighted - 1e-12,
                    "{} vs {}",
                    a.weighted,
                    o.weighted
                );
            }
        }
    }

    #[test]
    fn fig3b_uses_microsecond_axis() {
        let r = fig3b(&tiny().with_utilization_grid(vec![0.4]));
        assert_eq!(
            r.series[0].points.iter().map(|p| p.x).collect::<Vec<_>>(),
            vec![2.0, 4.0, 6.0, 8.0, 10.0]
        );
    }

    #[test]
    fn fig3d_has_six_slot_values() {
        let r = fig3d(&tiny().with_utilization_grid(vec![0.4]));
        assert_eq!(r.series.len(), 6);
        for s in &r.series {
            assert_eq!(s.points.len(), 6);
        }
        // FP does not depend on s: its curve is flat.
        let fp = &r.series[0];
        for p in &fp.points[1..] {
            assert!((p.weighted - fp.points[0].weighted).abs() < 1e-12);
        }
    }
}
