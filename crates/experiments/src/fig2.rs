//! Fig. 2: schedulable task sets vs per-core utilization, per bus policy.
//!
//! For each of the FP, RR and TDMA buses the paper plots, over a per-core
//! utilization sweep from 0.05 to 1.0, the number of task sets (out of
//! 1000) deemed schedulable by the persistence-aware analysis, its
//! persistence-oblivious counterpart, and the "perfect bus" reference line
//! (no bus interference as long as total bus utilization ≤ 1).

use cpa_analysis::{AnalysisConfig, BusPolicy, CrpdApproach, PersistenceMode};
use cpa_workload::GeneratorConfig;

use crate::runner::{
    sweep_utilization, CurvePoint, Evaluation, ExperimentResult, Series, SweepOptions,
};

/// The three panels of Fig. 2 in paper order (a: FP, b: RR, c: TDMA),
/// over one shared population: every panel sees the same task sets at a
/// utilization point, exactly as one generated population evaluated
/// under each policy, so each set is generated once and the perfect-bus
/// line is solved once for all panels.
#[must_use]
pub fn fig2(opts: &SweepOptions) -> Vec<ExperimentResult> {
    let panels = [
        ("fig2a", "FP bus", BusPolicy::FixedPriority),
        (
            "fig2b",
            "RR bus",
            BusPolicy::RoundRobin { slots: opts.slots },
        ),
        ("fig2c", "TDMA bus", BusPolicy::Tdma { slots: opts.slots }),
    ];
    let base = GeneratorConfig::paper_default();
    let evaluations: Vec<Evaluation> = panels
        .iter()
        .map(|&(_, _, bus)| {
            let configs = vec![
                AnalysisConfig::new(bus, PersistenceMode::Aware),
                AnalysisConfig::new(bus, PersistenceMode::Oblivious),
                AnalysisConfig::new(BusPolicy::Perfect, PersistenceMode::Aware),
            ];
            Evaluation::new(base.d_mem, CrpdApproach::EcbUnion, configs)
        })
        .collect();
    let mut series: Vec<Vec<Series>> = panels
        .iter()
        .map(|&(_, name, _)| {
            [
                format!("{name} persistence-aware"),
                format!("{name} oblivious"),
                "perfect bus".to_string(),
            ]
            .into_iter()
            .map(|label| Series {
                label,
                points: Vec::with_capacity(opts.utilization_grid.len()),
            })
            .collect()
        })
        .collect();

    sweep_utilization(opts, &base, &evaluations, |utilization, stats| {
        for (panel, panel_stats) in series.iter_mut().zip(stats) {
            for (si, s) in panel.iter_mut().enumerate() {
                let acc = panel_stats.config(si);
                s.points.push(CurvePoint {
                    x: utilization,
                    schedulable: acc.schedulable_count(),
                    total: acc.samples(),
                    weighted: acc.value(),
                });
            }
        }
    });

    panels
        .iter()
        .zip(series)
        .map(|(&(id, name, _), series)| ExperimentResult {
            id: id.to_string(),
            title: format!("Fig. 2 — schedulable task sets vs core utilization ({name})"),
            x_label: "per-core utilization".to_string(),
            y_label: "schedulable task sets".to_string(),
            series,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepOptions {
        SweepOptions::quick()
            .with_sets_per_point(8)
            .with_utilization_grid(vec![0.2, 0.6])
    }

    #[test]
    fn produces_three_panels_with_three_series() {
        let results = fig2(&tiny());
        assert_eq!(results.len(), 3);
        for r in &results {
            assert_eq!(r.series.len(), 3);
            for s in &r.series {
                assert_eq!(s.points.len(), 2);
                for p in &s.points {
                    assert_eq!(p.total, 8);
                    assert!(p.schedulable <= p.total);
                }
            }
        }
    }

    #[test]
    fn aware_dominates_oblivious_pointwise() {
        let results = fig2(&tiny());
        for r in &results {
            let aware = &r.series[0];
            let oblivious = &r.series[1];
            for (a, o) in aware.points.iter().zip(&oblivious.points) {
                assert!(
                    a.schedulable >= o.schedulable,
                    "{}: {} < {} at U={}",
                    r.id,
                    a.schedulable,
                    o.schedulable,
                    a.x
                );
            }
        }
    }

    #[test]
    fn schedulability_declines_with_utilization() {
        let opts = SweepOptions::quick()
            .with_sets_per_point(10)
            .with_utilization_grid(vec![0.1, 0.9]);
        for r in fig2(&opts) {
            for s in &r.series {
                assert!(
                    s.points[0].schedulable >= s.points[1].schedulable,
                    "{} / {}",
                    r.id,
                    s.label
                );
            }
        }
    }
}
