//! Ablation studies over the analysis's internal design choices.
//!
//! The paper fixes two ingredients it inherits from prior work: the
//! **ECB-union CRPD** bound (Eq. (2)) and the **CPRO-union** persistence
//! reload bound (Eq. (14)). The ablations here quantify how much those
//! choices matter on the paper's own workload:
//!
//! * [`crpd_ablation`] — schedulability under the three CRPD bounds of
//!   [`cpa_analysis::CrpdApproach`] (ECB-union vs UCB-union vs the
//!   victim-blind ECB-only baseline), for a fixed bus policy;
//! * [`persistence_gain`] — the per-policy schedulability *gain* of
//!   persistence awareness (aware − oblivious), the quantity behind the
//!   paper's "up to 70 percentage points" headline.

use cpa_analysis::{AnalysisConfig, BusPolicy, CrpdApproach, PersistenceMode};
use cpa_workload::GeneratorConfig;

use crate::runner::{
    sweep_utilization, CurvePoint, Evaluation, ExperimentResult, Series, SweepOptions,
};

/// Schedulable task sets vs utilization under each CRPD approach
/// (persistence-aware FP bus; the ordering among approaches is
/// workload-dependent, which is exactly what the ablation shows). Every
/// approach sees the same population, generated once per point.
#[must_use]
pub fn crpd_ablation(opts: &SweepOptions) -> ExperimentResult {
    let approaches = [
        CrpdApproach::EcbUnion,
        CrpdApproach::UcbUnion,
        CrpdApproach::EcbOnly,
    ];
    let base = GeneratorConfig::paper_default();
    let evaluations: Vec<Evaluation> = approaches
        .iter()
        .map(|&approach| {
            let configs = vec![AnalysisConfig::new(
                BusPolicy::FixedPriority,
                PersistenceMode::Aware,
            )];
            Evaluation::new(base.d_mem, approach, configs)
        })
        .collect();
    let mut series: Vec<Series> = approaches
        .iter()
        .map(|a| Series {
            label: format!("FP aware / {}", a.label()),
            points: Vec::with_capacity(opts.utilization_grid.len()),
        })
        .collect();
    sweep_utilization(opts, &base, &evaluations, |utilization, stats| {
        for (s, point_stats) in series.iter_mut().zip(stats) {
            let acc = point_stats.config(0);
            s.points.push(CurvePoint {
                x: utilization,
                schedulable: acc.schedulable_count(),
                total: acc.samples(),
                weighted: acc.value(),
            });
        }
    });
    ExperimentResult {
        id: "ablation_crpd".to_string(),
        title: "Ablation — CRPD approach (FP bus, persistence-aware)".to_string(),
        x_label: "per-core utilization".to_string(),
        y_label: "schedulable task sets".to_string(),
        series,
    }
}

/// The persistence *gain* per bus policy: schedulable-set difference
/// between the aware analysis and its oblivious counterpart, per
/// utilization point. The curve's maximum is the paper's headline number.
/// Every bus sees the same population, generated once per point.
#[must_use]
pub fn persistence_gain(opts: &SweepOptions) -> ExperimentResult {
    let buses: Vec<(&str, BusPolicy)> = ["FP", "RR", "TDMA"]
        .into_iter()
        .zip(BusPolicy::paper_buses(opts.slots))
        .collect();
    let base = GeneratorConfig::paper_default();
    let evaluations: Vec<Evaluation> = buses
        .iter()
        .map(|&(_, bus)| {
            let configs = vec![
                AnalysisConfig::new(bus, PersistenceMode::Aware),
                AnalysisConfig::new(bus, PersistenceMode::Oblivious),
            ];
            Evaluation::new(base.d_mem, CrpdApproach::EcbUnion, configs)
        })
        .collect();
    let mut series: Vec<Series> = buses
        .iter()
        .map(|(name, _)| Series {
            label: format!("{name} gain (aware − oblivious)"),
            points: Vec::with_capacity(opts.utilization_grid.len()),
        })
        .collect();
    sweep_utilization(opts, &base, &evaluations, |utilization, stats| {
        for (s, point_stats) in series.iter_mut().zip(stats) {
            let aware = point_stats.config(0).schedulable_count();
            let oblivious = point_stats.config(1).schedulable_count();
            let total = point_stats.config(0).samples();
            s.points.push(CurvePoint {
                x: utilization,
                schedulable: aware - oblivious, // dominance guarantees ≥ 0
                total,
                weighted: if total == 0 {
                    0.0
                } else {
                    (aware - oblivious) as f64 / total as f64
                },
            });
        }
    });
    ExperimentResult {
        id: "ablation_gain".to_string(),
        title: "Persistence gain per bus policy (percentage points of task sets)".to_string(),
        x_label: "per-core utilization".to_string(),
        y_label: "schedulable task sets".to_string(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepOptions {
        SweepOptions::quick()
            .with_sets_per_point(6)
            .with_utilization_grid(vec![0.2, 0.35])
    }

    #[test]
    fn crpd_ablation_shapes() {
        let r = crpd_ablation(&tiny());
        assert_eq!(r.series.len(), 3);
        for s in &r.series {
            assert_eq!(s.points.len(), 2);
            for p in &s.points {
                assert_eq!(p.total, 6);
                assert!(p.schedulable <= p.total);
            }
        }
        // (No cross-approach dominance assertion: the CRPD bounds are
        // pairwise incomparable; the experiment exists to measure them.)
    }

    #[test]
    fn gain_is_nonnegative_and_bounded() {
        let r = persistence_gain(&tiny());
        assert_eq!(r.series.len(), 3);
        for s in &r.series {
            for p in &s.points {
                assert!(p.schedulable <= p.total);
                assert!((0.0..=1.0).contains(&p.weighted));
            }
        }
    }
}
