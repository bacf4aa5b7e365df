//! Property pin: [`AnalysisConfig::dominates`] is what the sweep runner
//! trusts when it records a dominated configuration schedulable without
//! solving it. Whenever `a.dominates(b)`:
//!
//! - the literal `BAT` of `a` is at least `b`'s at every window and
//!   estimate, so the right-hand side of Eq. (19) is too;
//! - `a` schedulable implies `b` schedulable with every `R_b ≤ R_a`.
//!
//! The table tests pin the relation itself over the configurations the
//! experiments use.

use cpa_analysis::{analyze, spec, AnalysisConfig, AnalysisContext, BusPolicy, PersistenceMode};
use cpa_model::{CacheGeometry, Platform, Time};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// FP, RR and TDMA at s = 1..6 and the perfect bus, each aware and
/// oblivious.
fn configs() -> Vec<AnalysisConfig> {
    let mut buses = vec![BusPolicy::FixedPriority, BusPolicy::Perfect];
    for slots in 1..=6 {
        buses.push(BusPolicy::RoundRobin { slots });
        buses.push(BusPolicy::Tdma { slots });
    }
    buses
        .into_iter()
        .flat_map(|bus| {
            [PersistenceMode::Aware, PersistenceMode::Oblivious]
                .map(|mode| AnalysisConfig::new(bus, mode))
        })
        .collect()
}

fn platform_for(config: &GeneratorConfig) -> Platform {
    Platform::builder()
        .cores(config.cores)
        .cache(CacheGeometry::direct_mapped(config.cache_sets, 32))
        .memory_latency(config.d_mem)
        .build()
        .expect("valid platform")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn a_dominating_configuration_bounds_the_dominated_one(
        seed in any::<u64>(),
        cores in 2usize..9,
        util in 0.1f64..0.8,
    ) {
        let gen_cfg = GeneratorConfig {
            cores,
            tasks_per_core: 3,
            ..GeneratorConfig::paper_default()
        }
        .with_per_core_utilization(util);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tasks = TaskSetGenerator::new(gen_cfg.clone())
            .expect("generator")
            .generate(&mut rng)
            .expect("task set");
        let platform = platform_for(&gen_cfg);
        let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
        let horizon = tasks.iter().map(|t| t.period().cycles()).max().unwrap_or(1);
        let samples: Vec<(Time, Vec<Time>)> = (0..2)
            .map(|_| {
                let window = Time::from_cycles(rng.gen_range(0..=horizon));
                let resp = tasks
                    .iter()
                    .map(|t| Time::from_cycles(rng.gen_range(1..=t.deadline().cycles())))
                    .collect();
                (window, resp)
            })
            .collect();

        let configs = configs();
        let results: Vec<_> = configs.iter().map(|cfg| analyze(&ctx, cfg)).collect();
        // Per configuration: BAT at every (sample, task).
        let bats: Vec<Vec<u64>> = configs
            .iter()
            .map(|cfg| {
                let mut out = Vec::new();
                for (window, resp) in &samples {
                    for i in tasks.ids() {
                        out.push(spec::bat(&ctx, i, *window, resp, cfg).expect("no overflow"));
                    }
                }
                out
            })
            .collect();
        for ((a, result_a), bats_a) in configs.iter().zip(&results).zip(&bats) {
            for ((b, result_b), bats_b) in configs.iter().zip(&results).zip(&bats) {
                if !a.dominates(b) {
                    continue;
                }
                for (k, (bat_a, bat_b)) in bats_a.iter().zip(bats_b).enumerate() {
                    prop_assert!(
                        bat_a >= bat_b,
                        "{a:?} over {b:?}, sample {k} (window, task): \
                         BAT {bat_a} < {bat_b}"
                    );
                }
                if result_a.is_schedulable() {
                    prop_assert!(
                        result_b.is_schedulable(),
                        "{a:?} schedulable but the dominated {b:?} not"
                    );
                    for i in tasks.ids() {
                        prop_assert!(
                            result_b.response_time(i) <= result_a.response_time(i),
                            "{a:?} over {b:?}, {i}: R {:?} > {:?}",
                            result_b.response_time(i),
                            result_a.response_time(i)
                        );
                    }
                }
            }
        }
    }
}

fn cfg(bus: BusPolicy, mode: PersistenceMode) -> AnalysisConfig {
    AnalysisConfig::new(bus, mode)
}

#[test]
fn the_relation_is_reflexive_and_transitive() {
    let configs = configs();
    for a in &configs {
        assert!(a.dominates(a), "{a:?}");
        for b in &configs {
            if a != b && a.dominates(b) {
                assert!(!b.dominates(a), "{a:?} and {b:?} dominate each other");
            }
            for c in &configs {
                if a.dominates(b) && b.dominates(c) {
                    assert!(a.dominates(c), "{a:?} > {b:?} > {c:?}");
                }
            }
        }
    }
}

#[test]
fn unrelated_buses_stay_unrelated() {
    use BusPolicy::{FixedPriority, Perfect, RoundRobin, Tdma};
    use PersistenceMode::{Aware, Oblivious};
    for other in configs() {
        let fp = cfg(FixedPriority, Oblivious);
        let perfect = cfg(Perfect, Oblivious);
        // FP and the slotted buses never relate, either way.
        if other.bus != FixedPriority {
            assert!(!fp.dominates(&other) && !other.dominates(&fp), "{other:?}");
        }
        // The perfect bus relates only to the perfect bus.
        if other.bus != Perfect {
            assert!(
                !perfect.dominates(&other) && !other.dominates(&perfect),
                "{other:?}"
            );
        }
        // RR never dominates TDMA, at any slot counts.
        if let (RoundRobin { .. }, mode) = (other.bus, other.persistence) {
            for slots in 1..=6 {
                assert!(!other.dominates(&cfg(Tdma { slots }, mode)), "{other:?}");
            }
        }
    }
    // The orderings that do hold: more slots, TDMA over RR, oblivious over
    // aware, and only at an equal outer cap.
    assert!(cfg(Tdma { slots: 3 }, Oblivious).dominates(&cfg(RoundRobin { slots: 2 }, Aware)));
    assert!(cfg(RoundRobin { slots: 3 }, Aware).dominates(&cfg(RoundRobin { slots: 1 }, Aware)));
    assert!(!cfg(Tdma { slots: 1 }, Aware).dominates(&cfg(RoundRobin { slots: 2 }, Aware)));
    assert!(!cfg(Tdma { slots: 2 }, Aware).dominates(&cfg(Tdma { slots: 2 }, Oblivious)));
    assert!(cfg(Perfect, Oblivious).dominates(&cfg(Perfect, Aware)));
    let capped = AnalysisConfig {
        max_outer_iterations: 10,
        ..cfg(FixedPriority, Aware)
    };
    assert!(!capped.dominates(&cfg(FixedPriority, Aware)));
    assert!(!cfg(FixedPriority, Aware).dominates(&capped));
}
