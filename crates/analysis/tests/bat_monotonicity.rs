//! Property pin: `BAT_i^x(t)` (Eq. (7)/(8)/(9), the literal
//! [`spec::bat`] with the exact carry-out) is monotone non-decreasing
//! in the window length `t` *and* in every individual remote response-time
//! estimate, for each arbitration policy and persistence mode.
//!
//! Both monotonicities are load-bearing: monotonicity in `t` makes the
//! inner fixed point of Eq. (19) well-defined, and monotonicity in each
//! `resp` entry makes the outer loop sound — estimates only ever grow, so
//! a bound computed against stale smaller estimates is never an
//! over-commitment.

use cpa_analysis::bao::CarryOut;
use cpa_analysis::{spec, AnalysisConfig, AnalysisContext, BusPolicy, PersistenceMode};
use cpa_model::{CacheBlockSet, CoreId, Platform, Priority, Task, TaskId, TaskSet, Time};
use proptest::prelude::*;

/// A Fig. 1-flavoured fixture: two tasks on core 0, two on core 1, with
/// persistent cache blocks so the aware bounds differ from the oblivious
/// ones.
fn fixture() -> (Platform, TaskSet) {
    let platform = Platform::builder()
        .cores(2)
        .memory_latency(Time::from_cycles(2))
        .build()
        .unwrap();
    let task = |name: &str, prio: u32, core: usize, md: u64, md_r: u64, period: u64| {
        Task::builder(name)
            .processing_demand(Time::from_cycles(period / 10))
            .memory_demand(md)
            .residual_memory_demand(md_r)
            .period(Time::from_cycles(period))
            .deadline(Time::from_cycles(period))
            .core(CoreId::new(core))
            .priority(Priority::new(prio))
            .ecb(CacheBlockSet::contiguous(256, (prio as usize) * 16, 12))
            .pcb(CacheBlockSet::contiguous(256, (prio as usize) * 16, 9))
            .build()
            .unwrap()
    };
    let tasks = TaskSet::new(vec![
        task("a", 1, 0, 6, 1, 20),
        task("b", 2, 1, 6, 1, 15),
        task("c", 3, 0, 8, 2, 200),
        task("d", 4, 1, 8, 2, 120),
    ])
    .unwrap();
    (platform, tasks)
}

fn bat(ctx: &AnalysisContext<'_>, i: TaskId, t: Time, resp: &[Time], cfg: &AnalysisConfig) -> u64 {
    spec::bat(ctx, i, t, resp, cfg, CarryOut::Exact).expect("no overflow")
}

fn policies() -> [BusPolicy; 3] {
    [
        BusPolicy::FixedPriority,
        BusPolicy::RoundRobin { slots: 2 },
        BusPolicy::Tdma { slots: 2 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `t ≤ t'` with identical estimates implies `BAT(t) ≤ BAT(t')`.
    #[test]
    fn bat_is_monotone_in_the_window(
        a in 0u64..5_000,
        b in 0u64..5_000,
        r in 1u64..2_000,
    ) {
        let (t_lo, t_hi) = (a.min(b), a.max(b));
        let (platform, tasks) = fixture();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let resp = vec![Time::from_cycles(r); tasks.len()];
        for bus_policy in policies() {
            for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                let config = AnalysisConfig::new(bus_policy, mode);
                for i in tasks.ids() {
                    let lo = bat(&ctx, i, Time::from_cycles(t_lo), &resp, &config);
                    let hi = bat(&ctx, i, Time::from_cycles(t_hi), &resp, &config);
                    prop_assert!(
                        lo <= hi,
                        "{bus_policy:?} {mode:?} {i}: BAT({t_lo})={lo} > BAT({t_hi})={hi}"
                    );
                }
            }
        }
    }

    /// Growing any *single* response-time estimate never decreases BAT
    /// (the other entries held fixed) — per-entry monotonicity, not just
    /// monotonicity in the pointwise-ordered vector.
    #[test]
    fn bat_is_monotone_in_each_response_estimate(
        t in 0u64..5_000,
        base in 1u64..1_500,
        bump in 0u64..3_000,
        victim in 0usize..4,
    ) {
        let (platform, tasks) = fixture();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let t = Time::from_cycles(t);
        let resp_lo = vec![Time::from_cycles(base); tasks.len()];
        let mut resp_hi = resp_lo.clone();
        resp_hi[victim] = Time::from_cycles(base + bump);
        for bus_policy in policies() {
            for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                let config = AnalysisConfig::new(bus_policy, mode);
                for i in tasks.ids() {
                    let lo = bat(&ctx, i, t, &resp_lo, &config);
                    let hi = bat(&ctx, i, t, &resp_hi, &config);
                    prop_assert!(
                        lo <= hi,
                        "{bus_policy:?} {mode:?} {i}: raising resp[{victim}] by {bump} \
                         dropped BAT from {lo} to {hi}"
                    );
                }
            }
        }
    }
}
