//! Saturation pin: near `u64::MAX` the engine's saturating arithmetic
//! must never shrink a bound. Wherever the literal spec
//! ([`spec::analyze`]) returns a result, the engine's is bitwise equal;
//! wherever the spec overflows `u64`, the engine reports unschedulable.
//!
//! The spec only overflows on a value that reaches the bound, so inputs
//! whose intermediate values (`t + R_l` in Eq. (5)/(6), RR's `s · BAS`,
//! FP's lower-band sum) leave `u64` while the bound stays inside it must
//! come out exact — the case `BAO` used to undercount.

use cpa_analysis::{
    analyze, analyze_with, spec, verdict_with, AnalysisConfig, AnalysisContext, AnalysisResult,
    AnalysisScratch, BusPolicy, PersistenceMode,
};
use cpa_model::{CacheBlockSet, CoreId, Platform, Priority, Task, TaskSet, Time};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const MODES: [PersistenceMode; 2] = [PersistenceMode::Aware, PersistenceMode::Oblivious];

fn platform(cores: usize, d_mem: u64) -> Platform {
    Platform::builder()
        .cores(cores)
        .memory_latency(Time::from_cycles(d_mem))
        .build()
        .expect("valid platform")
}

/// A task with empty 256-set footprints and `MD^r = MD`.
fn plain(name: &str, prio: u32, core: usize, pd: u64, md: u64, period: u64, deadline: u64) -> Task {
    Task::builder(name)
        .processing_demand(Time::from_cycles(pd))
        .memory_demand(md)
        .residual_memory_demand(md)
        .period(Time::from_cycles(period))
        .deadline(Time::from_cycles(deadline))
        .core(CoreId::new(core))
        .priority(Priority::new(prio))
        .cache_sets(256)
        .build()
        .expect("valid task")
}

/// Spec `Ok` ⇒ the engine's result is the same, bit for bit; spec
/// `Overflow` ⇒ the engine reports unschedulable. Checked with a fresh
/// and with a reused scratch, and [`verdict_with`]'s certificate at the
/// deadlines gives the engine's verdict.
fn check(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    scratch: &mut AnalysisScratch,
) -> Result<(), String> {
    let engines = [analyze(ctx, config), analyze_with(ctx, config, scratch)];
    let verdict = verdict_with(ctx, config, scratch);
    if verdict != engines[0].is_schedulable() {
        return Err(format!(
            "verdict_with {verdict}, analyze_with {:?}",
            engines[0].response_times()
        ));
    }
    let reference = spec::analyze(ctx, config);
    for engine in &engines {
        match &reference {
            Ok(reference) => same(engine, reference)?,
            Err(_) if engine.is_schedulable() => {
                return Err(format!(
                    "spec overflowed, engine schedulable: {:?}",
                    engine.response_times()
                ))
            }
            Err(_) => {}
        }
    }
    Ok(())
}

fn same(engine: &AnalysisResult, reference: &AnalysisResult) -> Result<(), String> {
    let pairs = [
        (
            format!("{:?}", engine.response_times()),
            format!("{:?}", reference.response_times()),
        ),
        (
            engine.is_schedulable().to_string(),
            reference.is_schedulable().to_string(),
        ),
        (
            engine.outer_iterations().to_string(),
            reference.outer_iterations().to_string(),
        ),
        (
            engine.hit_outer_iteration_cap().to_string(),
            reference.hit_outer_iteration_cap().to_string(),
        ),
    ];
    match pairs.iter().find(|(e, r)| e != r) {
        Some((e, r)) => Err(format!("engine {e} != spec {r}")),
        None => Ok(()),
    }
}

/// τ1's carry-in `t + R_1` runs past `u64`. Eq. (5) exactly gives a
/// carry-out of `t + 63 ≥ MD_0` accesses, so `R_0 ≥ PD_0 + 2 · MD_0 =
/// 423 618 348 784 > D_0`. Saturating `t + R_1` first charged 475 accesses
/// and bounded τ0 at 271 771 522 568, inside its deadline.
#[test]
fn saturated_carry_in_no_longer_hides_a_deadline_miss() {
    let platform = platform(2, 1);
    let tasks = TaskSet::new(vec![
        plain(
            "tau0",
            0,
            0,
            119_924_695_402,
            151_846_826_691,
            563_794_605_468,
            410_563_670_668,
        ),
        plain(
            "tau1",
            1,
            1,
            63,
            18_446_744_073_709_551_140,
            576_460_752_303_423_488,
            397_241_392_538_616_939,
        ),
    ])
    .unwrap();
    let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
    let tau0 = tasks.id_of("tau0").unwrap();
    for mode in MODES {
        let config = AnalysisConfig::new(BusPolicy::FixedPriority, mode);
        let engine = analyze(&ctx, &config);
        assert!(!engine.is_schedulable(), "{mode:?}");
        assert_eq!(engine.response_time(tau0), None, "{mode:?}: τ0 misses");
        let reference = spec::analyze(&ctx, &config).expect("no bound leaves u64");
        assert_eq!(reference.response_time(tau0), None, "{mode:?}");
        check(&ctx, &config, &mut AnalysisScratch::new()).unwrap();
    }
}

/// A bound that saturates at `u64::MAX` does not meet a deadline of
/// `u64::MAX`: the low task's exact response time is `2^64`.
#[test]
fn a_saturated_bound_misses_even_the_largest_deadline() {
    let platform = platform(1, 1);
    let half = 1u64 << 63;
    let tasks = TaskSet::new(vec![
        plain("hi", 0, 0, half, 0, u64::MAX, u64::MAX),
        plain("lo", 1, 0, half, 0, u64::MAX, u64::MAX),
    ])
    .unwrap();
    let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
    for bus in [BusPolicy::FixedPriority, BusPolicy::Perfect] {
        for mode in MODES {
            let config = AnalysisConfig::new(bus, mode);
            assert!(!analyze(&ctx, &config).is_schedulable(), "{bus:?} {mode:?}");
            let verdict = verdict_with(&ctx, &config, &mut AnalysisScratch::new());
            assert!(!verdict, "{bus:?} {mode:?}: certified past u64::MAX − 1");
            assert!(spec::analyze(&ctx, &config).is_err(), "{bus:?} {mode:?}");
        }
    }
}

/// Deadlines and periods near `u64::MAX`: the certificate evaluates each
/// right-hand side at `D_i` capped to `u64::MAX − 1`, with remote
/// carry-in windows `t + R_l` far past `u64`, and certifies exactly what
/// the solve and the spec find schedulable.
#[test]
fn the_certificate_holds_at_deadlines_near_u64_max() {
    let platform = platform(2, 1);
    let max = u64::MAX;
    let tasks = TaskSet::new(vec![
        plain("hi", 0, 0, 1 << 62, 1 << 40, max, max),
        plain("mid", 1, 1, 1 << 61, 1 << 40, max - 1, max - 7),
        plain("lo", 2, 0, 1 << 62, 1 << 40, max, max - 1),
    ])
    .unwrap();
    let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
    for bus in [
        BusPolicy::FixedPriority,
        BusPolicy::RoundRobin { slots: 2 },
        BusPolicy::Tdma { slots: 2 },
        BusPolicy::Perfect,
    ] {
        for mode in MODES {
            let config = AnalysisConfig::new(bus, mode);
            let mut scratch = AnalysisScratch::new();
            assert!(
                verdict_with(&ctx, &config, &mut scratch),
                "{bus:?} {mode:?}"
            );
            assert_eq!(
                scratch.reuses(),
                0,
                "{bus:?} {mode:?}: certified, not solved"
            );
            let reference = spec::analyze(&ctx, &config).expect("no bound leaves u64");
            assert!(reference.is_schedulable(), "{bus:?} {mode:?}");
            check(&ctx, &config, &mut scratch).unwrap();
        }
    }
}

/// A magnitude from one of a few bands: small, mid-range, a power of
/// two's neighbourhood, or within `2^k` of `u64::MAX`.
fn magnitude(rng: &mut ChaCha8Rng) -> u64 {
    let shift = rng.gen_range(0..62u32);
    match rng.gen_range(0..5u8) {
        0 => rng.gen_range(0..1_000),
        1 => rng.gen_range(1 << 20..1 << 40),
        2 => (1u64 << (shift + 2)).wrapping_add(rng.gen_range(0..1_000)),
        _ => u64::MAX - rng.gen_range(0..1u64 << shift),
    }
}

/// A random footprint in the first 32 sets of the 256-set cache.
fn blocks(rng: &mut ChaCha8Rng) -> CacheBlockSet {
    let start = rng.gen_range(0..32);
    CacheBlockSet::contiguous(256, start, rng.gen_range(0..32 - start))
}

/// 1–3 cores, 1–5 tasks with periods, demands and latency drawn near
/// `u64::MAX` as often as not, and overlapping footprints so CRPD and
/// CPRO take part.
fn generated(seed: u64) -> (Platform, TaskSet) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let cores = rng.gen_range(1..4usize);
    let d_mem: u64 = [1, 2, 1 << 20][rng.gen_range(0..3usize)];
    let count = rng.gen_range(1..6u32);
    let tasks = (0..count)
        .map(|prio| {
            let period = magnitude(&mut rng).max(1);
            let deadline = match rng.gen_range(0..3u8) {
                0 => period,
                _ => rng.gen_range(1..=period),
            };
            let md = magnitude(&mut rng);
            let md_r = match rng.gen_range(0..3u8) {
                0 => md,
                1 => 0,
                _ => rng.gen_range(0..=md),
            };
            let ecb = blocks(&mut rng);
            let inner = |rng: &mut ChaCha8Rng| {
                let kept = ecb.iter().filter(|_| rng.gen_bool(0.5)).collect::<Vec<_>>();
                CacheBlockSet::from_blocks(256, kept).expect("blocks inside the cache")
            };
            let (ucb, pcb) = (inner(&mut rng), inner(&mut rng));
            Task::builder(format!("t{prio}"))
                .processing_demand(Time::from_cycles(magnitude(&mut rng)))
                .memory_demand(md)
                .residual_memory_demand(md_r)
                .period(Time::from_cycles(period))
                .deadline(Time::from_cycles(deadline))
                .core(CoreId::new(rng.gen_range(0..cores)))
                .priority(Priority::new(prio))
                .ecb(ecb)
                .ucb(ucb)
                .pcb(pcb)
                .build()
                .expect("valid task")
        })
        .collect();
    (
        platform(cores, d_mem),
        TaskSet::new(tasks).expect("distinct priorities"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn engine_matches_spec_or_misses_near_u64_max(seed in any::<u64>()) {
        let (platform, tasks) = generated(seed);
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let mut scratch = AnalysisScratch::new();
        for bus in [
            BusPolicy::FixedPriority,
            BusPolicy::RoundRobin { slots: 2 },
            BusPolicy::Tdma { slots: 2 },
            BusPolicy::Perfect,
        ] {
            for mode in MODES {
                let config = AnalysisConfig::new(bus, mode);
                if let Err(e) = check(&ctx, &config, &mut scratch) {
                    return Err(TestCaseError::fail(format!("{bus:?} {mode:?}: {e}")));
                }
            }
        }
    }
}
