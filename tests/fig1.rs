//! End-to-end reproduction of the paper's worked example (Fig. 1).
//!
//! Every number the paper prints in §IV is recomputed through the literal
//! equations of the public [`spec`] oracle: the CRPD `γ_{2,1,x} = 2`, the CPRO `ρ̂_{1,2,x}(3) = 4`, the
//! persistence-oblivious bounds `BAS_2^x = 32` (Eq. (12)) and
//! `BAO_3^y = 24` (Eq. (13)), and their persistence-aware counterparts
//! `26` (Eq. (15)) and `9`.

mod common;

use cpa::analysis::bao::PriorityBand;
use cpa::analysis::spec::{self, md_hat, n_jobs, releases};
use cpa::analysis::{AnalysisConfig, AnalysisContext, BusPolicy, PersistenceMode};
use cpa::model::{CoreId, Time};

#[test]
fn fig1_worked_example_numbers() {
    let (platform, tasks) = common::fig1_system();
    let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
    let t1 = tasks.id_of("tau1").unwrap();
    let t2 = tasks.id_of("tau2").unwrap();
    let t3 = tasks.id_of("tau3").unwrap();

    // A window with 3 releases of τ1, as in the example.
    let window = Time::from_cycles(60);
    assert_eq!(releases(window, tasks[t1].period()), 3);

    // γ_{2,1,x}: UCB_2 ∩ ECB_1 = {5, 6}.
    assert_eq!(ctx.gamma(t2, t1), 2);

    // M̂D_1(3) = min(3·6, 3·1 + 5) = 8 — "6 + 1 + 1 = 8" in the paper.
    assert_eq!(md_hat(&tasks[t1], 3), Ok(8));

    // ρ̂_{1,2,x}(3) = (3−1)·|PCB_1 ∩ ECB_2| = 2·2 = 4.
    assert_eq!(ctx.cpro(t1, t2, 3), 4);

    // Eq. (12): BAS_2^x = 8 + 3·(6+2) = 32.
    let bas = |mode| spec::bas(&ctx, t2, window, mode);
    assert_eq!(bas(PersistenceMode::Oblivious), Ok(32));
    // Eq. (15): BÂS_2^x = 8 + min(18, 8+4) + 3·2 = 26.
    assert_eq!(bas(PersistenceMode::Aware), Ok(26));

    // Eq. (13): BAO_3^y with N = 4 jobs of τ3 ⇒ 4·6 = 24.
    let y = CoreId::new(1);
    let mut resp = vec![Time::ZERO; 3];
    resp[t3.index()] = Time::from_cycles(10);
    assert_eq!(
        n_jobs(window, resp[t3.index()], 6, ctx.d_mem(), tasks[t3].period()),
        Ok(4)
    );
    let bao = |mode| {
        let hep = PriorityBand::HigherOrEqual;
        spec::bao(&ctx, t3, y, window, &resp, mode, hep)
    };
    assert_eq!(bao(PersistenceMode::Oblivious), Ok(24));
    // Persistence-aware: MD_3 + 3·MD_3^r = 9.
    assert_eq!(bao(PersistenceMode::Aware), Ok(9));

    // Eq. (11): RR bus with s = 1 for τ2 (no same-core lp task ⇒ no +1):
    // oblivious 32 + min(24, 32) = 56; aware 26 + min(9, 26) = 35.
    let oblivious = AnalysisConfig::new(
        BusPolicy::RoundRobin { slots: 1 },
        PersistenceMode::Oblivious,
    );
    let aware = AnalysisConfig::new(BusPolicy::RoundRobin { slots: 1 }, PersistenceMode::Aware);
    let bat = |cfg| spec::bat(&ctx, t2, window, &resp, cfg);
    assert_eq!(bat(&oblivious), Ok(56));
    assert_eq!(bat(&aware), Ok(35));
}

#[test]
fn fig1_wcrt_is_tighter_with_persistence() {
    let (platform, tasks) = common::fig1_system();
    let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
    let t2 = tasks.id_of("tau2").unwrap();
    for bus in [
        BusPolicy::FixedPriority,
        BusPolicy::RoundRobin { slots: 1 },
        BusPolicy::Tdma { slots: 1 },
    ] {
        let aware = cpa::analysis::analyze(&ctx, &AnalysisConfig::new(bus, PersistenceMode::Aware));
        let oblivious =
            cpa::analysis::analyze(&ctx, &AnalysisConfig::new(bus, PersistenceMode::Oblivious));
        if let (Some(a), Some(o)) = (aware.response_time(t2), oblivious.response_time(t2)) {
            assert!(a <= o, "{bus:?}: {a} > {o}");
        } else {
            // If the oblivious analysis cannot bound τ2 the aware one may
            // still succeed — but never the other way round.
            assert!(
                aware.response_time(t2).is_some() || oblivious.response_time(t2).is_none(),
                "{bus:?}: aware lost a bound the oblivious analysis had"
            );
        }
    }
}
