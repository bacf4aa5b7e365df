//! Reproduces the paper's Fig. 1 walkthrough (§IV), printing each number
//! next to the equation it comes from.
//!
//! ```text
//! cargo run --release --example fig1_worked_example
//! ```

use cpa::analysis::bao::PriorityBand;
use cpa::analysis::spec;
use cpa::analysis::{AnalysisConfig, AnalysisContext, BusPolicy, PersistenceMode};
use cpa::model::{CacheBlockSet, CoreId, Platform, Priority, Task, TaskSet, Time};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::builder()
        .cores(2)
        .memory_latency(Time::from_cycles(1))
        .build()?;
    // Fig. 1 caption: PD1 = PD3 = 4, PD2 = 32, MD1 = MD3 = 6, MD2 = 8,
    // MD1^r = MD3^r = 1, ECB1 = ECB3 = {5..10}, ECB2 = {1..6},
    // PCB1 = PCB3 = {5,6,7,8,10}, UCB2 = {5,6}.
    let tau1 = Task::builder("tau1")
        .processing_demand(Time::from_cycles(4))
        .memory_demand(6)
        .residual_memory_demand(1)
        .period(Time::from_cycles(20))
        .deadline(Time::from_cycles(20))
        .core(CoreId::new(0))
        .priority(Priority::new(1))
        .ecb(CacheBlockSet::from_blocks(256, 5..=10)?)
        .pcb(CacheBlockSet::from_blocks(256, [5, 6, 7, 8, 10])?)
        .build()?;
    let tau2 = Task::builder("tau2")
        .processing_demand(Time::from_cycles(32))
        .memory_demand(8)
        .period(Time::from_cycles(200))
        .deadline(Time::from_cycles(200))
        .core(CoreId::new(0))
        .priority(Priority::new(2))
        .ecb(CacheBlockSet::from_blocks(256, 1..=6)?)
        .ucb(CacheBlockSet::from_blocks(256, [5, 6])?)
        .build()?;
    let tau3 = Task::builder("tau3")
        .processing_demand(Time::from_cycles(4))
        .memory_demand(6)
        .residual_memory_demand(1)
        .period(Time::from_cycles(16))
        .deadline(Time::from_cycles(16))
        .core(CoreId::new(1))
        .priority(Priority::new(3))
        .ecb(CacheBlockSet::from_blocks(256, 5..=10)?)
        .pcb(CacheBlockSet::from_blocks(256, [5, 6, 7, 8, 10])?)
        .build()?;
    let tasks = TaskSet::new(vec![tau1, tau2, tau3])?;
    let ctx = AnalysisContext::new(&platform, &tasks)?;

    let t1 = tasks.id_of("tau1").unwrap();
    let t2 = tasks.id_of("tau2").unwrap();
    let t3 = tasks.id_of("tau3").unwrap();

    // The window the example reasons over, and the literal equations
    // evaluated there by the spec oracle.
    let window = Time::from_cycles(60);
    let bas = |mode| spec::bas(&ctx, t2, window, mode);
    let bao = |mode, resp: &[Time]| {
        spec::bao(
            &ctx,
            t3,
            CoreId::new(1),
            window,
            resp,
            mode,
            PriorityBand::HigherOrEqual,
        )
    };
    let bat = |resp: &[Time], cfg: &AnalysisConfig| spec::bat(&ctx, t2, window, resp, cfg);

    println!("Fig. 1 — execution of τ1, τ2 on core π_x and τ3 on core π_y");
    println!("(window of length 60 ⇒ 3 jobs of τ1, 4 full jobs of τ3)\n");

    let mut resp = vec![Time::ZERO; 3];
    resp[t3.index()] = Time::from_cycles(10);

    println!(
        "Eq. (2)   γ_2,1,x  = |UCB_2 ∩ ECB_1|           = {}",
        ctx.gamma(t2, t1)
    );
    println!(
        "Eq. (10)  M̂D_1(3) = min(3·6, 3·1 + |PCB_1|)   = {}",
        spec::md_hat(&tasks[t1], 3).expect("fits u64")
    );
    println!(
        "Eq. (14)  ρ̂_1,2,x(3) = 2·|PCB_1 ∩ ECB_2|      = {}",
        ctx.cpro(t1, t2, 3)
    );
    println!();
    println!(
        "Eq. (12)  BAS_2^x  (oblivious)                 = {}",
        bas(PersistenceMode::Oblivious)?
    );
    println!(
        "Eq. (15)  BÂS_2^x  (persistence-aware)         = {}",
        bas(PersistenceMode::Aware)?
    );
    println!(
        "Eq. (13)  BAO_3^y  (oblivious)                 = {}",
        bao(PersistenceMode::Oblivious, &resp)?
    );
    println!(
        "          BÂO_3^y  (persistence-aware)         = {}",
        bao(PersistenceMode::Aware, &resp)?
    );
    println!();

    let oblivious = AnalysisConfig::new(
        BusPolicy::RoundRobin { slots: 1 },
        PersistenceMode::Oblivious,
    );
    let aware = AnalysisConfig::new(BusPolicy::RoundRobin { slots: 1 }, PersistenceMode::Aware);
    println!(
        "Eq. (11)  BAT_2^x RR(s=1) oblivious            = {}",
        bat(&resp, &oblivious)?
    );
    println!(
        "          BAT_2^x RR(s=1) persistence-aware    = {}",
        bat(&resp, &aware)?
    );
    println!();
    println!(
        "The persistence-aware analysis accounts for {} fewer bus",
        bat(&resp, &oblivious)? - bat(&resp, &aware)?
    );
    println!("accesses in τ2's response window — the paper's Fig. 1 gap.");

    // And the full WCRT (Eq. (19)) under both modes.
    println!("\nEq. (19) worst-case response times (RR, s = 1):");
    for (label, cfg) in [("oblivious", oblivious), ("aware", aware)] {
        let result = cpa::analysis::analyze(&ctx, &cfg);
        print!("  {label:<10}");
        for i in tasks.ids() {
            match result.response_time(i) {
                Some(r) => print!(" {}={}", tasks[i].name(), r),
                None => print!(" {}=unbounded", tasks[i].name()),
            }
        }
        println!();
    }
    Ok(())
}
