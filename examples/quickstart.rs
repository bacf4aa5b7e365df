//! Quickstart: build a small multicore system and compare the
//! persistence-aware WCRT analysis against the oblivious baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cpa::analysis::{
    analyze, decompose, AnalysisConfig, AnalysisContext, BusPolicy, PersistenceMode,
};
use cpa::model::{CacheBlockSet, CoreId, Platform, Priority, Task, TaskSet, Time};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2-core platform: 256-set direct-mapped I-caches, d_mem = 5.
    let platform = Platform::builder()
        .cores(2)
        .memory_latency(Time::from_cycles(5))
        .build()?;

    // Four tasks, two per core. Each task is characterised by its
    // cache-hit execution time PD, its worst-case memory demand MD, the
    // residual demand MD^r once its persistent blocks are cached, and its
    // cache footprint (ECB ⊇ PCB, UCB).
    let mk = |name: &str,
              prio: u32,
              core: usize,
              pd: u64,
              md: u64,
              md_r: u64,
              period: u64,
              start: usize,
              ecb: usize,
              pcb: usize|
     -> Result<Task, cpa::model::ModelError> {
        let ecb_set = CacheBlockSet::contiguous(256, start, ecb);
        let pcb_set = CacheBlockSet::contiguous(256, start, pcb);
        Task::builder(name)
            .processing_demand(Time::from_cycles(pd))
            .memory_demand(md)
            .residual_memory_demand(md_r)
            .period(Time::from_cycles(period))
            .deadline(Time::from_cycles(period))
            .core(CoreId::new(core))
            .priority(Priority::new(prio))
            .ucb(pcb_set.clone())
            .ecb(ecb_set)
            .pcb(pcb_set)
            .build()
    };
    let tasks = TaskSet::new(vec![
        mk("sensor", 1, 0, 400, 120, 20, 8_000, 0, 40, 30)?,
        mk("filter", 2, 1, 900, 300, 40, 12_000, 60, 64, 50)?,
        mk("control", 3, 0, 1_500, 500, 90, 24_000, 20, 80, 56)?,
        mk("logger", 4, 1, 2_000, 700, 150, 40_000, 100, 96, 60)?,
    ])?;

    let ctx = AnalysisContext::new(&platform, &tasks)?;
    println!("{platform}");
    println!("{tasks}");

    for bus in [
        BusPolicy::FixedPriority,
        BusPolicy::RoundRobin { slots: 2 },
        BusPolicy::Tdma { slots: 2 },
    ] {
        let aware = analyze(&ctx, &AnalysisConfig::new(bus, PersistenceMode::Aware));
        let oblivious = analyze(&ctx, &AnalysisConfig::new(bus, PersistenceMode::Oblivious));
        println!("== {bus} bus ==");
        println!(
            "  schedulable: aware = {}, oblivious = {}",
            aware.is_schedulable(),
            oblivious.is_schedulable()
        );
        for i in tasks.ids() {
            let a = aware
                .response_time(i)
                .map_or("—".to_string(), |r| r.to_string());
            let o = oblivious
                .response_time(i)
                .map_or("—".to_string(), |r| r.to_string());
            println!(
                "  {:<8} D={:<9} WCRT aware {:<9} oblivious {}",
                tasks[i].name(),
                tasks[i].deadline().to_string(),
                a,
                o
            );
        }

        // Where does the lowest-priority task's bound come from?
        if aware.is_schedulable() {
            let resp: Vec<Time> = aware
                .response_times()
                .iter()
                .map(|r| r.expect("schedulable"))
                .collect();
            let lowest = tasks.lowest_priority_id();
            let cfg = AnalysisConfig::new(bus, PersistenceMode::Aware);
            let d = decompose(&ctx, &cfg, lowest, resp[lowest.index()], &resp);
            println!(
                "  {} bus accesses: BAS {} + BAO {} + CPRO {} + CRPD {} + blocking {} \
                 (dominant: {})",
                tasks[lowest].name(),
                d.bas_accesses,
                d.bao_accesses,
                d.cpro_accesses,
                d.crpd_accesses,
                d.blocking_accesses,
                d.dominant()
            );
        }
    }
    Ok(())
}
