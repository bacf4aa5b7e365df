//! Convergence diagnostics: decomposing a WCRT bound into the paper's
//! BAS / BAO / CPRO / CRPD terms and naming the dominant one.
//!
//! This module splits the *bus-access count* `BAT_i^x(t)` along the
//! paper's vocabulary, so a convergence report can answer "which term is
//! this task's bound made of":
//!
//! * **BAS** — the own core's pure memory demand (`MD_i` plus the demand of
//!   same-core higher-priority jobs, Eq. (1)/Lemma 1), *excluding* the CRPD
//!   and CPRO shares broken out below.
//! * **CRPD** — the cache-related preemption delay share `Σ E_j·γ_{i,j,x}`
//!   (Eq. (2)) charged inside BAS.
//! * **CPRO** — the cache persistence reload overhead share
//!   `ρ̂_{j,i,x}(E_j)` (Eq. (14)), charged inside Lemma 1's persistent
//!   branch when it wins the `min`.
//! * **BAO** — the cross-core charge after the policy-specific caps
//!   (Eq. (7)–(9)); reported as a whole, since the CRPD/CPRO shares inside
//!   it belong to the remote cores' own decompositions.
//! * **blocking** — the `+1` already-in-service access (Eq. (12) footnote).
//!
//! The analysis engine emits the decomposition itself — its own same-core
//! walk supplies the BAS/CRPD/CPRO shares and its own cross-core step the
//! BAO share — so the shares always reassemble the bound the engine
//! solved with.

use cpa_model::{TaskId, Time};

use crate::engine::{AnalysisEngine, AnalysisScratch};
use crate::{AnalysisConfig, AnalysisContext};

/// The term of Eq. (19) contributing the most bus accesses to a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DominantTerm {
    /// Same-core memory demand (Eq. (1)/Lemma 1, net of CRPD/CPRO).
    Bas,
    /// Cross-core interference after the policy caps (Eq. (7)–(9)).
    Bao,
    /// Cache persistence reload overhead (Eq. (14)).
    Cpro,
    /// Cache-related preemption delay (Eq. (2)).
    Crpd,
}

impl DominantTerm {
    /// Upper-case paper name (`"BAS"`, `"BAO"`, `"CPRO"`, `"CRPD"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DominantTerm::Bas => "BAS",
            DominantTerm::Bao => "BAO",
            DominantTerm::Cpro => "CPRO",
            DominantTerm::Crpd => "CRPD",
        }
    }
}

impl std::fmt::Display for DominantTerm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Bus-access decomposition of `BAT_i^x(window)` along the paper's terms.
///
/// The parts always reassemble exactly: [`TermDecomposition::total_accesses`]
/// equals `BAT_i^x(window)` ([`crate::spec::bat`], exact carry-out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermDecomposition {
    /// BAS share: own-core memory demand net of the CRPD/CPRO shares.
    pub bas_accesses: u64,
    /// BAO share: cross-core accesses after the policy-specific caps.
    pub bao_accesses: u64,
    /// CPRO share inside Lemma 1's persistent branch (aware mode only).
    pub cpro_accesses: u64,
    /// CRPD share `Σ E_j·γ_{i,j,x}` inside BAS.
    pub crpd_accesses: u64,
    /// The `+1` blocking access, when a same-core lower-priority task exists.
    pub blocking_accesses: u64,
}

impl TermDecomposition {
    /// Sum of every share — equals `BAT_i^x(window)`.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.bas_accesses
            .saturating_add(self.bao_accesses)
            .saturating_add(self.cpro_accesses)
            .saturating_add(self.crpd_accesses)
            .saturating_add(self.blocking_accesses)
    }

    /// The largest of the four named terms (blocking never dominates); ties
    /// resolve in the order BAS, BAO, CPRO, CRPD.
    #[must_use]
    pub fn dominant(&self) -> DominantTerm {
        let candidates = [
            (DominantTerm::Bas, self.bas_accesses),
            (DominantTerm::Bao, self.bao_accesses),
            (DominantTerm::Cpro, self.cpro_accesses),
            (DominantTerm::Crpd, self.crpd_accesses),
        ];
        let mut best = candidates[0];
        for c in &candidates[1..] {
            if c.1 > best.1 {
                best = *c;
            }
        }
        best.0
    }

    /// Share of `term` in the total access count, in `[0, 1]`.
    #[must_use]
    pub fn share(&self, term: DominantTerm) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            return 0.0;
        }
        let part = match term {
            DominantTerm::Bas => self.bas_accesses,
            DominantTerm::Bao => self.bao_accesses,
            DominantTerm::Cpro => self.cpro_accesses,
            DominantTerm::Crpd => self.crpd_accesses,
        };
        part as f64 / total as f64
    }
}

/// Decomposes `BAT_i^x(window)` (exact carry-out) into the paper's terms
/// at the response-time estimates `resp`, through the analysis engine.
///
/// Pass a converged [`crate::AnalysisResult`]'s response times as `resp`
/// and its WCRT as `window` to explain a fixed point.
#[must_use]
pub fn decompose(
    ctx: &AnalysisContext<'_>,
    config: &AnalysisConfig,
    i: TaskId,
    window: Time,
    resp: &[Time],
) -> TermDecomposition {
    let mut scratch = AnalysisScratch::new();
    AnalysisEngine::new(ctx, config, &mut scratch)
        .at_estimates(resp)
        .decompose(i, window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bao::CarryOut;
    use crate::{analyze, spec, BusPolicy, PersistenceMode};
    use cpa_model::{CacheBlockSet, CacheGeometry, CoreId, Platform, Priority, Task, TaskSet};
    use cpa_workload::{GeneratorConfig, TaskSetGenerator};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn system() -> (Platform, TaskSet) {
        let platform = Platform::builder()
            .cores(2)
            .memory_latency(Time::from_cycles(20))
            .build()
            .unwrap();
        let task = |name: &str, prio: u32, core: usize, pd: u64, md: u64, md_r: u64, per: u64| {
            Task::builder(name)
                .processing_demand(Time::from_cycles(pd))
                .memory_demand(md)
                .residual_memory_demand(md_r)
                .period(Time::from_cycles(per))
                .deadline(Time::from_cycles(per))
                .core(CoreId::new(core))
                .priority(Priority::new(prio))
                .ecb(CacheBlockSet::contiguous(256, (prio as usize) * 20, 24))
                .ucb(CacheBlockSet::contiguous(256, (prio as usize) * 20, 6))
                .pcb(CacheBlockSet::contiguous(256, (prio as usize) * 20, 16))
                .build()
                .unwrap()
        };
        let tasks = TaskSet::new(vec![
            task("a", 1, 0, 100, 20, 2, 4_000),
            task("b", 2, 1, 100, 20, 2, 4_000),
            task("c", 3, 0, 200, 20, 2, 8_000),
            task("d", 4, 1, 200, 20, 2, 8_000),
        ])
        .unwrap();
        (platform, tasks)
    }

    /// Paper-style generated sets: `cores` × `tasks_per_core` at `util`.
    fn generated(cores: usize, tasks_per_core: usize, util: f64, seed: u64) -> (Platform, TaskSet) {
        let config = GeneratorConfig {
            cores,
            tasks_per_core,
            ..GeneratorConfig::paper_default()
        }
        .with_per_core_utilization(util);
        let platform = Platform::builder()
            .cores(cores)
            .cache(CacheGeometry::direct_mapped(config.cache_sets, 32))
            .memory_latency(config.d_mem)
            .build()
            .unwrap();
        let tasks = TaskSetGenerator::new(config)
            .unwrap()
            .generate(&mut ChaCha8Rng::seed_from_u64(seed))
            .unwrap();
        (platform, tasks)
    }

    /// Every task's engine-emitted decomposition reassembles the spec's
    /// `BAT` at its window — the fixed point where one exists, the
    /// deadline (the sufficiency test's window) for tasks that miss —
    /// under every bus × mode.
    fn assert_shares_reassemble_bat(platform: &Platform, tasks: &TaskSet) -> usize {
        let ctx = AnalysisContext::new(platform, tasks).unwrap();
        let mut misses = 0;
        for bus in [
            BusPolicy::FixedPriority,
            BusPolicy::RoundRobin { slots: 2 },
            BusPolicy::Tdma { slots: 2 },
            BusPolicy::Perfect,
        ] {
            for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
                let cfg = AnalysisConfig::new(bus, mode);
                let result = analyze(&ctx, &cfg);
                let resp: Vec<Time> = tasks
                    .ids()
                    .map(|i| {
                        result
                            .response_time(i)
                            .unwrap_or_else(|| tasks[i].deadline())
                    })
                    .collect();
                misses += usize::from(!result.is_schedulable());
                for i in tasks.ids() {
                    let window = resp[i.index()];
                    let d = decompose(&ctx, &cfg, i, window, &resp);
                    let bat = spec::bat(&ctx, i, window, &resp, &cfg, CarryOut::Exact);
                    assert_eq!(Ok(d.total_accesses()), bat, "{bus:?} {mode:?} {i:?}");
                }
            }
        }
        misses
    }

    #[test]
    fn shares_reassemble_bat_for_every_policy_and_mode() {
        let (platform, tasks) = system();
        assert_shares_reassemble_bat(&platform, &tasks);
        let mut misses = 0;
        for (cores, tasks_per_core) in [(2, 4), (4, 3)] {
            for util in [0.3, 0.6, 0.95] {
                for seed in 0..2 {
                    let (platform, tasks) = generated(cores, tasks_per_core, util, seed);
                    misses += assert_shares_reassemble_bat(&platform, &tasks);
                }
            }
        }
        assert!(misses > 0, "some generated set must miss a deadline");
    }

    #[test]
    fn oblivious_mode_has_no_cpro_share() {
        let (platform, tasks) = system();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let cfg = AnalysisConfig::new(BusPolicy::FixedPriority, PersistenceMode::Oblivious);
        let resp = vec![Time::from_cycles(1_000); tasks.len()];
        for i in tasks.ids() {
            let d = decompose(&ctx, &cfg, i, Time::from_cycles(1_000), &resp);
            assert_eq!(d.cpro_accesses, 0, "{i:?}");
        }
    }

    #[test]
    fn dominant_term_and_shares_are_consistent() {
        let (platform, tasks) = system();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let cfg = AnalysisConfig::new(BusPolicy::RoundRobin { slots: 2 }, PersistenceMode::Aware);
        let result = analyze(&ctx, &cfg);
        assert!(result.is_schedulable());
        let resp: Vec<Time> = tasks
            .ids()
            .map(|i| result.response_time(i).unwrap())
            .collect();
        let low = tasks.id_of("d").unwrap();
        let d = decompose(&ctx, &cfg, low, resp[low.index()], &resp);
        let dom = d.dominant();
        for term in [
            DominantTerm::Bas,
            DominantTerm::Bao,
            DominantTerm::Cpro,
            DominantTerm::Crpd,
        ] {
            assert!(d.share(dom) >= d.share(term), "{dom} vs {term}");
        }
        let label = dom.label();
        assert!(["BAS", "BAO", "CPRO", "CRPD"].contains(&label));
    }

    #[test]
    fn perfect_bus_has_no_bao_share() {
        let (platform, tasks) = system();
        let ctx = AnalysisContext::new(&platform, &tasks).unwrap();
        let cfg = AnalysisConfig::new(BusPolicy::Perfect, PersistenceMode::Aware);
        let resp = vec![Time::from_cycles(2_000); tasks.len()];
        for i in tasks.ids() {
            let d = decompose(&ctx, &cfg, i, Time::from_cycles(2_000), &resp);
            assert_eq!(d.bao_accesses, 0);
            assert_eq!(d.blocking_accesses, 0, "perfect bus charges no blocking");
        }
    }
}
