//! The validation pass of the traced `reproduce_paper` run: a
//! full-profile `run_campaign` on one worker, which puts the simulator
//! (`cpa-sim`) and the oracles (`cpa-validate`) under the per-layer
//! metrics.
//!
//! It is not an end-to-end workload of its own. On a shared host the
//! simulator's speed swings about 2× with the host's load, while the
//! speed probe that steadies the other workloads swings about 1.45×, so
//! its throughput spread 15–35% between runs of identical code.

use cpa_validate::{run_campaign, CampaignOptions, CampaignOutcome};

use crate::measure::{self, Digest, Metric, Ratio};
use crate::obs;

/// Sets the traced campaign validates.
const TRACE_SETS: u64 = 48;

/// Seed of the warm-up set.
const WARM_UP_SEED: u64 = 0x0DA7_E202_0001;

/// Full-profile campaign options on one worker.
fn options(seed: u64, sets: u64) -> CampaignOptions {
    CampaignOptions::new()
        .with_sets(sets)
        .with_seed(seed)
        .with_threads(1)
}

/// Digest of the report without its timing fields (`wall_clock_secs`,
/// `sets_per_second`): the options and the deterministic stats.
fn report_digest(outcome: &CampaignOutcome) -> u64 {
    let mut digest = Digest::new();
    digest.str(&serde_json::to_string(&outcome.report.options).expect("options serialize"));
    digest.str(&serde_json::to_string(&outcome.report.stats).expect("stats serialize"));
    digest.finish()
}

fn check(outcome: &CampaignOutcome) -> Vec<String> {
    if outcome.report.passed() {
        Vec::new()
    } else {
        vec![outcome.report.summary()]
    }
}

/// The traced validation pass: one full-profile campaign of
/// [`TRACE_SETS`] sets after a one-set warm-up, untraced once and traced
/// twice. Returns the simulator, oracle and campaign metrics and the
/// broken checks (any oracle violation among them).
pub fn trace(seed: u64) -> (Vec<Metric>, Vec<String>) {
    let _ = run_campaign(&options(WARM_UP_SEED, 1));
    let opts = options(seed, TRACE_SETS);
    let passes = obs::TracePasses::run("validation pass", || run_campaign(&opts), report_digest);
    let traced = &passes.traced;
    let mut broken = passes.broken.clone();
    broken.extend(check(&passes.plain.out));
    let c = &traced.counts;
    let p = &traced.profile;
    let (runs, run_ns) = obs::span(p, "sim.run");
    let sets = opts.sets;
    let per_set = |name: &str| measure::per(obs::span(p, name).1 as f64, sets);
    let metrics = vec![
        Metric::new(
            "sim.run_ns_per_call",
            measure::per(run_ns as f64, runs),
            "ns",
        ),
        Metric::new("sim.runs", runs as f64, "count"),
        Metric::new(
            "sim.ns_per_bus_transaction",
            measure::per(run_ns as f64, c.get("sim.bus_transactions")),
            "ns",
        ),
        Metric::new(
            "sim.bus_transactions",
            c.get("sim.bus_transactions") as f64,
            "count",
        ),
        Metric::new(
            "sim.skip_ratio",
            Ratio {
                part: c.get("sim.cycles_skipped"),
                base: c.get("sim.cycles"),
            }
            .value(),
            "ratio",
        ),
        Metric::new("sim.cycles", c.get("sim.cycles") as f64, "count"),
        Metric::new(
            "oracle.analysis_ns_per_set",
            per_set("oracle.analysis"),
            "ns",
        ),
        Metric::new(
            "oracle.simulate_ns_per_set",
            per_set("oracle.simulate"),
            "ns",
        ),
        Metric::new(
            "oracle.determinism_ns_per_set",
            per_set("oracle.determinism"),
            "ns",
        ),
        Metric::new("campaign.sets", sets as f64, "count"),
        Metric::new("campaign.trace_overhead", passes.overhead(), "ratio"),
    ];
    (metrics, broken)
}
