//! `optimize_mixed`: 64 paper-scale requests under every bus policy and
//! both persistence modes, in four `process_batch` calls on one worker.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use cpa_experiments::runner::derive_seed;
use cpa_optimize::{process_batch, OptimizeRequest, ResultCache, SearchKnobs, ServiceOptions};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Deserialize;

use crate::measure::{self, Digest, Metric, Ratio, Round};
use crate::obs;

/// Worker threads of the timed rounds. Pinned to one: on a shared
/// two-core host a two-worker batch waits for whichever core the host
/// delays, which spread two-worker throughput by 40% between runs of the
/// same code. The traced run measures the pool at one and two workers.
pub const WORKERS: usize = 1;

/// The worker count the traced run compares against [`WORKERS`].
const POOL_WORKERS: usize = 2;

/// Requests per input; every [`REPEAT_EVERY`]-th one repeats an earlier
/// request of its batch, so result-cache reads run beside writes.
pub const REQUESTS: usize = 64;

/// Requests per `process_batch` call (one chunk of the input, short
/// enough to be timed one by one).
pub const BATCH: usize = 16;

/// One request in this many is a repeat (25%).
pub const REPEAT_EVERY: usize = 4;

/// Cores and tasks per core of every request (paper scale: ≥ 4 × ≥ 5).
const CORES: usize = 4;
const TASKS_PER_CORE: usize = 5;

/// Seed of the warm-up request.
const WARM_UP_SEED: u64 = 0x0DA7_E202_0002;

/// The eight bus × mode combinations unique requests cycle through, each
/// with the band its per-core utilization is drawn from. The bands give
/// every bus both schedulable and unschedulable requests: RR and TDMA
/// fail nearly every request at 0.5, the perfect bus almost none below
/// it.
const COMBOS: [(&str, &str, Range<f64>); 8] = [
    ("fp", "aware", 0.1..0.6),
    ("fp", "oblivious", 0.1..0.6),
    ("rr", "aware", 0.05..0.4),
    ("rr", "oblivious", 0.05..0.4),
    ("tdma", "aware", 0.05..0.4),
    ("tdma", "oblivious", 0.05..0.4),
    ("perfect", "aware", 0.5..1.0),
    ("perfect", "oblivious", 0.5..1.0),
];

/// Traced runs measure this many inputs' requests.
const TRACE_INPUTS: usize = 2;

/// The seed of the `r`-th input of a traced run: the timed input first.
fn trace_seed(seed: u64, r: usize) -> u64 {
    if r == 0 {
        seed
    } else {
        derive_seed(seed, 2, r as u64)
    }
}

/// Generates `n` requests, deterministic in `seed`, searched with the
/// toy knobs (`SearchKnobs::toy`). The
/// utilization of a combination's `j`-th request is drawn from the `j`-th
/// of equal strata of its band, so every batch covers each band evenly.
#[must_use]
pub fn requests(seed: u64, n: usize) -> Vec<OptimizeRequest> {
    let mut out: Vec<OptimizeRequest> = Vec::with_capacity(n);
    let unique_total = n - n / REPEAT_EVERY;
    let strata = unique_total.div_ceil(COMBOS.len()).max(1) as f64;
    let mut unique = 0usize;
    for i in 0..n {
        if i % REPEAT_EVERY == REPEAT_EVERY - 1 {
            let earlier = out[i + 1 - REPEAT_EVERY].clone();
            out.push(earlier);
            continue;
        }
        let (bus, mode, band) = COMBOS[unique % COMBOS.len()].clone();
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, 0, unique as u64));
        let stratum = (unique / COMBOS.len()) as f64 + rng.gen_range(0.0..1.0);
        let utilization = band.start + (band.end - band.start) * stratum / strata;
        let mut config = GeneratorConfig::paper_default()
            .with_cores(CORES)
            .with_per_core_utilization(utilization);
        config.tasks_per_core = TASKS_PER_CORE;
        let d_mem = config.d_mem.cycles();
        let tasks = TaskSetGenerator::new(config)
            .and_then(|g| g.generate(&mut rng))
            .expect("paper-shaped generator configs generate");
        out.push(OptimizeRequest {
            name: format!("req-{unique:03}"),
            seed: derive_seed(seed, 1, unique as u64),
            bus: bus.to_string(),
            slots: 2,
            mode: mode.to_string(),
            d_mem,
            cores: CORES,
            search: SearchKnobs::toy(),
            tasks: tasks.into(),
        });
        unique += 1;
    }
    out
}

/// The input: [`REQUESTS`] requests as batch JSON documents of
/// [`BATCH`] requests each. Repeats stay within their batch, and the bus
/// × mode combinations cycle across the whole input.
#[must_use]
pub fn batches(seed: u64) -> Vec<String> {
    requests(seed, REQUESTS)
        .chunks(BATCH)
        .map(|batch| serde_json::to_string(batch).expect("requests serialize"))
        .collect()
}

fn service(workers: usize) -> ServiceOptions {
    ServiceOptions {
        threads: workers,
        chunk: 0,
        full_eval: false,
    }
}

/// The fields of a response document the checks read.
#[derive(Debug, Deserialize)]
struct Verdict {
    name: String,
    bus: String,
    schedulable_default: bool,
    schedulable_optimized: bool,
    default_score: ScoreDoc,
    optimized_score: ScoreDoc,
}

/// `cpa_optimize::Score` as serialized; compared field by field in the
/// order of its derived `Ord`.
#[derive(Debug, Deserialize)]
struct ScoreDoc {
    schedulable: bool,
    converged: u32,
    min_slack: u64,
    total_slack: u64,
}

impl ScoreDoc {
    fn key(&self) -> (bool, u32, u64, u64) {
        (
            self.schedulable,
            self.converged,
            self.min_slack,
            self.total_slack,
        )
    }
}

/// Verdicts per bus: (schedulable, unschedulable) requests.
type Tally = BTreeMap<String, (u64, u64)>;

/// Checks one response document: `optimized_score ≥ default_score` for
/// every response and one response per request. Returns the verdict
/// tally and the broken invariants.
fn check(doc: &str, requests: usize) -> (Tally, Vec<String>) {
    let verdicts: Vec<Verdict> = match serde_json::from_str(doc) {
        Ok(v) => v,
        Err(e) => return (Tally::default(), vec![format!("response document: {e}")]),
    };
    let mut broken = Vec::new();
    if verdicts.len() != requests {
        broken.push(format!(
            "{} responses for {requests} requests",
            verdicts.len()
        ));
    }
    let mut tally = Tally::default();
    for v in &verdicts {
        if v.optimized_score.key() < v.default_score.key() {
            broken.push(format!("{}: optimized score below default score", v.name));
        }
        if v.schedulable_default && !v.schedulable_optimized {
            broken.push(format!("{}: optimizer lost schedulability", v.name));
        }
        let (yes, no) = tally.entry(v.bus.clone()).or_default();
        if v.schedulable_optimized {
            *yes += 1;
        } else {
            *no += 1;
        }
    }
    (tally, broken)
}

/// Processes one batch on a fresh result cache.
fn process(json: &str, workers: usize) -> Result<String, String> {
    let mut cache = ResultCache::in_memory();
    process_batch(json, &service(workers), &mut cache).map(|(doc, _)| doc)
}

/// One timed round: one batch through `process_batch`.
#[must_use]
pub fn round(json: &str) -> Round {
    match process(json, WORKERS) {
        Ok(doc) => {
            let (_, broken) = check(&doc, BATCH);
            let mut digest = Digest::new();
            digest.str(&doc);
            Round {
                items: BATCH as u64,
                failed: 0,
                digest: digest.finish(),
                broken,
            }
        }
        Err(e) => Round {
            items: BATCH as u64,
            failed: BATCH as u64,
            digest: 0,
            broken: vec![e],
        },
    }
}

/// Set-up: the requests, their batch JSON, and one warm-up item (a
/// request as a batch of one). The warm-up request is the same for every
/// seed, since request costs vary widely and the warm-up is not part of
/// the input.
pub fn setup(seed: u64) -> Vec<String> {
    let batches = batches(seed);
    let first = serde_json::to_string(&requests(WARM_UP_SEED, 1)).expect("requests serialize");
    let _ = process(&first, WORKERS);
    batches
}

/// Checks that the first batch's responses are byte-identical at
/// [`WORKERS`] and at [`POOL_WORKERS`] workers.
#[must_use]
pub fn worker_identity(seed: u64) -> Vec<String> {
    let json = &batches(seed)[0];
    match (process(json, WORKERS), process(json, POOL_WORKERS)) {
        (Ok(one), Ok(many)) if one == many => Vec::new(),
        (Ok(_), Ok(_)) => vec![format!(
            "responses differ between {WORKERS} and {POOL_WORKERS} workers"
        )],
        (Err(e), _) | (_, Err(e)) => vec![e],
    }
}

/// The traced run over [`TRACE_INPUTS`] inputs, the timed one first:
/// untraced at [`POOL_WORKERS`] workers, the three trace passes at
/// [`WORKERS`], and once more request by request for the latency
/// distribution.
pub fn trace(seed: u64) -> (Vec<Metric>, Vec<String>, u64) {
    let batches: Vec<String> = (0..TRACE_INPUTS)
        .flat_map(|r| batches(trace_seed(seed, r)))
        .collect();
    let run_all = |workers: usize| -> Result<Vec<String>, String> {
        batches.iter().map(|json| process(json, workers)).collect()
    };
    let _ = setup(seed);
    let pooled = obs::untraced(|| run_all(POOL_WORKERS));
    let passes = obs::TracePasses::run(
        "optimize_mixed",
        || run_all(WORKERS),
        |out| {
            let mut digest = Digest::new();
            for doc in out.iter().flatten() {
                digest.str(doc);
            }
            digest.finish()
        },
    );
    let (plain, traced) = (&passes.plain, &passes.traced);
    let mut broken = passes.broken.clone();
    let mut tally = Tally::default();
    match (&plain.out, &pooled.out) {
        (Ok(a), Ok(b)) => {
            if a != b {
                broken.push(format!(
                    "responses differ between {WORKERS} and {POOL_WORKERS} workers"
                ));
            }
            for doc in a {
                let (t, errs) = check(doc, BATCH);
                broken.extend(errs);
                for (bus, (yes, no)) in t {
                    let total = tally.entry(bus).or_default();
                    total.0 += yes;
                    total.1 += no;
                }
            }
        }
        _ => broken.push("a traced optimize pass failed".to_string()),
    }

    // Request latency as a client submitting one request per batch sees
    // it, on a result cache shared across each batch's requests (repeats
    // hit it).
    let mut latencies_ms = Vec::new();
    for r in 0..TRACE_INPUTS {
        let requests = requests(trace_seed(seed, r), REQUESTS);
        for batch in requests.chunks(BATCH) {
            let mut cache = ResultCache::in_memory();
            for request in batch {
                let json = serde_json::to_string(&[request]).expect("requests serialize");
                let t0 = Instant::now();
                if let Err(e) = process_batch(&json, &service(WORKERS), &mut cache) {
                    broken.push(e);
                }
                latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    let n = latencies_ms.len();
    let tail = measure::tail_percentile(n).unwrap_or(50.0);

    let c = &traced.counts;
    let (batches_evaluated, _) = obs::span(&traced.profile, "optimize.evaluate_batch");
    let (solves, solve_ns) = obs::span(&traced.profile, "wcrt.analyze");
    let requests_total = (TRACE_INPUTS * REQUESTS) as f64;
    let rate_1w = requests_total / plain.wall;
    let rate_2w = requests_total / pooled.wall;
    let candidates = c.get("optimize.candidates");
    let mut metrics = obs::engine_metrics(c);
    metrics.extend([
        Metric::new(
            "analysis.solve_ns_per_call",
            measure::per(solve_ns as f64, solves),
            "ns",
        ),
        Metric::new("analysis.solve_calls", solves as f64, "count"),
        Metric::new(
            "optimize.request_ms_p50",
            measure::percentile(&latencies_ms, 50.0),
            "ms",
        ),
        Metric::new(
            "optimize.request_ms_tail",
            measure::percentile(&latencies_ms, tail),
            "ms",
        ),
        Metric::new("optimize.request_tail_percentile", tail, "percent"),
        Metric::new("optimize.request_samples", n as f64, "count"),
        Metric::new(
            "optimize.candidates_per_s",
            candidates as f64 / plain.wall,
            "1/s",
        ),
        Metric::new("optimize.candidates", candidates as f64, "count"),
        Metric::new(
            "optimize.pruned_ratio",
            Ratio {
                part: c.get("optimize.pruned_candidates"),
                base: candidates,
            }
            .value(),
            "ratio",
        ),
        Metric::new(
            "optimize.memo_hit_ratio",
            Ratio::hits(c.get("optimize.memo_hits"), c.get("optimize.memo_misses")).value(),
            "ratio",
        ),
        Metric::new(
            "optimize.memo_lookups",
            (c.get("optimize.memo_hits") + c.get("optimize.memo_misses")) as f64,
            "count",
        ),
        Metric::new(
            "optimize.cache_hit_ratio",
            Ratio::hits(c.get("optimize.cache_hits"), c.get("optimize.cache_misses")).value(),
            "ratio",
        ),
        Metric::new(
            "optimize.cache_lookups",
            (c.get("optimize.cache_hits") + c.get("optimize.cache_misses")) as f64,
            "count",
        ),
        Metric::new("pool.speedup_2w", rate_2w / rate_1w, "ratio"),
        Metric::new("pool.items_per_s_1w", rate_1w, "1/s"),
        Metric::new("pool.items_per_s_2w", rate_2w, "1/s"),
        Metric::new(
            "pool.items_per_batch",
            measure::per(c.get("pool.items") as f64, batches_evaluated),
            "count",
        ),
        Metric::new("obs.trace_overhead", passes.overhead(), "ratio"),
    ]);
    let mut record = String::new();
    for (bus, (yes, no)) in &tally {
        record.push_str(&format!(" {bus}={yes}/{}", yes + no));
    }
    eprintln!("optimize_mixed schedulable per bus:{record}");
    (metrics, broken, requests_total as u64)
}
