//! Optimizer gate: on a fig2-style utilization panel the optimized
//! configurations must weakly dominate the defaults — no request may get
//! *worse*, schedulability-wise — and at least one seeded set must be
//! strictly improved. Also reports search throughput (candidates/sec).
//!
//! The panel runs twice: once with `full_eval` (every candidate rebuilt
//! and solved independently — the acceptance baseline) and once on the
//! default delta-scoped pipeline (admission pruning + solve memo +
//! slot-patched assembly). The two legs must produce
//! byte-identical response bodies; their elapsed-time ratio is exported
//! as `delta_eval_speedup` (paired, same process, same panel), and the
//! gain over the recorded pre-pipeline throughput is exported as
//! `optimize_speedup`, which ci.sh floors via `--min-speedup`.
//!
//! Hand-rolled harness (like `sweep_e2e`): this bench is a CI gate. It
//! writes the measured numbers to `BENCH_optimize.json` and exits
//! non-zero on a dominance, improvement, or equivalence failure. Weak
//! dominance is structural — the search always evaluates the default
//! configuration first and keeps it as the fallback best — so a failure
//! here means that invariant broke.

use std::time::Instant;

use cpa_optimize::{gen_batch, process_batch, GenOptions, ResultCache, ServiceOptions};
use cpa_telemetry::{BenchRecord, JsonValue};

/// Per-core utilization points, straddling the schedulability cliff so
/// the panel contains easy, marginal, and hopeless defaults. The two
/// overloaded points (0.8, 0.9) are where admission pruning carries the
/// search: most random-walk moves push a core past the residual
/// utilization bound and are rejected without an engine call.
const UTILS: &[f64] = &[0.4, 0.5, 0.6, 0.8, 0.9, 0.95];
/// Requests per utilization point.
const SETS_PER_UTIL: usize = 16;
/// Timed repetitions per panel point; the minimum is kept. The panel
/// runs in well under a second, so single runs are at the mercy of
/// scheduler noise on a shared CI box — the minimum over a few runs is
/// the standard stable estimator of the actual cost.
const REPS: usize = 5;

/// One full pass over the utilization panel under one service mode.
struct Leg {
    bodies: Vec<String>,
    requests: u64,
    schedulable_default: u64,
    schedulable_optimized: u64,
    strictly_improved: u64,
    candidates: u64,
    dominance_violations: u64,
    elapsed: f64,
}

fn run_panel(service: &ServiceOptions) -> Leg {
    let mut leg = Leg {
        bodies: Vec::with_capacity(UTILS.len()),
        requests: 0,
        schedulable_default: 0,
        schedulable_optimized: 0,
        strictly_improved: 0,
        candidates: 0,
        dominance_violations: 0,
        elapsed: 0.0,
    };
    let diag = [
        "optimize.memo_hits",
        "optimize.memo_misses",
        "optimize.pruned_candidates",
    ];
    let diag_before: Vec<u64> = diag.iter().map(|n| cpa_obs::counter(n).get()).collect();
    let counters_before = cpa_obs::counter("optimize.candidates").get();
    for &util in UTILS {
        let gen = GenOptions {
            sets: SETS_PER_UTIL,
            seed: 42,
            cores: 2,
            tasks_per_core: 3,
            cache_sets: 32,
            util,
            toy: true,
            ..GenOptions::default()
        };
        let batch = gen_batch(&gen).expect("panel batch generates");
        // Only the service call is timed: generation and the dominance
        // scan below are harness bookkeeping, identical in both legs.
        // Each repetition starts from a fresh result cache, so every rep
        // does the full work and produces the same bytes (determinism);
        // the minimum elapsed time is kept.
        let mut point_elapsed = f64::MAX;
        let mut out = None;
        for _ in 0..REPS {
            let mut cache = ResultCache::in_memory();
            let start = Instant::now();
            let (body, stats) =
                process_batch(&batch, service, &mut cache).expect("panel processes");
            point_elapsed = point_elapsed.min(start.elapsed().as_secs_f64());
            if let Some((prev_body, _)) = &out {
                assert_eq!(prev_body, &body, "repetitions must be byte-identical");
            }
            out = Some((body, stats));
        }
        leg.elapsed += point_elapsed;
        let (body, stats) = out.expect("at least one repetition");
        leg.requests += stats.requests;
        leg.schedulable_default += stats.schedulable_default;
        leg.schedulable_optimized += stats.schedulable_optimized;
        leg.strictly_improved += stats.strictly_improved;
        leg.candidates += stats.candidates;
        // Weak dominance per request: a schedulable default must stay
        // schedulable after optimization. One response document per line.
        for line in body.lines().filter(|l| l.starts_with('{')) {
            if line.contains("\"schedulable_default\":true")
                && !line.contains("\"schedulable_optimized\":true")
            {
                leg.dominance_violations += 1;
                eprintln!("dominance violation: {line}");
            }
        }
        leg.bodies.push(body);
    }
    let counter_candidates = cpa_obs::counter("optimize.candidates").get() - counters_before;
    assert_eq!(
        leg.candidates * REPS as u64,
        counter_candidates,
        "batch stats and optimize.candidates counter disagree"
    );
    let deltas: Vec<String> = diag
        .iter()
        .zip(diag_before)
        .map(|(n, b)| {
            format!(
                "{}={}",
                n.rsplit('.').next().unwrap(),
                cpa_obs::counter(n).get() - b
            )
        })
        .collect();
    eprintln!("  leg counters: {}", deltas.join(" "));
    leg
}

fn main() {
    // `cargo bench` passes flags like `--bench`; this harness ignores them.
    // Full-evaluation leg first: it is the semantic reference, and the
    // order gives neither leg a warmed process (each leg builds its own
    // caches from scratch per utilization point anyway).
    let full = run_panel(&ServiceOptions {
        full_eval: true,
        ..ServiceOptions::default()
    });
    let fast = run_panel(&ServiceOptions::default());

    // Paired equivalence: the delta-scoped pipeline must reproduce the
    // full evaluation byte for byte, panel point by panel point.
    let mut equivalence_mismatches = 0u64;
    for (i, (f, d)) in full.bodies.iter().zip(fast.bodies.iter()).enumerate() {
        if f != d {
            equivalence_mismatches += 1;
            eprintln!("full/fast response mismatch at panel point {i}");
        }
    }
    assert_eq!(
        full.candidates, fast.candidates,
        "both legs must walk the same candidate sequence"
    );

    // Search throughput of the optimizer before the delta-scoped pipeline
    // landed (PR 8, recorded in results/bench_baseline.jsonl on the CI
    // machine). `optimize_speedup` is the measured gain over it; ci.sh
    // floors that ratio via `--min-speedup optimize_speedup=2.5`.
    const BASELINE_CANDIDATES_PER_SEC: f64 = 58_602.22;

    let candidates = fast.candidates;
    let candidates_per_sec = if fast.elapsed > 0.0 {
        candidates as f64 / fast.elapsed
    } else {
        0.0
    };
    let optimize_speedup = candidates_per_sec / BASELINE_CANDIDATES_PER_SEC;
    let delta_eval_speedup = if fast.elapsed > 0.0 {
        full.elapsed / fast.elapsed
    } else {
        0.0
    };

    let requests = fast.requests;
    let schedulable_default = fast.schedulable_default;
    let schedulable_optimized = fast.schedulable_optimized;
    let strictly_improved = fast.strictly_improved;
    let dominance_violations = fast.dominance_violations + full.dominance_violations;
    eprintln!(
        "optimize panel  {requests} requests   default {schedulable_default} schedulable   \
         optimized {schedulable_optimized}   improved {strictly_improved}   \
         {candidates} candidates  full {:.2}s  fast {:.2}s ({candidates_per_sec:.0}/s, \
         {optimize_speedup:.2}x vs pre-pipeline baseline, {delta_eval_speedup:.2}x paired)",
        full.elapsed, fast.elapsed
    );

    let dominance_pass = dominance_violations == 0 && schedulable_optimized >= schedulable_default;
    let improvement_pass = strictly_improved >= 1;
    let equivalence_pass = equivalence_mismatches == 0;
    let pass = dominance_pass && improvement_pass && equivalence_pass;
    let mut record = BenchRecord::new("optimize", "fig2_style_panel");
    record.push_config(
        "utils",
        JsonValue::Array(UTILS.iter().map(|&u| JsonValue::F64(u)).collect()),
    );
    record.push_config("sets_per_util", SETS_PER_UTIL as u64);
    record.push_metric("requests", requests);
    record.push_metric("schedulable_default", schedulable_default);
    record.push_metric("schedulable_optimized", schedulable_optimized);
    record.push_metric("strictly_improved", strictly_improved);
    record.push_metric("candidates", candidates);
    record.push_metric("full_eval_seconds", JsonValue::F64(full.elapsed));
    record.push_metric("fast_seconds", JsonValue::F64(fast.elapsed));
    record.push_throughput("candidates_per_sec", candidates_per_sec);
    record.push_throughput("optimize_speedup", optimize_speedup);
    record.push_throughput("delta_eval_speedup", delta_eval_speedup);
    record.push_gate(
        "weak_dominance_violations",
        dominance_violations as f64,
        0.0,
        dominance_pass,
    );
    record.push_gate(
        "strict_improvement",
        strictly_improved as f64,
        1.0,
        improvement_pass,
    );
    record.push_gate(
        "full_fast_equivalence_mismatches",
        equivalence_mismatches as f64,
        0.0,
        equivalence_pass,
    );
    // Anchor to the workspace root: `cargo bench` sets the CWD to the
    // crate directory, but the gate artifact belongs next to ci.sh.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_optimize.json");
    record
        .write_json_file(out)
        .expect("write BENCH_optimize.json");
    record
        .append_history(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/bench_history.jsonl"
        ))
        .expect("append bench history");
    eprintln!("wrote {out}");
    if !pass {
        eprintln!(
            "FAIL: weak dominance {dominance_pass} (violations {dominance_violations}), \
             strict improvement {improvement_pass} ({strictly_improved} improved), \
             full/fast equivalence {equivalence_pass} ({equivalence_mismatches} mismatches)"
        );
        std::process::exit(1);
    }
}
