//! End-to-end CLI contract for `cpa-trace`: every subcommand must fail
//! with exit code 2 and a diagnostic (never a panic) on malformed input,
//! with exit code 1 when a sink cannot be written, and the telemetry
//! exports must be byte-identical across worker counts.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cpa_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cpa-trace"))
        .args(args)
        .output()
        .expect("spawn cpa-trace")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A scratch path under the system temp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpa-trace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

#[track_caller]
fn assert_usage_error(args: &[&str], needle: &str) {
    assert_exit(args, 2, needle);
}

#[track_caller]
fn assert_exit(args: &[&str], code: i32, needle: &str) {
    let out = cpa_trace(args);
    assert_eq!(
        out.status.code(),
        Some(code),
        "{args:?} should exit {code}, stderr: {}",
        stderr_of(&out)
    );
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains(needle),
        "{args:?} stderr missing `{needle}`: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
}

#[test]
fn analyze_rejects_unknown_bus_with_a_diagnostic() {
    assert_usage_error(&["analyze", "--bus", "warp"], "unknown bus `warp`");
}

#[test]
fn zero_slots_are_rejected_before_analysis_or_simulation() {
    // A slotted bus needs s ≥ 1: zero slots used to divide by zero in the
    // simulator and report TDMA sets schedulable with no wait slots.
    for cmd in ["analyze", "sim", "sweep", "optimize"] {
        for bus in ["rr", "tdma"] {
            assert_usage_error(
                &[cmd, "--bus", bus, "--slots", "0"],
                &format!("bus `{bus}` needs at least one slot"),
            );
        }
    }
}

#[test]
fn sim_rejects_the_perfect_bus_with_a_diagnostic() {
    // The perfect bus is an analysis reference line with no arbiter: `sim`
    // must not run it under another bus's arbitration and label it perfect.
    assert_usage_error(&["sim", "--bus", "perfect"], "expected fp, rr, or tdma");
}

#[test]
fn validate_rejects_zero_slots_with_a_diagnostic() {
    let out = Command::new(env!("CARGO_BIN_EXE_cpa-validate"))
        .args([
            "run",
            "--slots",
            "0",
            "--quick",
            "--sets",
            "1",
            "--no-progress",
        ])
        .output()
        .expect("spawn cpa-validate");
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--slots"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
}

#[test]
fn zero_sets_are_rejected_with_a_diagnostic() {
    // A run over no sets used to pass vacuously (`PASS: 0 sets, 0 checks`).
    for cmd in ["sweep", "optimize"] {
        assert_usage_error(&[cmd, "--sets", "0"], "--sets: must be at least 1");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_cpa-validate"))
        .args(["run", "--quick", "--sets", "0", "--no-progress"])
        .output()
        .expect("spawn cpa-validate");
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--sets: must be at least 1"),
        "stderr: {stderr}"
    );
}

#[test]
fn sim_rejects_malformed_horizon_with_a_diagnostic() {
    assert_usage_error(&["sim", "--horizon", "soon"], "--horizon");
    // A zero horizon would simulate nothing worth reporting.
    assert_usage_error(&["sim", "--horizon", "0"], "--horizon: must be at least 1");
}

#[test]
fn sweep_rejects_unknown_flags_with_usage() {
    assert_usage_error(&["sweep", "--setz", "4"], "unknown flag `--setz`");
}

#[test]
fn optimize_rejects_unknown_mode_with_a_diagnostic() {
    assert_usage_error(
        &["optimize", "--mode", "chaotic"],
        "unknown persistence mode `chaotic`",
    );
}

#[test]
fn unknown_subcommand_exits_with_usage() {
    assert_usage_error(&["replay"], "unknown subcommand `replay`");
}

#[test]
fn export_rejects_unknown_formats_before_running() {
    // `json` is not an export: the stage breakdown is part of `--json`.
    for format in ["protobuf", "json"] {
        assert_usage_error(
            &["sweep", "--export", format],
            &format!("unknown export format `{format}`"),
        );
    }
}

#[test]
fn unwritable_trace_sink_is_reported_not_panicked() {
    // The run itself succeeded; failing to write its sink is a failed run.
    assert_exit(
        &[
            "analyze",
            "--tasks-per-core",
            "2",
            "--trace",
            "/nonexistent-dir/trace.jsonl",
        ],
        1,
        "cannot write /nonexistent-dir/trace.jsonl",
    );
}

#[test]
fn oversized_task_sets_exit_with_a_diagnostic_not_an_abort() {
    assert_usage_error(
        &["sweep", "--cores", "100000"],
        "100000 cores x 4 tasks per core exceed the limit of 4096",
    );
    assert_usage_error(
        &["analyze", "--cores", "3", "--tasks-per-core", "100000"],
        "3 cores x 100000 tasks per core exceed the limit of 4096",
    );
}

#[test]
fn bench_is_an_unknown_subcommand() {
    assert_usage_error(&["bench"], "unknown subcommand `bench`");
}

#[test]
fn run_reports_include_the_stage_breakdown() {
    for cmd in ["sweep", "optimize"] {
        let out = cpa_trace(&[cmd, "--sets", "3", "--tasks-per-core", "3"]);
        assert!(out.status.success(), "stderr: {}", stderr_of(&out));
        let report = stdout_of(&out);
        assert!(report.contains("stage breakdown:"), "{cmd}: {report}");
        assert!(report.contains("self-profile:"), "{cmd}: {report}");
    }
}

#[test]
fn chrome_export_is_byte_identical_across_threads() {
    let runs: Vec<String> = ["1", "4"]
        .iter()
        .map(|threads| {
            let out = cpa_trace(&[
                "sweep",
                "--sets",
                "6",
                "--threads",
                threads,
                "--export",
                "chrome",
            ]);
            assert!(out.status.success(), "stderr: {}", stderr_of(&out));
            stdout_of(&out)
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1-vs-4 threads diverged");
    // The document must be well-formed JSON with the trace-event shape.
    let doc: serde_json::Value = serde_json::from_str(&runs[0]).expect("chrome export parses");
    let events = doc
        .get("traceEvents")
        .and_then(serde_json::Value::as_seq)
        .expect("traceEvents array");
    assert!(!events.is_empty());
}

#[test]
fn openmetrics_export_is_byte_identical_and_valid() {
    let runs: Vec<String> = ["1", "4"]
        .iter()
        .map(|threads| {
            let out = cpa_trace(&[
                "sweep",
                "--sets",
                "6",
                "--threads",
                threads,
                "--export",
                "openmetrics",
            ]);
            assert!(out.status.success(), "stderr: {}", stderr_of(&out));
            stdout_of(&out)
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1-vs-4 threads diverged");
    let samples = cpa_telemetry::validate_openmetrics(&runs[0]).expect("exposition validates");
    assert!(samples > 0, "no samples in the exposition");
}

#[test]
fn optimize_openmetrics_export_is_byte_identical_across_threads() {
    // The optimizer recycles scratches per worker, so the recycling
    // meters are classified as scheduling meters and dropped from
    // deterministic exports; everything that remains — per-solve hit/miss
    // meters included — must not see the thread count.
    let runs: Vec<String> = ["1", "4"]
        .iter()
        .map(|threads| {
            let out = cpa_trace(&[
                "optimize",
                "--sets",
                "3",
                "--tasks-per-core",
                "3",
                "--threads",
                threads,
                "--export",
                "openmetrics",
            ]);
            assert!(out.status.success(), "stderr: {}", stderr_of(&out));
            stdout_of(&out)
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1-vs-4 threads diverged");
    cpa_telemetry::validate_openmetrics(&runs[0]).expect("exposition validates");
}

#[test]
fn export_out_writes_the_file_and_keeps_the_report() {
    let path = scratch("sweep-export.json");
    let out = cpa_trace(&[
        "sweep",
        "--sets",
        "3",
        "--tasks-per-core",
        "3",
        "--export",
        "chrome",
        "--export-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    assert!(stdout_of(&out).contains("stage breakdown:"));
    let exported = std::fs::read_to_string(&path).expect("export file");
    serde_json::from_str::<serde_json::Value>(&exported).expect("exported chrome trace parses");
}

#[test]
fn json_reports_embed_stages_and_profile() {
    let out = cpa_trace(&["sweep", "--sets", "3", "--tasks-per-core", "3", "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let doc: serde_json::Value =
        serde_json::from_str(&stdout_of(&out)).expect("sweep --json parses");
    assert!(doc.get("stages").is_some(), "missing stages key");
    assert!(doc.get("profile").is_some(), "missing profile key");
}

#[test]
fn pool_and_result_cache_stages_are_timed() {
    // The pool's own set-up, dispatch and join time lands on the `pool`
    // row and the optimizer's cache reads and writes on `result-cache`;
    // neither may read 0 ns in a run that exercised it.
    let runs: [(&[&str], &[&str]); 2] = [
        (&["sweep", "--seed", "7", "--sets", "8"], &["pool"]),
        (
            &[
                "optimize",
                "--seed",
                "7",
                "--sets",
                "3",
                "--tasks-per-core",
                "3",
            ],
            &["pool", "result-cache"],
        ),
    ];
    for (args, stages) in runs {
        let out = cpa_trace(&[args, &["--threads", "1", "--json"]].concat());
        assert!(out.status.success(), "stderr: {}", stderr_of(&out));
        let doc: serde_json::Value =
            serde_json::from_str(&stdout_of(&out)).expect("--json report parses");
        let rows = doc
            .get("stages")
            .and_then(|s| s.get("stages"))
            .and_then(serde_json::Value::as_seq)
            .expect("stage rows");
        for stage in stages {
            let wall = rows
                .iter()
                .find(|r| r.get("stage").and_then(serde_json::Value::as_str) == Some(stage))
                .and_then(|r| r.get("wall_nanos"))
                .and_then(serde_json::Value::as_u64);
            assert!(
                wall.is_some_and(|ns| ns > 0),
                "{}: `{stage}` row wall_nanos {wall:?}",
                args[0]
            );
        }
    }
}

#[test]
fn sweep_counts_each_layer_once() {
    // The items a pool dispatches nest under the dispatching span, so on
    // one thread the per-stage self times add up to exactly the
    // inclusive time of the sweep's one root span: no layer's time is
    // counted twice.
    let out = cpa_trace(&[
        "sweep",
        "--sets",
        "4",
        "--tasks-per-core",
        "3",
        "--threads",
        "1",
        "--json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let doc: serde_json::Value =
        serde_json::from_str(&stdout_of(&out)).expect("sweep --json parses");
    let roots = doc
        .get("profile")
        .and_then(|p| p.get("children"))
        .and_then(serde_json::Value::as_seq)
        .expect("profile children");
    let names: Vec<_> = roots
        .iter()
        .map(|r| r.get("name").and_then(serde_json::Value::as_str))
        .collect();
    assert_eq!(names, [Some("experiments.evaluate_point")]);
    let inclusive = roots[0].get("nanos").and_then(serde_json::Value::as_u64);
    let total = doc
        .get("stages")
        .and_then(|s| s.get("total_nanos"))
        .and_then(serde_json::Value::as_u64);
    assert!(inclusive.is_some());
    assert_eq!(total, inclusive);
}

/// A repro file written while `cpa-validate run` still had its
/// `--reference-sim` option: its `options` carry a `"reference_sim"` key,
/// which is ignored, and it still loads and reproduces.
const REPRO_WITH_REFERENCE_SIM: &str = r#"{"schema":1,"description":"dominance (minimized) violation found by `cpa-validate run --seed 0xda7e2020001` at set 0","campaign_seed":15014702481409,"set_index":0,"set_seed":94826436651421859,"d_mem":5,"options":{"slots":2,"horizon_cap":400000,"sporadic":false,"sporadic_seed":94826436651421859,"approaches":["EcbUnion"],"determinism":false,"inject":"Dominance","reference_sim":false},"oracle":"Dominance","message":"fp ecb-union: task compress#1.0 aware bound 6cy exceeds oblivious bound 6cy [injected strict]","tasks":[{"name":"compress#1.0","pd":1,"md":1,"md_r":1,"deadline":6,"period":6,"core":0,"priority":9,"ucb":{"capacity":256,"words":[0,0,0,0]},"ecb":{"capacity":256,"words":[67108863,0,18446744073709551360,18446744073709551615]},"pcb":{"capacity":256,"words":[0,0,0,0]}}]}"#;

#[test]
fn repro_with_a_reference_sim_option_still_replays() {
    let path = scratch("repro-reference-sim.json");
    std::fs::write(&path, REPRO_WITH_REFERENCE_SIM).expect("write repro");
    let out = Command::new(env!("CARGO_BIN_EXE_cpa-validate"))
        .args(["replay", path.to_str().unwrap()])
        .output()
        .expect("spawn cpa-validate");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert!(
        stdout_of(&out).contains("dominance violation reproduced"),
        "{}",
        stdout_of(&out)
    );
}
