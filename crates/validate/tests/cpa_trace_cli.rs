//! End-to-end CLI contract for `cpa-trace`: every subcommand must fail
//! with exit code 2 and a diagnostic (never a panic) on malformed input,
//! the telemetry exports must be byte-identical across worker counts and
//! chunk sizes.

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
    let out = cpa_trace(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2, stderr: {}",
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
fn sim_rejects_malformed_horizon_with_a_diagnostic() {
    assert_usage_error(&["sim", "--horizon", "soon"], "--horizon");
}

#[test]
fn sweep_rejects_unknown_flags_with_usage() {
    assert_usage_error(&["sweep", "--setz", "4"], "unknown flag `--setz`");
}

#[test]
fn optimize_rejects_unknown_mode_with_a_diagnostic() {
    assert_usage_error(&["optimize", "--mode", "chaotic"], "unknown mode `chaotic`");
}

#[test]
fn unknown_subcommand_exits_with_usage() {
    assert_usage_error(&["replay"], "unknown flag `replay`");
}

#[test]
fn export_rejects_unknown_formats_before_running() {
    assert_usage_error(
        &["sweep", "--export", "protobuf"],
        "unknown export format `protobuf`",
    );
}

#[test]
fn unwritable_trace_sink_is_reported_not_panicked() {
    assert_usage_error(
        &[
            "analyze",
            "--tasks-per-core",
            "2",
            "--trace",
            "/nonexistent-dir/trace.jsonl",
        ],
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
    assert_usage_error(&["bench"], "unknown flag `bench`");
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
fn chrome_export_is_byte_identical_across_threads_and_chunks() {
    let runs: Vec<String> = [("1", "1"), ("4", "1"), ("4", "5")]
        .iter()
        .map(|(threads, chunk)| {
            let out = cpa_trace(&[
                "sweep",
                "--sets",
                "6",
                "--threads",
                threads,
                "--chunk",
                chunk,
                "--export",
                "chrome",
            ]);
            assert!(out.status.success(), "stderr: {}", stderr_of(&out));
            stdout_of(&out)
        })
        .collect();
    assert_eq!(runs[0], runs[1], "1-vs-4 threads diverged");
    assert_eq!(runs[0], runs[2], "chunk 1-vs-5 diverged");
    // The document must be well-formed JSON with the trace-event shape.
    let doc = cpa_telemetry::parse_json(&runs[0]).expect("chrome export parses");
    let events = doc
        .get("traceEvents")
        .and_then(cpa_telemetry::JsonValue::as_array)
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
    cpa_telemetry::parse_json(&exported).expect("exported chrome trace parses");
}

#[test]
fn json_reports_embed_stages_and_profile() {
    let out = cpa_trace(&["sweep", "--sets", "3", "--tasks-per-core", "3", "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let doc = cpa_telemetry::parse_json(&stdout_of(&out)).expect("sweep --json parses");
    assert!(doc.get("stages").is_some(), "missing stages key");
    assert!(doc.get("profile").is_some(), "missing profile key");
}
