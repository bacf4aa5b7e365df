//! CLI contract for `cpa-optimize` on bad input: a request with more
//! tasks than a task set may hold fails its batch with a diagnostic (exit
//! 1, the per-request case, nothing written), and `gen` refuses to draw
//! one as bad input (exit 2), instead of the process aborting on the
//! analysis tables' allocation. `gen` also applies `run`'s per-request
//! check, so it never writes a batch `run` rejects.

use std::path::PathBuf;
use std::process::{Command, Output};

use cpa_model::MAX_TASKS;

fn cpa_optimize(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cpa-optimize"))
        .args(args)
        .output()
        .expect("spawn cpa-optimize")
}

/// A scratch path under the system temp dir, unique per test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpa-optimize-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

/// One request named `big` holding `n` small tasks with distinct
/// priorities, spread over four cores.
fn request_with_tasks(n: usize) -> String {
    let blocks = |word: u64| format!("{{\"capacity\": 64, \"words\": [{word}]}}");
    let tasks: Vec<String> = (0..n)
        .map(|i| {
            format!(
                "{{\"name\": \"t{i}\", \"pd\": 10, \"md\": 4, \"md_r\": 1, \
                 \"deadline\": 1000000, \"period\": 1000000, \"core\": {}, \
                 \"priority\": {i}, \"ucb\": {}, \"ecb\": {}, \"pcb\": {}}}",
                i % 4,
                blocks(1),
                blocks(3),
                blocks(1)
            )
        })
        .collect();
    format!(
        "[{{\"name\": \"big\", \"seed\": 1, \"bus\": \"fp\", \"slots\": 2, \
         \"mode\": \"aware\", \"d_mem\": 5, \"cores\": 4, \"search\": {{\
         \"restarts\": 1, \"max_rounds\": 1, \"neighbors\": 1, \"patience\": 1, \
         \"colors\": 1, \"exhaustive_limit\": 1, \"partitioning\": true, \
         \"priorities\": true, \"coloring\": false}}, \"tasks\": [{}]}}]\n",
        tasks.join(", ")
    )
}

#[test]
fn request_past_the_task_ceiling_fails_its_batch() {
    let requests = scratch("big.json");
    let out_path = scratch("big-out.json");
    std::fs::write(&requests, request_with_tasks(MAX_TASKS + 1)).expect("write requests");
    let out = cpa_optimize(&[
        "run",
        "--requests",
        requests.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("request 'big': invalid task set: 4097 tasks exceed the limit of 4096"),
        "{stderr}"
    );
    assert!(!out_path.exists(), "a failed batch writes no response");
}

#[test]
fn gen_refuses_shapes_past_the_task_ceiling() {
    let out = cpa_optimize(&[
        "gen",
        "--sets",
        "1",
        "--cores",
        "4",
        "--tasks-per-core",
        "20000",
        "--toy",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("4 cores x 20000 tasks per core exceed the limit of 4096"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

/// Runs `gen --sets 1` with `extra` flags into a fresh path and asserts
/// it exits 2 (bad input) with `needle` on stderr and writes no file.
fn assert_gen_refuses(name: &str, extra: &[&str], needle: &str) {
    let out_path = scratch(name);
    let mut args = vec!["gen", "--sets", "1", "--out", out_path.to_str().unwrap()];
    args.extend_from_slice(extra);
    let out = cpa_optimize(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{extra:?} stderr: {stderr}");
    assert!(stderr.contains(needle), "{extra:?}: {stderr}");
    assert!(
        !out_path.exists(),
        "{extra:?}: a refused batch writes no file"
    );
}

#[test]
fn gen_refuses_round_robin_without_slots() {
    assert_gen_refuses(
        "rr0.json",
        &["--bus", "rr", "--slots", "0"],
        "request 'req-000': bus `rr` needs at least one slot (got 0)",
    );
}

#[test]
fn gen_refuses_tdma_without_slots() {
    assert_gen_refuses(
        "tdma0.json",
        &["--bus", "tdma", "--slots", "0"],
        "request 'req-000': bus `tdma` needs at least one slot (got 0)",
    );
}

#[test]
fn gen_refuses_an_unknown_bus() {
    assert_gen_refuses(
        "bogus-bus.json",
        &["--bus", "bogus"],
        "request 'req-000': unknown bus `bogus`",
    );
}

#[test]
fn gen_refuses_an_unknown_mode() {
    assert_gen_refuses(
        "bogus-mode.json",
        &["--mode", "bogus"],
        "request 'req-000': unknown persistence mode `bogus`",
    );
}

#[test]
fn run_refuses_a_missing_requests_file_as_bad_input() {
    let missing = scratch("no-such-batch.json");
    let out_path = scratch("missing-out.json");
    let out = cpa_optimize(&[
        "run",
        "--requests",
        missing.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("no-such-batch.json"), "{stderr}");
    assert!(!out_path.exists(), "bad input writes no response");
}
