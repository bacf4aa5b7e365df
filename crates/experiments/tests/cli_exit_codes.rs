//! The exit rule every workspace binary shares through
//! `cpa_experiments::cli::run`: `--help` (also after a subcommand) prints
//! the usage on stdout and exits 0, bad input exits 2 with a diagnostic on
//! stderr and no output, a run that started and then failed exits 1, and
//! no input panics (exit 101).
//!
//! The table test runs all seven binaries. Those of other packages are
//! found beside this package's own in the target directory, where a
//! workspace-wide `cargo test` (or `cargo build --bins`) puts them.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e} (build the workspace binaries first)"))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A workspace binary by name. Those of other packages sit beside this
/// package's own.
fn bin(name: &str) -> String {
    let own = PathBuf::from(env!("CARGO_BIN_EXE_gen_taskset"));
    let path = own.with_file_name(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    path.to_string_lossy().into_owned()
}

/// The exit-code table: each binary, the arguments that reach its flag
/// parser (a subcommand, or nothing), and a flag with a malformed value.
const TABLE: [(&str, &[&str], [&str; 2]); 7] = [
    ("run_experiments", &[], ["--sets", "many"]),
    ("gen_taskset", &[], ["--seed", "x"]),
    ("obs_overhead", &[], ["--budget", "lots"]),
    ("cpa-validate", &["run"], ["--sets", "many"]),
    ("cpa-trace", &["sweep"], ["--sets", "many"]),
    ("cpa-optimize", &["run"], ["--threads", "many"]),
    // Takes no argument: any flag is unknown, its value never read.
    ("sim_speedup", &[], ["--gate", "5"]),
];

#[test]
fn help_prints_the_usage_and_exits_0() {
    for (name, prefix, _) in TABLE {
        for args in [
            &["--help"][..],
            &[prefix, &["--help"]].concat(),
            &[prefix, &["-h"]].concat(),
        ] {
            let out = run(&bin(name), args);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{name} {args:?}: {}",
                stderr_of(&out)
            );
            assert!(
                stdout_of(&out).starts_with("usage:"),
                "{name} {args:?}: usage not on stdout"
            );
        }
    }
}

#[test]
fn unknown_flags_exit_2_with_a_diagnostic() {
    for (name, prefix, _) in TABLE {
        let out = run(&bin(name), &[prefix, &["--bogus"]].concat());
        assert_eq!(out.status.code(), Some(2), "{name}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("unknown flag `--bogus`"), "{name}");
        assert!(out.stdout.is_empty(), "{name}: wrote output on bad input");
    }
}

#[test]
fn malformed_values_exit_2_with_a_diagnostic() {
    for (name, prefix, malformed) in TABLE {
        let args = [prefix, &malformed].concat();
        let out = run(&bin(name), &args);
        let stderr = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(stderr.contains(malformed[0]), "{name} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} {args:?}: wrote output");
    }
}

#[test]
fn subcommand_binaries_reject_an_unknown_or_missing_subcommand() {
    for bin in ["cpa-validate", "cpa-trace", "cpa-optimize"].map(bin) {
        let out = run(&bin, &["frobnicate"]);
        assert_eq!(out.status.code(), Some(2), "{bin}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains("unknown subcommand `frobnicate`"),
            "{bin}"
        );
        let out = run(&bin, &[]);
        assert_eq!(out.status.code(), Some(2), "{bin}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("missing subcommand"), "{bin}");
    }
}

const BINARIES: [&str; 2] = [
    env!("CARGO_BIN_EXE_gen_taskset"),
    env!("CARGO_BIN_EXE_run_experiments"),
];

#[test]
fn zero_cores_exit_2_with_a_diagnostic() {
    for bin in BINARIES {
        let out = run(bin, &["--cores", "0"]);
        assert_eq!(out.status.code(), Some(2), "{bin}: {}", stderr_of(&out));
        assert!(!stderr_of(&out).is_empty(), "{bin}: no diagnostic");
        assert!(out.stdout.is_empty(), "{bin}: wrote output on bad input");
    }
}

#[test]
fn zero_sets_exit_2_with_a_diagnostic() {
    // Zero sets per point used to write `0,0,0` rows that read as
    // nothing schedulable.
    let dir = std::env::temp_dir().join(format!("cpa-zero-sets-{}", std::process::id()));
    let out = run(
        env!("CARGO_BIN_EXE_run_experiments"),
        &[
            "--quick",
            "--sets",
            "0",
            "--out",
            dir.to_str().unwrap(),
            "fig2",
        ],
    );
    assert!(!dir.exists(), "created {}", dir.display());
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--sets: must be at least 1"));
    assert!(out.stdout.is_empty(), "wrote output on bad input");
}

#[test]
fn summary_survives_a_memory_delay_past_u64_demand() {
    let out = run(
        env!("CARGO_BIN_EXE_gen_taskset"),
        &["--d-mem", "18446744073709551615", "--summary"],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("total utilization"));
}

#[test]
fn unknown_experiments_exit_2_before_anything_runs() {
    // An unknown name is refused even beside a known one.
    let dir = std::env::temp_dir().join(format!("cpa-unknown-exp-{}", std::process::id()));
    let out = run(
        env!("CARGO_BIN_EXE_run_experiments"),
        &["--out", dir.to_str().unwrap(), "table1", "fig9"],
    );
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("unknown experiment `fig9`"));
    assert!(out.stdout.is_empty(), "wrote output on bad input");
    assert!(!dir.exists(), "created {}", dir.display());
}

/// Runs `bin` with its stdout on a pipe whose reader is already closed,
/// as `… | head` leaves it once `head` has read enough.
fn run_into_closed_pipe(bin: &str, args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(bin)
        .args(args)
        .stdout(writer)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e} (build the workspace binaries first)"))
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let mut cases: Vec<(&str, &[&str])> = TABLE
        .iter()
        .map(|&(name, _, _)| (name, &["--help"][..]))
        .collect();
    cases.extend([
        ("cpa-trace", &["sweep", "--seed", "7", "--sets", "16"][..]),
        ("cpa-trace", &["analyze", "--seed", "7"][..]),
    ]);
    for (name, args) in cases {
        let out = run_into_closed_pipe(&bin(name), args);
        let stderr = stderr_of(&out);
        assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {stderr}");
        assert!(stderr.is_empty(), "{name} {args:?}: {stderr}");
    }
}
