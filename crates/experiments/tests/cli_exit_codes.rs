//! Exit-code contract of the two experiment CLIs, matching `cpa-trace`,
//! `cpa-validate` and `cpa-optimize`: bad input exits 2 with a diagnostic
//! on stderr, `--help` prints the usage on stdout and exits 0, and no
//! input panics (exit 101).

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const BINARIES: [&str; 2] = [
    env!("CARGO_BIN_EXE_gen_taskset"),
    env!("CARGO_BIN_EXE_run_experiments"),
];

#[test]
fn unknown_flags_exit_2_with_a_diagnostic() {
    for bin in BINARIES {
        let out = run(bin, &["--bogus"]);
        assert_eq!(out.status.code(), Some(2), "{bin}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("unknown flag `--bogus`"), "{bin}");
    }
}

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
fn help_prints_the_usage_and_exits_0() {
    for bin in BINARIES {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin}: {}", stderr_of(&out));
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: "));
    }
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
