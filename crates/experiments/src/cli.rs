//! The one command-line front end of the workspace binaries.
//!
//! Every binary's `main` is one call to [`run`], which owns the exit
//! rule:
//!
//! * `--help`/`-h` anywhere, also after a subcommand, prints the usage on
//!   stdout and exits 0;
//! * bad input ([`CliError::bad_input`]) exits 2 with a diagnostic on
//!   stderr, before any output is written: an unknown flag or subcommand,
//!   a missing, malformed or out-of-range value, an invalid generator
//!   shape, or an unreadable or invalid input file;
//! * a run that started and then failed ([`CliError::failed`]) exits 1:
//!   an oracle violation, a guard breach, a repro that no longer
//!   reproduces, or a write error.
//!
//! [`Args`] pulls flag values with errors that name the flag, and
//! [`SweepFlags`] and [`ObsSinks`] parse the flags several binaries share.
//!
//! # Example
//!
//! ```
//! use cpa_experiments::cli::Args;
//!
//! let mut args = Args::new(["--sets", "100", "fig2"].map(String::from), "usage: demo");
//! let mut sets = 10u32;
//! let mut rest = Vec::new();
//! while let Some(arg) = args.next_arg() {
//!     match arg.as_str() {
//!         "--sets" => sets = args.value_for("--sets").unwrap(),
//!         other => rest.push(other.to_string()),
//!     }
//! }
//! assert_eq!(sets, 100);
//! assert_eq!(rest, ["fig2"]);
//! ```

use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

/// A failed run of a binary: the diagnostic to print and which of the two
/// failure exit codes it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    code: u8,
    msg: String,
}

impl CliError {
    /// Bad input, found before the run writes anything: exit code 2.
    pub fn bad_input(msg: impl fmt::Display) -> Self {
        CliError {
            code: 2,
            msg: msg.to_string(),
        }
    }

    /// A run that started and then failed: exit code 1.
    pub fn failed(msg: impl fmt::Display) -> Self {
        CliError {
            code: 1,
            msg: msg.to_string(),
        }
    }

    /// The process exit code this error maps to: 2 for bad input, 1 for
    /// a failed run.
    fn code(&self) -> u8 {
        self.code
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for CliError {}

/// Runs a binary's `body` over the process arguments (without the program
/// name) under the exit rule of the module docs, and returns the exit
/// code for `main` to return.
pub fn run(usage: &'static str, body: impl FnOnce(Args) -> Result<(), CliError>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if wants_help(&args) {
        println!("{usage}");
        return ExitCode::SUCCESS;
    }
    match body(Args::new(args, usage)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(e.code())
        }
    }
}

/// Whether `--help` or `-h` appears anywhere in `args`.
fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// A stream of command-line arguments with flag-value helpers.
#[derive(Debug)]
pub struct Args {
    args: std::vec::IntoIter<String>,
    usage: &'static str,
}

impl Args {
    /// Wraps an explicit argument list (without the program name).
    pub fn new(args: impl IntoIterator<Item = String>, usage: &'static str) -> Self {
        Args {
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
            usage,
        }
    }

    /// The next raw argument, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// Takes and parses the value following `flag`.
    ///
    /// # Errors
    ///
    /// Returns a bad-input [`CliError`] naming `flag` when the value is
    /// missing or fails to parse.
    pub fn value_for<T: FromStr>(&mut self, flag: &str) -> Result<T, CliError>
    where
        T::Err: fmt::Display,
    {
        let raw = self
            .args
            .next()
            .ok_or_else(|| CliError::bad_input(format!("{flag} needs a value\n{}", self.usage)))?;
        raw.parse()
            .map_err(|e| CliError::bad_input(format!("{flag}: {e} (got `{raw}`)")))
    }

    /// The value of a count flag such as `--sets` or `--horizon`, which
    /// must be at least 1: a run over zero sets would report nothing as a
    /// result.
    ///
    /// # Errors
    ///
    /// Returns a bad-input [`CliError`] when the value is missing,
    /// malformed or 0.
    pub fn count_for<T>(&mut self, flag: &str) -> Result<T, CliError>
    where
        T: FromStr + Default + PartialEq,
        T::Err: fmt::Display,
    {
        let count = self.value_for(flag)?;
        if count == T::default() {
            return Err(CliError::bad_input(format!(
                "{flag}: must be at least 1 (got 0)"
            )));
        }
        Ok(count)
    }

    /// The value of a `--slots`-style flag: a slot count the slotted buses
    /// accept ([`cpa_analysis::BusPolicy::parse`] rejects zero).
    ///
    /// # Errors
    ///
    /// Returns a bad-input [`CliError`] when the value is missing,
    /// malformed or 0.
    pub fn slots_for(&mut self, flag: &str) -> Result<u64, CliError> {
        let slots = self.value_for(flag)?;
        match cpa_analysis::BusPolicy::parse("rr", slots) {
            Some(_) => Ok(slots),
            None => Err(CliError::bad_input(format!(
                "{flag}: rr and tdma need at least one slot (got {slots})"
            ))),
        }
    }

    /// The error to report for an unrecognized flag.
    #[must_use]
    pub fn unknown_flag(&self, flag: &str) -> CliError {
        CliError::bad_input(format!("unknown flag `{flag}`\n{}", self.usage))
    }

    /// The error to report for a subcommand position holding `arg`: an
    /// unknown flag when it starts with `-`, an unknown subcommand
    /// otherwise, and a missing one for `None`.
    #[must_use]
    pub fn unknown_subcommand(&self, arg: Option<&str>) -> CliError {
        match arg {
            Some(flag) if flag.starts_with('-') => self.unknown_flag(flag),
            Some(name) => {
                CliError::bad_input(format!("unknown subcommand `{name}`\n{}", self.usage))
            }
            None => CliError::bad_input(format!("missing subcommand\n{}", self.usage)),
        }
    }
}

/// The shared sweep flags (`--quick`, `--sets`, `--seed`, `--threads`),
/// collected in any order and resolved by [`SweepFlags::options`].
///
/// Binaries that run sweeps share this so `--threads` reaches
/// [`SweepOptions`](crate::SweepOptions) — and therefore
/// [`cpa_pool`](cpa_pool::PoolOptions) — identically everywhere.
/// `--quick` picks [`SweepOptions::quick`](crate::SweepOptions::quick)'s
/// set count and nothing else, and an explicit `--sets` wins over it
/// wherever it appears.
#[derive(Debug, Clone, Default)]
pub struct SweepFlags {
    opts: crate::SweepOptions,
    quick: bool,
    sets: Option<usize>,
}

impl SweepFlags {
    /// Applies one sweep flag, consuming its value from `args`. Returns
    /// `Ok(true)` when `flag` was one of the shared sweep flags and
    /// `Ok(false)` when the caller should handle it itself.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] when the flag's value is missing or
    /// malformed, or `--sets` is 0.
    pub fn apply(&mut self, args: &mut Args, flag: &str) -> Result<bool, CliError> {
        match flag {
            "--quick" => self.quick = true,
            "--sets" => self.sets = Some(args.count_for("--sets")?),
            "--seed" => self.opts.seed = args.value_for("--seed")?,
            "--threads" => self.opts.threads = args.value_for("--threads")?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The options the flags select, on top of the paper defaults.
    #[must_use]
    pub fn options(self) -> crate::SweepOptions {
        let default = if self.quick {
            crate::SweepOptions::quick()
        } else {
            crate::SweepOptions::paper()
        };
        crate::SweepOptions {
            sets_per_point: self.sets.unwrap_or(default.sets_per_point),
            ..self.opts
        }
    }
}

/// The shared `--trace FILE` / `--metrics FILE` observability sinks.
///
/// Every binary that exposes these flags (`run_experiments`, `cpa-validate`,
/// `cpa-optimize run`, `cpa-trace`) routes them through this one helper so
/// the semantics cannot drift: `--trace` enables the full `cpa-obs` subscriber and writes
/// the deterministic JSON-lines event stream; `--metrics` enables timing
/// collection only and writes the counters + span-profile JSON document.
#[derive(Debug, Clone, Default)]
pub struct ObsSinks {
    /// Destination for the JSON-lines event stream, when requested.
    pub trace_path: Option<PathBuf>,
    /// Destination for the metrics + profile document, when requested.
    pub metrics_path: Option<PathBuf>,
}

impl ObsSinks {
    /// Applies one sink flag, consuming its value from `args`. Returns
    /// `Ok(true)` when `flag` was `--trace` or `--metrics`, `Ok(false)` when
    /// the caller should handle it itself.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] when the flag's value is missing.
    pub fn apply_flag(&mut self, args: &mut Args, flag: &str) -> Result<bool, CliError> {
        match flag {
            "--trace" => self.trace_path = Some(args.value_for("--trace")?),
            "--metrics" => self.metrics_path = Some(args.value_for("--metrics")?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Enables the `cpa-obs` layers the requested sinks need: the full
    /// subscriber for `--trace`, timing-only for `--metrics` alone.
    pub fn enable(&self) {
        if self.trace_path.is_some() {
            cpa_obs::enable();
        } else if self.metrics_path.is_some() {
            cpa_obs::enable_metrics();
        }
    }

    /// Drains the event buffer and writes the requested sink files.
    ///
    /// # Errors
    ///
    /// Returns a failed-run [`CliError`] naming the destination on any
    /// write failure.
    pub fn write(&self) -> Result<(), CliError> {
        self.write_events(&cpa_obs::take_events())
    }

    /// Writes the requested sink files from an already-drained event buffer
    /// (for callers that also feed the events to an exporter).
    ///
    /// # Errors
    ///
    /// Returns a failed-run [`CliError`] naming the destination on any
    /// write failure.
    pub fn write_events(&self, events: &[cpa_obs::Event]) -> Result<(), CliError> {
        if let Some(path) = &self.trace_path {
            let lines = cpa_obs::events_to_json_lines(events);
            std::fs::write(path, lines)
                .map_err(|e| CliError::failed(format!("cannot write {}: {e}", path.display())))?;
            eprintln!("wrote {}", path.display());
        }
        if let Some(path) = &self.metrics_path {
            let doc = format!(
                "{{\"metrics\":{},\"profile\":{}}}\n",
                cpa_obs::metrics_snapshot().to_json(),
                cpa_obs::profile_snapshot().to_json()
            );
            std::fs::write(path, doc)
                .map_err(|e| CliError::failed(format!("cannot write {}: {e}", path.display())))?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()), "usage: test")
    }

    #[test]
    fn parses_flag_values_in_order() {
        let mut a = args(&["--sets", "25", "--ratio", "0.5"]);
        assert_eq!(a.next_arg().as_deref(), Some("--sets"));
        assert_eq!(a.value_for::<u32>("--sets").unwrap(), 25);
        assert_eq!(a.next_arg().as_deref(), Some("--ratio"));
        assert_eq!(a.value_for::<f64>("--ratio").unwrap(), 0.5);
        assert!(a.next_arg().is_none());
    }

    #[test]
    fn missing_value_names_the_flag_and_usage() {
        let mut a = args(&["--seed"]);
        a.next_arg();
        let err = a.value_for::<u64>("--seed").unwrap_err();
        assert!(err.to_string().contains("--seed needs a value"), "{err}");
        assert!(err.to_string().contains("usage: test"), "{err}");
    }

    #[test]
    fn bad_value_includes_flag_and_input() {
        let mut a = args(&["--sets", "many"]);
        a.next_arg();
        let err = a.value_for::<u32>("--sets").unwrap_err();
        assert!(err.to_string().contains("--sets:"), "{err}");
        assert!(err.to_string().contains("`many`"), "{err}");
    }

    #[test]
    fn unknown_flag_and_help_carry_usage() {
        let a = args(&[]);
        let err = a.unknown_flag("--bogus");
        assert!(err.to_string().contains("unknown flag `--bogus`"), "{err}");
        assert!(err.to_string().contains("usage: test"), "{err}");
        assert_eq!(err.code(), 2);
        for (arg, needle) in [
            (Some("--bogus"), "unknown flag `--bogus`"),
            (Some("bench"), "unknown subcommand `bench`"),
            (None, "missing subcommand"),
        ] {
            let err = a.unknown_subcommand(arg);
            assert!(err.to_string().contains(needle), "{err}");
            assert!(err.to_string().contains("usage: test"), "{err}");
            assert_eq!(err.code(), 2);
        }
        let help =
            |list: &[&str]| wants_help(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(help(&["run", "--sets", "3", "--help"]));
        assert!(help(&["-h"]));
        assert!(!help(&["run", "--helpful"]));
    }

    fn sweep_options(list: &[&str]) -> Result<crate::SweepOptions, CliError> {
        let mut a = args(list);
        let mut flags = SweepFlags::default();
        while let Some(flag) = a.next_arg() {
            assert!(flags.apply(&mut a, &flag)?, "{flag} is a sweep flag");
        }
        Ok(flags.options())
    }

    #[test]
    fn sweep_flags_reach_the_options() {
        let opts = sweep_options(&["--threads", "3", "--sets", "9", "--seed", "77"]).unwrap();
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.sets_per_point, 9);
        assert_eq!(opts.seed, 77);
        assert_eq!(sweep_options(&[]).unwrap(), crate::SweepOptions::paper());
    }

    #[test]
    fn quick_resets_and_unshared_flags_fall_through() {
        let quick = crate::SweepOptions::quick();
        assert_eq!(sweep_options(&["--quick"]).unwrap(), quick);
        let mut a = args(&[]);
        assert_eq!(SweepFlags::default().apply(&mut a, "--out"), Ok(false));
    }

    #[test]
    fn quick_keeps_explicit_flags_in_any_order() {
        let explicit = ["--sets", "3", "--seed", "9", "--threads", "1"];
        let expected = crate::SweepOptions::quick()
            .with_sets_per_point(3)
            .with_seed(9)
            .with_threads(1);
        let mut quick_last = explicit.to_vec();
        quick_last.push("--quick");
        let mut quick_first = vec!["--quick"];
        quick_first.extend(explicit);
        assert_eq!(sweep_options(&quick_last).unwrap(), expected);
        assert_eq!(sweep_options(&quick_first).unwrap(), expected);
    }

    #[test]
    fn zero_sets_are_rejected() {
        let err = sweep_options(&["--quick", "--sets", "0"]).unwrap_err();
        assert!(
            err.to_string().contains("--sets: must be at least 1"),
            "{err}"
        );
    }

    #[test]
    fn obs_sinks_claim_their_flags_only() {
        let mut a = args(&["t.jsonl", "m.json", "ignored"]);
        let mut sinks = ObsSinks::default();
        assert_eq!(sinks.apply_flag(&mut a, "--trace"), Ok(true));
        assert_eq!(sinks.apply_flag(&mut a, "--metrics"), Ok(true));
        assert_eq!(sinks.apply_flag(&mut a, "--out"), Ok(false));
        assert_eq!(
            sinks.trace_path.as_deref(),
            Some(std::path::Path::new("t.jsonl"))
        );
        assert_eq!(
            sinks.metrics_path.as_deref(),
            Some(std::path::Path::new("m.json"))
        );
    }

    #[test]
    fn obs_sinks_missing_value_is_an_error() {
        let mut a = args(&[]);
        let mut sinks = ObsSinks::default();
        let err = sinks.apply_flag(&mut a, "--trace").unwrap_err();
        assert!(err.to_string().contains("--trace needs a value"), "{err}");
        assert_eq!(err.code(), 2);
    }

    #[test]
    fn obs_sinks_report_unwritable_destinations() {
        let sinks = ObsSinks {
            trace_path: Some(PathBuf::from("/nonexistent-dir/trace.jsonl")),
            metrics_path: None,
        };
        let err = sinks.write_events(&[]).unwrap_err();
        assert!(err.to_string().contains("cannot write"), "{err}");
        assert_eq!(err.code(), 1, "a write error is a failed run");
    }

    #[test]
    fn sweep_flag_errors_name_the_flag() {
        let err = sweep_options(&["--threads", "lots"]).unwrap_err();
        assert!(err.to_string().contains("--threads"), "{err}");
    }
}
