//! Metric arithmetic: the timed loop, medians and tail percentiles,
//! ratios with their base, process CPU and peak-RSS readers, and the
//! output digest.
//!
//! On a shared host the speed of a core switches between regimes about
//! 1.5× apart, lasting from a tenth of a second to minutes. So the loop
//! times many short chunks of a fixed input, each many times, and
//! measures every time in units of a fixed speed probe run just before
//! it; the median of those ratios, converted back to seconds at the
//! probe's reference time, is steady whichever regimes a run falls in.

use std::fmt::Write as _;
use std::time::Instant;

/// Passes over the input every timed loop makes, however short
/// `--seconds` is: a chunk's best time needs several samples.
pub const MIN_PASSES: usize = 3;

/// Set-up is timed this many times per run, spread evenly over the run,
/// and its median reported.
pub const SETUP_REPS: usize = 11;

/// Wall seconds of [`probe`] on the reference core: its fastest run on
/// the two-vCPU host the benchmark was defined on. It converts probe
/// units back to seconds; only the unit of the figures depends on it.
pub const PROBE_REFERENCE_S: f64 = 0.000_8;

/// What one round of a workload did.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Items the round attempted.
    pub items: u64,
    /// Items that failed (a batch error, a generation failure, an oracle
    /// violation).
    pub failed: u64,
    /// Digest of every output the round produced.
    pub digest: u64,
    /// Broken output invariants, one message each.
    pub broken: Vec<String>,
}

/// Per-chunk measurements of one timed loop.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Items of each chunk.
    pub items: Vec<u64>,
    /// Wall seconds of every run of each chunk.
    pub walls: Vec<Vec<f64>>,
    /// CPU seconds (user + system, all threads) of every run of each
    /// chunk.
    pub cpus: Vec<Vec<f64>>,
    /// Wall seconds of the probe run just before every run of each chunk.
    pub probes: Vec<Vec<f64>>,
    /// Wall seconds of every timed set-up, with the probe run just after
    /// it.
    pub setups: Vec<(f64, f64)>,
    /// Items attempted over all rounds.
    pub attempted: u64,
    /// Items failed over all rounds.
    pub failed: u64,
    /// Digest of the first pass's outputs.
    pub digest: u64,
    /// Broken invariants over all rounds, including a chunk whose outputs
    /// differ from its first run's.
    pub broken: Vec<String>,
}

impl Timed {
    fn total_items(&self) -> f64 {
        self.items.iter().sum::<u64>() as f64
    }

    /// Reference-core seconds of one pass, from `cost` (wall or CPU
    /// seconds of every run of each chunk): per chunk, the median over
    /// its runs of the cost in probe units.
    fn reference_seconds(&self, cost: &[Vec<f64>]) -> f64 {
        let probe_units: f64 = cost
            .iter()
            .zip(&self.probes)
            .map(|(runs, probes)| {
                let ratios: Vec<f64> = runs.iter().zip(probes).map(|(c, p)| c / p).collect();
                median(&ratios)
            })
            .sum();
        probe_units * PROBE_REFERENCE_S
    }

    /// Items per reference-core second.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.total_items() / self.reference_seconds(&self.walls)
    }

    /// Reference-core CPU milliseconds per item.
    #[must_use]
    pub fn cpu_ms_per_item(&self) -> f64 {
        self.reference_seconds(&self.cpus) * 1e3 / self.total_items()
    }

    /// Median set-up time in reference-core seconds.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        let ratios: Vec<f64> = self.setups.iter().map(|(s, p)| s / p).collect();
        median(&ratios) * PROBE_REFERENCE_S
    }

    /// Items per second as measured, each chunk at its fastest run.
    #[must_use]
    pub fn measured_best_rate(&self) -> f64 {
        let best: f64 = self.walls.iter().map(|w| min(w)).sum();
        self.total_items() / best
    }

    /// Items per second as measured, each chunk at its median run.
    #[must_use]
    pub fn measured_median_rate(&self) -> f64 {
        let typical: f64 = self.walls.iter().map(|w| median(w)).sum();
        self.total_items() / typical
    }
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The speed probe: fixed work of the kind the workloads do, branchy
/// integer code over a cache-resident table (an insertion sort, like the
/// fixed points), sharing no code with the program under test. Returns
/// its wall seconds.
#[must_use]
pub fn probe() -> f64 {
    const N: usize = 2048;
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut table: Vec<u64> = (0..N)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 1_000_003
        })
        .collect();
    for i in 1..N {
        let v = table[i];
        let mut j = i;
        while j > 0 && table[j - 1] > v {
            table[j] = table[j - 1];
            j -= 1;
        }
        table[j] = v;
    }
    std::hint::black_box(&table);
    t0.elapsed().as_secs_f64()
}

/// Runs `round` over every chunk of a fixed input, pass after pass, until
/// `seconds` of rounds have passed and at least [`MIN_PASSES`] complete
/// passes ran, timing each round's wall and CPU time after a [`probe`].
/// Between rounds it times `setup` [`SETUP_REPS`] times in all, spread
/// evenly over the run. Every run of a chunk must reproduce its first
/// run's output digest.
pub fn timed_loop<I>(
    seconds: f64,
    chunks: &[I],
    mut setup: impl FnMut(),
    mut round: impl FnMut(&I) -> Round,
) -> Timed {
    assert!(!chunks.is_empty(), "at least one chunk");
    let k = chunks.len();
    let mut timed = Timed {
        walls: vec![Vec::new(); k],
        cpus: vec![Vec::new(); k],
        probes: vec![Vec::new(); k],
        items: vec![0; k],
        ..Timed::default()
    };
    let mut digests = vec![0u64; k];
    let mut busy = 0.0;
    let mut i = 0;
    while i % k != 0 || i / k < MIN_PASSES || busy < seconds {
        let due = timed.setups.len() < SETUP_REPS
            && busy >= seconds * timed.setups.len() as f64 / SETUP_REPS as f64;
        let setup_s = due.then(|| {
            let t0 = Instant::now();
            setup();
            t0.elapsed().as_secs_f64()
        });
        let (c, pass) = (i % k, i / k);
        let p = probe();
        timed.probes[c].push(p);
        if let Some(s) = setup_s {
            timed.setups.push((s, p));
        }
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let out = round(&chunks[c]);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu0;
        busy += wall;
        timed.walls[c].push(wall);
        timed.cpus[c].push(cpu);
        timed.items[c] = out.items;
        timed.attempted += out.items;
        timed.failed += out.failed;
        if pass == 0 {
            digests[c] = out.digest;
        } else if out.digest != digests[c] {
            timed
                .broken
                .push(format!("chunk {c} pass {pass}: outputs differ from pass 0"));
        }
        timed.broken.extend(out.broken);
        i += 1;
    }
    let mut digest = Digest::new();
    for d in digests {
        digest.u64(d);
    }
    timed.digest = digest.finish();
    timed
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles a tail may be reported at, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The nearest-rank position (1-based) of percentile `p` among `n`
/// sorted samples, in exact per-mille arithmetic (`99.9 / 100 × 10000`
/// is not 9990 in floating point).
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The highest percentile of the ladder that leaves at least ten samples
/// beyond it among `n` samples, or `None` when even the median does not.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= rank(p, n) + 10)
}

/// Nearest-rank percentile `p` of `samples` (unsorted); 0 when empty.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len()) - 1]
}

/// A ratio kept together with its base, so a report can state both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator count.
    pub part: u64,
    /// Denominator count (the base).
    pub base: u64,
}

impl Ratio {
    /// `part / base`, or 0 when the base is 0.
    #[must_use]
    pub fn value(self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.part as f64 / self.base as f64
        }
    }

    /// Hits over hits plus misses.
    #[must_use]
    pub fn hits(hits: u64, misses: u64) -> Ratio {
        Ratio {
            part: hits,
            base: hits + misses,
        }
    }
}

/// Divides, returning 0 for a zero denominator (a layer the workload
/// never called).
#[must_use]
pub fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s (user and
/// system time, each two `i64`s) followed by fourteen `long` counters.
#[repr(C)]
struct Rusage([i64; 18]);

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU seconds of this process so far, all threads
/// (including exited ones) counted, at microsecond resolution; 0 if the
/// call fails.
#[must_use]
pub fn cpu_seconds() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage([0; 18]);
    // SAFETY: `getrusage` writes one `struct rusage` through the pointer,
    // and `Rusage` has exactly its size and alignment on 64-bit Linux
    // (144 bytes, 8-aligned); the pointer is valid for the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    let [user_s, user_us, sys_s, sys_us, ..] = usage.0;
    (user_s + sys_s) as f64 + (user_us + sys_us) as f64 * 1e-6
}

/// Peak resident set size of this process in MiB; 0 when `/proc` is
/// unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kb(&status))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The `VmHWM` (peak RSS) line of `/proc/<pid>/status`, in kB.
#[must_use]
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
}

/// 64-bit FNV-1a over a sequence of byte strings and integers. Each
/// string is length-prefixed, so `("ab", "c")` and `("a", "bc")` differ.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Digest {
    /// A fresh digest.
    #[must_use]
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds one string.
    pub fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }

    /// Feeds one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `count`, `ratio`, ...).
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Formats a finite number for JSON with all its digits; non-finite
/// values (which no metric should produce) become 0.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in the given order.
#[must_use]
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        // Fewer than 20 samples: not even the median has ten beyond it.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        // p75 of 40 is rank 30, leaving exactly 10.
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        // p90 of 100 is rank 90, leaving exactly 10.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..2000 {
            let p = tail_percentile(n).expect("n >= 20");
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn ratios_keep_their_base() {
        let r = Ratio::hits(3, 1);
        assert_eq!((r.part, r.base), (3, 4));
        assert_eq!(r.value(), 0.75);
        assert_eq!(Ratio::hits(0, 0).value(), 0.0);
        assert_eq!(per(10.0, 4), 2.5);
        assert_eq!(per(10.0, 0), 0.0);
    }

    #[test]
    fn cpu_and_rss_readers_see_this_process() {
        let before = cpu_seconds();
        let spin = Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spent = cpu_seconds() - before;
        // Microsecond resolution: 50 ms of spinning reads as roughly that,
        // not as a multiple of a 10 ms scheduler tick.
        assert!(spent > 0.01 && spent < 1.0, "{spent}");
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn vm_hwm_parses_kilobytes() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn digest_is_stable_and_length_prefixed() {
        let mut a = Digest::new();
        a.str("ab");
        a.str("c");
        let mut b = Digest::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut again = Digest::new();
        again.str("ab");
        again.str("c");
        assert_eq!(a.finish(), again.finish());
        // Pinned value: a change of the hash function shows up here, not
        // as a silent mismatch against digests recorded earlier.
        let mut pinned = Digest::new();
        pinned.str("persistence");
        pinned.u64(2020);
        assert_eq!(pinned.finish(), PINNED_DIGEST);
    }

    /// FNV-1a 64 of the length-prefixed bytes, computed independently.
    const PINNED_DIGEST: u64 = 3_614_610_629_618_710_484;

    #[test]
    fn timed_loop_makes_full_passes_and_checks_repeats() {
        // Chunk `items` outputs digest `items`, except on call `break_at`.
        let run = |seconds, break_at: usize| {
            let mut calls = 0;
            let mut setups = 0;
            let timed = timed_loop(
                seconds,
                &[2u64, 3],
                || setups += 1,
                |&items| {
                    let digest = if calls == break_at { 99 } else { items };
                    calls += 1;
                    if seconds > 0.0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    Round {
                        items,
                        failed: 0,
                        digest,
                        broken: Vec::new(),
                    }
                },
            );
            (timed, setups)
        };
        let (a, setups) = run(0.0, usize::MAX);
        assert_eq!(a.walls[0].len(), MIN_PASSES);
        assert_eq!(a.walls[1].len(), MIN_PASSES);
        assert_eq!(a.attempted, 5 * MIN_PASSES as u64);
        assert_eq!(a.items, vec![2, 3]);
        // With no time to spread over, a set-up precedes every round.
        assert_eq!(setups, 2 * MIN_PASSES);
        assert!(a.broken.is_empty(), "{:?}", a.broken);
        assert!(a.measured_best_rate() >= a.measured_median_rate());
        assert!(a.rate() > 0.0 && a.cpu_ms_per_item() >= 0.0);
        // Call 3 is chunk 1 of pass 1.
        let (b, _) = run(0.0, 3);
        assert_eq!(b.broken, vec!["chunk 1 pass 1: outputs differ from pass 0"]);
        let (c, setups) = run(0.1, usize::MAX);
        assert_eq!(c.walls[0].len(), c.walls[1].len(), "whole passes only");
        assert!(c.walls[0].len() > MIN_PASSES);
        assert_eq!((setups, c.setups.len()), (SETUP_REPS, SETUP_REPS));
    }

    #[test]
    fn times_are_converted_through_their_probes() {
        assert!(probe() > 0.0);
        let r = PROBE_REFERENCE_S;
        // Two chunks; a run at half speed takes twice as long, and so does
        // its probe: the ratio, and the figure, do not move.
        let timed = Timed {
            items: vec![10, 30],
            walls: vec![vec![0.1, 0.2, 0.1], vec![0.3, 0.6]],
            cpus: vec![vec![0.05, 0.1, 0.05], vec![0.15, 0.3]],
            probes: vec![vec![r, 2.0 * r, r], vec![r, 2.0 * r]],
            setups: vec![(0.01, r), (0.04, 2.0 * r), (0.5, r)],
            ..Timed::default()
        };
        assert!((timed.rate() - 100.0).abs() < 1e-9);
        assert!((timed.cpu_ms_per_item() - 5.0).abs() < 1e-9);
        assert!((timed.setup_s() - 0.02).abs() < 1e-12);
        assert!((timed.measured_best_rate() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_render_as_json_objects() {
        let m = [Metric::new("a", 1.5, "ms"), Metric::new("b", f64::NAN, "s")];
        assert_eq!(
            metrics_json(&m),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}"
        );
    }
}
