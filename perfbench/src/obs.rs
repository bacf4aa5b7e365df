//! Reading the program's own `cpa-obs` counters and spans around a pass,
//! and checking that the deterministic counters repeat exactly.

use std::time::Instant;

use cpa_obs::{MetricsSnapshot, ProfileNode};

use crate::measure::{Metric, Ratio};

/// Counters whose values depend on how work was scheduled onto workers,
/// not on the work: the `cpa-telemetry` scheduling meters plus the ones
/// the benchmark names explicitly.
fn scheduling_meter(name: &str) -> bool {
    cpa_telemetry::is_scheduling_meter(name)
        || name.starts_with("experiments.chain_")
        || name.starts_with("pool.chunks_")
        || matches!(
            name,
            "engine.warm_starts" | "engine.segments_reused" | "engine.inner_iters_saved"
        )
}

/// Counter deltas of one pass, keeping only the counters that must repeat
/// exactly for equal inputs (sorted by name, zero deltas dropped).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts(pub Vec<(String, u64)>);

impl Counts {
    /// Deterministic counter deltas since `before`.
    #[must_use]
    pub fn since(before: &MetricsSnapshot) -> Counts {
        Counts::from_delta(&cpa_obs::metrics_snapshot(), before)
    }

    fn from_delta(after: &MetricsSnapshot, before: &MetricsSnapshot) -> Counts {
        Counts(
            after
                .delta_since(before)
                .counters
                .into_iter()
                .filter(|(name, value)| *value > 0 && !scheduling_meter(name))
                .collect(),
        )
    }

    /// Adds `other`'s deltas to these.
    pub fn add(&mut self, other: &Counts) {
        for (name, value) in &other.0 {
            match self.0.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.0[i].1 += value,
                Err(i) => self.0.insert(i, (name.clone(), *value)),
            }
        }
    }

    /// The delta of counter `name` (0 when it did not move).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Names and values that differ between two passes.
    #[must_use]
    pub fn differences(&self, other: &Counts) -> Vec<String> {
        let mut names: Vec<&str> = self
            .0
            .iter()
            .chain(&other.0)
            .map(|(n, _)| n.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .filter(|n| self.get(n) != other.get(n))
            .map(|n| format!("{n}: {} vs {}", self.get(n), other.get(n)))
            .collect()
    }

    /// `{"name": value, ...}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// One pass over a workload: its wall time, counter deltas and (when
/// traced) the span tree it recorded.
#[derive(Debug)]
pub struct Pass<T> {
    /// What the pass returned.
    pub out: T,
    /// Wall seconds.
    pub wall: f64,
    /// Deterministic counter deltas.
    pub counts: Counts,
    /// Span tree (empty root when untraced).
    pub profile: ProfileNode,
}

/// Runs `f` with the `cpa-obs` subscriber off. Counters are always on, so
/// the pass still has counts.
pub fn untraced<T>(f: impl FnOnce() -> T) -> Pass<T> {
    cpa_obs::disable();
    let before = cpa_obs::metrics_snapshot();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    Pass {
        out,
        wall,
        counts: Counts::from_delta(&cpa_obs::metrics_snapshot(), &before),
        profile: ProfileNode::new(""),
    }
}

/// Runs `f` with span timing on (`cpa_obs::enable_metrics`) on a freshly
/// reset registry, then turns it off again.
pub fn traced<T>(f: impl FnOnce() -> T) -> Pass<T> {
    cpa_obs::reset();
    let before = cpa_obs::metrics_snapshot();
    cpa_obs::enable_metrics();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    cpa_obs::disable();
    Pass {
        out,
        wall,
        counts: Counts::from_delta(&cpa_obs::metrics_snapshot(), &before),
        profile: cpa_obs::profile_snapshot(),
    }
}

/// Calls and inclusive nanoseconds of every span named `name`, wherever
/// it sits in the tree. Spans opened on pool workers start at the root,
/// spans of the calling thread nest under its open spans, so the tree is
/// searched whole.
#[must_use]
pub fn span(profile: &ProfileNode, name: &str) -> (u64, u64) {
    let mut calls = 0;
    let mut nanos = 0;
    let mut stack = vec![profile];
    while let Some(node) = stack.pop() {
        if node.name == name {
            calls += node.calls;
            nanos += node.nanos;
            // A span re-entered below itself would be counted twice.
            continue;
        }
        stack.extend(&node.children);
    }
    (calls, nanos)
}

/// The analysis engine's per-layer counts and hit ratios (each ratio
/// followed by its base), which every workload drives.
#[must_use]
pub fn engine_metrics(c: &Counts) -> Vec<Metric> {
    let count = |name: &str| Metric::new(name, c.get(name) as f64, "count");
    let hits = |name: &str, hit: &str, miss: &str| {
        Metric::new(name, Ratio::hits(c.get(hit), c.get(miss)).value(), "ratio")
    };
    let lookups = |name: &str, hit: &str, miss: &str| {
        Metric::new(name, (c.get(hit) + c.get(miss)) as f64, "count")
    };
    vec![
        count("engine.tasks_solved"),
        count("engine.tasks_skipped"),
        hits(
            "engine.curve_hit_ratio",
            "engine.curve_hit",
            "engine.curve_miss",
        ),
        lookups(
            "engine.curve_lookups",
            "engine.curve_hit",
            "engine.curve_miss",
        ),
        hits("engine.bao_hit_ratio", "engine.bao_hit", "engine.bao_miss"),
        lookups("engine.bao_lookups", "engine.bao_hit", "engine.bao_miss"),
        count("wcrt.outer_cap_hits"),
    ]
}

/// The passes of a traced run over one fixed input: an untimed warm-up,
/// untraced once (the base of the tracing overhead), then traced twice. Some layers count
/// only while a subscriber is active, so the exact-repeat check compares
/// the two traced passes; the outputs of all three must be equal.
pub struct TracePasses<T> {
    /// The untraced pass.
    pub plain: Pass<T>,
    /// The first traced pass, whose spans and counts are reported.
    pub traced: Pass<T>,
    /// Broken checks: counters that did not repeat, outputs that differ.
    pub broken: Vec<String>,
}

impl<T> TracePasses<T> {
    /// Runs the three passes of `f`; `digest` reduces an output to what
    /// must be equal between passes.
    pub fn run(what: &str, f: impl Fn() -> T, digest: impl Fn(&T) -> u64) -> TracePasses<T> {
        let _ = f();
        let plain = untraced(&f);
        let traced = traced(&f);
        let again = self::traced(&f);
        let mut broken: Vec<String> = traced
            .counts
            .differences(&again.counts)
            .into_iter()
            .map(|d| format!("{what}: counter did not repeat between traced passes: {d}"))
            .collect();
        let d = digest(&plain.out);
        if d != digest(&traced.out) || d != digest(&again.out) {
            broken.push(format!("{what}: outputs differ between passes"));
        }
        TracePasses {
            plain,
            traced,
            broken,
        }
    }

    /// Traced wall over untraced wall.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.traced.wall / self.plain.wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduling_meters_are_excluded() {
        for name in [
            "engine.warm_starts",
            "engine.segments_reused",
            "engine.inner_iters_saved",
            "experiments.chain_points_linked",
            "pool.chunks_claimed",
            "pool.chunks_stolen",
        ] {
            assert!(scheduling_meter(name), "{name}");
        }
        assert!(!scheduling_meter("engine.tasks_solved"));
        assert!(!scheduling_meter("sim.runs"));
    }

    #[test]
    fn differences_name_the_counter() {
        let a = Counts(vec![("x".into(), 1), ("y".into(), 2)]);
        let b = Counts(vec![("y".into(), 3), ("z".into(), 4)]);
        assert_eq!(
            a.differences(&b),
            vec!["x: 1 vs 0", "y: 2 vs 3", "z: 0 vs 4"]
        );
        assert!(a.differences(&a).is_empty());
        assert_eq!(a.to_json(), "{\"x\": 1, \"y\": 2}");
    }

    #[test]
    fn spans_are_summed_across_the_tree() {
        let mut root = ProfileNode::new("");
        root.record(&["a", "b"], 5);
        root.record(&["b"], 7);
        root.record(&["a"], 20);
        assert_eq!(span(&root, "b"), (2, 12));
        assert_eq!(span(&root, "missing"), (0, 0));
    }
}
