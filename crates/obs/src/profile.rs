//! Self-profile: a span tree with wall-time aggregation.
//!
//! Wall-clock timing is deliberately quarantined here — trace [`crate::Event`]s
//! never carry time, so the event stream stays deterministic while the profile
//! answers "where did the time go".

use crate::json::write_json_string;
use std::fmt::Write as _;

/// One node of the aggregated span tree.
///
/// A node accumulates every execution of the span name at this tree path,
/// across all threads: `calls` executions totalling `nanos` wall-clock
/// nanoseconds (inclusive of child spans).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileNode {
    /// Span name (`""` for the synthetic root).
    pub name: String,
    /// Number of completed span executions aggregated into this node.
    pub calls: u64,
    /// Total inclusive wall time in nanoseconds.
    pub nanos: u64,
    /// Child spans, in first-seen order until [`ProfileNode::sort`].
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Creates an empty node with the given name.
    #[must_use]
    pub fn new(name: &str) -> Self {
        ProfileNode {
            name: name.to_string(),
            ..ProfileNode::default()
        }
    }

    /// Returns the child named `name`, creating it if absent.
    fn child_mut(&mut self, name: &str) -> &mut ProfileNode {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            return &mut self.children[i];
        }
        self.children.push(ProfileNode::new(name));
        self.children.last_mut().expect("just pushed")
    }

    /// Records one completed execution at the given path below this node.
    pub fn record(&mut self, path: &[&str], nanos: u64) {
        let mut node = self;
        for name in path {
            node = node.child_mut(name);
        }
        node.calls += 1;
        node.nanos = node.nanos.saturating_add(nanos);
    }

    /// Wall time spent in this node but not in any child.
    #[must_use]
    pub fn self_nanos(&self) -> u64 {
        let in_children: u64 = self.children.iter().map(|c| c.nanos).sum();
        self.nanos.saturating_sub(in_children)
    }

    /// Total wall time across the top-level children (the root node itself
    /// has no timing of its own).
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        if self.name.is_empty() {
            self.children.iter().map(|c| c.nanos).sum()
        } else {
            self.nanos
        }
    }

    /// Sorts every level by descending wall time (name as tiebreak) so the
    /// rendering is deterministic given identical timings.
    pub fn sort(&mut self) {
        self.children
            .sort_by(|a, b| b.nanos.cmp(&a.nanos).then_with(|| a.name.cmp(&b.name)));
        for child in &mut self.children {
            child.sort();
        }
    }

    /// Encodes the subtree as a JSON object
    /// (`{"name":..,"calls":..,"nanos":..,"children":[..]}`).
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        write_json_string(&self.name, out);
        let _ = write!(
            out,
            ",\"calls\":{},\"nanos\":{},\"children\":[",
            self.calls, self.nanos
        );
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.write_json(out);
        }
        out.push_str("]}");
    }

    /// Encodes the subtree as a standalone JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Renders the subtree as an indented pretty-text table with per-span
    /// totals and percentages of the overall wall time.
    #[must_use]
    pub fn render_text(&self) -> String {
        let total = self.total_nanos().max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>10} {:>12} {:>6}",
            "span", "calls", "total", "%"
        );
        for child in &self.children {
            child.render_into(&mut out, 0, total);
        }
        out
    }

    fn render_into(&self, out: &mut String, depth: usize, total: u64) {
        let label = format!("{}{}", "  ".repeat(depth), self.name);
        let _ = writeln!(
            out,
            "{:<44} {:>10} {:>12} {:>5.1}%",
            label,
            self.calls,
            format_nanos(self.nanos),
            100.0 * self.nanos as f64 / total as f64
        );
        for child in &self.children {
            child.render_into(out, depth + 1, total);
        }
    }
}

/// Formats nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`).
#[must_use]
pub fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_builds_and_aggregates_paths() {
        let mut root = ProfileNode::new("");
        root.record(&["a", "b"], 100);
        root.record(&["a", "b"], 50);
        root.record(&["a"], 400);
        assert_eq!(root.children.len(), 1);
        let a = &root.children[0];
        assert_eq!((a.calls, a.nanos), (1, 400));
        assert_eq!((a.children[0].calls, a.children[0].nanos), (2, 150));
        assert_eq!(a.self_nanos(), 250);
        assert_eq!(root.total_nanos(), 400);
    }

    #[test]
    fn json_roundtrips_the_shape() {
        let mut root = ProfileNode::new("");
        root.record(&["x"], 7);
        assert_eq!(
            root.to_json(),
            "{\"name\":\"\",\"calls\":0,\"nanos\":0,\"children\":[\
             {\"name\":\"x\",\"calls\":1,\"nanos\":7,\"children\":[]}]}"
        );
    }
}
