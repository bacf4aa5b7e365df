//! Chrome Trace Event / Perfetto JSON exporter.
//!
//! The export carries two processes:
//!
//! * **pid 0 — events.** Every structured [`Event`] becomes an instant event
//!   (`"ph":"i"`) whose track (`tid`) is the event's logical `scope` and whose
//!   timestamp is its `seq`. Both are deterministic by construction, so this
//!   half of the trace is byte-identical across thread counts.
//! * **pid 1 — self-profile.** The span tree becomes nested complete events
//!   (`"ph":"X"`) on a **logical-tick** timeline: a node's duration is its
//!   call count plus the durations of its children, laid out depth-first.
//!   Wall-clock nanoseconds are scheduling noise, so the export never
//!   carries them.

use cpa_obs::json::write_json_string;
use cpa_obs::{Event, ProfileNode};
use std::fmt::Write as _;

/// Renders events plus the span-tree self-profile as a Chrome Trace Event
/// JSON document (one trace event per line inside `traceEvents`).
#[must_use]
pub fn chrome_trace(events: &[Event], profile: &ProfileNode) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"events (tid = scope, ts = seq)\"}},\n",
    );
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"self-profile (logical ticks)\"}}",
    );
    for event in events {
        out.push_str(",\n");
        write_instant(event, &mut out);
    }
    let normalized = normalize_profile(profile);
    let mut cursor = 0u64;
    for child in &normalized.children {
        write_span(child, &mut cursor, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

fn write_instant(event: &Event, out: &mut String) {
    out.push_str("{\"name\":");
    write_json_string(event.name, out);
    let _ = write!(
        out,
        ",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{}",
        event.scope, event.seq
    );
    if !event.fields.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (key, value)) in event.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(key, out);
            out.push(':');
            value.write_json(out);
        }
        out.push('}');
    }
    out.push('}');
}

/// Logical duration of a node: one tick per completed call plus room for the
/// children. Guarantees every child interval nests strictly inside its parent.
fn weight(node: &ProfileNode) -> u64 {
    node.calls.max(1) + node.children.iter().map(weight).sum::<u64>()
}

fn write_span(node: &ProfileNode, cursor: &mut u64, out: &mut String) {
    let dur = weight(node);
    let start = *cursor;
    out.push_str(",\n{\"name\":");
    write_json_string(&node.name, out);
    let _ = write!(
        out,
        ",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":{start},\"dur\":{dur},\
         \"args\":{{\"calls\":{}}}}}",
        node.calls
    );
    let mut child_cursor = start;
    for child in &node.children {
        write_span(child, &mut child_cursor, out);
    }
    *cursor = start + dur;
}

/// Rebuilds the span tree for export: merges same-name siblings, sorts
/// every level by name (the registry sorts by wall time, which is
/// nondeterministic) and keeps only the call counts.
fn normalize_profile(node: &ProfileNode) -> ProfileNode {
    let mut out = ProfileNode::new(&node.name);
    out.calls = node.calls;
    for child in &node.children {
        merge_child(&mut out, normalize_profile(child));
    }
    out.children.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

fn merge_child(parent: &mut ProfileNode, child: ProfileNode) {
    if let Some(existing) = parent.children.iter_mut().find(|c| c.name == child.name) {
        existing.calls += child.calls;
        for grandchild in child.children {
            merge_child(existing, grandchild);
        }
    } else {
        parent.children.push(child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpa_obs::FieldValue;
    use serde_json::Value;

    fn profile_fixture() -> ProfileNode {
        let mut root = ProfileNode::new("");
        root.record(&["pool.chunk", "wcrt.analyze"], 100);
        root.record(&["pool.chunk", "wcrt.analyze"], 50);
        root.record(&["pool.chunk"], 10);
        root.record(&["pool.chunk"], 10);
        root.record(&["sim.run"], 30);
        root
    }

    #[test]
    fn events_map_to_instants_on_their_scope_track() {
        let events = vec![Event {
            scope: 3,
            seq: 7,
            name: "wcrt.outer",
            fields: vec![("iter", FieldValue::U64(2))],
        }];
        let root = ProfileNode::new("");
        let trace = chrome_trace(&events, &root);
        assert!(trace.contains(
            "{\"name\":\"wcrt.outer\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":3,\"ts\":7,\
             \"args\":{\"iter\":2}}"
        ));
        serde_json::from_str::<Value>(&trace).expect("chrome trace must be valid JSON");
    }

    #[test]
    fn spans_nest_and_siblings_merge() {
        let trace = chrome_trace(&[], &profile_fixture());
        let doc: Value = serde_json::from_str(&trace).unwrap();
        let events = doc.get("traceEvents").unwrap().as_seq().unwrap();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 3);
        let span = |name: &str| {
            let span = spans
                .iter()
                .find(|s| s.get("name").unwrap().as_str() == Some(name))
                .unwrap();
            let field = |key: &str| span.get(key).unwrap().as_u64().unwrap();
            let calls = span.get("args").unwrap().get("calls").unwrap().as_u64();
            (field("ts"), field("ts") + field("dur"), calls)
        };
        let (chunk_start, chunk_end, chunk_calls) = span("pool.chunk");
        let (wcrt_start, wcrt_end, wcrt_calls) = span("wcrt.analyze");
        assert_eq!((chunk_calls, wcrt_calls), (Some(2), Some(2)));
        assert!(chunk_start <= wcrt_start && wcrt_end <= chunk_end);
        assert!(!trace.contains("nanos"), "the export carries no wall time");
    }

    #[test]
    fn names_are_escaped() {
        let mut root = ProfileNode::new("");
        root.record(&["a\"b"], 5);
        let events = vec![Event {
            scope: 0,
            seq: 0,
            name: "quote\"d",
            fields: vec![("k\\ey", FieldValue::U64(1))],
        }];
        let trace = chrome_trace(&events, &root);
        let doc: Value = serde_json::from_str(&trace).expect("chrome trace must be valid JSON");
        let names: Vec<&str> = doc
            .get("traceEvents")
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .filter_map(|e| e.get("name").and_then(Value::as_str))
            .collect();
        assert!(names.contains(&"a\"b"));
        assert!(names.contains(&"quote\"d"));
        assert!(trace.contains("\"args\":{\"k\\\\ey\":1}"));
    }
}
