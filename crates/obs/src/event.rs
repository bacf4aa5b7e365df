//! Structured trace events and their JSON-lines rendering.

use crate::json::write_json_string;
use crate::value::FieldValue;
use std::fmt::Write as _;

/// One structured trace event.
///
/// Events are **deterministic by construction**: payloads carry iteration
/// counts, seeds, and indices — never wall-clock values (timing lives only in
/// the separate self-profile, [`crate::ProfileNode`]). Ordering is carried by
/// the `(scope, seq)` pair: `scope` is a caller-chosen logical unit (e.g. the
/// campaign set index, see [`crate::set_scope`]) and `seq` is the emission
/// rank within that scope. Sorting a drained event buffer by `(scope, seq)`
/// therefore reconstructs one canonical order regardless of how many worker
/// threads interleaved, which is what makes same-seed traces byte-identical
/// across `--threads` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Logical ordering scope (campaign set index, experiment point, …).
    pub scope: u64,
    /// Emission rank within `scope` (resets when the scope changes).
    pub seq: u64,
    /// Static event name, dot-separated by subsystem (`wcrt.outer`, …).
    pub name: &'static str,
    /// Ordered field list; insertion order is preserved in the JSON output.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Appends the single-line JSON encoding of this event to `out`.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"scope\":{},\"seq\":{},\"name\":",
            self.scope, self.seq
        );
        write_json_string(self.name, out);
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (key, value)) in self.fields.iter().enumerate() {
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
}

/// Renders a slice of events as JSON lines (one event per line, trailing
/// newline after each).
pub fn events_to_json_lines(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        event.write_json(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_stable_and_ordered() {
        let event = Event {
            scope: 3,
            seq: 7,
            name: "wcrt.outer",
            fields: vec![
                ("iter", FieldValue::U64(2)),
                ("changed", FieldValue::U64(5)),
            ],
        };
        let mut out = String::new();
        event.write_json(&mut out);
        assert_eq!(
            out,
            "{\"scope\":3,\"seq\":7,\"name\":\"wcrt.outer\",\"fields\":{\"iter\":2,\"changed\":5}}"
        );
    }

    #[test]
    fn integral_float_fields_keep_their_decimal_point() {
        let event = Event {
            scope: 0,
            seq: 1,
            name: "wcrt.x",
            fields: vec![("v", FieldValue::F64(3.0)), ("big", FieldValue::F64(1e20))],
        };
        let mut out = String::new();
        event.write_json(&mut out);
        assert_eq!(
            out,
            "{\"scope\":0,\"seq\":1,\"name\":\"wcrt.x\",\"fields\":\
             {\"v\":3.0,\"big\":100000000000000000000}}"
        );
    }

    #[test]
    fn fieldless_events_omit_the_fields_object() {
        let event = Event {
            scope: 0,
            seq: 0,
            name: "campaign.start",
            fields: vec![],
        };
        let mut out = String::new();
        event.write_json(&mut out);
        assert_eq!(out, "{\"scope\":0,\"seq\":0,\"name\":\"campaign.start\"}");
    }
}
