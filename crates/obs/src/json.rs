//! The workspace's one hand-rolled JSON writer: the string escaper and float
//! rule every `cpa-obs` and `cpa-telemetry` artefact shares.
//!
//! `cpa-obs` must stay dependency-free (it sits below every other crate in
//! the workspace), so it does not use `serde`; the JSON subset emitted here
//! is deliberately tiny: objects, arrays, strings, booleans, integers and
//! floats (non-finite ones as `null`). The tests read the output back with
//! the vendored `serde_json`, a dev-dependency only.

use std::fmt::Write as _;

/// Appends `v` to `out` as a JSON number, by the vendored `serde_json`'s
/// rule: integral values below 1e15 in magnitude keep a `.0` suffix (so
/// they read back as floats), other finite values print through `Display`
/// (shortest round-trip), and non-finite values become `null`.
pub fn write_json_f64(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends `s` to `out` as a quoted, RFC 8259-escaped JSON string.
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn floats_write_with_trailing_point_zero() {
        let mut out = String::new();
        write_json_f64(2.0, &mut out);
        assert_eq!(out, "2.0");
        assert_eq!(
            serde_json::from_str::<Value>(&out).unwrap(),
            Value::F64(2.0)
        );
        out.clear();
        write_json_f64(2.5, &mut out);
        assert_eq!(out, "2.5");
    }

    #[test]
    fn escapes_control_characters() {
        let mut out = String::new();
        write_json_string("a\u{1}b", &mut out);
        assert_eq!(out, "\"a\\u0001b\"");
        assert_eq!(
            serde_json::from_str::<Value>(&out).unwrap(),
            Value::Str("a\u{1}b".to_string())
        );
    }
}
