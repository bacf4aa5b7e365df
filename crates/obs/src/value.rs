//! Field values carried by events, encoded with the [`crate::json`] writer.

use std::fmt::Write as _;

use crate::json::{write_json_f64, write_json_string};

/// A single typed field value attached to an [`crate::Event`].
///
/// Values are deliberately restricted to deterministic encodings: integers
/// render exactly, floats render through [`write_json_f64`] (identical
/// across runs for identical bits), and strings are escaped per RFC 8259.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (cycle counts, iteration numbers, indices).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point value; non-finite values encode as `null`.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Owned string (task names, labels, policy names).
    Str(String),
}

impl FieldValue {
    /// Appends the JSON encoding of this value to `out`.
    pub fn write_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) => write_json_f64(*v, out),
            FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            FieldValue::Str(s) => write_json_string(s, out),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<u16> for FieldValue {
    fn from(v: u16) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(v: FieldValue) -> String {
        let mut s = String::new();
        v.write_json(&mut s);
        s
    }

    #[test]
    fn integers_render_exactly() {
        assert_eq!(json(FieldValue::U64(u64::MAX)), u64::MAX.to_string());
        assert_eq!(json(FieldValue::I64(-42)), "-42");
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(json(FieldValue::F64(0.5)), "0.5");
        assert_eq!(json(FieldValue::F64(3.0)), "3.0");
        assert_eq!(json(FieldValue::F64(f64::NAN)), "null");
        assert_eq!(json(FieldValue::F64(-2.0)), "-2.0");
        assert_eq!(json(FieldValue::F64(1e20)), "100000000000000000000");
    }

    #[test]
    fn strings_escape_control_characters() {
        let mut out = String::new();
        write_json_string("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
