//! A minimal nested JSON document builder, std-only and deterministic.
//!
//! `recovery-telemetry` serializes flat key/value events; diagnostics
//! documents are trees (per-type sections holding curves holding pairs),
//! so this module provides the one thing the telemetry writer cannot:
//! nested objects and arrays with insertion-ordered fields. Rendering
//! rules match the telemetry crate so the two outputs stay consistent:
//! finite floats use Rust's shortest round-trip `{:?}` form, non-finite
//! floats become `null`, and strings go through telemetry's own escaper.

use std::fmt::Write as _;

use recovery_telemetry::write_json_str;

/// One JSON value: scalars, arrays, and insertion-ordered objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A float; non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; fields render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a field (builder style). Only meaningful on objects.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-object value — that is a programming
    /// error in the report assembler, not a data condition.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on non-object Json"),
        }
        self
    }

    /// Serializes the value as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => write_json_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(u64::from(v))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_documents_render_compactly() {
        let doc = Json::obj()
            .field("schema", "test.v1")
            .field("n", 3u64)
            .field("curve", vec![1.5f64, 2.0])
            .field(
                "inner",
                Json::obj().field("ok", true).field("bad", f64::NAN),
            );
        assert_eq!(
            doc.render(),
            r#"{"schema":"test.v1","n":3,"curve":[1.5,2.0],"inner":{"ok":true,"bad":null}}"#
        );
    }

    #[test]
    fn strings_escape_like_telemetry_events() {
        let doc = Json::obj().field("s", "a\"b\\c\nd\u{2}");
        assert_eq!(doc.render(), "{\"s\":\"a\\\"b\\\\c\\nd\\u0002\"}");
    }

    #[test]
    fn field_order_is_insertion_order() {
        let doc = Json::obj().field("zeta", 1u64).field("alpha", 2u64);
        assert_eq!(doc.render(), r#"{"zeta":1,"alpha":2}"#);
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn field_on_scalar_panics() {
        let _ = Json::U64(1).field("x", 1u64);
    }
}
