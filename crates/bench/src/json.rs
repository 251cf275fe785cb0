//! A minimal JSON value type and serialiser for the machine-readable benchmark
//! output of `tpath-bench`.
//!
//! The offline build has no `serde_json` (see `vendor/README.md`), so the benchmark
//! renders its report with this ~hundred-line writer instead.  Only what the report
//! needs is supported: objects with ordered
//! keys, arrays, strings, integers, finite floats, booleans and null.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialised without a decimal point).
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A finite float, serialised with six significant decimals.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep their insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object values.
    pub fn obj(entries: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serialises the value as pretty-printed JSON (two-space indentation).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f:.6}");
                } else {
                    // JSON has no NaN/Infinity; degrade to null rather than emit
                    // an unparsable token.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

    #[test]
    fn renders_nested_structures() {
        let value = Json::obj([
            ("label", Json::str("ci")),
            ("count", Json::UInt(3)),
            ("delta", Json::Int(-1)),
            ("seconds", Json::Float(0.25)),
            ("ok", Json::Bool(true)),
            ("rss", Json::Null),
            ("runs", Json::Arr(vec![Json::UInt(1), Json::UInt(2)])),
            ("empty_list", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let text = value.render();
        assert!(text.contains("\"label\": \"ci\""));
        assert!(text.contains("\"seconds\": 0.250000"));
        assert!(text.contains("\"rss\": null"));
        assert!(text.contains("\"empty_list\": []"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings_and_rejects_non_finite_floats() {
        assert_eq!(Json::str("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"\n");
        assert_eq!(Json::Float(f64::NAN).render(), "null\n");
    }
}
