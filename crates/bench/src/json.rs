//! Machine-readable harness output (hand-rolled JSON; the build
//! environment is offline, so no serde): the `BENCH_*.json` files the
//! study commands write.

use std::fmt::Write as _;

/// A minimal ordered JSON object builder (numbers, strings, and arrays
/// of objects — everything the harness emits).
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, JsonValue)>,
}

#[derive(Debug)]
enum JsonValue {
    Num(f64),
    Str(String),
    Array(Vec<JsonObject>),
}

impl JsonObject {
    /// Creates an empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Appends a numeric field. Integral values are rendered without a
    /// decimal point; non-finite values render as `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.fields.push((key.to_string(), JsonValue::Num(value)));
        self
    }

    /// Appends a string field (escaped).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.fields
            .push((key.to_string(), JsonValue::Str(value.to_string())));
        self
    }

    /// Appends an array-of-objects field.
    pub fn array(&mut self, key: &str, values: Vec<JsonObject>) -> &mut Self {
        self.fields
            .push((key.to_string(), JsonValue::Array(values)));
        self
    }

    /// Renders the object pretty-printed at the given indent level.
    pub fn render(&self, indent: usize) -> String {
        let pad = "  ".repeat(indent + 1);
        let mut s = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n{pad}\"{}\": ", escape(k));
            match v {
                JsonValue::Num(n) => s.push_str(&render_num(*n)),
                JsonValue::Str(v) => {
                    let _ = write!(s, "\"{}\"", escape(v));
                }
                JsonValue::Array(items) => {
                    s.push('[');
                    for (j, item) in items.iter().enumerate() {
                        if j > 0 {
                            s.push(',');
                        }
                        let _ = write!(s, "\n{pad}  {}", item.render(indent + 2));
                    }
                    if items.is_empty() {
                        s.push(']');
                    } else {
                        let _ = write!(s, "\n{pad}]");
                    }
                }
            }
        }
        let _ = write!(s, "\n{}}}", "  ".repeat(indent));
        s
    }
}

fn render_num(n: f64) -> String {
    if !n.is_finite() {
        "null".to_string()
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        let mut o = JsonObject::new();
        o.str("k", "a\"b\\c\nd");
        assert_eq!(o.render(0), "{\n  \"k\": \"a\\\"b\\\\c\\nd\"\n}");
    }

    #[test]
    fn renders_integers_without_fraction() {
        assert_eq!(render_num(5.0), "5");
        assert_eq!(render_num(0.5), "0.5");
        assert_eq!(render_num(f64::NAN), "null");
    }
}
