//! JSON in and out over the vendored `serde::json::Value`.
//!
//! The vendored serde derives only flat structs, and every document here
//! is a map keyed by metric or workload name, so documents are built as
//! `Value` trees and rendered by hand.

use serde::json::{push_escaped, Value};
use std::collections::BTreeMap;

/// A float as a JSON number with every digit (`null` if not finite).
pub fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::Num(format!("{x:?}"))
    } else {
        Value::Null
    }
}

/// An unsigned count as a JSON number.
pub fn int(x: u64) -> Value {
    Value::Num(x.to_string())
}

/// A JSON string.
pub fn string(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// A JSON object from `(key, value)` pairs.
pub fn object<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Read a number out of `v` (integers included).
pub fn as_f64(v: &Value) -> Result<f64, String> {
    match v {
        Value::Num(s) => s.parse().map_err(|e| format!("bad number {s:?}: {e}")),
        other => Err(format!("expected number, got {}", other.kind())),
    }
}

/// Read a string out of `v`.
pub fn as_str(v: &Value) -> Result<&str, String> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("expected string, got {}", other.kind())),
    }
}

/// Read an array out of `v`.
pub fn as_arr(v: &Value) -> Result<&[Value], String> {
    match v {
        Value::Arr(a) => Ok(a),
        other => Err(format!("expected array, got {}", other.kind())),
    }
}

/// Read an object out of `v`.
pub fn as_obj(v: &Value) -> Result<&BTreeMap<String, Value>, String> {
    match v {
        Value::Obj(m) => Ok(m),
        other => Err(format!("expected object, got {}", other.kind())),
    }
}

/// Fetch `name` from object `v`.
pub fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    v.field(name).map_err(|e| e.to_string())
}

/// Parse a JSON document.
pub fn parse(src: &str) -> Result<Value, String> {
    serde::json::parse(src).map_err(|e| e.to_string())
}

/// Render on one line (the driver reads the last line of stdout).
pub fn compact(v: &Value) -> String {
    let mut out = String::new();
    render(v, None, &mut out);
    out
}

/// Render indented by two spaces (result files people read).
pub fn pretty(v: &Value) -> String {
    let mut out = String::new();
    render(v, Some(0), &mut out);
    out.push('\n');
    out
}

fn render(v: &Value, indent: Option<usize>, out: &mut String) {
    let (open, sep) = match indent {
        Some(n) => (
            format!("\n{}", "  ".repeat(n + 1)),
            format!("\n{}", "  ".repeat(n)),
        ),
        None => (String::new(), String::new()),
    };
    let inner = indent.map(|n| n + 1);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => out.push_str(n),
        Value::Str(s) => push_escaped(out, s),
        Value::Arr(items) if items.is_empty() => out.push_str("[]"),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&open);
                render(item, inner, out);
            }
            out.push_str(&sep);
            out.push(']');
        }
        Value::Obj(map) if map.is_empty() => out.push_str("{}"),
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&open);
                push_escaped(out, k);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                render(item, inner, out);
            }
            out.push_str(&sep);
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_renderings_parse_back_to_the_same_value() {
        let v = object([
            ("name", string("a \"quoted\" name")),
            ("value", num(0.1 + 0.2)),
            ("count", int(u64::MAX)),
            ("none", num(f64::NAN)),
            (
                "rows",
                Value::Arr(vec![int(1), Value::Arr(vec![]), object([])]),
            ),
        ]);
        assert_eq!(parse(&compact(&v)).unwrap(), v);
        assert_eq!(parse(&pretty(&v)).unwrap(), v);
        assert!(!compact(&v).contains('\n'));
        assert_eq!(as_f64(field(&v, "value").unwrap()).unwrap(), 0.1 + 0.2);
        assert_eq!(
            as_f64(field(&v, "count").unwrap()).unwrap(),
            u64::MAX as f64
        );
    }
}
