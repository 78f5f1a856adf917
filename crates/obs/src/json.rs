//! A tiny dependency-free JSON reader, and the two leaf encoders every
//! hand-rolled writer in the workspace shares.
//!
//! The build environment has no crates.io access, so the workspace carries
//! its own minimal parser: strict RFC 8259 syntax, numbers as `f64`,
//! objects as ordered key/value vectors. It exists so that sweep specs,
//! serve requests, journals and dumps can be read, and tests can
//! round-trip the simulator's JSON summaries (including the NaN → `null`
//! mapping), without an external crate.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (no trailing garbage).
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        skip_ws(b, &mut i);
        let v = parse_value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }

    /// Object member lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Member `key` as a number, mapping `null` (the JSON encoding of
    /// NaN/inf in this workspace) back to NaN. Missing keys and
    /// non-numbers are also NaN.
    pub fn num_or_nan(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(JsonValue::Num(n)) => *n,
            _ => f64::NAN,
        }
    }
}

/// Escapes `s` for embedding between the quotes of a JSON string.
pub fn esc(s: &str) -> String {
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

/// Encodes a number; JSON has no NaN/inf literals, so those become `null`
/// (which [`JsonValue::num_or_nan`] reads back as NaN).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Checks that `s` is one well-formed JSON document (no extensions, no
/// trailing garbage). Used by tests to prove the Chrome trace and JSON
/// summaries are well-formed without an external parser.
pub fn validate_json(s: &str) -> Result<(), String> {
    JsonValue::parse(s).map(|_| ())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<JsonValue, String> {
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            skip_ws(b, i);
            let mut members = Vec::new();
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(JsonValue::Obj(members));
            }
            loop {
                skip_ws(b, i);
                let key = parse_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                *i += 1;
                skip_ws(b, i);
                members.push((key, parse_value(b, i)?));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(JsonValue::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            skip_ws(b, i);
            let mut items = Vec::new();
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                skip_ws(b, i);
                items.push(parse_value(b, i)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        Some(b'"') => parse_string(b, i).map(JsonValue::Str),
        Some(b't') => parse_lit(b, i, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, i, "false").map(|()| JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, i, "null").map(|()| JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, i),
        _ => Err(format!("unexpected byte at {i}")),
    }
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}"));
    }
    *i += 1;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_string());
            }
            b'\\' => match b.get(*i + 1) {
                Some(&e @ (b'"' | b'\\' | b'/')) => {
                    out.push(e);
                    *i += 2;
                }
                Some(b'b') => {
                    out.push(0x08);
                    *i += 2;
                }
                Some(b'f') => {
                    out.push(0x0c);
                    *i += 2;
                }
                Some(b'n') => {
                    out.push(b'\n');
                    *i += 2;
                }
                Some(b'r') => {
                    out.push(b'\r');
                    *i += 2;
                }
                Some(b't') => {
                    out.push(b'\t');
                    *i += 2;
                }
                Some(b'u') => {
                    if b.len() < *i + 6 || !b[*i + 2..*i + 6].iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {i}"));
                    }
                    let code = std::str::from_utf8(&b[*i + 2..*i + 6])
                        .ok()
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {i}"))?;
                    // Surrogates are passed through as the replacement
                    // character; nothing in this workspace emits them.
                    let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    *i += 6;
                }
                _ => return Err(format!("bad escape at byte {i}")),
            },
            0x00..=0x1f => return Err(format!("control character in string at byte {i}")),
            _ => {
                out.push(c);
                *i += 1;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], i: &mut usize) -> Result<JsonValue, String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let s = *i;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        *i > s
    };
    if !digits(b, i) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    std::str::from_utf8(&b[start..*i])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("unparsable number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = JsonValue::parse(
            "{\"a\": [1, 2.5, -3e2, true, false, null, \"x\\ny\"], \"b\": {\"c\": 7}}",
        )
        .unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(a[3].as_bool(), Some(true));
        assert!(a[5].is_null());
        assert_eq!(a[6].as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn null_maps_to_nan() {
        let v = JsonValue::parse("{\"x\": null, \"y\": 4}").unwrap();
        assert!(v.num_or_nan("x").is_nan());
        assert!(v.num_or_nan("missing").is_nan());
        assert_eq!(v.num_or_nan("y"), 4.0);
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = JsonValue::parse("\"caf\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("café"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "01x",
            "\"unterminated",
            "{}extra",
            "{'a':1}",
            "nul",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad}");
        }
    }
}
