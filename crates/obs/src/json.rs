//! The workspace's JSON codec: a strict reader, a streaming writer, and
//! the typed accessors every `noc-*/vN` artefact is decoded through.
//!
//! The build environment has no crates.io access, so the workspace carries
//! its own codec. Every schema module states its members once per
//! direction and leaves syntax to this file:
//!
//! * [`JsonValue::parse`] reads strict RFC 8259 syntax into a tree (numbers
//!   as `f64`, objects as ordered key/value vectors), nested at most
//!   [`MAX_DEPTH`] deep, so no input can overflow the stack.
//! * [`JsonWriter`] appends straight into one `String`. It owns commas,
//!   nesting and string escaping, writes integers as integers, floats with
//!   Rust's shortest-roundtrip formatting and NaN/inf as `null`; a type is
//!   written by implementing [`ToJson`].
//! * The `*_at` accessors read one member with its type checked and name
//!   the member in the error. Integers are strict ([`JsonValue::as_u64`]):
//!   a negative, fractional, non-finite or above-2^53 number is an error,
//!   never a saturating cast. A float member is a number or `null`
//!   (NaN/inf), see [`JsonValue::f64_at`].

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
        let v = parse_value(b, &mut i, 0)?;
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

    /// The value as an integer, strictly: finite, integral and within
    /// `0..=2^53`, the range an `f64` carries exactly.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| (0.0..=MAX_SAFE_INT).contains(n) && n.fract() == 0.0)
            .map(|n| n as u64)
    }

    fn expected<T>(&self, what: &str, got: Option<T>) -> Result<T, String> {
        got.ok_or_else(|| match self {
            JsonValue::Num(n) => format!("expected {what}, got {n}"),
            JsonValue::Str(s) => format!("expected {what}, got {s:?}"),
            JsonValue::Bool(b) => format!("expected {what}, got {b}"),
            JsonValue::Null => format!("expected {what}, got null"),
            JsonValue::Arr(_) => format!("expected {what}, got an array"),
            JsonValue::Obj(_) => format!("expected {what}, got an object"),
        })
    }

    /// [`JsonValue::as_u64`], or an error saying what was found instead.
    pub fn to_u64(&self) -> Result<u64, String> {
        self.expected("an integer in 0..=2^53", self.as_u64())
    }

    /// As [`JsonValue::to_u64`], for a count or index.
    pub fn to_usize(&self) -> Result<usize, String> {
        self.to_u64().and_then(narrow)
    }

    /// The string value, or an error saying what was found instead.
    pub fn to_str(&self) -> Result<&str, String> {
        self.expected("a string", self.as_str())
    }

    /// The boolean value, or an error saying what was found instead.
    pub fn to_bool(&self) -> Result<bool, String> {
        self.expected("a boolean", self.as_bool())
    }

    /// The elements, or an error saying what was found instead.
    pub fn to_array(&self) -> Result<&[JsonValue], String> {
        self.expected("an array", self.as_array())
    }

    /// The value as a fixed-width row of integers — the `[a,b,c,…]` tuples
    /// of telemetry windows, hop rows and histogram buckets.
    pub fn row<const N: usize>(&self) -> Result<[u64; N], String> {
        ints(self.to_array()?)
    }

    /// Member `key` read by `read` (one of the `to_*` readers), naming the
    /// member in the error; `None` when the member is absent or `null`.
    pub fn opt_at<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a JsonValue) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => read(v).map(Some).map_err(|e| format!("{key}: {e}")),
        }
    }

    /// As [`JsonValue::opt_at`], for a member that must be present.
    pub fn at<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a JsonValue) -> Result<T, String>,
    ) -> Result<T, String> {
        self.opt_at(key, read)?
            .ok_or_else(|| format!("missing {key:?}"))
    }

    /// Integer member `key` (see [`JsonValue::as_u64`]).
    pub fn u64_at(&self, key: &str) -> Result<u64, String> {
        self.at(key, JsonValue::to_u64)
    }

    /// Count or index member `key`.
    pub fn usize_at(&self, key: &str) -> Result<usize, String> {
        self.at(key, JsonValue::to_usize)
    }

    /// String member `key`.
    pub fn str_at(&self, key: &str) -> Result<&str, String> {
        self.at(key, JsonValue::to_str)
    }

    /// String member `key`, empty when absent: a label.
    pub fn text_at(&self, key: &str) -> Result<String, String> {
        Ok(self.opt_at(key, JsonValue::to_str)?.unwrap_or("").into())
    }

    /// Boolean member `key`.
    pub fn bool_at(&self, key: &str) -> Result<bool, String> {
        self.at(key, JsonValue::to_bool)
    }

    /// Array member `key`.
    pub fn arr_at(&self, key: &str) -> Result<&[JsonValue], String> {
        self.at(key, JsonValue::to_array)
    }

    /// Array member `key` with every element read by `read`.
    pub fn list_at<'a, T>(
        &'a self,
        key: &str,
        read: impl Fn(&'a JsonValue) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        (self.arr_at(key)?.iter().map(read))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{key}: {e}"))
    }

    /// Checks the `schema` member that tags every artefact.
    pub fn expect_schema(&self, want: &str) -> Result<(), String> {
        match self.str_at("schema")? {
            schema if schema == want => Ok(()),
            schema => Err(format!("schema '{schema}' is not {want}")),
        }
    }

    /// Float member `key` as the writer encodes one: a number, or `null`
    /// for NaN/inf. Unlike [`JsonValue::num_or_nan`], a missing member or
    /// one of another type is an error.
    pub fn f64_at(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            None => Err(format!("missing {key:?}")),
            Some(v) => v.nan_or_f64().map_err(|e| format!("{key}: {e}")),
        }
    }

    /// The element form of [`JsonValue::f64_at`].
    pub fn nan_or_f64(&self) -> Result<f64, String> {
        match self {
            JsonValue::Null => Ok(f64::NAN),
            v => v.expected("a number", v.as_f64()),
        }
    }

    /// The raw text of member `key` of the object `doc`, where that member
    /// is the document's last — how the `result` of a serve line is handed
    /// on without being parsed.
    pub fn raw_last_member<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
        let member = format!("\"{key}\":");
        let at = doc.find(&member)? + member.len();
        doc[at..].trim_end().strip_suffix('}')
    }
}

/// The largest integer below which every integer is an exact `f64`: 2^53.
const MAX_SAFE_INT: f64 = 9_007_199_254_740_992.0;

/// Deepest nesting [`JsonValue::parse`] accepts. The parser recurses once
/// per level, and every artefact of this workspace nests under ten deep.
pub const MAX_DEPTH: usize = 128;

/// `cells` as exactly `N` strict integers (see [`JsonValue::row`]).
pub fn ints<const N: usize>(cells: &[JsonValue]) -> Result<[u64; N], String> {
    let mut row = [0u64; N];
    if cells.len() != N {
        return Err(format!("expected {N} cells, got {}", cells.len()));
    }
    for (slot, cell) in row.iter_mut().zip(cells) {
        *slot = cell.to_u64()?;
    }
    Ok(row)
}

/// `v` in a narrower integer type, or an error: the checked form of the
/// `as` casts a reader would otherwise apply to a parsed integer.
pub fn narrow<T: TryFrom<u64>>(v: u64) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("{v} is out of range"))
}

/// A value [`JsonWriter`] can write.
pub trait ToJson {
    /// Writes `self` as the next value of `w`.
    fn write_json(&self, w: &mut JsonWriter);

    /// `self` as one JSON document (no trailing newline).
    fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        self.write_json(&mut w);
        w.finish()
    }
}

/// A streaming JSON writer over one `String`.
///
/// Values go out in call order; the writer inserts the commas, so a
/// member or element is one call wherever it sits. [`JsonWriter::field`]
/// and [`JsonWriter::value`] take anything [`ToJson`]: integers, floats
/// (non-finite ones become `null`), booleans, strings, `Option` (`None`
/// is `null`), slices and arrays, [`Raw`] text, `format_args!` (a string),
/// and every schema type that implements the trait.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether a comma must precede the next value or key.
    comma: bool,
    /// Open containers.
    depth: u32,
    /// Depth of the array opened by [`JsonWriter::begin_lines`] (0: none).
    lines_at: u32,
}

impl JsonWriter {
    /// The text written.
    pub fn finish(self) -> String {
        debug_assert_eq!(self.depth, 0, "unclosed JSON container");
        self.out
    }

    /// Where the next value goes: after a comma unless it is the first of
    /// its container or follows its key, on its own line in a
    /// [`JsonWriter::begin_lines`] array.
    fn slot(&mut self) -> &mut String {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
        if self.depth == self.lines_at && self.depth > 0 {
            self.out.push('\n');
        }
        &mut self.out
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.slot().push(bracket);
        self.depth += 1;
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        if self.depth == self.lines_at {
            self.lines_at = 0;
            self.out.push('\n');
        }
        self.depth -= 1;
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Opens an object; members follow through [`JsonWriter::field`].
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array; elements follow through [`JsonWriter::value`].
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Opens an array whose elements each start a new line (the
    /// `traceEvents` list of a Chrome trace).
    pub fn begin_lines(&mut self) -> &mut Self {
        self.open('[');
        self.lines_at = self.depth;
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes a member key; its value is the next thing written.
    pub fn key(&mut self, key: &str) -> &mut Self {
        let out = self.slot();
        out.push('"');
        esc(out, key);
        out.push_str("\":");
        self.comma = false;
        self
    }

    /// Writes one value: an array element or a whole document.
    pub fn value(&mut self, v: impl ToJson) -> &mut Self {
        v.write_json(self);
        self
    }

    /// Writes the member `key` with value `v`.
    pub fn field(&mut self, key: &str, v: impl ToJson) -> &mut Self {
        self.key(key).value(v)
    }

    /// Writes the member `key` when there is a value for it.
    pub fn opt_field(&mut self, key: &str, v: Option<impl ToJson>) -> &mut Self {
        match v {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Ends a line of a JSON Lines document: the next value starts a new
    /// document.
    pub fn newline(&mut self) -> &mut Self {
        debug_assert_eq!(self.depth, 0, "newline inside a JSON container");
        self.out.push('\n');
        self.comma = false;
        self
    }
}

/// Already-encoded JSON embedded verbatim: the `result` and `spec` members
/// of serve lines, the sections of `noc sim --json`.
#[derive(Clone, Copy, Debug)]
pub struct Raw<'a>(pub &'a str);

impl ToJson for Raw<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.slot().push_str(self.0);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                let _ = write!(w.slot(), "{self}");
            }
        }
    )*};
}
display_to_json!(u8, u16, u32, u64, usize, bool);

impl ToJson for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        if self.is_finite() {
            let _ = write!(w.slot(), "{self}");
        } else {
            w.slot().push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter) {
        let out = w.slot();
        out.push('"');
        esc(out, self);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_str().write_json(w);
    }
}

/// A string built in place: `format_args!("{id:016x}")`.
impl ToJson for std::fmt::Arguments<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        struct Escaped<'a>(&'a mut String);
        impl std::fmt::Write for Escaped<'_> {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                esc(self.0, s);
                Ok(())
            }
        }
        let out = w.slot();
        out.push('"');
        let _ = Escaped(out).write_fmt(*self);
        out.push('"');
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => w.slot().push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for v in self {
            v.write_json(w);
        }
        w.end_array();
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

/// Appends `s` escaped for the inside of a JSON string.
fn esc(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
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

fn parse_value(b: &[u8], i: &mut usize, depth: usize) -> Result<JsonValue, String> {
    if depth == MAX_DEPTH && matches!(b.get(*i), Some(b'{' | b'[')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {i}"
        ));
    }
    match b.get(*i) {
        Some(b'{') => {
            let member = |i: &mut usize| {
                let key = parse_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                *i += 1;
                skip_ws(b, i);
                Ok((key, parse_value(b, i, depth + 1)?))
            };
            parse_items(b, i, b'}', member).map(JsonValue::Obj)
        }
        Some(b'[') => parse_items(b, i, b']', |i| parse_value(b, i, depth + 1)).map(JsonValue::Arr),
        Some(b'"') => parse_string(b, i).map(JsonValue::Str),
        Some(b't') => parse_lit(b, i, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, i, "false").map(|()| JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, i, "null").map(|()| JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, i),
        _ => Err(format!("unexpected byte at {i}")),
    }
}

/// The comma-separated items of the container opening at `*i`, up to and
/// past its `close` bracket.
fn parse_items<T>(
    b: &[u8],
    i: &mut usize,
    close: u8,
    mut item: impl FnMut(&mut usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut items = Vec::new();
    *i += 1;
    skip_ws(b, i);
    if b.get(*i) == Some(&close) {
        *i += 1;
        return Ok(items);
    }
    loop {
        skip_ws(b, i);
        items.push(item(i)?);
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(c) if *c == close => {
                *i += 1;
                return Ok(items);
            }
            _ => return Err(format!("expected ',' or '{}' at byte {i}", close as char)),
        }
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
                Some(&e @ (b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't')) => {
                    out.push(match e {
                        b'b' => 0x08,
                        b'f' => 0x0c,
                        b'n' => b'\n',
                        b'r' => b'\r',
                        b't' => b'\t',
                        verbatim => verbatim,
                    });
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
        // `1e999` parses to infinity, which no document can carry.
        .filter(|n| n.is_finite())
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
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + "1" + &"]".repeat(depth);
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 levels at byte 128");
        assert!(JsonValue::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        // On the 2 MiB stack a `noc serve` connection handler runs on, where
        // unbounded recursion ends the process rather than the request.
        let small_stack = std::thread::Builder::new().stack_size(2 << 20);
        let deep = small_stack.spawn(|| JsonValue::parse(&"[".repeat(200_000)));
        assert!(deep.unwrap().join().unwrap().is_err());
    }

    #[test]
    fn integers_are_strict() {
        let v = JsonValue::parse("{\"n\":9007199254740992,\"x\":null}").unwrap();
        assert_eq!(v.u64_at("n"), Ok(1 << 53));
        assert_eq!(v.opt_at("x", JsonValue::to_u64), Ok(None));
        assert_eq!(v.u64_at("x"), Err("missing \"x\"".to_string()));
        for bad in ["-1", "0.5", "1e300", "9007199254740994", "\"7\"", "true"] {
            let v = JsonValue::parse(&format!("{{\"n\":{bad}}}")).unwrap();
            let err = v.u64_at("n").unwrap_err();
            assert!(
                err.starts_with("n: expected an integer in 0..=2^53, got "),
                "{err}"
            );
            assert!(v.opt_at("n", JsonValue::to_usize).is_err(), "{bad}");
        }
        assert!(
            JsonValue::parse("1e999").is_err(),
            "infinity is not a number"
        );
        let row = JsonValue::parse("[1,2,3]").unwrap();
        assert_eq!(row.row::<3>(), Ok([1, 2, 3]));
        assert!(row.row::<2>().is_err() && narrow::<u8>(256).is_err());
    }

    #[test]
    fn writer_owns_commas_escapes_and_number_forms() {
        let mut w = JsonWriter::default();
        w.begin_object()
            .field("s", "a\"b\\c\n\u{1}é")
            .field("f", [1.5, f64::NAN, -0.25, 3.0])
            .field("n", Some(1u64 << 63))
            .opt_field("absent", None::<u64>)
            .field("hex", format_args!("{:04x}", 255))
            .key("rows")
            .begin_lines()
            .value([1u8, 2])
            .begin_object()
            .end_object()
            .end_array()
            .end_object()
            .newline();
        let text = w.finish();
        assert_eq!(
            text,
            "{\"s\":\"a\\\"b\\\\c\\n\\u0001é\",\"f\":[1.5,null,-0.25,3],\
             \"n\":9223372036854775808,\"hex\":\"00ff\",\"rows\":[\n[1,2],\n{}\n]}\n"
        );
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(back.str_at("s"), Ok("a\"b\\c\n\u{1}é"));
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
