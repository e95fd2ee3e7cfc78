//! Minimal JSON writer and reader.
//!
//! The container ships no serde; the export surface here is small and
//! flat, so a push-style writer is all the layer needs. Output is
//! deterministic (field order = insertion order) which keeps `results/`
//! snapshots diffable across runs. [`parse_json`] is the other half:
//! enough of a recursive-descent parser to read those documents back,
//! so an exhibit (or a test) can assert its own output is well-formed
//! and carries the expected fields. It handles the JSON the writers
//! emit (objects, arrays, strings with `\`-escapes, numbers, booleans,
//! null) and nothing more exotic.

use std::collections::BTreeMap;
use std::fmt;

/// Escapes a string for inclusion inside JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Incremental writer for one JSON object or array.
pub struct JsonWriter {
    buf: String,
    close: char,
    empty: bool,
}

impl JsonWriter {
    /// Starts an object: `{...}`.
    pub fn object() -> Self {
        Self {
            buf: String::from("{"),
            close: '}',
            empty: true,
        }
    }

    /// Starts an array: `[...]`.
    pub fn array() -> Self {
        Self {
            buf: String::from("["),
            close: ']',
            empty: true,
        }
    }

    fn sep(&mut self) {
        if self.empty {
            self.empty = false;
        } else {
            self.buf.push(',');
        }
    }

    fn key(&mut self, name: &str) {
        self.sep();
        self.buf.push('"');
        self.buf.push_str(&escape(name));
        self.buf.push_str("\":");
    }

    pub fn str_field(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        self.buf.push('"');
        self.buf.push_str(&escape(value));
        self.buf.push('"');
        self
    }

    pub fn u64_field(&mut self, name: &str, value: u64) -> &mut Self {
        self.key(name);
        self.buf.push_str(&value.to_string());
        self
    }

    pub fn i64_field(&mut self, name: &str, value: i64) -> &mut Self {
        self.key(name);
        self.buf.push_str(&value.to_string());
        self
    }

    pub fn f64_field(&mut self, name: &str, value: f64) -> &mut Self {
        self.key(name);
        if value.is_finite() {
            self.buf.push_str(&format!("{value:.6}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn bool_field(&mut self, name: &str, value: bool) -> &mut Self {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Inserts pre-encoded JSON as a field value.
    pub fn raw_field(&mut self, name: &str, raw_json: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(raw_json);
        self
    }

    /// Appends pre-encoded JSON as an array element.
    pub fn raw_element(&mut self, raw_json: &str) -> &mut Self {
        self.sep();
        self.buf.push_str(raw_json);
        self
    }

    /// Closes the container and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push(self.close);
        self.buf
    }
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as f64, which covers the writers' output).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Ordered map so round-trips are deterministic.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on an object; `None` on anything else.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as u64 (floors), if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|f| f as u64)
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Walks a dotted path of object members: `v.path("a.b.c")`.
    pub fn path(&self, dotted: &str) -> Option<&JsonValue> {
        let mut cur = self;
        for part in dotted.split('.') {
            cur = cur.get(part)?;
        }
        Some(cur)
    }

    /// The array at `dotted`. Panics, naming the path, when it is absent
    /// or not an array: in a self-check a missing section is the failure.
    pub fn array_at(&self, dotted: &str) -> &[JsonValue] {
        let found = self.path(dotted).and_then(|v| v.as_array());
        found.unwrap_or_else(|| panic!("no array at {dotted}"))
    }

    /// The number at `dotted` as u64; panics like [`JsonValue::array_at`].
    pub fn u64_at(&self, dotted: &str) -> u64 {
        self.f64_at(dotted) as u64
    }

    /// The number at `dotted`; panics like [`JsonValue::array_at`].
    pub fn f64_at(&self, dotted: &str) -> f64 {
        let found = self.path(dotted).and_then(|v| v.as_f64());
        found.unwrap_or_else(|| panic!("no number at {dotted}"))
    }

    /// Serializes back to compact JSON. Lets tools that edit a parsed
    /// document (e.g. `bench_perf` merging a trajectory entry into
    /// `BENCH_perf.json`) re-emit the parts they keep. Numbers use
    /// Rust's shortest round-trip float formatting; non-finite numbers
    /// become `null` (matching the writer's convention).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) if n.is_finite() => out.push_str(&format!("{n}")),
            JsonValue::Number(_) => out.push_str("null"),
            JsonValue::String(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    JsonValue::String(k.clone()).write_into(out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.reason)
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(value)
}

fn err(at: usize, reason: &str) -> JsonError {
    JsonError {
        at,
        reason: reason.to_string(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", c as char)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos).map(JsonValue::String),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(err(*pos, &format!("unexpected byte '{}'", *c as char))),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, val: JsonValue) -> Result<JsonValue, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(val)
    } else {
        Err(err(*pos, &format!("expected literal '{lit}'")))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| err(start, "invalid utf-8"))?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| err(start, &format!("bad number '{text}'")))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through untouched.
                let ch_len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = b
                    .get(*pos..*pos + ch_len)
                    .ok_or_else(|| err(*pos, "truncated utf-8"))?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| err(*pos, "invalid utf-8"))?);
                *pos += ch_len;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn writes_nested_structures() {
        let mut inner = JsonWriter::array();
        inner.raw_element("1").raw_element("2");
        let inner = inner.finish();
        let mut w = JsonWriter::object();
        w.str_field("name", "x")
            .u64_field("n", 7)
            .f64_field("frac", 0.25)
            .bool_field("ok", true)
            .raw_field("xs", &inner);
        assert_eq!(
            w.finish(),
            "{\"name\":\"x\",\"n\":7,\"frac\":0.250000,\"ok\":true,\"xs\":[1,2]}"
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonWriter::object().finish(), "{}");
        assert_eq!(JsonWriter::array().finish(), "[]");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json(" -2.5e1 ").unwrap(), JsonValue::Number(-25.0));
        assert_eq!(
            parse_json("\"a\\nb\"").unwrap(),
            JsonValue::String("a\nb".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse_json(r#"{"a": [1, {"b": "x"}, []], "c": {}}"#).unwrap();
        assert_eq!(doc.path("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[1]
                .path("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn serializer_round_trips_parsed_documents() {
        let src = r#"{"a":[1,{"b":"x\ny"},[]],"c":{},"d":-2.5,"e":true,"f":null}"#;
        let doc = parse_json(src).unwrap();
        let emitted = doc.to_json_string();
        assert_eq!(parse_json(&emitted).unwrap(), doc);
        // Stable under a second round trip (BTreeMap order is fixed).
        assert_eq!(parse_json(&emitted).unwrap().to_json_string(), emitted);
    }

    #[test]
    fn round_trips_writer_output() {
        let mut w = JsonWriter::object();
        w.str_field("name", "qd \"sweep\"\n")
            .u64_field("ops", 42)
            .f64_field("iops", 1234.5)
            .bool_field("ok", true);
        let doc = parse_json(&w.finish()).unwrap();
        assert_eq!(doc.path("name").unwrap().as_str(), Some("qd \"sweep\"\n"));
        assert_eq!(doc.path("ops").unwrap().as_u64(), Some(42));
        assert_eq!(doc.path("iops").unwrap().as_f64(), Some(1234.5));
        assert_eq!(doc.path("ok").unwrap(), &JsonValue::Bool(true));
    }
}
