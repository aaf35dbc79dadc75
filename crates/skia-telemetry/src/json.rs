//! Compact JSON: three writer helpers that snapshots, run manifests and
//! Chrome traces build their documents from, plus a small parser for
//! reading them back in tests and tooling.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Append `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
pub fn push_str(out: &mut String, s: &str) {
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

/// Append `v` in Rust's shortest round-trip form, with a `.0` marker when
/// that form has no fraction or exponent, so the value reads back as a
/// float. Non-finite values, which JSON cannot express, become `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Append an object key and its colon, preceded by a comma unless it is
/// the object's `first` key.
pub fn push_key(out: &mut String, key: &str, first: bool) {
    if !first {
        out.push(',');
    }
    push_str(out, key);
    out.push(':');
}

// ---------------------------------------------------------------------------
// Parsing (for snapshot round-trips).
// ---------------------------------------------------------------------------

/// 2^53: every integer below it is exactly representable as an f64.
const EXACT_BELOW: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any number, kept as an f64: integers round-trip exactly below 2^53
    /// (see [`JsonValue::as_u64`]).
    Number(f64),
    /// String.
    String(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object (key order normalized).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parse a JSON document.
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// The object under a key, if this is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a u64: only a non-negative integral number below
    /// 2^53, the range in which the parsed f64 is the written integer.
    /// Anything else (a fraction, a negative, a larger value that may have
    /// been rounded) is `None`, never a truncation.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::Number(n) if (0.0..EXACT_BELOW).contains(&n) && n.fract() == 0.0 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The u64 under `key` of this object: 0 when the key is absent, an
    /// error when its value is not one [`JsonValue::as_u64`] accepts.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.get(key).map_or(Ok(0), |v| {
            v.as_u64()
                .ok_or_else(|| format!("{key} is not an exact u64: {v:?}"))
        })
    }

    /// This value as an f64.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a str.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// This value as an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn lit(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Bulk-consume the run up to the next quote or escape:
                    // one UTF-8 validation per run, not per character (a
                    // per-char from_utf8 over the whole remainder made
                    // parsing quadratic — minutes on a 2 MB snapshot). The
                    // run boundary is an ASCII byte, so it is always a char
                    // boundary.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let chunk = std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?;
                    s.push_str(chunk);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                other => return Err(format!("expected , or ] found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                other => return Err(format!("expected , or }} found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    #[test]
    fn primitives_render() {
        assert_eq!(render(|o| push_f64(o, 1.5)), "1.5");
        assert_eq!(render(|o| push_f64(o, 2.0)), "2.0", "floats keep a marker");
        assert_eq!(render(|o| push_f64(o, -0.25)), "-0.25");
        assert_eq!(render(|o| push_f64(o, 1e21)), "1000000000000000000000.0");
        assert_eq!(render(|o| push_f64(o, f64::NAN)), "null");
        assert_eq!(render(|o| push_f64(o, f64::NEG_INFINITY)), "null");
        assert_eq!(render(|o| push_str(o, "a\"b\n")), "\"a\\\"b\\n\"");
        assert_eq!(render(|o| push_str(o, "\\\u{1}")), "\"\\\\\\u0001\"");
    }

    #[test]
    fn maps_render_with_string_keys() {
        let mut json = String::from("{");
        push_key(&mut json, "64", true);
        json.push('3');
        push_key(&mut json, "a\"b", false);
        json.push_str("1}");
        assert_eq!(json, "{\"64\":3,\"a\\\"b\":1}");
        let v = JsonValue::parse(&json).unwrap();
        assert_eq!(v.get("a\"b").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn parse_round_trips() {
        let text = "{\"a\":[1,2.5,null,true],\"b\":\"x\\ny\",\"c\":{\"d\":-4}}";
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-4.0));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 4);
        assert!(JsonValue::parse("{oops}").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("12 34").is_err());
    }

    #[test]
    fn large_u64_counters_round_trip() {
        // Counters live well below 2^53 in practice; check exactness there.
        let v = (1u64 << 53) - 1;
        let parsed = JsonValue::parse(&v.to_string()).unwrap();
        assert_eq!(parsed.as_u64(), Some(v));
    }

    /// `as_u64` reads only values it can return exactly: no truncated
    /// fractions, no negatives, nothing at or past 2^53, where a parsed
    /// integer may already have been rounded.
    #[test]
    fn as_u64_rejects_inexact_values() {
        let u = |text: &str| JsonValue::parse(text).unwrap().as_u64();
        assert_eq!(u("0"), Some(0));
        assert_eq!(u("2000"), Some(2000));
        assert_eq!(u("4.0"), Some(4), "an integral float is exact");
        for text in ["1.5", "-1", "9007199254740992", "1e300", "\"7\""] {
            assert_eq!(u(text), None, "{text}");
        }
        let obj = JsonValue::parse("{\"a\":3,\"b\":0.5}").unwrap();
        assert_eq!(obj.u64_field("a"), Ok(3));
        assert_eq!(obj.u64_field("missing"), Ok(0));
        assert!(obj.u64_field("b").is_err());
    }
}
