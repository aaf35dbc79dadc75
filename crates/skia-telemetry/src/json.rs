//! Compact JSON: three writer helpers that snapshots, run manifests and
//! Chrome traces build their documents from, and the one reader that reads
//! them back.
//!
//! The reader is a crate-private pull `Reader`: objects and arrays hand
//! each key or element to a callback, keys without escapes are borrowed
//! from the input, and a number stays text until its consumer reads it as
//! an f64 or as an exact integer. [`JsonValue::parse`] builds a tree with
//! it, for small documents such as run manifests.
//! [`crate::Snapshot::from_json_str`] reads straight into the snapshot's
//! typed fields instead, so reading a snapshot back costs about its file's
//! size, where a tree cost about 14 times that (some 780 bytes per 32-byte
//! event).

use std::borrow::Cow;
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
// Reading.
// ---------------------------------------------------------------------------

/// 2^53: every integer below it is exactly representable as an f64.
const EXACT_BELOW: f64 = 9_007_199_254_740_992.0;

/// The count rule: a non-negative integral f64 below 2^53, the range in
/// which it is exactly the written integer.
fn exact_count(n: f64) -> Option<u64> {
    ((0.0..EXACT_BELOW).contains(&n) && n.fract() == 0.0).then_some(n as u64)
}

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
        let mut r = Reader::new(s);
        let v = JsonValue::read(&mut r)?;
        r.end()?;
        Ok(v)
    }

    /// Build the tree of the reader's next value.
    fn read(r: &mut Reader<'_>) -> Result<JsonValue, String> {
        Ok(match r.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                r.object(|r, key| {
                    map.insert(key.into_owned(), JsonValue::read(r)?);
                    Ok(())
                })?;
                JsonValue::Object(map)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                r.array(|r, _| {
                    items.push(JsonValue::read(r)?);
                    Ok(())
                })?;
                JsonValue::Array(items)
            }
            Some(b'"') => JsonValue::String(r.string()?.into_owned()),
            Some(b'n') => r.literal("null").map(|()| JsonValue::Null)?,
            Some(b't') => r.literal("true").map(|()| JsonValue::Bool(true))?,
            Some(b'f') => r.literal("false").map(|()| JsonValue::Bool(false))?,
            _ => JsonValue::Number(r.number()?.f64()),
        })
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
            JsonValue::Number(n) => exact_count(n),
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

/// A number as [`Reader::number`] lexed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Number<'a> {
    /// Text of ASCII digits only, kept as written, so that it can be read
    /// as an exact integer over the whole u64 range.
    Digits(&'a str),
    /// Any other form (a sign, a fraction or an exponent), read as an f64.
    Float(f64),
}

impl Number<'_> {
    /// The nearest f64.
    pub(crate) fn f64(self) -> f64 {
        match self {
            // A digit run always reads as an f64; one too long for it reads
            // as infinity.
            Number::Digits(text) => text.parse().unwrap_or(f64::INFINITY),
            Number::Float(n) => n,
        }
    }

    /// The number as a count under [`JsonValue::as_u64`]'s rule: a
    /// non-negative integer below 2^53, where `4.0` reads as 4.
    pub(crate) fn count(self) -> Option<u64> {
        match self {
            Number::Digits(text) => text.parse().ok().filter(|&n: &u64| n < 1 << 53),
            Number::Float(n) => exact_count(n),
        }
    }
}

/// A pull reader over one JSON document: the one lexer behind
/// [`JsonValue::parse`] and the typed snapshot reader. Each reading method
/// skips leading whitespace, then consumes exactly one value; objects and
/// arrays hand each key or element to a callback that must consume its
/// value, so a document is read without building a tree of it.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    /// The first byte of the next value, after whitespace; `None` at the
    /// end of the input.
    pub(crate) fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected {:?} at offset {}, found {:?}",
                b as char,
                self.pos,
                other.map(char::from)
            )),
        }
    }

    /// Succeed only when nothing but whitespace is left.
    pub(crate) fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing bytes at offset {}", self.pos)),
        }
    }

    /// Walk an object, calling `f` with each key in document order. `f`
    /// must consume that key's value.
    pub(crate) fn object(
        &mut self,
        mut f: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            f(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected , or }} found {other:?}")),
            }
        }
    }

    /// Walk an array, calling `f` with each element's index. `f` must
    /// consume that element.
    pub(crate) fn array(
        &mut self,
        mut f: impl FnMut(&mut Self, usize) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        let mut i = 0;
        loop {
            f(self, i)?;
            i += 1;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected , or ] found {other:?}")),
            }
        }
    }

    /// The next value, which must be a string: borrowed from the input
    /// when it has no escapes.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        let text = self.text;
        let mut owned: Option<String> = None;
        loop {
            // Every run ends at an ASCII byte and every escape is ASCII, so
            // each slice boundary is a char boundary.
            let rest = &text.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let chunk = &text[self.pos..self.pos + run];
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(chunk),
                    Some(mut s) => {
                        s.push_str(chunk);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(chunk);
            self.escape(s)?;
        }
    }

    /// Decode the escape after a backslash onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let bytes = self.text.as_bytes();
        let c = match bytes.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = bytes
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or("truncated \\u escape")?;
                let code =
                    u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
                        .map_err(|e| e.to_string())?;
                self.pos += 4;
                char::from_u32(code).unwrap_or('\u{FFFD}')
            }
            other => return Err(format!("bad escape {:?}", other.map(|&b| char::from(b)))),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    /// The next value, which must be a number: a `-` or a digit, then any
    /// run of digits, `.`, `e`, `E`, `+` and `-`. Text other than a digit
    /// run must read as an f64.
    pub(crate) fn number(&mut self) -> Result<Number<'a>, String> {
        let first = self.peek();
        if !matches!(first, Some(b'-' | b'0'..=b'9')) {
            let found = first.map(char::from);
            return Err(format!("unexpected {found:?} at offset {}", self.pos));
        }
        let bytes = self.text.as_bytes();
        let start = self.pos;
        self.pos += 1;
        while bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            return Ok(Number::Digits(text));
        }
        text.parse()
            .map(Number::Float)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    /// The literal `word` (`null`, `true` or `false`).
    fn literal(&mut self, word: &str) -> Result<(), String> {
        self.skip_ws();
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    /// Consume the next value, which must still be valid JSON.
    pub(crate) fn skip(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip()),
            Some(b'[') => self.array(|r, _| r.skip()),
            Some(b'"') => self.string().map(drop),
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            _ => self.number().map(drop),
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

    /// The reader borrows escape-free keys and strings from the input,
    /// keeps a digit run as text, and still validates what it skips.
    #[test]
    fn reader_borrows_keys_and_keeps_digit_runs() {
        let doc =
            " {\"plain\": \"a\\nb\", \"n\": 18446744073709551615, \"rest\": [1, {\"x\": null}]} ";
        let mut r = Reader::new(doc);
        let mut keys = Vec::new();
        r.object(|r, key| {
            assert!(matches!(key, Cow::Borrowed(_)), "{key}");
            match &*key {
                "plain" => assert_eq!(r.string()?, Cow::<str>::Owned("a\nb".into())),
                "n" => assert_eq!(r.number()?, Number::Digits("18446744073709551615")),
                _ => r.skip()?,
            }
            keys.push(key);
            Ok(())
        })
        .unwrap();
        r.end().unwrap();
        assert_eq!(keys, ["plain", "n", "rest"]);
        for bad in [
            "[1,]",
            "{\"a\":tru}",
            "\"open",
            "1-2",
            "+1",
            ".5",
            "{\"a\" 1}",
        ] {
            assert!(Reader::new(bad).skip().is_err(), "{bad}");
        }
        let mut r = Reader::new("1 2");
        r.skip().unwrap();
        assert!(r.end().is_err(), "trailing bytes");
    }

    /// A digit run reads as a count exactly up to 2^53, like `as_u64`;
    /// other forms go through the f64 rule.
    #[test]
    fn number_counts_follow_as_u64() {
        assert_eq!(
            Number::Digits("9007199254740991").count(),
            Some((1 << 53) - 1)
        );
        assert_eq!(Number::Digits("9007199254740992").count(), None);
        assert_eq!(Number::Digits("99999999999999999999999").count(), None);
        assert_eq!(Number::Float(4.0).count(), Some(4));
        assert_eq!(Number::Float(-0.0).count(), Some(0));
        assert_eq!(Number::Float(1.5).count(), None);
        assert_eq!(Number::Digits("16").f64(), 16.0);
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
