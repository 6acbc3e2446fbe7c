//! A minimal, hand-rolled JSON layer for the wire protocol.
//!
//! The build environment has no registry access, so the daemon cannot pull
//! in `serde_json`; this module implements exactly the subset the protocol
//! needs — a [`Json`] value tree, a recursive-descent parser, and a writer —
//! with the properties a serving boundary cares about:
//!
//! * **Round-trip-exact floats.** Numbers are written with Rust's shortest
//!   round-trip formatting (`{:?}`) and parsed with `str::parse::<f64>`, so
//!   an `f64` survives serialize → parse **bit-for-bit**. The engine/server
//!   bit-equality contract of the round-trip tests rests on this.
//! * **Hostile-input hardening.** Nesting depth is capped (a
//!   `[[[[…]]]]` bomb is a parse error, not a stack overflow), duplicate
//!   object keys are a parse error (so `{"eps":0.1,"eps":9.0}` cannot
//!   smuggle a second value past whichever occurrence a reader validates),
//!   and parse errors carry positions instead of panicking.
//! * **Deterministic output.** Object members are written in insertion
//!   order; no hash-map reordering between runs.
//!
//! Non-finite floats have no JSON representation; the writer emits `null`
//! for them (the protocol validates finiteness before anything reaches the
//! writer) and the parser never produces them from numeric literals.

use std::fmt;

/// Maximum nesting depth the parser accepts before declaring the document
/// hostile (well past anything the flat wire protocol produces).
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order. The parser rejects
    /// duplicate keys outright; for programmatically built values,
    /// [`Json::get`] reads the first occurrence.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
    at: usize,
}

impl JsonError {
    fn new(msg: impl Into<String>, at: usize) -> Self {
        Self {
            msg: msg.into(),
            at,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member lookup on an object (first occurrence wins); `None` for
    /// non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer (a JSON number with no
    /// fractional part strictly inside `u64`'s exactly-representable
    /// range).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "guarded: only a non-negative integer < 2^53 is cast, and it converts exactly"
    )]
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        // Strictly below 2^53: at and beyond it, f64 cannot represent every
        // integer, so a literal like 2^53 + 1 would have silently rounded
        // to exactly 2^53 during parsing — reject rather than serve a
        // different count than the one requested.
        if x.fract() == 0.0 && (0.0..9_007_199_254_740_992.0).contains(&x) {
            Some(x as u64)
        } else {
            None
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new("trailing content after document", p.pos));
        }
        Ok(value)
    }

    /// Serialize into `out` (compact form, no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => write_num(*x, out),
            Json::Str(s) => write_str(s, out),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Shortest round-trip float form (`{:?}` is guaranteed to re-parse to the
/// same bits); exact integers in the f64-exact range print without the
/// trailing `.0` (counts like `"n":100000` read naturally, and an integer
/// ≤ 2⁵³ re-parses to identical bits — `{x:.0}` keeps the `-0` sign).
/// Non-finite values degrade to `null`.
fn write_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() <= 9_007_199_254_740_992.0 {
        out.push_str(&format!("{x:.0}"));
    } else {
        out.push_str(&format!("{x:?}"));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(
                format!("expected `{}`", b as char),
                self.pos,
            ))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
        if rest.starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!("expected `{lit}`"), self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::new("nesting too deep", self.pos));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::new(
                format!("unexpected byte 0x{other:02x}"),
                self.pos,
            )),
            None => Err(JsonError::new("unexpected end of input", self.pos)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::new("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        // Hashed key set: duplicate detection stays O(1) per key even for a
        // hostile frame packed with thousands of members.
        let mut seen = std::collections::HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if !seen.insert(key.clone()) {
                // Last-wins or first-wins, a duplicate key means two
                // readers can disagree about the document — a classic
                // validation-bypass vector for a serving boundary.
                return Err(JsonError::new(
                    format!("duplicate object key `{key}`"),
                    key_at,
                ));
            }
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(JsonError::new("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain UTF-8 up to the next quote or escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let raw = self.bytes.get(start..self.pos).unwrap_or(&[]);
                let chunk = std::str::from_utf8(raw)
                    .map_err(|_| JsonError::new("invalid UTF-8 in string", start))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(JsonError::new("unterminated string", self.pos)),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let b = self
            .peek()
            .ok_or_else(|| JsonError::new("unterminated escape", at))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: require a trailing \uXXXX low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect_byte(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err(JsonError::new("invalid low surrogate", at));
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        return Err(JsonError::new("lone high surrogate", at));
                    }
                } else if (0xdc00..0xe000).contains(&hi) {
                    return Err(JsonError::new("lone low surrogate", at));
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| JsonError::new("invalid code point", at))?
            }
            other => {
                return Err(JsonError::new(
                    format!("invalid escape `\\{}`", other as char),
                    at,
                ))
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let at = self.pos;
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError::new("truncated \\u escape", at))?;
        let hex = std::str::from_utf8(hex).map_err(|_| JsonError::new("bad \\u escape", at))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| JsonError::new("bad \\u escape", at))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let raw = self.bytes.get(start..self.pos).unwrap_or(&[]);
        let text =
            std::str::from_utf8(raw).map_err(|_| JsonError::new("invalid number bytes", start))?;
        let value: f64 = text
            .parse()
            .map_err(|_| JsonError::new(format!("invalid number `{text}`"), start))?;
        if !value.is_finite() {
            // Overflowing literals (e.g. 1e999) have no faithful f64 value;
            // reject instead of smuggling an infinity past the validators.
            return Err(JsonError::new(
                format!("number out of range `{text}`"),
                start,
            ));
        }
        Ok(Json::Num(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(&v.to_string()).expect("writer output must re-parse")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-0.0),
            Json::Num(1.5),
            Json::Num(1e-300),
            Json::Num(-2.2250738585072014e-308),
            Json::Num(f64::MAX),
            Json::Str("he\"llo\\\n\tworld \u{1f600} \u{0}".into()),
        ] {
            let back = roundtrip(&v);
            match (&v, &back) {
                (Json::Num(a), Json::Num(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "float changed bits")
                }
                _ => assert_eq!(v, back),
            }
        }
    }

    #[test]
    fn containers_roundtrip_in_order() {
        let v = Json::obj(vec![
            ("zeta", Json::Num(1.0)),
            ("alpha", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("nested", Json::obj(vec![("k", Json::Str("v".into()))])),
        ]);
        assert_eq!(roundtrip(&v), v);
        assert_eq!(
            v.to_string(),
            r#"{"zeta":1,"alpha":[null,true],"nested":{"k":"v"}}"#
        );
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n": 100000, "x": 1.5, "s": "hi", "b": false, "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(100_000));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("x").unwrap().as_u64(), None, "fractional not a count");
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn as_u64_rejects_counts_past_f64_integer_precision() {
        // 2^53 − 1 is the last count every integer below which is exact.
        assert_eq!(
            Json::Num(9_007_199_254_740_991.0).as_u64(),
            Some(9_007_199_254_740_991)
        );
        // 2^53 itself is ambiguous: the wire literal 2^53 + 1 parses to the
        // same f64, so a count this large cannot be trusted.
        assert_eq!(Json::parse("9007199254740992").unwrap().as_u64(), None);
        assert_eq!(Json::parse("9007199254740993").unwrap().as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn surrogate_pairs_and_escapes() {
        let v = Json::parse(r#""😀 é \/\b\f\n\r\t""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600} é /\u{08}\u{0c}\n\r\t"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\ude00""#).is_err(), "lone low surrogate");
        assert!(Json::parse(r#""\q""#).is_err(), "unknown escape");
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        for bad in [
            "",
            "   ",
            "{",
            "}",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":}",
            "nul",
            "truth",
            "\"open",
            "1.5.5",
            "--3",
            "1e",
            "1e999",
            "{} trailing",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn duplicate_object_keys_are_rejected() {
        for bad in [
            r#"{"eps":0.1,"eps":9.0}"#,
            r#"{"a":1,"b":2,"a":3}"#,
            r#"{"k":null,"k":null}"#,
            // Nested objects are checked too.
            r#"{"outer":{"x":1,"x":2}}"#,
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(
                err.to_string().contains("duplicate object key"),
                "`{bad}`: {err}"
            );
        }
        // Same key at different nesting levels is fine.
        assert!(Json::parse(r#"{"k":{"k":1},"j":{"k":2}}"#).is_ok());
        // Programmatic duplicates still read first-wins through `get`.
        let v = Json::Obj(vec![
            ("k".into(), Json::Num(1.0)),
            ("k".into(), Json::Num(2.0)),
        ]);
        assert_eq!(v.get("k").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn depth_bomb_is_rejected() {
        let bomb = "[".repeat(1_000) + &"]".repeat(1_000);
        assert!(Json::parse(&bomb).is_err());
        // But reasonable nesting parses fine.
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn float_bits_survive_the_wire_format() {
        // The property the engine/server bit-equality contract rests on.
        let mut x = 0.123456789e-7f64;
        for _ in 0..200 {
            let text = Json::Num(x).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
            x = (x * 1.37 + 1e-13).sin().abs() * 3.21 + x;
        }
    }
}
