//! JSON values for the wire protocol: a strict recursive-descent parser
//! and a deterministic renderer.
//!
//! The workspace has no serialization dependency, and the protocol is a
//! handful of flat schemas — a small value tree is all that is needed.
//! The parser is strict RFC-8259 (no trailing commas, no comments, no
//! `NaN`), rejects input deeper than [`MAX_DEPTH`] (protocol messages are
//! nearly flat; deep nesting is an attack, not a request), and reports
//! errors with a byte offset. The renderer emits keys in insertion order
//! and floats with Rust's shortest round-trip formatting, so a float that
//! crosses the wire and comes back parses to the bit-identical value.

use std::fmt::Write as _;

/// Maximum container nesting the parser accepts.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal that fits `i64` (kept exact, not routed through
    /// `f64`).
    Int(i64),
    /// Any other number; non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys (duplicates are rejected by
    /// the parser).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after JSON value"));
        }
        Ok(value)
    }

    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(String, Json)>) -> Json {
        Json::Obj(fields)
    }

    /// The value of `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's keys, if this is an object.
    pub fn keys(&self) -> Option<impl Iterator<Item = &str>> {
        match self {
            Json::Obj(fields) => Some(fields.iter().map(|(k, _)| k.as_str())),
            _ => None,
        }
    }

    /// Numeric view (`Int` or `Num`).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// Exact integer view (`Int` only — `1.5` is not an integer, and
    /// `1.0` arrived as a float on purpose or by mistake; reject both).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(i) => Some(i),
            _ => None,
        }
    }

    /// Non-negative exact integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// Non-negative exact integer view as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Int(i as i64)
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        Json::Int(i as i64)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so the bytes
                    // are valid UTF-8 by construction).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid utf-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    /// Parses the four hex digits after `\u` (the `\u` itself already
    /// consumed), combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.hex4()?;
        if (0xD800..0xDC00).contains(&unit) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xDC00..0xE000).contains(&low) {
                    let combined = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(combined)
                        .ok_or_else(|| self.err("invalid codepoint"));
                }
            }
            Err(self.err("unpaired surrogate"))
        } else if (0xDC00..0xE000).contains(&unit) {
            Err(self.err("unpaired surrogate"))
        } else {
            char::from_u32(unit).ok_or_else(|| self.err("invalid codepoint"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("invalid number"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("invalid number"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_request_shapes() {
        let v = Json::parse(r#"{"id":7,"verb":"eval","params":{"n":120,"pd":0.9}}"#).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_i64), Some(7));
        assert_eq!(v.get("verb").and_then(Json::as_str), Some("eval"));
        let params = v.get("params").unwrap();
        assert_eq!(params.get("n").and_then(Json::as_usize), Some(120));
        assert_eq!(params.get("pd").and_then(Json::as_f64), Some(0.9));
    }

    #[test]
    fn round_trips_floats_bit_exactly() {
        for x in [
            0.1 + 0.2,
            1.0 / 3.0,
            0.937_216_431,
            f64::MIN_POSITIVE,
            1e300,
        ] {
            let rendered = Json::Num(x).render();
            let back = Json::parse(&rendered).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{rendered}");
        }
    }

    #[test]
    fn integers_stay_exact() {
        let v = Json::parse("9007199254740993").unwrap();
        assert_eq!(v, Json::Int(9_007_199_254_740_993));
        assert_eq!(v.render(), "9007199254740993");
        // Out-of-range integers degrade to floats rather than erroring.
        assert!(matches!(
            Json::parse("99999999999999999999999").unwrap(),
            Json::Num(_)
        ));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "truee",
            "01",
            "1.",
            "-",
            "\"unterminated",
            "\"bad\\q\"",
            "{\"a\":1,\"a\":2}",
            "[1] []",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(8) + &"]".repeat(8);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nbreak \"quote\" back\\slash \t ünïcode 🛰";
        let rendered = Json::Str(original.to_string()).render();
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(original));
        // \u escapes, including a surrogate pair.
        let v = Json::parse(r#""A😀""#).unwrap();
        assert_eq!(v.as_str(), Some("A😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn renders_deterministically() {
        let v = Json::obj(vec![
            ("ok".into(), true.into()),
            ("p".into(), 0.5.into()),
            ("tags".into(), Json::Arr(vec![Json::Null, 3i64.into()])),
            (
                "non_finite".into(),
                Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::INFINITY)]),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"{"ok":true,"p":0.5,"tags":[null,3],"non_finite":[null,null]}"#
        );
    }

    #[test]
    fn accessors_are_type_strict() {
        let v = Json::parse(r#"{"n":3.5,"m":-1,"s":"x"}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_usize), None);
        assert_eq!(v.get("m").and_then(Json::as_u64), None);
        assert_eq!(v.get("m").and_then(Json::as_i64), Some(-1));
        assert_eq!(v.get("s").and_then(Json::as_f64), None);
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.5));
    }
}
