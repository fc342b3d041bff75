//! The workspace's one JSON codec: a value model, a parser and a
//! compact writer.
//!
//! Every JSON byte the system reads or writes goes through this module:
//!
//! * **the wire protocol** — `smith85-serve` encodes and decodes every
//!   request and response line with [`Json`] (and re-exports this
//!   module as `smith85_serve::json`);
//! * **the trace journal** — [`NdjsonWriter`](crate::NdjsonWriter)
//!   streams each line with [`write_str`] and [`write_f64`], and
//!   [`report`](crate::report) reads the lines back with [`Json::parse`];
//! * **suite checkpoints** — `smith85-core`'s runner writes each
//!   `<name>.json` result and `manifest.json` as [`Json`] values and
//!   parses checkpoints before trusting them on `--resume`;
//! * **bench files** — the `BENCH_*.json` artefacts of the
//!   `throughput` and `serve_load` binaries.
//!
//! The workspace's `serde` resolves to a no-op offline shim (see
//! `shims/serde`), so the codec is std-only, with four rules every user
//! relies on:
//!
//! * **Exact integers** — a non-negative integer literal that fits `u64`
//!   parses as [`Json::Uint`], never via `f64`; anything else numeric is
//!   [`Json::Num`].
//! * **Round-tripping floats** — an `f64` is written with Rust's
//!   shortest round-trip digits and keeps a `.0` when whole, so a miss
//!   ratio survives encode/decode bit-identically and re-parses as a
//!   float; JSON has no NaN/Infinity, so non-finite values are `null`.
//! * **Bounded input** — the parser enforces a nesting-depth limit (the
//!   server also caps line length before parsing), so a malicious
//!   client cannot make a thread recurse without bound.
//! * **Linear time** — strings are copied run by run, so a line at the
//!   server's 64 KiB cap parses in microseconds on the event-loop thread.

use std::fmt;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (the common protocol case:
    /// lengths, sizes, seeds — kept exact rather than via `f64`).
    Uint(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the offending byte offset.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An unsigned integer (exact `Uint`, or a `Num` that is a whole
    /// non-negative number).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(n) => Some(*n),
            Json::Num(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// [`as_u64`](Self::as_u64) narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// Any numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Uint(n) => Some(*n as f64),
            Json::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, in order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Writes the value as compact single-line JSON.
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Uint(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Json::Num(f) => write_f64(out, *f),
            Json::Str(s) => write_str(out, s),
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
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// Convenience constructor for object literals.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Convenience constructor for string values.
pub fn s(value: impl Into<String>) -> Json {
    Json::Str(value.into())
}

/// Appends `value` as a quoted JSON string literal: `"` and `\` are
/// backslash-escaped, `\n`/`\r`/`\t` use their short escapes, other
/// control characters become `\u00XX`, and everything else is copied
/// as-is.
pub fn write_str(out: &mut String, value: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in value.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte that needs escaping is ASCII, so `run..i` is a
        // whole run of characters.
        out.push_str(&value[run..i]);
        if escape.is_empty() {
            let _ = fmt::Write::write_fmt(out, format_args!("\\u{b:04x}"));
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&value[run..]);
    out.push('"');
}

/// Appends `value` as a JSON number: Rust's shortest round-trip digits,
/// with `.0` kept on whole values so they re-parse as a float rather
/// than an integer, and `null` for NaN and the infinities.
pub fn write_f64(out: &mut String, value: f64) {
    if !value.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = fmt::Write::write_fmt(out, format_args!("{value}"));
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
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
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {text:?}")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
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
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the unescaped run up to the next quote or backslash
            // in one slice. Both are ASCII, so the run ends on a char
            // boundary and `pos` stays on one throughout.
            let rest = &self.bytes[self.pos..];
            let Some(len) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[self.pos..self.pos + len]);
            self.pos += len + 1;
            if rest[len] == b'"' {
                return Ok(out);
            }
            let escape = self.peek().ok_or_else(|| self.err("truncated escape"))?;
            self.pos += 1;
            match escape {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => out.push(self.unicode_escape()?),
                other => return Err(self.err(format!("unknown escape \\{}", other as char))),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        // Combine UTF-16 surrogate pairs; a lone surrogate becomes the
        // replacement character rather than an error.
        if (0xd800..0xdc00).contains(&first) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                let mark = self.pos;
                self.pos += 2;
                let second = self.hex4()?;
                if (0xdc00..0xe000).contains(&second) {
                    let combined = 0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                    return Ok(char::from_u32(combined).unwrap_or('\u{fffd}'));
                }
                self.pos = mark;
            }
            return Ok('\u{fffd}');
        }
        Ok(char::from_u32(first).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("bad \\u escape"));
        }
        let value = digits.iter().fold(0, |acc, &d| {
            (acc << 4) | (d as char).to_digit(16).unwrap_or(0)
        });
        self.pos = end;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // Only ASCII bytes were consumed, so this slice is on boundaries.
        let text = &self.text[start..self.pos];
        // Exact unsigned integers stay exact; everything else is f64.
        if !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Uint(n));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Num(f)),
            _ => Err(JsonError {
                at: start,
                message: format!("invalid number {text:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "42", "-2.5", "1e3", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            let rendered = v.to_string();
            assert_eq!(Json::parse(&rendered).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn floats_round_trip_bit_identically() {
        for f in [
            0.123456789012345,
            1.0 / 3.0,
            2.5e-7,
            0.0821,
            2.0,
            1e300,
            -0.0,
        ] {
            let v = Json::Num(f);
            let parsed = Json::parse(&v.to_string()).unwrap();
            assert!(matches!(parsed, Json::Num(_)), "{f} must stay a float");
            assert_eq!(parsed.as_f64().unwrap().to_bits(), f.to_bits(), "{f}");
        }
        assert_eq!(Json::Num(2.0).to_string(), "2.0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string(), "null");
    }

    #[test]
    fn integers_stay_exact() {
        for n in [0, (1u64 << 53) + 1, u64::MAX] {
            let parsed = Json::parse(&n.to_string()).unwrap();
            assert_eq!(parsed, Json::Uint(n));
            assert_eq!(parsed.as_u64(), Some(n));
        }
    }

    #[test]
    fn parses_nested_objects_and_all_scalar_types() {
        let value =
            Json::parse(r#"{"a":1,"b":-2.5,"c":"x\ny","d":true,"e":null,"f":[1,2],"g":{"h":3e2}}"#)
                .unwrap();
        assert_eq!(value.get("a"), Some(&Json::Uint(1)));
        assert_eq!(value.get("b"), Some(&Json::Num(-2.5)));
        assert_eq!(value.get("c").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(value.get("d").and_then(Json::as_bool), Some(true));
        assert_eq!(value.get("e"), Some(&Json::Null));
        assert_eq!(
            value.get("f"),
            Some(&Json::Arr(vec![Json::Uint(1), Json::Uint(2)]))
        );
        assert_eq!(
            value.get("g").and_then(|g| g.get("h")),
            Some(&Json::Num(300.0))
        );
        assert_eq!(value.as_obj().map(<[_]>::len), Some(7));
    }

    #[test]
    fn unicode_escapes_decode() {
        let value = Json::parse(r#""café""#).unwrap();
        assert_eq!(value.as_str(), Some("café"));
        let escaped = Json::parse(r#""caf\u00e9""#).unwrap();
        assert_eq!(escaped.as_str(), Some("café"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":}"#).is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn objects_preserve_fields() {
        let v = Json::parse(r#"{"a": 1, "b": [true, null], "c": {"d": "x"}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).and_then(Json::as_str),
            Some("x")
        );
        let round = Json::parse(&v.to_string()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let tricky = "line\nbreak \"quote\" back\\slash tab\t\u{1} π café";
        let rendered = Json::Str(tricky.to_string()).to_string();
        assert_eq!(
            rendered,
            r#""line\nbreak \"quote\" back\\slash tab\t\u0001 π café""#
        );
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(tricky));
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("\u{1f600}"));
        assert_eq!(
            Json::parse(r#""\ud800""#).unwrap().as_str(),
            Some("\u{fffd}")
        );
    }

    /// A string at the server's 64 KiB line cap that uses every escape
    /// the grammar has, a surrogate pair and multi-byte UTF-8 parses to
    /// exactly the expected text, and round-trips through the writer.
    #[test]
    fn long_mixed_string_round_trips_exactly() {
        let escaped = r#"ascii \" \\ \/ \b \f \n \r \t \u0001 é 😀 π€😀 "#;
        let decoded = "ascii \" \\ / \u{8} \u{c} \n \r \t \u{1} é 😀 π€😀 ";
        let reps = 64 * 1024 / escaped.len();
        let literal = format!("\"{}\"", escaped.repeat(reps));
        let expected = decoded.repeat(reps);
        assert!(literal.len() > 60 * 1024, "{}", literal.len());
        let parsed = Json::parse(&literal).unwrap();
        assert_eq!(parsed.as_str(), Some(expected.as_str()));
        let written = parsed.to_string();
        assert_eq!(Json::parse(&written).unwrap(), parsed);
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for text in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "tru",
            "\"unterminated",
            "{\"a\" 1}",
            "1 2",
            "{} trailing",
            "nan",
            "1e",
            r#""\x""#,
            r#""\u+041""#,
            r#""\u00"#,
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
        let err = Json::parse(r#"{"a": tru}"#).unwrap_err();
        assert_eq!(err.at, 6, "{err}");
    }

    #[test]
    fn depth_limit_stops_recursion() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
        // The limit sits exactly at MAX_DEPTH nested levels below the root.
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 2)).is_err());
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1) + "0" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" \t{ \"k\" : [ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(
            v.get("k").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    // -- Properties over seeded random values -------------------------
    //
    // The proptest shim has no recursive strategy, so these drive a
    // splitmix64 stream by hand: every case is reproducible from its
    // seed, which the assertion messages name.

    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn string(&mut self) -> String {
            const PALETTE: &[char] = &[
                'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}',
                'é', 'π', '€', '\u{fffd}', '😀',
            ];
            (0..self.below(10))
                .map(|_| PALETTE[self.below(PALETTE.len() as u64) as usize])
                .collect()
        }

        fn value(&mut self, depth: usize) -> Json {
            let kinds = if depth >= 4 { 6 } else { 8 };
            match self.below(kinds) {
                0 => Json::Null,
                1 => Json::Bool(self.below(2) == 1),
                2 => Json::Uint(self.next() >> self.below(64)),
                3 => loop {
                    // Arbitrary bit patterns: subnormals, huge and tiny
                    // magnitudes, negative zero.
                    let f = f64::from_bits(self.next());
                    if f.is_finite() {
                        break Json::Num(f);
                    }
                },
                4 => Json::Num((self.below(4001) as f64 - 2000.0) / 8.0),
                5 => Json::Str(self.string()),
                6 => Json::Arr((0..self.below(4)).map(|_| self.value(depth + 1)).collect()),
                _ => Json::Obj(
                    (0..self.below(4))
                        .map(|_| (self.string(), self.value(depth + 1)))
                        .collect(),
                ),
            }
        }

        /// A top-level container, as every wire message and file is.
        fn document(&mut self) -> Json {
            match self.value(0) {
                v @ (Json::Arr(_) | Json::Obj(_)) => v,
                v => Json::Arr(vec![v]),
            }
        }
    }

    #[test]
    fn property_encode_then_parse_is_identity() {
        for seed in 0..2_000 {
            let v = Gen(seed).value(0);
            let text = v.to_string();
            assert_eq!(Json::parse(&text).as_ref(), Ok(&v), "seed {seed}: {text}");
        }
    }

    #[test]
    fn property_every_strict_prefix_is_an_error() {
        for seed in 0..300 {
            let text = Gen(seed).document().to_string();
            for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                assert!(
                    Json::parse(&text[..cut]).is_err(),
                    "seed {seed}: prefix {:?} of {text:?} parsed",
                    &text[..cut]
                );
            }
        }
    }

    #[test]
    fn property_single_byte_garbage_never_panics() {
        const GARBAGE: &[u8] = b"\"\\{}[],:0-.eEu \x00\xff";
        for seed in 0..150 {
            let text = Gen(seed).document().to_string();
            for at in 0..text.len() {
                for &g in GARBAGE {
                    let mut bytes = text.clone().into_bytes();
                    bytes[at] = g;
                    let damaged = String::from_utf8_lossy(&bytes);
                    let _ = Json::parse(&damaged);
                }
            }
        }
    }
}
