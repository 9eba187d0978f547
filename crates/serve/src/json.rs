//! A minimal JSON value type with a strict parser and a serializer.
//!
//! The workspace is fully offline (see `vendor/README.md`), so the wire
//! layer cannot reach for `serde`; this module is the replacement. It is
//! deliberately small: one [`Json`] enum, RFC 8259-conformant parsing
//! with a nesting-depth cap (hostile bodies must not blow the stack of a
//! connection thread), and escaping-correct serialization. Numbers are
//! `f64` — every quantity on this wire (counts, durations in
//! microseconds, epochs) fits `f64`'s 2^53 integer range.
//!
//! ```
//! use kgreach_serve::json::Json;
//!
//! let v = Json::parse(r#"{"answer": true, "stats": {"edges": 12}}"#).unwrap();
//! assert_eq!(v.get("answer").and_then(Json::as_bool), Some(true));
//! assert_eq!(v.get("stats").and_then(|s| s.get("edges")).and_then(Json::as_u64), Some(12));
//! assert_eq!(Json::Str("a\"b".into()).to_string(), r#""a\"b""#);
//! ```

use std::fmt;

/// Nesting levels (arrays + objects) the parser accepts. Deeper input is
/// rejected as malformed rather than recursed into.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (see the module docs for the `f64` rationale).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys: last wins on
    /// [`get`](Json::get); the parser keeps both).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for integer values.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// A `u64` as a JSON number (values beyond 2^53 lose precision; the
    /// wire never carries any).
    pub fn u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// A `usize` as a JSON number.
    pub fn usize(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after the document"));
        }
        Ok(value)
    }

    /// Field lookup on objects (last duplicate wins); `None` on other
    /// variants and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer: `None` for
    /// non-numbers, negatives and non-integral values.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes into `out` (compact, no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_escaped(s, out),
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
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The serialized length — exact, except that a number that is not a
    /// small integer is guessed at [`NUMBER_GUESS`] bytes — so that
    /// `Display` fills one buffer allocated once.
    fn size_hint(&self) -> usize {
        match self {
            Json::Null => 4,
            Json::Bool(true) => 4,
            Json::Bool(false) => 5,
            Json::Num(n) => number_len(*n),
            Json::Str(s) => escaped_len(s),
            Json::Arr(items) => {
                2 + items.len().saturating_sub(1) + items.iter().map(Json::size_hint).sum::<usize>()
            }
            Json::Obj(fields) => {
                let body: usize =
                    fields.iter().map(|(k, v)| escaped_len(k) + 1 + v.size_hint()).sum();
                2 + fields.len().saturating_sub(1) + body
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::with_capacity(self.size_hint());
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// [`Json::size_hint`]'s guess for a number it does not measure.
const NUMBER_GUESS: usize = 24;

/// Whether [`write_number`] writes `n` as an integer.
fn is_small_integer(n: f64) -> bool {
    n.fract() == 0.0 && n.abs() < 9e15
}

fn number_len(n: f64) -> usize {
    if !n.is_finite() {
        4
    } else if is_small_integer(n) {
        let digits = (n as i64).unsigned_abs().checked_ilog10().map_or(1, |d| d as usize + 1);
        digits + usize::from(n < 0.0)
    } else {
        NUMBER_GUESS
    }
}

/// Writes `n` as [`Json::Num`] serializes: integral values below 9e15 as
/// integers, others in `f64`'s shortest form, non-finite ones as `null`.
pub(crate) fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; the wire never produces them, but a
        // defensive null beats emitting an unparseable token.
        out.push_str("null");
    } else if is_small_integer(n) {
        // The digits of `n as i64`, right to left into a stack buffer:
        // |n| < 9e15 is at most 16 digits and a sign.
        let int = n as i64;
        let (mut digits, mut at, mut m) = ([0u8; 20], 20, int.unsigned_abs());
        loop {
            at -= 1;
            digits[at] = b'0' + (m % 10) as u8;
            m /= 10;
            if m == 0 {
                break;
            }
        }
        if int < 0 {
            at -= 1;
            digits[at] = b'-';
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    } else {
        use fmt::Write;
        let _ = write!(out, "{n}"); // writing to a `String` cannot fail
    }
}

/// Whether a string byte must be escaped: `"`, `\` and the C0 controls.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// The length of `s` as [`write_escaped`] writes it, quotes included.
fn escaped_len(s: &str) -> usize {
    let extra: usize = s
        .bytes()
        .filter(|&b| needs_escape(b))
        .map(|b| if matches!(b, b'"' | b'\\' | b'\n' | b'\r' | b'\t') { 1 } else { 5 })
        .sum();
    s.len() + 2 + extra
}

/// Writes `s` quoted, copying each run of bytes that need no escape whole.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest.bytes().position(needs_escape) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

struct Parser<'a> {
    /// The document; being a `str`, it is valid UTF-8 throughout, and the
    /// parser only ever cuts it after an ASCII byte.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { at: self.pos, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| self.err("unexpected end of input"))
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        let found = self.peek()?;
        if found != byte {
            return Err(self.err(format!("expected '{}', found '{}'", byte as char, found as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek()? {
            b'[' => self.array(depth),
            b'{' => self.object(depth),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            b => Err(self.err(format!("unexpected '{}'", b as char))),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("malformed literal"))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                b => return Err(self.err(format!("expected ',' or ']', found '{}'", b as char))),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            if self.peek()? != b'"' {
                return Err(self.err("object key must be a string"));
            }
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value(depth + 1)?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                b => return Err(self.err(format!("expected ',' or '}}', found '{}'", b as char))),
            }
        }
    }

    /// A string's text. The bytes up to the next quote, backslash or
    /// control byte are copied as one run: a string without escapes is
    /// one allocation of its exact length, and one with escapes grows
    /// run by run.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let Some(len) = self.bytes[start..].iter().position(|&b| needs_escape(b)) else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            let run = &self.text[start..start + len];
            let b = self.bytes[start + len];
            self.pos = start + len + 1;
            match b {
                b'"' if out.is_empty() => return Ok(run.to_owned()),
                b'"' => {
                    out.push_str(run);
                    return Ok(out);
                }
                b'\\' => {
                    out.push_str(run);
                    let esc =
                        *self.bytes.get(self.pos).ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.err(format!("unknown escape '\\{}'", esc as char))),
                    }
                }
                _ => return Err(self.err("unescaped control character")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        // Decode surrogate pairs: vertex names are arbitrary user text,
        // so astral-plane characters must round-trip.
        if (0xd800..0xdc00).contains(&code) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.err("unpaired high surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err(self.err("invalid low surrogate"));
            }
            let combined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            return char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"));
        }
        char::from_u32(code).ok_or_else(|| self.err("unpaired low surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("non-ASCII \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if !is_json_number(text) {
            return Err(JsonError { at: start, message: format!("non-JSON number '{text}'") });
        }
        // A number past `f64`'s range would read back as `null`: refuse it.
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(JsonError { at: start, message: format!("number out of range '{text}'") }),
        }
    }
}

/// RFC 8259 number grammar:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_json_number(text: &str) -> bool {
    let b = text.as_bytes();
    let mut i = 0;
    if b.get(i) == Some(&b'-') {
        i += 1;
    }
    match b.get(i) {
        Some(b'0') => i += 1,
        Some(d) if d.is_ascii_digit() => {
            while b.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
        }
        _ => return false,
    }
    if b.get(i) == Some(&b'.') {
        i += 1;
        let frac = i;
        while b.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        if i == frac {
            return false;
        }
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        let exp = i;
        while b.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        if i == exp {
            return false;
        }
    }
    i == b.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_values() {
        let cases = [
            "null",
            "true",
            "false",
            "0",
            "-12",
            "3.5",
            r#""""#,
            r#""plain""#,
            "[]",
            "[1,2,3]",
            "{}",
            r#"{"a":1,"b":[true,null]}"#,
        ];
        for case in cases {
            let v = Json::parse(case).unwrap_or_else(|e| panic!("{case}: {e}"));
            assert_eq!(v.to_string(), case, "canonical roundtrip of {case}");
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let hostile = "quote\" slash\\ newline\n tab\t nul\u{1} emoji\u{1F600} ünïcode";
        let mut out = String::new();
        Json::str(hostile).write(&mut out);
        let back = Json::parse(&out).unwrap();
        assert_eq!(back.as_str(), Some(hostile));
        // Surrogate-pair escapes decode too.
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"s":"x","n":4,"b":false,"a":[1],"z":null,"s":"y"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("y"), "last duplicate wins");
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(4.0));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("a").and_then(Json::as_array).map(<[Json]>::len), Some(1));
        assert!(v.get("z").is_some_and(Json::is_null));
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn rejects_malformed() {
        let bad = [
            "",
            "{",
            "[1,]",
            "{'a':1}",
            "{\"a\" 1}",
            "01",
            "1.",
            ".5",
            "+1",
            "nul",
            "truex",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\ud800\"",
            "[1] extra",
            "\u{1}",
            "{\"a\":1,}",
            "{1:2}",
        ];
        for case in bad {
            assert!(Json::parse(case).is_err(), "{case:?} must be rejected");
        }
    }

    #[test]
    fn depth_cap() {
        let deep_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deep_ok).is_ok());
        let deep_bad = format!("{}1{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
        assert!(Json::parse(&deep_bad).is_err(), "over-deep nesting must be rejected");
    }

    #[test]
    fn number_edges() {
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::parse("-0.5e-1").unwrap().as_f64(), Some(-0.05));
        assert_eq!(Json::u64(1_000_000_000_000).to_string(), "1000000000000");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null", "non-finite serializes as null");
        // It would read back as `null`, so it is not read at all.
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse("[-1e400]").is_err());
    }

    /// The number writer the stack-buffer one replaced.
    fn format_number(n: f64) -> String {
        if !n.is_finite() {
            "null".into()
        } else if n.fract() == 0.0 && n.abs() < 9e15 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    }

    #[test]
    fn numbers_are_written_as_format_wrote_them() {
        let p53 = 2f64.powi(53);
        let mut sweep = vec![0.0, -0.0, 1.0, -1.0, 9.0, 10.0, -10.0, 99.0, 100.0, 12345.0];
        sweep.extend([p53, -p53, p53 - 1.0, -(p53 - 1.0), p53 + 2.0]);
        sweep.extend([9e15, -9e15, 9e15 - 1.0, -(9e15 - 1.0), 9e15 + 1.0, 1e16, 1e300]);
        sweep.extend([0.5, -0.5, 1.25, 3.5, -2.75, 1e-7, 123.456, 0.1 + 0.2, f64::MIN_POSITIVE]);
        sweep.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, f64::MIN]);
        for k in 0..=16 {
            let p = 10f64.powi(k);
            sweep.extend([p - 1.0, p, p + 1.0, -p, -(p - 1.0)]);
        }
        for n in sweep {
            let mut out = String::new();
            write_number(n, &mut out);
            assert_eq!(out, format_number(n), "{n:?}");
            if n.is_finite() && is_small_integer(n) {
                assert_eq!(number_len(n), out.len(), "{n:?}");
            }
        }
    }

    /// The escaper the run-copying one replaced: one `push` per `char`.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::from('"');
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
        out.push('"');
        out
    }

    #[test]
    fn strings_are_escaped_as_the_per_char_loop_escaped_them() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let corpus = [
            String::new(),
            controls.clone(),
            format!("a{controls}b{controls}"),
            "\"\\\"\\\\\"".into(),
            "plain run then \" and \\ and \u{7f} del".into(),
            "ünïcödé Zoë Müller ∀x∃y".into(),
            "astral \u{1F600}\u{10FFFF}\u{1D11E} end".into(),
            "\u{1F600}\"\u{1}\u{1F600}\\\n".into(),
        ];
        for s in &corpus {
            let mut out = String::new();
            write_escaped(s, &mut out);
            assert_eq!(out, escape_per_char(s), "{s:?}");
            assert_eq!(escaped_len(s), out.len(), "{s:?}");
            assert_eq!(Json::parse(&out).unwrap().as_str(), Some(s.as_str()));
        }
    }

    #[test]
    fn size_hint_is_exact_without_fractional_numbers() {
        let v = Json::Obj(vec![
            ("a\"b".into(), Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)])),
            ("n".into(), Json::Arr(vec![Json::Num(-12.0), Json::Num(0.0), Json::u64(1 << 40)])),
            ("s".into(), Json::str("tab\t nul\u{0} é")),
            ("e".into(), Json::Obj(Vec::new())),
            ("z".into(), Json::Arr(Vec::new())),
        ]);
        assert_eq!(v.size_hint(), v.to_string().len());
    }

    #[test]
    fn strings_with_and_without_escapes_parse_to_their_text() {
        for (json, text) in [
            (r#""""#, ""),
            (r#""run""#, "run"),
            (r#""\n""#, "\n"),
            (r#""a\"b\\c\/dé😀e""#, "a\"b\\c/dé\u{1F600}e"),
            ("\"é\u{1F600}\"", "é\u{1F600}"),
        ] {
            assert_eq!(Json::parse(json).unwrap().as_str(), Some(text), "{json}");
        }
        for bad in ["\"a\nb\"", "\"a\\", "\"a\\u12\"", "\"a"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }
}
