//! CI guard for the bench-trajectory artifacts: verifies that each file
//! produced by the vendored criterion harness's `CRITERION_JSON` emitter
//! is well-formed JSON of the expected shape — a non-empty array of
//! objects each carrying a non-empty `name` string and a positive, finite
//! `median_ns` number. Exits non-zero (failing the CI step) on the first
//! malformed or empty file, so the perf trajectory can never silently
//! degrade into unparseable or vacuous artifacts.
//!
//! Beyond well-formedness it enforces one *performance* invariant: rows
//! that share a workload (same benchmark name with the algorithm segment
//! removed, e.g. `lscr/S3-narrowL/{UIS,UIS*,INS,Auto}/10`) must stay
//! within a 100× median spread of each other. The algorithms answer the
//! same queries; a 4-orders-of-magnitude gap between them (the old
//! `S3-narrowL` rows sat at ~15 000× the best) means one kernel is
//! missing a structural optimization, and the committed artifact should
//! not be allowed to normalize that. Groups whose middle segment is not an
//! algorithm are registered in [`NO_ALGORITHM_SEGMENT`] and skip the check
//! (`sparql/<constraint>/<operation>`: `V(S,G)` of S3 has 22k results, of
//! S5 one). `*.before.json` snapshots are
//! exempt from the spread check (shape is still enforced): they are
//! frozen baselines whose whole purpose is to record the pathological
//! state a later commit fixed.
//!
//! Usage: `check_bench_json BENCH_algorithms.json [more.json ...]`

use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: check_bench_json <result.json> [...]");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        match check_file(path) {
            Ok(n) => println!("{path}: ok ({n} benchmark results)"),
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn check_file(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    let Json::Array(entries) = value else {
        return Err("top-level value is not an array".into());
    };
    if entries.is_empty() {
        return Err("result array is empty".into());
    }
    for (i, entry) in entries.iter().enumerate() {
        let Json::Object(fields) = entry else {
            return Err(format!("entry {i} is not an object"));
        };
        match fields.iter().find(|(k, _)| k == "name") {
            Some((_, Json::String(s))) if !s.is_empty() => {}
            Some(_) => return Err(format!("entry {i}: \"name\" is not a non-empty string")),
            None => return Err(format!("entry {i}: missing \"name\"")),
        }
        match fields.iter().find(|(k, _)| k == "median_ns") {
            Some((_, Json::Number(n))) if n.is_finite() && *n > 0.0 => {}
            Some(_) => return Err(format!("entry {i}: \"median_ns\" is not a positive number")),
            None => return Err(format!("entry {i}: missing \"median_ns\"")),
        }
    }
    // Historical before-snapshots intentionally preserve the slow rows
    // a later commit eliminated; only live artifacts must stay tight.
    if !path.ends_with(".before.json") {
        check_workload_spread(&entries)?;
    }
    Ok(entries.len())
}

/// Maximum allowed ratio between the slowest and fastest algorithm on
/// the same workload. Generous enough for the real asymmetries (an
/// uninformed search skipping index maintenance on easy rows), tight
/// enough to reject a kernel that has fallen off its fast path.
const MAX_WORKLOAD_SPREAD: f64 = 100.0;

/// Benchmark groups (first name segment) whose second-to-last segment
/// names an input rather than an algorithm, so rows that share the rest
/// of the name do *not* answer the same question and their spread means
/// nothing: `BENCH_sparql.json`'s `sparql/<constraint>/<operation>`.
const NO_ALGORITHM_SEGMENT: &[&str] = &["sparql"];

/// Groups rows by workload — the benchmark name with its algorithm
/// segment (second-to-last `/` component) removed — and rejects any
/// group whose slowest median exceeds [`MAX_WORKLOAD_SPREAD`]× its
/// fastest. Names with fewer than three segments carry no algorithm
/// dimension and are exempt, as are the [`NO_ALGORITHM_SEGMENT`] groups.
fn check_workload_spread(entries: &[Json]) -> Result<(), String> {
    // A named row: (full benchmark name, median_ns).
    type Row = (String, f64);
    // (workload key, fastest row, slowest row); the row keeps its full
    // name so the error message points at the exact offenders.
    let mut groups: Vec<(String, Row, Row)> = Vec::new();
    for entry in entries {
        let Json::Object(fields) = entry else { continue };
        let (Some(name), Some(median)) = (
            fields.iter().find_map(|(k, v)| match v {
                Json::String(s) if k == "name" => Some(s.clone()),
                _ => None,
            }),
            fields.iter().find_map(|(k, v)| match v {
                Json::Number(n) if k == "median_ns" => Some(*n),
                _ => None,
            }),
        ) else {
            continue;
        };
        let segments: Vec<&str> = name.split('/').collect();
        if segments.len() < 3 || NO_ALGORITHM_SEGMENT.contains(&segments[0]) {
            continue;
        }
        let mut key_parts = segments.clone();
        key_parts.remove(segments.len() - 2);
        let key = key_parts.join("/");
        match groups.iter_mut().find(|(k, _, _)| *k == key) {
            Some((_, fastest, slowest)) => {
                if median < fastest.1 {
                    *fastest = (name.clone(), median);
                }
                if median > slowest.1 {
                    *slowest = (name, median);
                }
            }
            None => groups.push((key, (name.clone(), median), (name, median))),
        }
    }
    for (key, fastest, slowest) in &groups {
        if slowest.1 > MAX_WORKLOAD_SPREAD * fastest.1 {
            return Err(format!(
                "workload '{key}': '{}' ({:.1} ns) is {:.0}x slower than '{}' ({:.1} ns); \
                 the allowed spread is {MAX_WORKLOAD_SPREAD:.0}x",
                slowest.0,
                slowest.1,
                slowest.1 / fastest.1,
                fastest.0,
                fastest.1,
            ));
        }
    }
    Ok(())
}

/// The subset of JSON values the checker distinguishes.
enum Json {
    Null,
    Bool(#[allow(dead_code)] bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

/// A minimal recursive-descent JSON parser — no external crates exist in
/// this offline workspace, and the checker must not trust the emitter it
/// checks, so it parses real JSON rather than pattern-matching substrings.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".into())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        let found = self.peek()?;
        if found != byte {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                byte as char, self.pos, found as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'[' => self.parse_array(),
            b'{' => self.parse_object(),
            b'"' => Ok(Json::String(self.parse_string()?)),
            b't' => self.parse_literal("true", Json::Bool(true)),
            b'f' => self.parse_literal("false", Json::Bool(false)),
            b'n' => self.parse_literal("null", Json::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                b => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found '{}'",
                        self.pos, b as char
                    ))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.peek()?;
            let key = self.parse_string()?;
            self.expect(b':')?;
            fields.push((key, self.parse_value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                b => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found '{}'",
                        self.pos, b as char
                    ))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
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
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-UTF-8 \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are irrelevant to benchmark
                            // names; reject rather than mis-decode.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "surrogate \\u escape".to_string())?,
                            );
                        }
                        _ => return Err(format!("unknown escape '\\{}'", esc as char)),
                    }
                }
                _ => {
                    // Re-walk UTF-8 from the raw bytes: multi-byte
                    // sequences arrive here one leading byte at a time.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| "invalid UTF-8".to_string())?;
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| "truncated UTF-8".to_string())?;
                    let s = std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8".to_string())?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ASCII digits are valid UTF-8");
        // f64::from_str is laxer than JSON ("+1", "1.", ".5", "inf"): pin
        // the token to the JSON number grammar before trusting it.
        if !is_json_number(text) {
            return Err(format!("non-JSON number '{text}' at byte {start}"));
        }
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("malformed number '{text}' at byte {start}"))
    }
}

/// RFC 8259 number grammar: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_json_number(text: &str) -> bool {
    let b = text.as_bytes();
    let mut i = 0;
    if b.get(i) == Some(&b'-') {
        i += 1;
    }
    // Integer part: one zero, or a nonzero digit followed by digits.
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
        let frac_start = i;
        while b.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        if i == frac_start {
            return false;
        }
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        let exp_start = i;
        while b.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        if i == exp_start {
            return false;
        }
    }
    i == b.len()
}

fn utf8_len(lead: u8) -> Option<usize> {
    match lead {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}
