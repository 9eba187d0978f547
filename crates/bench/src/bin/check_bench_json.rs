//! CI guard for the bench-trajectory artifacts: verifies that each file
//! produced by the vendored criterion harness's `CRITERION_JSON` emitter
//! is well-formed JSON of the expected shape — a non-empty array of
//! objects each carrying a non-empty `name` string and a positive, finite
//! `median_ns` number. Exits non-zero (failing the CI step) on the first
//! malformed or empty file, so the perf trajectory can never silently
//! degrade into unparseable or vacuous artifacts.
//!
//! Beyond well-formedness it enforces one *performance* invariant, on
//! what is served: in every workload group whose rows differ by an
//! algorithm segment (`lscr/S3-narrowL/{UIS,UIS*,INS,Auto}/10` — same
//! name with the second-to-last component removed) there must be an
//! `Auto` row, and its median must sit within 10× of the group's fastest
//! row. The forced-kernel rows are printed with their ratio to the
//! fastest and not bounded: UIS\*/INS are the paper's Algorithms 2 and 4
//! as printed, and a forced INS that reads ~230× UIS on `S3-narrowL` is
//! the paper's own §6 finding about candidate order, not a missing
//! optimization — what must not happen is the planner *sending* queries
//! there (the old `S3-narrowL` rows sat at ~15 000× the best). Rows whose
//! second-to-last component is not an algorithm name carry no algorithm
//! dimension and are exempt. `*.before.json` snapshots are exempt too
//! (shape is still enforced): they are frozen baselines whose whole
//! purpose is to record the state a later commit fixed.
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
        for line in check_auto_rows(&entries)? {
            println!("{path}: {line}");
        }
    }
    Ok(entries.len())
}

/// Maximum allowed ratio between the `Auto` row and the fastest row of
/// the same workload: the planner may pay for planning and miss the best
/// kernel by a constant, not fall off it.
const MAX_AUTO_SPREAD: f64 = 10.0;

/// The algorithm segment's values, as `Algorithm::name` and
/// `kgreach_bench::figure_rows` spell them.
const ALGORITHM_ROWS: &[&str] = &["UIS", "UIS (two frontiers)", "UIS*", "INS", AUTO];
const AUTO: &str = "Auto";

/// Groups rows by workload — the benchmark name with its algorithm
/// segment (second-to-last `/` component, one of [`ALGORITHM_ROWS`])
/// removed — and rejects any group that lacks an `Auto` row or whose
/// `Auto` median exceeds [`MAX_AUTO_SPREAD`]× the group's fastest. Returns
/// one report line per group: every row's ratio to the fastest.
fn check_auto_rows(entries: &[Json]) -> Result<Vec<String>, String> {
    // (workload key, rows as (algorithm, median_ns)).
    let mut groups: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    for entry in entries {
        let Json::Object(fields) = entry else { continue };
        let (Some(name), Some(median)) = (
            fields.iter().find_map(|(k, v)| match v {
                Json::String(s) if k == "name" => Some(s.as_str()),
                _ => None,
            }),
            fields.iter().find_map(|(k, v)| match v {
                Json::Number(n) if k == "median_ns" => Some(*n),
                _ => None,
            }),
        ) else {
            continue;
        };
        let mut segments: Vec<&str> = name.split('/').collect();
        if segments.len() < 3 || !ALGORITHM_ROWS.contains(&segments[segments.len() - 2]) {
            continue;
        }
        let algorithm = segments.remove(segments.len() - 2).to_string();
        let key = segments.join("/");
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, rows)) => rows.push((algorithm, median)),
            None => groups.push((key, vec![(algorithm, median)])),
        }
    }
    let mut report = Vec::with_capacity(groups.len());
    for (key, rows) in &groups {
        let fastest = rows.iter().map(|(_, m)| *m).fold(f64::INFINITY, f64::min);
        let Some((_, auto)) = rows.iter().find(|(a, _)| a == AUTO) else {
            return Err(format!(
                "workload '{key}': no '{AUTO}' row — what is served is unmeasured"
            ));
        };
        if *auto > MAX_AUTO_SPREAD * fastest {
            return Err(format!(
                "workload '{key}': '{AUTO}' ({auto:.1} ns) is {:.0}x the fastest row \
                 ({fastest:.1} ns); the allowed spread is {MAX_AUTO_SPREAD:.0}x",
                auto / fastest,
            ));
        }
        let ratios: Vec<String> =
            rows.iter().map(|(a, m)| format!("{a} {:.1}x", m / fastest)).collect();
        report.push(format!("workload '{key}': {}", ratios.join(", ")));
    }
    Ok(report)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(rows: &[(&str, f64)]) -> Vec<Json> {
        rows.iter()
            .map(|(name, median)| {
                Json::Object(vec![
                    ("name".into(), Json::String((*name).into())),
                    ("median_ns".into(), Json::Number(*median)),
                ])
            })
            .collect()
    }

    #[test]
    fn forced_rows_are_reported_and_auto_is_bounded() {
        // A forced kernel 1 000× off is a finding, not a failure.
        let ok = rows(&[("w/UIS/10", 1.0), ("w/INS/10", 1_000.0), ("w/Auto/10", 9.0)]);
        let report = check_auto_rows(&ok).unwrap();
        assert_eq!(report, ["workload 'w/10': UIS 1.0x, INS 1000.0x, Auto 9.0x"]);
        // The seeded violations: Auto past 10×, and no Auto at all.
        let slow = rows(&[("w/UIS/10", 1.0), ("w/INS/10", 5.0), ("w/Auto/10", 11.0)]);
        assert!(check_auto_rows(&slow).unwrap_err().contains("11x the fastest"));
        let unserved = rows(&[("w/UIS/10", 1.0), ("w/UIS*/10", 2.0)]);
        assert!(check_auto_rows(&unserved).unwrap_err().contains("no 'Auto' row"));
        // No algorithm segment, no group.
        let other =
            rows(&[("sparql/S3/vsg", 1.0), ("sparql/S5/vsg", 9e9), ("updates/compact", 1.0)]);
        assert!(check_auto_rows(&other).unwrap().is_empty());
    }
}
