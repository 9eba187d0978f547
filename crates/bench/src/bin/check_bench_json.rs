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
//! optimization — what must not happen is `Auto` *sending* queries
//! there (the old `S3-narrowL` rows sat at ~15 000× the best). Rows whose
//! second-to-last component is not an algorithm name carry no algorithm
//! dimension and are exempt. `*.before.json` snapshots are exempt too
//! (shape is still enforced): they are frozen baselines whose whole
//! purpose is to record the state a later commit fixed.
//!
//! Usage: `check_bench_json BENCH_algorithms.json [more.json ...]`

use kgreach_serve::Json;
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
    let value = Json::parse(&text).map_err(|e| e.to_string())?;
    let entries = value.as_array().ok_or("top-level value is not an array")?;
    if entries.is_empty() {
        return Err("result array is empty".into());
    }
    for (i, entry) in entries.iter().enumerate() {
        if !matches!(entry, Json::Obj(_)) {
            return Err(format!("entry {i} is not an object"));
        }
        match entry.get("name") {
            Some(Json::Str(s)) if !s.is_empty() => {}
            Some(_) => return Err(format!("entry {i}: \"name\" is not a non-empty string")),
            None => return Err(format!("entry {i}: missing \"name\"")),
        }
        match entry.get("median_ns") {
            Some(Json::Num(n)) if n.is_finite() && *n > 0.0 => {}
            Some(_) => return Err(format!("entry {i}: \"median_ns\" is not a positive number")),
            None => return Err(format!("entry {i}: missing \"median_ns\"")),
        }
    }
    // Historical before-snapshots intentionally preserve the slow rows
    // a later commit eliminated; only live artifacts must stay tight.
    if !path.ends_with(".before.json") {
        for line in check_auto_rows(entries)? {
            println!("{path}: {line}");
        }
    }
    Ok(entries.len())
}

/// Maximum allowed ratio between the `Auto` row and the fastest row of
/// the same workload: the served path may pay for its session and miss
/// the best kernel by a constant, not fall off it.
const MAX_AUTO_SPREAD: f64 = 10.0;

/// The algorithm segment's values, as `Algorithm::name` and
/// `kgreach_bench::figure_rows` spell them.
const ALGORITHM_ROWS: &[&str] = &["UIS", "UIS (default)", "UIS*", "INS", AUTO];
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
        let (Some(name), Some(median)) = (
            entry.get("name").and_then(Json::as_str),
            entry.get("median_ns").and_then(Json::as_f64),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(rows: &[(&str, f64)]) -> Vec<Json> {
        rows.iter()
            .map(|(name, median)| {
                Json::Obj(vec![
                    ("name".into(), Json::str(*name)),
                    ("median_ns".into(), Json::Num(*median)),
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
