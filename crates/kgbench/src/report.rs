//! Result documents: what a workload process hands its parent, the
//! result file `all` writes, the machine record, and the one-line form
//! the accepting driver reads.

use crate::api::{Failure, Json};
use crate::measure::Failures;
use crate::spec;
use crate::stats::Summary;
use crate::workloads::ChildReport;
use std::process::Command;

/// `{"k": v, …}` from pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The fields of an object, or nothing.
pub fn fields(v: &Json) -> &[(String, Json)] {
    match v {
        Json::Obj(f) => f,
        _ => &[],
    }
}

fn metric(s: Summary, unit: &str) -> Json {
    obj(vec![
        ("value", Json::Num(s.value)),
        ("unit", Json::str(unit)),
        ("spread", Json::Num(s.spread)),
        ("samples", Json::u64(s.samples)),
    ])
}

fn single(value: f64, unit: &str) -> Json {
    metric(Summary { value, spread: 0.0, samples: 1 }, unit)
}

fn failures_json(f: Failures) -> Json {
    obj(vec![
        ("errors", Json::u64(f.errors)),
        ("wrong", Json::u64(f.wrong)),
        ("interrupted", Json::u64(f.interrupted)),
        ("shed", Json::u64(f.shed)),
        ("unacked", Json::u64(f.unacked)),
    ])
}

/// A workload process's report as JSON: every end-to-end metric of the
/// workload under `metrics`, counts that belong to no metric under
/// `notes`.
pub fn child_json(r: &ChildReport) -> Json {
    let failed = r.failures.total();
    let mut metrics = vec![
        ("query_p50_us", metric(r.query.p50_us, "us")),
        ("query_p99_us", metric(r.query.tail_us, "us")),
        ("throughput_qps", metric(r.query.throughput_qps, "1/s")),
        ("fail_ratio", single(failed as f64 / r.attempted.max(1) as f64, "ratio")),
        ("setup_s", metric(r.setup_s, "s")),
        ("rss_peak_mib", single(r.rss_peak_mib, "MiB")),
    ];
    let mut notes = vec![
        ("query_tail_percentile", Json::Num(r.query.tail_percentile)),
        ("completions_per_s", Json::Num(r.query.completions_per_s.value)),
    ];
    if let Some(u) = &r.update {
        metrics.push(("update_ack_p50_us", metric(u.ack_p50_us, "us")));
        metrics.push(("update_ack_p99_us", metric(u.ack_tail_us, "us")));
        notes.extend([
            ("update_ack_tail_percentile", Json::Num(u.ack_tail_percentile)),
            ("update_send_lag_p99_us", Json::Num(u.send_lag_tail_us)),
            ("compactions", Json::u64(u.compactions)),
            ("index_patches", Json::u64(u.index_patches)),
            ("index_rebuilds", Json::u64(u.index_rebuilds)),
        ]);
    }
    obj(vec![
        ("attempted", Json::u64(r.attempted)),
        ("failed", Json::u64(failed)),
        ("failures", failures_json(r.failures)),
        ("metrics", obj(metrics)),
        ("notes", obj(notes)),
    ])
}

/// `metrics.<name>.value` of a workload or per-layer document.
pub fn value_of(doc: &Json, name: &str) -> Option<f64> {
    doc.get(name)?.get("value")?.as_f64()
}

/// The line the accepting driver reads last: exactly `correct`,
/// `attempted`, `failed` and `metrics`, the latter holding exactly the
/// named metrics as `{"value", "unit"}`.
pub fn driver_line<'a>(
    attempted: u64,
    failed: u64,
    metrics: &Json,
    names: impl Iterator<Item = (&'a str, &'a str)>,
) -> Result<String, Failure> {
    let mut out = Vec::new();
    for (name, unit) in names {
        let value =
            value_of(metrics, name).ok_or_else(|| format!("metric {name} was not measured"))?;
        out.push((name, obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])));
    }
    Ok(obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::u64(attempted.max(1))),
        ("failed", Json::u64(failed)),
        ("metrics", obj(out)),
    ])
    .to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The machine a result was taken on. `compare` refuses to compare
/// results whose records differ in anything but `git_rev`.
pub fn machine_record() -> Json {
    let cpus = std::fs::read_to_string("/proc/cpuinfo")
        .map_or(0, |s| s.lines().filter(|l| l.starts_with("processor")).count());
    obj(vec![
        ("nproc", Json::usize(cpus)),
        (
            "available_parallelism",
            Json::usize(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("os", Json::str(format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH))),
        ("git_rev", Json::str(command_line("git", &["rev-parse", "--short", "HEAD"]))),
    ])
}

/// Indented JSON, for the files that get committed and read by people.
pub fn pretty(v: &Json) -> String {
    fn go(v: &Json, depth: usize, out: &mut String) {
        let pad = |n: usize, out: &mut String| out.push_str(&"  ".repeat(n));
        // Leaves and leaf-only containers stay on one line.
        let leaf = |i: &Json| !matches!(i, Json::Obj(_) | Json::Arr(_));
        match v {
            Json::Obj(f) if !f.iter().all(|(_, v)| leaf(v)) => {
                out.push_str("{\n");
                for (i, (k, item)) in f.iter().enumerate() {
                    pad(depth + 1, out);
                    Json::str(k.as_str()).write(out);
                    out.push_str(": ");
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < f.len() { ",\n" } else { "\n" });
                }
                pad(depth, out);
                out.push('}');
            }
            Json::Arr(a) if !a.iter().all(leaf) => {
                out.push_str("[\n");
                for (i, item) in a.iter().enumerate() {
                    pad(depth + 1, out);
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < a.len() { ",\n" } else { "\n" });
                }
                pad(depth, out);
                out.push(']');
            }
            other => other.write(out),
        }
    }
    let mut out = String::new();
    go(v, 0, &mut out);
    out.push('\n');
    out
}

/// Prints every metric of a `{"name": {"value", "unit", …}}` document
/// by name with its unit.
pub fn print_metrics(title: &str, metrics: &Json) {
    println!("{title}");
    for (name, m) in fields(metrics) {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let samples = m.get("samples").and_then(Json::as_u64).unwrap_or(0);
        match m.get("spread").and_then(Json::as_f64) {
            Some(spread) => {
                println!("  {name:<44} {value:>14.4} {unit:<7} spread {spread:.4}  n={samples}")
            }
            None => println!("  {name:<44} {value:>14.4} {unit:<7} n={samples}"),
        }
    }
}

/// `BENCHMARK.json` as [`spec`] defines it.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "crates/kgbench/Cargo.toml",
        "--",
    ];
    obj(vec![
        ("command", Json::Arr(command.iter().map(|s| Json::str(*s)).collect())),
        ("paths", Json::Arr(vec![Json::str("crates/kgbench"), Json::str("bench-results/kgbench")])),
        ("run_seconds", Json::u64(spec::DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                spec::driver_workloads()
                    .map(|w| obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                spec::driver_end_to_end()
                    .map(|m| {
                        obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                spec::PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The whole definition as text: what `BENCHMARK.json` has no room for —
/// each metric's meaning, where it is reported, and for each per-layer
/// metric the end-to-end metric and workload it is expected to move.
pub fn definition_table() -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "kgbench v{}: default seed {}, {} s windows, lubm-d5 54,690 vertices / 239,190 edges / \
         185 landmarks, lubm-2m 537,519 vertices / 2,354,290 edges / 64 landmarks\n\nworkloads\n",
        spec::VERSION,
        spec::DEFAULT_SEED,
        spec::DEFAULT_SECONDS
    );
    for w in &spec::WORKLOADS {
        let offered = if w.driver { "" } else { " [kgbench only]" };
        let _ = writeln!(out, "  {}{offered}: {}", w.name, w.why);
    }
    out.push_str("\nend-to-end metrics\n");
    for m in &spec::END_TO_END {
        let on = match m.scope {
            spec::Scope::All => "all workloads",
            spec::Scope::UpdateMix => "update-mix",
        };
        let offered = if m.driver { "" } else { " [kgbench only]" };
        let _ = writeln!(
            out,
            "  {} ({}, {} is better, bound {:.0}%, {on}){offered}: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    out.push_str("\nper-layer metrics (traced run) -> what each should move\n");
    for m in spec::PER_LAYER {
        let _ = writeln!(out, "  {} ({}, {}) -> {}", m.name, m.unit, m.better.as_str(), m.moves);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_output_parses_back() {
        let doc = benchmark_json();
        let text = pretty(&doc);
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert!(text.lines().count() > 100, "one entry per line");
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let metrics = obj(vec![("a_us", single(1.5, "us")), ("b", single(2.0, "count"))]);
        let line = driver_line(10, 0, &metrics, [("a_us", "us")].into_iter()).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"a_us":{"value":1.5,"unit":"us"}}}"#
        );
        assert!(driver_line(10, 0, &metrics, [("missing", "us")].into_iter()).is_err());
    }
}
