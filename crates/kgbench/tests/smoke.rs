//! Runs the whole benchmark at `--quick` size — four workloads, the
//! traced run, the driver's two forms — and holds the output against
//! `BENCHMARK.json`. It fails the day a product API the benchmark calls
//! changes shape, or the day `BENCHMARK.json` and the benchmark's own
//! definition drift apart.

use kgreach_serve::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["search-broad", "constraint-churn", "wire-closed", "update-mix"];

fn kgbench(args: &[&str]) -> String {
    let out =
        Command::new(env!("CARGO_BIN_EXE_kgbench")).args(args).output().expect("kgbench runs");
    assert!(
        out.status.success(),
        "kgbench {args:?} ended with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("kgbench prints UTF-8")
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a name").to_owned())
        .collect()
}

fn keys(doc: &Json) -> Vec<String> {
    match doc {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other}"),
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn benchmark_json_is_what_the_spec_prints() {
    let printed = Json::parse(&kgbench(&["spec"])).expect("`kgbench spec` prints JSON");
    assert_eq!(printed, benchmark_json(), "regenerate with `kgbench spec > BENCHMARK.json`");
    // `update-mix` runs in `all` but is not offered to the driver.
    assert_eq!(names(&printed, "workloads"), WORKLOADS[..3]);
}

#[test]
fn quick_run_reports_every_named_metric_and_no_failure() {
    let dir = scratch_dir("all");
    let out = dir.join("latest.json");
    let printed = kgbench(&["all", "--quick", "--seed", "7", "--out", out.to_str().unwrap()]);
    let doc = Json::parse(&std::fs::read_to_string(&out).expect("result file")).expect("parses");
    let bench = benchmark_json();

    let workloads = doc.get("workloads").expect("workloads");
    assert_eq!(keys(workloads), WORKLOADS);
    for w in WORKLOADS {
        let report = workloads.get(w).unwrap();
        assert_eq!(report.get("failed").and_then(Json::as_u64), Some(0), "{w} failed operations");
        assert!(report.get("attempted").and_then(Json::as_u64).unwrap() > 0);
        let metrics = report.get("metrics").unwrap();
        for name in names(&bench, "end_to_end") {
            let value = metrics.get(&name).and_then(|m| m.get("value")).and_then(Json::as_f64);
            assert!(value.is_some_and(|v| v > 0.0), "{w}: {name} is {value:?}");
            assert!(printed.contains(&name), "{name} is not printed by name");
        }
        assert_eq!(metrics.get("fail_ratio").and_then(|m| m.get("value")), Some(&Json::Num(0.0)));
        let acks = metrics.get("update_ack_p50_us").is_some();
        assert_eq!(acks, w == "update-mix", "{w}: update_ack_p50_us");
    }
    let layers = doc.get("per_layer").expect("per_layer");
    for name in names(&bench, "per_layer") {
        let m = layers.get(&name).unwrap_or_else(|| panic!("{name} missing from the traced run"));
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name} has no value");
        assert!(m.get("samples").and_then(Json::as_u64).is_some(), "{name} has no sample count");
        assert!(printed.contains(&name), "{name} is not printed by name");
    }
    // One connection, stages sequential: the whole is the attributed
    // stages plus the unattributed rest, by construction.
    let v = |name: &str| layers.get(name).unwrap().get("value").unwrap().as_f64().unwrap();
    let stages = [
        "serve.http.read_request_us",
        "serve.json.parse_us",
        "serve.protocol.parse_us",
        "serve.batch.roundtrip_us",
        "serve.json.write_us",
        "serve.http.write_response_us",
    ];
    let attributed: f64 = stages.iter().map(|s| v(s)).sum();
    let whole = v("serve.wire.c1_p50_us");
    assert!((attributed + v("serve.wire.c1_unattributed_us") - whole).abs() < 1e-6 * whole);
    assert!((v("serve.wire.c1_attributed_share") - attributed / whole).abs() < 1e-9);

    let machine = doc.get("machine").expect("machine record");
    for key in ["nproc", "available_parallelism", "profile", "rustc", "git_rev"] {
        assert!(machine.get(key).is_some(), "machine record lacks {key}");
    }
    for w in WORKLOADS {
        let trace = dir.join(format!("trace-{w}.json"));
        let t = Json::parse(&std::fs::read_to_string(&trace).expect("trace file")).expect("parses");
        assert!(
            t.get("spans").and_then(Json::as_array).is_some_and(|s| !s.is_empty()),
            "{w} spans"
        );
    }

    // A result never regresses against itself (0.03 s slices are too
    // noisy to call everything `ok`).
    let same = kgbench(&["compare", out.to_str().unwrap(), out.to_str().unwrap()]);
    assert!(same.contains(" 0 regressed, "), "{same}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn driver_form_prints_exactly_the_contract_line() {
    let bench = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let printed = kgbench(&[
            "--workload",
            "wire-closed",
            "--seed",
            "8",
            "--seconds",
            "0.3",
            "--trace",
            trace,
            "--quick",
        ]);
        let line = printed.lines().last().expect("a last line");
        let doc =
            Json::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"));
        assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        assert!(doc.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(keys(metrics), names(&bench, key), "--trace {trace} prints the {key} metrics");
        for (name, m) in keys(metrics).iter().zip(bench.get(key).unwrap().as_array().unwrap()) {
            let got = metrics.get(name).unwrap();
            assert_eq!(keys(got), ["value", "unit"]);
            assert_eq!(got.get("unit"), m.get("unit"), "{name}");
        }
    }
}

#[test]
fn unknown_workloads_and_missing_inputs_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_kgbench"))
        .args(["--workload", "no-such", "--seed", "1", "--seconds", "1", "--trace", "0", "--quick"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
