//! `kgbench` — this repository's benchmark. One command, four workloads,
//! eight end-to-end metrics with regression bounds, and a per-layer
//! trace that says where an LSCR query's time goes. See `README.md`.
//!
//! ```text
//! kgbench all     [--seed N] [--seconds S] [--quick] [--out FILE]
//! kgbench run     --workload NAME [--seed N] [--seconds S] [--quick]
//! kgbench trace   [--seed N] [--seconds S] [--quick] [--out-dir DIR]
//! kgbench compare A.json B.json
//! kgbench spec [--table]            # prints BENCHMARK.json, or the whole definition as text
//! kgbench --workload NAME --seed N --seconds S --trace 0|1   # the driver's form
//! ```

mod alloc;
mod api;
mod compare;
mod inputs;
mod measure;
mod pacer;
mod report;
mod span;
mod spec;
mod stats;
mod trace;
mod workloads;

use api::{Failure, Json};
use inputs::Sizes;
use report::obj;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workloads::ChildArgs;

#[global_allocator]
static ALLOC: alloc::SwitchedAlloc = alloc::SwitchedAlloc::new();

/// `--key value` pairs and bare `--flag`s after the sub-command.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, Failure> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.value(name).map(PathBuf::from).unwrap_or_default()
    }
}

/// Settings every sub-command shares.
struct Run {
    seed: u64,
    seconds: f64,
    sizes: Sizes,
    cache: PathBuf,
}

impl Run {
    fn from(args: &Args) -> Result<Run, Failure> {
        let quick = args.flag("--quick");
        let seconds =
            args.parsed("--seconds", if quick { 0.3 } else { spec::DEFAULT_SECONDS as f64 })?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Run {
            seed: args.parsed("--seed", spec::DEFAULT_SEED)?,
            seconds,
            sizes: Sizes::of(quick),
            cache: inputs::cache_dir(),
        })
    }

    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    fn work_dir(&self, tag: &str) -> PathBuf {
        self.cache.join(format!("work-{tag}-{}", std::process::id()))
    }
}

/// Generates (or finds memoised) what `workload` needs — everything,
/// for the traced run — and says what generation cost.
fn prepare(run: &Run, workload: Option<&str>) -> Result<(ChildArgs, f64, f64), Failure> {
    let (d5, datagen_s) = inputs::lubm_d5(&run.cache, run.sizes)?;
    let mut args = ChildArgs {
        seed: run.seed,
        window: run.window(),
        work_dir: run.work_dir(workload.unwrap_or("trace")),
        ..ChildArgs::default()
    };
    let mut sampler_s = 0.0;
    if workload.map_or(true, |w| w == "constraint-churn") {
        let (set, secs) = inputs::churn_set(&run.cache, run.sizes, run.seed, &d5)?;
        args.churn = set;
        sampler_s += secs;
    }
    if workload != Some("constraint-churn") {
        let (set, secs) = inputs::query_set(&run.cache, run.sizes, run.seed, &d5)?;
        args.queries = set;
        sampler_s += secs;
    }
    if workload.map_or(true, |w| w == "update-mix") {
        let (set, secs) = inputs::update_set(&run.cache, run.sizes, run.seed, &d5)?;
        args.updates = set;
        sampler_s += secs;
    }
    args.d5 = d5;
    Ok((args, datagen_s, sampler_s))
}

/// Runs `kind` (`child` or `trace-child`) in a fresh process of this
/// binary, so its peak memory and its caches start clean, and returns
/// the JSON document it prints.
fn spawn(kind: &str, a: &ChildArgs, extra: &[(&str, String)]) -> Result<Json, Failure> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg(kind)
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.window.as_secs_f64().to_string()]);
    for (flag, path) in [
        ("--d5", &a.d5.0),
        ("--queries", &a.queries.0),
        ("--churn", &a.churn.0),
        ("--updates", &a.updates.0),
        ("--work-dir", &a.work_dir),
    ] {
        cmd.arg(flag).arg(path);
    }
    for (flag, value) in extra {
        cmd.args([flag, value.as_str()]);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {kind} process: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {kind} process ended with {}", output.status));
    }
    api::json_parse(String::from_utf8_lossy(&output.stdout).trim())
}

fn child_args(args: &Args) -> Result<ChildArgs, Failure> {
    Ok(ChildArgs {
        seed: args.parsed("--seed", 0)?,
        window: Duration::from_secs_f64(args.parsed("--seconds", 1.0)?),
        d5: inputs::Dataset(args.path("--d5")),
        queries: inputs::QuerySet(args.path("--queries")),
        churn: inputs::ChurnSet(args.path("--churn")),
        updates: inputs::UpdateSet(args.path("--updates")),
        work_dir: args.path("--work-dir"),
    })
}

fn run_workload(run: &Run, workload: &str) -> Result<Json, Failure> {
    if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?}; the workloads are {names:?}"));
    }
    let (a, datagen_s, sampler_s) = prepare(run, Some(workload))?;
    let Json::Obj(mut report) = spawn("child", &a, &[("--workload", workload.to_owned())])? else {
        return Err("the workload process printed no report".into());
    };
    let generation =
        obj(vec![("datagen_s", Json::Num(datagen_s)), ("sampler_s", Json::Num(sampler_s))]);
    report.push(("generation".into(), generation));
    Ok(Json::Obj(report))
}

/// The body of a workload process.
fn child(args: &Args) -> Result<(), Failure> {
    let report = workloads::run(args.value("--workload").unwrap_or(""), &child_args(args)?)?;
    println!("{}", report::child_json(&report));
    Ok(())
}

/// The traced run, in its own process like the workloads.
fn run_trace(run: &Run, out_dir: Option<&Path>) -> Result<Json, Failure> {
    let (a, mut datagen_s, sampler_s) = prepare(run, None)?;
    let (big, secs) = inputs::lubm_2m(&run.cache, run.sizes)?;
    datagen_s += secs;
    let mut extra = vec![
        ("--big", big.0.display().to_string()),
        ("--datagen-s", datagen_s.to_string()),
        ("--sampler-s", sampler_s.to_string()),
    ];
    if let Some(dir) = out_dir {
        extra.push(("--out-dir", dir.display().to_string()));
    }
    spawn("trace-child", &a, &extra)
}

/// The body of the traced run's process.
fn trace_child(args: &Args) -> Result<(), Failure> {
    let layers = trace::run(&trace::TraceArgs {
        inputs: child_args(args)?,
        big: inputs::Dataset(args.path("--big")),
        datagen_s: args.parsed("--datagen-s", 0.0)?,
        sampler_s: args.parsed("--sampler-s", 0.0)?,
        out_dir: args.value("--out-dir").map(PathBuf::from),
        alloc: &ALLOC,
    })?;
    println!("{layers}");
    Ok(())
}

fn print_workload(name: &str, report: &Json) {
    let (attempted, failed) = (
        report.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        report.get("failed").and_then(Json::as_u64).unwrap_or(0),
    );
    report::print_metrics(
        &format!("workload {name}: attempted {attempted}, failed {failed}"),
        report.get("metrics").unwrap_or(&Json::Null),
    );
    println!("  notes {}", report.get("notes").unwrap_or(&Json::Null));
    println!("  failures {}", report.get("failures").unwrap_or(&Json::Null));
}

fn failed_of(report: &Json) -> u64 {
    report.get("failed").and_then(Json::as_u64).unwrap_or(u64::MAX)
}

fn cmd_all(args: &Args) -> Result<bool, Failure> {
    let run = Run::from(args)?;
    let out = args.value("--out").map(PathBuf::from);
    let mut workloads = Vec::new();
    let mut ok = true;
    for w in &spec::WORKLOADS {
        let report = run_workload(&run, w.name)?;
        print_workload(w.name, &report);
        ok &= failed_of(&report) == 0;
        workloads.push((w.name, report));
    }
    let out_dir = out.as_deref().and_then(Path::parent);
    let per_layer = run_trace(&run, out_dir)?;
    report::print_metrics("per-layer (traced run)", &per_layer);
    let doc = obj(vec![
        ("benchmark", Json::str("kgbench")),
        ("version", Json::u64(u64::from(spec::VERSION))),
        ("seed", Json::u64(run.seed)),
        ("seconds", Json::Num(run.seconds)),
        ("sizes", Json::str(run.sizes.tag)),
        ("fsync", Json::str("off")),
        ("machine", report::machine_record()),
        ("workloads", obj(workloads)),
        ("per_layer", per_layer),
    ]);
    if let Some(path) = out {
        std::fs::write(&path, report::pretty(&doc))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    if !ok {
        eprintln!("kgbench: at least one operation failed or answered wrongly");
    }
    Ok(ok)
}

fn cmd_run(args: &Args) -> Result<bool, Failure> {
    let run = Run::from(args)?;
    let name = args.value("--workload").ok_or("run needs --workload NAME")?;
    let report = run_workload(&run, name)?;
    print_workload(name, &report);
    Ok(failed_of(&report) == 0)
}

fn cmd_trace(args: &Args) -> Result<bool, Failure> {
    let run = Run::from(args)?;
    let per_layer = run_trace(&run, args.value("--out-dir").map(Path::new))?;
    report::print_metrics("per-layer (traced run)", &per_layer);
    Ok(true)
}

/// The accepting driver's form: one workload, one JSON line last.
fn cmd_driver(args: &Args) -> Result<bool, Failure> {
    let run = Run::from(args)?;
    let name = args.value("--workload").ok_or("the driver form needs --workload NAME")?;
    let line = match args.parsed("--trace", 0u8)? {
        0 => {
            let report = run_workload(&run, name)?;
            print_workload(name, &report);
            report::driver_line(
                report.get("attempted").and_then(Json::as_u64).unwrap_or(0),
                failed_of(&report),
                report.get("metrics").unwrap_or(&Json::Null),
                spec::driver_end_to_end().map(|m| (m.name, m.unit)),
            )?
        }
        _ => {
            if !spec::WORKLOADS.iter().any(|w| w.name == name) {
                return Err(format!("unknown workload {name:?}"));
            }
            // One traced run covers every layer, whichever workload the
            // driver names.
            let per_layer = run_trace(&run, None)?;
            report::print_metrics("per-layer (traced run)", &per_layer);
            let count = |k: &str| report::value_of(&per_layer, k).unwrap_or(0.0) as u64;
            report::driver_line(
                count("kgbench.trace_attempted"),
                count("kgbench.trace_failed"),
                &per_layer,
                spec::PER_LAYER.iter().map(|m| (m.name, m.unit)),
            )?
        }
    };
    println!("{line}");
    Ok(true)
}

fn cmd_compare(args: &Args) -> Result<bool, Failure> {
    let [a, b] = args.0.as_slice() else {
        return Err("compare needs two result files: BASELINE.json CANDIDATE.json".into());
    };
    let read = |p: &String| api::json_parse(&inputs::read(Path::new(p))?);
    let rows = compare::compare(&read(a)?, &read(b)?)?;
    compare::print(&rows);
    // `unresolved` is a statement about the runs, not about the code.
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Regressed))
}

fn main() -> ExitCode {
    // Bytes-per-edge rows count allocations; counting starts before the
    // traced run's first allocation so that nothing it frees was
    // allocated uncounted (see `alloc`).
    if std::env::args_os().nth(1).is_some_and(|a| a == "trace-child") {
        ALLOC.count_from_now();
    }
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        Some(_) => "driver".to_owned(),
        None => "help".to_owned(),
    };
    let args = Args(argv);
    let outcome = match command.as_str() {
        "all" => cmd_all(&args),
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        "driver" => cmd_driver(&args),
        "compare" => cmd_compare(&args),
        "child" => child(&args).map(|()| true),
        "trace-child" => trace_child(&args).map(|()| true),
        "spec" if args.flag("--table") => {
            print!("{}", report::definition_table());
            Ok(true)
        }
        "spec" => {
            print!("{}", report::pretty(&report::benchmark_json()));
            Ok(true)
        }
        _ => Err("usage: kgbench all|run|trace|compare|spec — see crates/kgbench/README.md".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("kgbench: {e}");
            ExitCode::from(2)
        }
    }
}
