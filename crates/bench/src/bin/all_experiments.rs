//! Runs the full evaluation suite — Table 2, Figure 5, Figures 10–14 and
//! Figure 15 — by invoking the per-experiment binaries in order.
//!
//! Usage: `cargo run -p kgreach-bench --release --bin all_experiments --
//!         [--quick]`
//!
//! `--quick` shrinks every experiment for a minutes-scale smoke run;
//! without it each binary runs at its own default scale (README.md,
//! "Benchmarks and the paper's experiments"). Any other argument exits
//! with status 2.

use kgreach_bench::outln;
use std::process::Command;

fn run(bin: &str, args: &[&str]) {
    outln!("\n════════════════════════════════════════════════════════");
    outln!("▶ {bin} {}", args.join(" "));
    outln!("════════════════════════════════════════════════════════");
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let status = Command::new(dir.join(bin))
        .args(args)
        .status()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(status.success(), "{bin} exited with {status}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = match args.as_slice() {
        [] => false,
        [flag] if flag == "--quick" => true,
        _ => {
            eprintln!("error: unknown arguments {args:?}; the one flag is --quick");
            std::process::exit(2);
        }
    };
    if quick {
        run("table2", &["--scale", "0.25", "--budget-secs", "10"]);
        run("fig5", &["--vertices", "1500", "--sweep-base", "500", "--budget-secs", "30"]);
        run("fig10_14", &["--scale", "0.25", "--queries", "5"]);
        run("fig15", &["--entities", "8000", "--queries", "5", "--max-magnitude", "3"]);
    } else {
        run("table2", &[]);
        run("fig5", &[]);
        run("fig10_14", &[]);
        run("fig15", &[]);
    }
    outln!("\nAll experiments completed.");
}
