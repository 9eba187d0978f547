//! Concurrency-hygiene lint pass over the workspace's Rust sources.
//!
//! Clippy sees types; it cannot enforce *project policy* about which
//! synchronization primitives are reachable from product code. This tool
//! closes that gap with five rules, each motivated by a real hazard in
//! this codebase:
//!
//! * **R1 — no raw `std::sync` primitives.** Every atomic, mutex,
//!   condvar, rwlock, once-lock, mpsc channel and barrier must come
//!   through the `kgreach-sync` shim so the `--cfg kg_loom` model-check
//!   build swaps in instrumented types everywhere at once. A single raw
//!   `std::sync::Mutex` import silently exempts that structure from
//!   model checking. (`Arc`/`Weak` and the poison-handling types carry
//!   no scheduling behavior and stay allowed.)
//! * **R2 — no `SeqCst`.** Every ordering in this repo is justified as
//!   Acquire/Release/Relaxed; `SeqCst` is how an author says "I did not
//!   work out the happens-before edge". The model checker deliberately
//!   models it as AcqRel, so code relying on a true total store order
//!   would pass the checker and fail on hardware — ban it outright.
//! * **R3 — every `Ordering::Relaxed` carries a `relaxed:`
//!   justification** on the same line or in the immediately preceding
//!   comment block. Relaxed is correct surprisingly often and wrong
//!   silently; the annotation forces the author to state *why* no
//!   happens-before edge is needed and gives the reviewer something to
//!   falsify.
//! * **R4 — no `Instant::now()` in search kernels** (`uis.rs`,
//!   `uis_star.rs`, `ins.rs`, `kernel.rs`, `oracle.rs`). Kernel time
//!   reads go through `SearchClock` so deadline policy lives in one
//!   place and the hot loops stay syscall-free; a stray clock read is a
//!   perf bug waiting to happen.
//! * **R5 — no timed wait on the request path** (`crates/serve/src/`
//!   `batch.rs` and `server.rs`): no `wait_timeout(`, `recv_timeout(` or
//!   `thread::sleep(`. A worker or connection thread blocks on work or on
//!   the socket, never on a timer — a timed wait there is latency every
//!   client pays whenever the guess behind the timeout is wrong.
//!
//! Comment-only lines are skipped for R1/R2/R4/R5 so prose may *discuss*
//! the banned constructs; R3 is the one rule that reads comments.
//!
//! Exempt from all rules: `target/`, `vendor/` (third-party stand-ins),
//! `crates/sync/` (the shim is the one legitimate `std::sync` user) and
//! this file itself (its rule tables spell the banned tokens).
//!
//! Usage: `check_sync_lints [--also FILE]...` from the workspace root.
//! `--also` lints extra files *without* exemption — CI uses it to prove
//! the tool still rejects a seeded violation. Exit 0 with a summary when
//! clean, exit 1 listing offenders, exit 2 on usage errors.

use std::path::{Path, PathBuf};

/// Files whose hot loops must not read the wall clock directly (R4).
const KERNEL_FILES: &[&str] = &[
    "crates/core/src/uis.rs",
    "crates/core/src/uis_star.rs",
    "crates/core/src/ins.rs",
    "crates/core/src/kernel.rs",
    "crates/core/src/oracle.rs",
];

/// Files on the serving request path, which must not wait on a timer (R5).
const REQUEST_PATH_FILES: &[&str] = &["crates/serve/src/batch.rs", "crates/serve/src/server.rs"];

/// The timed waits R5 bans there.
const TIMED_WAITS: &[&str] = &["wait_timeout(", "recv_timeout(", "thread::sleep("];

/// `std::sync` paths that must be reached through `kgreach-sync` (R1).
/// `std::sync::Arc`, `Weak`, `LockResult` and `PoisonError` are absent
/// on purpose: they do not schedule, so the shim has nothing to model.
const BANNED_STD_SYNC: &[&str] = &[
    "std::sync::atomic",
    "core::sync::atomic",
    "std::sync::Mutex",
    "std::sync::RwLock",
    "std::sync::Condvar",
    "std::sync::OnceLock",
    "std::sync::mpsc",
    "std::sync::Barrier",
];

fn main() {
    let mut also: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--also" => match args.next() {
                Some(p) => also.push(PathBuf::from(p)),
                None => usage("--also requires a path"),
            },
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(Path::new("."), &mut files);
    files.sort();
    if files.is_empty() {
        eprintln!("check_sync_lints: no .rs files found (run from the workspace root)");
        std::process::exit(2);
    }

    let mut offenses: Vec<String> = Vec::new();
    let mut scanned = 0usize;
    for file in &files {
        let rel = rel_label(file);
        if exempt(&rel) {
            continue;
        }
        let Ok(content) = std::fs::read_to_string(file) else { continue };
        scanned += 1;
        offenses.extend(lint_source(&rel, &content));
    }
    for file in &also {
        let Ok(content) = std::fs::read_to_string(file) else {
            eprintln!("check_sync_lints: cannot read {}", file.display());
            std::process::exit(2);
        };
        scanned += 1;
        offenses.extend(lint_source(&rel_label(file), &content));
    }

    if offenses.is_empty() {
        println!("check_sync_lints: {scanned} files clean (R1 shim-only sync, R2 no SeqCst, R3 relaxed justified, R4 kernels clock-free, R5 request path timer-free)");
    } else {
        eprintln!("check_sync_lints: {} violations:", offenses.len());
        for o in &offenses {
            eprintln!("  {o}");
        }
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("check_sync_lints: {msg}");
    eprintln!("usage: check_sync_lints [--also FILE]...");
    std::process::exit(2)
}

/// Walks `dir` collecting `.rs` files, skipping build output, VCS
/// internals and the vendored trees (vendored code is exempt anyway;
/// skipping it here keeps the walk cheap).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Normalizes a path to a `/`-separated label relative to the current
/// directory, for exemption matching and stable diagnostics.
fn rel_label(path: &Path) -> String {
    let s = path.to_string_lossy().replace('\\', "/");
    s.strip_prefix("./").unwrap_or(&s).to_string()
}

/// True for files the rules do not apply to: third-party stand-ins, the
/// shim itself, build output, and this tool (whose tables contain every
/// banned token as a string literal).
fn exempt(rel: &str) -> bool {
    rel.starts_with("vendor/")
        || rel.starts_with("crates/sync/")
        || rel.starts_with("target/")
        || rel == "crates/bench/src/bin/check_sync_lints.rs"
}

/// True when the line is comment-only (line or doc comment). Such lines
/// may freely *mention* banned constructs.
fn is_comment_line(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// Strips a trailing `// …` comment so tokens in explanatory comments on
/// code lines do not trip R1/R2/R4. Not string-literal aware; none of
/// the banned tokens appear inside string literals in this codebase
/// (this tool, where they do, is exempt).
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Runs all five rules over one file and returns formatted offenses.
fn lint_source(rel: &str, content: &str) -> Vec<String> {
    let lines: Vec<&str> = content.lines().collect();
    let is_kernel = KERNEL_FILES.contains(&rel);
    let is_request_path = REQUEST_PATH_FILES.contains(&rel);
    let mut offenses = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        let lineno = idx + 1;
        if is_comment_line(raw) {
            continue;
        }
        let code = code_part(raw);
        for banned in BANNED_STD_SYNC {
            if code.contains(banned) {
                offenses.push(format!(
                    "{rel}:{lineno}: [R1] raw `{banned}` — go through kgreach-sync so kg_loom can instrument it"
                ));
            }
        }
        if code.contains("SeqCst") {
            offenses.push(format!(
                "{rel}:{lineno}: [R2] `SeqCst` — name the happens-before edge and use Acquire/Release (or justify Relaxed)"
            ));
        }
        if code.contains("Ordering::Relaxed") && !relaxed_justified(&lines, idx) {
            offenses.push(format!(
                "{rel}:{lineno}: [R3] `Ordering::Relaxed` without a `relaxed:` justification on this line or the comment block above"
            ));
        }
        if is_kernel && code.contains("Instant::now(") {
            offenses.push(format!(
                "{rel}:{lineno}: [R4] `Instant::now()` in a search kernel — route clock reads through SearchClock"
            ));
        }
        if is_request_path {
            for wait in TIMED_WAITS {
                if code.contains(wait) {
                    offenses.push(format!(
                        "{rel}:{lineno}: [R5] `{wait}…)` on the request path — block on work or on the socket, never on a timer"
                    ));
                }
            }
        }
    }
    offenses
}

/// R3's justification search: `relaxed:` on the same line (trailing
/// comment) or anywhere in the contiguous run of comment-only lines
/// immediately above.
fn relaxed_justified(lines: &[&str], idx: usize) -> bool {
    if lines[idx].contains("relaxed:") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        if !is_comment_line(lines[i]) {
            return false;
        }
        if lines[i].contains("relaxed:") {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_shim_usage_passes() {
        let src = "use kgreach_sync::atomic::{AtomicU64, Ordering};\n\
                   fn f(a: &AtomicU64) -> u64 {\n\
                       // relaxed: pure statistic, no data published through it.\n\
                       a.load(Ordering::Relaxed)\n\
                   }\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn raw_std_sync_import_is_r1() {
        let offenses = lint_source("crates/x/src/lib.rs", "use std::sync::Mutex;\n");
        assert_eq!(offenses.len(), 1);
        assert!(offenses[0].contains("[R1]"), "{offenses:?}");
    }

    #[test]
    fn std_sync_in_comment_is_fine() {
        let src = "// unlike std::sync::Mutex, the shim swaps under kg_loom\nfn f() {}\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn seqcst_is_r2() {
        let offenses = lint_source("crates/x/src/lib.rs", "a.store(1, Ordering::SeqCst);\n");
        assert!(offenses.iter().any(|o| o.contains("[R2]")), "{offenses:?}");
    }

    #[test]
    fn unjustified_relaxed_is_r3() {
        let offenses = lint_source("crates/x/src/lib.rs", "a.load(Ordering::Relaxed);\n");
        assert_eq!(offenses.len(), 1);
        assert!(offenses[0].contains("[R3]"), "{offenses:?}");
    }

    #[test]
    fn same_line_justification_satisfies_r3() {
        let src =
            "a.load(Ordering::Relaxed); // relaxed: monotone counter, readers tolerate lag.\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn preceding_comment_block_satisfies_r3() {
        let src = "// The counter is advisory and never gates a data read.\n\
                   // relaxed: no consumer orders loads against this value.\n\
                   a.fetch_add(1, Ordering::Relaxed);\n";
        assert!(lint_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn justification_beyond_comment_block_does_not_count() {
        let src = "// relaxed: this comment is detached from the load below.\n\
                   let x = 1;\n\
                   a.load(Ordering::Relaxed);\n";
        let offenses = lint_source("crates/x/src/lib.rs", src);
        assert!(offenses.iter().any(|o| o.contains("[R3]")), "{offenses:?}");
    }

    #[test]
    fn instant_now_in_kernel_is_r4() {
        // `kernel.rs` holds the candidate loop of UIS*/INS: the ban
        // follows the loops.
        for file in ["crates/core/src/uis.rs", "crates/core/src/kernel.rs"] {
            let offenses = lint_source(file, "let t = Instant::now();\n");
            assert!(offenses.iter().any(|o| o.contains("[R4]")), "{file}: {offenses:?}");
        }
    }

    #[test]
    fn instant_now_outside_kernel_is_fine() {
        assert!(lint_source("crates/core/src/query.rs", "let t = Instant::now();\n").is_empty());
    }

    #[test]
    fn timed_wait_on_request_path_is_r5() {
        for file in REQUEST_PATH_FILES {
            for wait in ["cv.wait_timeout(st, d)", "rx.recv_timeout(d)", "std::thread::sleep(d)"] {
                let offenses = lint_source(file, &format!("let _ = {wait};\n"));
                assert!(offenses.iter().any(|o| o.contains("[R5]")), "{file} {wait}: {offenses:?}");
            }
        }
    }

    #[test]
    fn timed_wait_elsewhere_is_fine() {
        let src = "let _ = rx.recv_timeout(d);\nstd::thread::sleep(d);\n";
        assert!(lint_source("crates/serve/src/bin/kg_loadgen.rs", src).is_empty());
        // Prose about the rule on the request path itself is not an offence.
        assert!(lint_source("crates/serve/src/batch.rs", "// no wait_timeout( here\n").is_empty());
    }

    #[test]
    fn exemptions_cover_shim_vendor_and_self() {
        assert!(exempt("crates/sync/src/lib.rs"));
        assert!(exempt("vendor/loom/src/lib.rs"));
        assert!(exempt("target/debug/build/foo.rs"));
        assert!(exempt("crates/bench/src/bin/check_sync_lints.rs"));
        assert!(!exempt("crates/core/src/engine.rs"));
    }
}
