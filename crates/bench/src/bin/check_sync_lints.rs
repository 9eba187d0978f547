//! Concurrency-hygiene lint pass over the workspace's Rust sources.
//!
//! Clippy sees types; it cannot enforce *project policy* about which
//! synchronization primitives are reachable from product code. This tool
//! closes that gap with seven rules, each motivated by a real hazard in
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
//!   `thread::sleep(`. A connection thread blocks on its socket or on a
//!   search slot, never on a timer — a timed wait there is latency every
//!   client pays whenever the guess behind the timeout is wrong.
//!
//! * **R6 — no lock result unwrapped in place** in product sources: no
//!   `.expect(` or `.unwrap()` straight on a `.lock()`, `.read()`,
//!   `.write()` or `.into_inner()`, or on a condvar's `.wait(…)`. A
//!   poisoned lock means something different for each lock, so each lock
//!   has one accessor that states and applies its poison rule; an
//!   unwrap in place turns one panic into a panic for every later
//!   caller. Product sources are everything but `crates/kgbench/` and
//!   `tests/`, `benches/` and `examples/` directories, up to a file's
//!   column-0 `#[cfg(test)]` tail; a chain split over lines counts.
//! * **R7 — every file is put on disk through `kgreach_graph::fsio`.**
//!   Product sources, outside that module and up to the same tail, hold no
//!   `File::create(`, `fs::write(`, `fs::rename(` or `.truncate(true)`:
//!   each truncates or replaces a file in place, where a crash or a full
//!   disk leaves a reader half a file, and `fsio::install` writes a temp
//!   file, fsyncs it and renames it over the destination instead.
//!
//! Comment-only lines are skipped for R1/R2/R4/R5/R6/R7 so prose may
//! *discuss* the banned constructs; R3 is the one rule that reads comments.
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

/// Lock calls whose result R6 forbids unwrapping in place, and whether
/// the call takes an argument (a condvar's wait takes the guard; a
/// child process's `wait()` takes none and is no lock call).
const LOCK_CALLS: &[(&str, bool)] = &[
    (".lock(", false),
    (".read(", false),
    (".write(", false),
    (".into_inner(", false),
    (".wait(", true),
];

/// Calls that create or replace a file in place, which R7 bans outside
/// [`INSTALL_MODULE`].
const FILE_WRITES: &[&str] = &["File::create(", "fs::write(", "fs::rename(", ".truncate(true)"];

/// The one module that puts files on disk (R7).
const INSTALL_MODULE: &str = "crates/kg/src/fsio.rs";

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
        println!("check_sync_lints: {scanned} files clean (R1 shim-only sync, R2 no SeqCst, R3 relaxed justified, R4 kernels clock-free, R5 request path timer-free, R6 locks through accessors, R7 files through fsio)");
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

/// Runs all seven rules over one file and returns formatted offenses.
fn lint_source(rel: &str, content: &str) -> Vec<String> {
    let lines: Vec<&str> = content.lines().collect();
    let is_kernel = KERNEL_FILES.contains(&rel);
    let is_request_path = REQUEST_PATH_FILES.contains(&rel);
    // R6 and R7 read product code: up to the column-0 `#[cfg(test)]` tail.
    let tail = lines.iter().position(|l| l.trim_end() == "#[cfg(test)]").unwrap_or(lines.len());
    let bans_file_writes = is_product(rel) && rel != INSTALL_MODULE;
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
        if bans_file_writes && idx < tail {
            for call in FILE_WRITES.iter().filter(|call| code.contains(*call)) {
                offenses.push(format!(
                    "{rel}:{lineno}: [R7] `{call}` writes a file in place — put it on disk through `kgreach_graph::fsio::install`"
                ));
            }
        }
    }
    if is_product(rel) {
        for (idx, call) in unwrapped_lock_calls(&lines[..tail]) {
            offenses.push(format!(
                "{rel}:{}: [R6] `{call}…)` unwrapped in place — take the lock through its accessor, which states its poison rule",
                idx + 1
            ));
        }
    }
    offenses
}

/// True for the sources R6 and R7 cover: all but the benchmark crate and
/// the test, bench and example trees.
fn is_product(rel: &str) -> bool {
    !rel.starts_with("crates/kgbench/")
        && !rel.split('/').any(|dir| matches!(dir, "tests" | "benches" | "examples"))
}

/// R6's search: each lock call in `lines` whose result is unwrapped in
/// place, as (line index, call). Comments and line breaks are squeezed
/// out first, so a chain split over lines reads as one.
fn unwrapped_lock_calls(lines: &[&str]) -> Vec<(usize, &'static str)> {
    let mut flat = String::new();
    let mut line_at = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        if !is_comment_line(raw) {
            flat.push_str(code_part(raw).trim());
            line_at.resize(flat.len(), idx);
        }
    }
    let mut found = Vec::new();
    for &(call, takes_arg) in LOCK_CALLS {
        for (at, _) in flat.match_indices(call) {
            let args_at = at + call.len();
            let Some(len) = args_len(&flat[args_at..]) else { continue };
            let rest = &flat[args_at + len + 1..];
            if takes_arg != flat[args_at..args_at + len].trim().is_empty()
                && (rest.starts_with(".expect(") || rest.starts_with(".unwrap()"))
            {
                found.push((line_at[at], call));
            }
        }
    }
    found.sort_unstable();
    found
}

/// The length of a call's arguments: `s` starts just past the call's
/// `(`, and this is the offset of its matching `)`.
fn args_len(s: &str) -> Option<usize> {
    let mut depth = 1usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' if depth == 1 => return Some(i),
            ')' => depth -= 1,
            _ => {}
        }
    }
    None
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
    fn lock_results_unwrapped_in_place_are_r6() {
        for src in [
            "let g = m.lock().expect(\"x lock\");\n",
            "let g = m.lock().unwrap();\n",
            "let n = s.read().expect(\"state lock\").len();\n",
            "*s.write().unwrap() = 1;\n",
            "let v = m.into_inner().expect(\"lock\");\n",
            "st = cv.wait(st).expect(\"queue lock\");\n",
            "let g = self\n    .state\n    .lock()\n    // the one lock\n    .expect(\"x\");\n",
        ] {
            let offenses = lint_source("crates/x/src/lib.rs", src);
            assert!(offenses.iter().any(|o| o.contains("[R6]")), "{src}: {offenses:?}");
        }
        // Reported on the line of the lock call.
        let offenses =
            lint_source("crates/x/src/lib.rs", "fn f() {\n    m.lock()\n        .unwrap();\n}\n");
        assert!(offenses[0].starts_with("crates/x/src/lib.rs:2: [R6]"), "{offenses:?}");
    }

    #[test]
    fn accessors_tests_and_other_calls_are_not_r6() {
        for src in [
            "let g = m.lock().unwrap_or_else(PoisonError::into_inner);\n",
            "st = cv.wait(st).unwrap_or_else(PoisonError::into_inner);\n",
            "let n = file.read(&mut buf).unwrap();\n",
            "let status = child.wait().expect(\"wait\");\n",
            "// m.lock().expect(\"x\") in prose\n",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { m.lock().unwrap(); }\n}\n",
        ] {
            assert!(lint_source("crates/x/src/lib.rs", src).is_empty(), "{src}");
        }
        let src = "let g = m.lock().unwrap();\n";
        for file in
            ["tests/model_check.rs", "crates/serve/tests/serving.rs", "crates/kgbench/src/main.rs"]
        {
            assert!(lint_source(file, src).is_empty(), "{file}");
        }
    }

    #[test]
    fn file_writes_in_place_are_r7() {
        for src in [
            "let f = File::create(path)?;\n",
            "std::fs::write(&out, body).expect(\"write\");\n",
            "fs::rename(&tmp, &dst)?;\n",
            "OpenOptions::new().write(true).create(true).truncate(true).open(p)?;\n",
        ] {
            let offenses = lint_source("crates/x/src/lib.rs", src);
            assert!(offenses.iter().any(|o| o.contains("[R7]")), "{src}: {offenses:?}");
        }
    }

    #[test]
    fn the_install_module_tests_and_prose_are_not_r7() {
        let src = "let f = File::create(&tmp)?;\n";
        for file in [INSTALL_MODULE, "tests/serving.rs", "crates/kgbench/src/main.rs"] {
            assert!(lint_source(file, src).is_empty(), "{file}");
        }
        for src in [
            "// unlike File::create(dst), install never truncates\n",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { std::fs::write(p, b\"x\").unwrap(); }\n}\n",
            "let f = File::open(path)?;\n",
        ] {
            assert!(lint_source("crates/x/src/lib.rs", src).is_empty(), "{src}");
        }
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
