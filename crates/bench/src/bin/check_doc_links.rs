//! Audits generated rustdoc HTML *and* the repo's markdown for broken
//! relative links.
//!
//! `cargo doc` with `RUSTDOCFLAGS=-D warnings` already rejects broken
//! *intra-doc* links at the source level, but it cannot see two further
//! failure classes:
//!
//! 1. `href`s in the generated HTML that point at files which were never
//!    emitted (classic causes: items referenced across crates that are
//!    not documented together, stale `--no-deps` seams, hand-written
//!    anchors in doc comments). One cause is order-dependent: an explicit
//!    cross-crate destination (`[WAL](other_crate::wal)`) is emitted
//!    verbatim when `other_crate`'s pages do not exist yet, and
//!    `cargo doc --no-deps --workspace` documents members in no fixed
//!    order — name the item in code font instead of linking it.
//! 2. Relative links in hand-written markdown (`README.md`,
//!    `ARCHITECTURE.md`, `docs/*.md`) whose target file moved or was
//!    never committed — nothing else in the build reads those files, so
//!    they rot silently.
//!
//! Each argument is a file or a directory: directories are walked
//! recursively, collecting `.html` (audited as rustdoc output) and `.md`
//! (audited as markdown) files; a file argument is audited by its
//! extension. The tool fails, listing each offender, if any relative
//! link or script target does not resolve to an existing file.
//!
//! Usage: `check_doc_links target/doc README.md ARCHITECTURE.md docs`
//! (CI runs it right after `cargo doc`). External (`http…`), in-page
//! (`#…`) and absolute links are out of scope.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn main() {
    let mut roots: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    if roots.is_empty() {
        roots.push(PathBuf::from("target/doc"));
    }
    let mut files = Vec::new();
    for root in &roots {
        if root.is_dir() {
            collect_docs(root, &mut files);
        } else if root.is_file() {
            files.push(root.clone());
        } else {
            eprintln!("check_doc_links: {} does not exist", root.display());
            std::process::exit(2);
        }
    }
    if files.is_empty() {
        eprintln!("check_doc_links: no HTML or markdown under the given roots");
        std::process::exit(2);
    }
    let mut broken: BTreeSet<String> = BTreeSet::new();
    let mut checked = 0usize;
    for file in &files {
        // Rustdoc's chrome pages (settings/help) reference a doc-root
        // index.html that `--no-deps` builds do not emit; only item pages
        // are audited.
        if file.file_name().is_some_and(|n| n == "settings.html" || n == "help.html") {
            continue;
        }
        let Ok(content) = std::fs::read_to_string(file) else { continue };
        let dir = file.parent().expect("doc files have parents");
        let targets = if file.extension().is_some_and(|e| e == "md") {
            extract_md_targets(&content)
        } else {
            extract_targets(&content)
        };
        for target in targets {
            checked += 1;
            let resolved = dir.join(&target);
            if !resolved.exists() {
                broken.insert(format!("{} -> {}", file.display(), target));
            }
        }
    }
    if broken.is_empty() {
        println!(
            "check_doc_links: {} link targets across {} pages all resolve",
            checked,
            files.len()
        );
    } else {
        eprintln!("check_doc_links: {} broken links:", broken.len());
        for b in &broken {
            eprintln!("  {b}");
        }
        std::process::exit(1);
    }
}

fn collect_docs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_docs(&path, out);
        } else if path.extension().is_some_and(|e| e == "html" || e == "md") {
            out.push(path);
        }
    }
}

/// Filters one raw link target down to a checkable relative path, or
/// `None` for targets out of scope (externals, in-page anchors,
/// absolute paths, templates). Fragments and query strings are
/// stripped so `FILE.md#section` checks `FILE.md`.
fn checkable(raw: &str) -> Option<String> {
    let target = raw.split(['#', '?']).next().unwrap_or("");
    if target.is_empty()
        || target.contains("://")
        || target.starts_with("mailto:")
        || target.starts_with("javascript:")
        || target.starts_with('/')
        || target.contains("${")
    // JS template literals in rustdoc's loader script
    {
        return None;
    }
    // Rustdoc escapes nothing we need to unescape for file names it
    // generates itself; skip anything percent-encoded rather than
    // mis-resolving it.
    if target.contains('%') {
        return None;
    }
    Some(target.to_string())
}

/// Pulls every local-file link/script target out of one HTML page.
/// A hand-rolled scan, matching the repo's no-new-dependencies policy
/// (same spirit as `check_bench_json`).
fn extract_targets(html: &str) -> Vec<String> {
    let mut targets = Vec::new();
    for attr in ["href=\"", "src=\""] {
        let mut rest = html;
        while let Some(pos) = rest.find(attr) {
            rest = &rest[pos + attr.len()..];
            let Some(end) = rest.find('"') else { break };
            let raw = &rest[..end];
            rest = &rest[end..];
            if let Some(t) = checkable(raw) {
                targets.push(t);
            }
        }
    }
    targets
}

/// Pulls inline-style markdown link targets — `[text](target)` — out of
/// one markdown file. Fenced code blocks are skipped: `](…)` inside
/// example code is not a link. Reference-style definitions are rare in
/// this repo and intentionally out of scope.
fn extract_md_targets(md: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(pos) = rest.find("](") {
            rest = &rest[pos + 2..];
            let Some(end) = rest.find(')') else { break };
            let raw = &rest[..end];
            rest = &rest[end..];
            if let Some(t) = checkable(raw) {
                targets.push(t);
            }
        }
    }
    targets
}
