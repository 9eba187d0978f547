//! Heap allocations per stage of a warm `/query`, counted rather than
//! timed: a count does not move with the host's mood, so it can be held
//! to an exact number in CI.
//!
//! Each of the five S1–S5 `/query` bodies (the `wire-closed` shape: a
//! source, a target, the three most frequent labels, the constraint's
//! canonical text, `"algorithm":"auto"`) goes through the stages a
//! connection thread runs, each counted alone:
//! `Json::parse` → `QueryRequest::parse` → `resolve` → a warm
//! `Session::answer_with_options` → `render_outcome` → `to_string`.
//! The HTTP read and write around them are not counted.
//!
//! This binary installs [`CountingAlloc`] as the global allocator and
//! holds everything in one `#[test]`, so no other test's allocations land
//! in a count (as in `memory_audit.rs`). Counts are the same under debug
//! and release codegen; CI runs both.

use kgreach::LscrEngine;
use kgreach_integration::s1_s5_wire_bodies;
use kgreach_serve::protocol::render_outcome;
use kgreach_serve::{BatchConfig, Json, QueryRequest};
use kgreach_sync::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The stages, in request order.
const STAGES: [&str; 6] =
    ["json.parse", "protocol.parse", "resolve", "answer", "render", "json.write"];

/// Allocations per stage, S1–S5, as committed. A change that allocates
/// more on the request path fails here with the measured table.
const BUDGET: [[usize; 6]; 5] = [
    [15, 8, 7, 0, 20, 2],
    [15, 8, 10, 0, 20, 2],
    [15, 8, 13, 0, 20, 2],
    [15, 8, 29, 0, 20, 2],
    [15, 8, 16, 0, 20, 2],
];

/// The totals before the JSON, SPARQL and HTTP codecs copied in runs
/// (per-byte string pushes, `format!` per number, cloned tokens), printed
/// beside the measured table for the record.
const PARENT_ALLOCS: [usize; 5] = [91, 99, 106, 141, 114];

/// Allocations `f` makes on this thread's watch.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOC.allocations();
    let out = f();
    (out, ALLOC.allocations() - before)
}

/// One pass of `body` through every stage: the allocations of each.
fn stage_counts(engine: &LscrEngine, body: &str) -> [usize; 6] {
    let config = BatchConfig::default();
    let g = engine.graph();
    let mut session = engine.session();
    let (json, parse) = counted(|| Json::parse(body).unwrap());
    let (req, request) = counted(|| QueryRequest::parse(&json).unwrap());
    let (query, resolve) = counted(|| req.resolve(&g).unwrap());
    let opts = req.options(config.max_step_budget, config.max_timeout);
    let (out, answer) =
        counted(|| session.answer_with_options(&query, req.algorithm, &opts).unwrap());
    let (rendered, render) = counted(|| render_outcome(&g, &out));
    let (text, write) = counted(|| rendered.to_string());
    assert!(text.starts_with("{\"answer\":"), "{text}");
    [parse, request, resolve, answer, render, write]
}

#[test]
fn a_warm_query_allocates_what_its_budget_says() {
    let (g, bodies) = s1_s5_wire_bodies();
    let engine = LscrEngine::new(g);
    // Warm: the plan cache, the memos and the scratch pool fill on the
    // first pass. Then the least of three passes, so a stray allocation
    // on another thread cannot inflate a count.
    let measured: Vec<[usize; 6]> = bodies
        .iter()
        .map(|(_, body)| {
            stage_counts(&engine, body);
            let passes = [(); 3].map(|()| stage_counts(&engine, body));
            std::array::from_fn(|s| passes.iter().map(|p| p[s]).min().unwrap())
        })
        .collect();

    let mut table =
        format!("{:<4}{}  total  parent\n", "", STAGES.map(|s| format!("{s:>15}")).concat());
    for (((name, _), counts), parent) in bodies.iter().zip(&measured).zip(PARENT_ALLOCS) {
        let cells = counts.map(|n| format!("{n:>15}")).concat();
        let total: usize = counts.iter().sum();
        table.push_str(&format!("{name:<4}{cells}  {total:>5}  {parent:>6}\n"));
    }
    eprintln!("allocations per warm /query stage:\n{table}");
    for ((name, _), counts) in bodies.iter().zip(&measured) {
        assert_eq!(counts[3], 0, "{name}: a warm answer allocated\n{table}");
    }
    let budget: Vec<[usize; 6]> = BUDGET.to_vec();
    assert_eq!(measured, budget, "allocation counts moved\n{table}");
}
