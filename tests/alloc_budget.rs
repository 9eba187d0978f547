//! Heap allocations per stage of a warm `/query`, counted rather than
//! timed: a count does not move with the host's mood, so it can be held
//! to an exact number in CI.
//!
//! Each of the five S1–S5 `/query` bodies (the `wire-closed` shape: a
//! source, a target, the three most frequent labels, the constraint's
//! canonical text, `"algorithm":"auto"`) goes through the stages a
//! connection thread runs, each counted alone:
//! `Json::parse` → `QueryRequest::parse` → resolve
//! (`LscrEngine::compile_text`: the pin, an `Arc` clone, and the plan
//! looked up by the constraint's text in one state read, then
//! `resolve_names` on the pin) → a warm `Session::answer_compiled` on the
//! same pin → `outcome_text`, the response text. The HTTP read and write
//! around them are not counted. Every pass answers on one `Session` held
//! across the passes, the way a server's search slot reuses its scratch.
//!
//! A one-edit `/update` body goes through the stages of a server without
//! a data directory, counted the same way: `Json::parse` → `parse_update`
//! → `LscrEngine::apply_update` → `render_update` and its text, once on an
//! engine with no index built and once on one whose index is built. Each
//! pass runs on a fresh engine over the same graph, so no pass reuses what
//! an earlier one grew.
//!
//! This binary installs [`CountingAlloc`] as the global allocator and
//! holds everything in one `#[test]`, so no other test's allocations land
//! in a count (as in `memory_audit.rs`). Counts are the same under debug
//! and release codegen; CI runs both.

use kgreach::{Graph, LscrEngine, Session, VertexId};
use kgreach_datagen::top_label_set;
use kgreach_integration::s1_s5_wire_bodies;
use kgreach_serve::protocol::{outcome_text, parse_update, render_update};
use kgreach_serve::{BatchConfig, Json, QueryRequest};
use kgreach_sync::alloc::CountingAlloc;
use kgreach_sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The stages, in request order.
const STAGES: [&str; 5] = ["json.parse", "protocol.parse", "resolve", "answer", "write"];

/// Allocations per stage, S1–S5, as committed. A change that allocates
/// more on the request path fails here with the measured table.
const BUDGET: [[usize; 5]; 5] = [[15, 7, 0, 0, 1]; 5];

/// The stages of a `/update`, in request order.
const UPDATE_STAGES: [&str; 4] = ["json.parse", "protocol.parse", "apply", "write"];

/// Allocations per stage of a one-edit `/update`, as committed: on an
/// engine with no index, then on one whose index is built. An update drops
/// the index rather than repairing it, so the rows agree.
const UPDATE_BUDGET: [[usize; 4]; 2] = [[12, 8, 19, 13]; 2];

/// The totals while every warm query still parsed its constraint text
/// (7–29 allocations), built a response tree (20) and flattened it (2),
/// printed beside the measured table for the record.
const PARENT_ALLOCS: [usize; 5] = [52, 55, 58, 74, 61];

/// `apply_update` on the indexed engine while an update still repaired the
/// index (cloning its partition and correlation rows, re-running
/// `LocalFullIndex` on the touched partition), printed beside its row.
const PARENT_INDEXED_APPLY: usize = 468;

/// Allocations `f` makes on this thread's watch.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOC.allocations();
    let out = f();
    (out, ALLOC.allocations() - before)
}

/// One pass of `body` through every stage on `session`, a session of
/// `engine`: the allocations of each.
fn stage_counts(engine: &LscrEngine, session: &mut Session<'_>, body: &str) -> [usize; 5] {
    let config = BatchConfig::default();
    let (json, parse) = counted(|| Json::parse(body).unwrap());
    let (req, request) = counted(|| QueryRequest::parse(&json).unwrap());
    let ((g, query), resolve) = counted(|| {
        let (g, query, _) = engine.compile_text(&req.constraint, |g| req.resolve_names(g)).unwrap();
        (g, query)
    });
    let opts = req.options(config.max_step_budget, config.max_timeout);
    let (out, answer) =
        counted(|| session.answer_compiled(&g, &query, req.algorithm, &opts).unwrap());
    let (text, write) = counted(|| outcome_text(&g, &out));
    assert!(text.starts_with("{\"answer\":"), "{text}");
    [parse, request, resolve, answer, write]
}

/// One pass of the `/update` `body` through every stage, on a fresh engine
/// over `g` with its index built when `indexed`: the allocations of each.
fn update_counts(g: &Arc<Graph>, body: &str, indexed: bool) -> [usize; 4] {
    let engine = LscrEngine::new(Arc::clone(g));
    if indexed {
        engine.local_index();
    }
    let (json, parse) = counted(|| Json::parse(body).unwrap());
    let (batch, request) = counted(|| parse_update(&json).unwrap());
    let (out, apply) = counted(|| engine.apply_update(&batch).unwrap());
    let (text, write) = counted(|| render_update(&out, None, false).to_string());
    assert!(text.contains("\"edges_inserted\":1,"), "{text}");
    [parse, request, apply, write]
}

#[test]
fn a_warm_query_allocates_what_its_budget_says() {
    let (g, bodies) = s1_s5_wire_bodies();
    let g = Arc::new(g);
    let engine = LscrEngine::new(Arc::clone(&g));
    // Warm: the plan cache, the memos and the session's scratch fill on
    // the first pass. Then the least of three passes, so a stray
    // allocation on another thread cannot inflate a count.
    let mut session = engine.session();
    let measured: Vec<[usize; 5]> = bodies
        .iter()
        .map(|(_, body)| {
            stage_counts(&engine, &mut session, body);
            let passes = [(); 3].map(|()| stage_counts(&engine, &mut session, body));
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
    let budget: Vec<[usize; 5]> = BUDGET.to_vec();
    assert_eq!(measured, budget, "allocation counts moved\n{table}");

    // One new edge from vertex 0 to vertex 1 under the most frequent label.
    let label = top_label_set(&g, 1).iter().next().unwrap();
    let (s, o) = (g.vertex_name(VertexId(0)), g.vertex_name(VertexId(1)));
    let edit =
        [("op", "insert"), ("subject", s), ("predicate", g.label_name(label)), ("object", o)];
    let op = Json::Obj(edit.iter().map(|&(k, v)| (k.into(), Json::str(v))).collect());
    let body = Json::Obj(vec![("ops".into(), Json::Arr(vec![op]))]).to_string();
    let update = [false, true].map(|indexed| {
        let passes = [(); 3].map(|()| update_counts(&g, &body, indexed));
        std::array::from_fn::<_, 4, _>(|s| passes.iter().map(|p| p[s]).min().unwrap())
    });
    let mut table = format!("{:<9}{}\n", "", UPDATE_STAGES.map(|s| format!("{s:>15}")).concat());
    for (name, counts) in ["no index", "indexed"].iter().zip(&update) {
        table.push_str(&format!("{name:<9}{}\n", counts.map(|n| format!("{n:>15}")).concat()));
    }
    table.push_str(&format!("parent's indexed apply: {PARENT_INDEXED_APPLY}\n"));
    eprintln!("allocations per one-edit /update stage:\n{table}");
    assert_eq!(update, UPDATE_BUDGET, "/update allocation counts moved\n{table}");
}
