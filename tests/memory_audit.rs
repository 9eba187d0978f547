//! Per-edge memory regression tests, measured with the real allocator.
//!
//! This binary installs [`CountingAlloc`] as the global allocator and
//! holds graph and index construction to committed bytes-per-edge
//! budgets. The budgets are contractual: they are what the
//! `docs/OPERATIONS.md` sizing guide promises operators, with headroom
//! for allocator rounding — a regression that silently fattens the
//! per-edge footprint fails here with the measured number in the
//! message.
//!
//! Everything is measured inside a single `#[test]` so no concurrent
//! test pollutes the counters (the harness runs tests in one process).

use kgreach::{LocalIndex, LocalIndexConfig};
use kgreach_datagen::lubm;
use kgreach_datagen::LubmConfig;
use kgreach_graph::GraphBuilder;
use kgreach_sync::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Committed construction budgets, bytes per edge, for LUBM-shaped
/// graphs (~3.4 edges per vertex, ~45-byte vertex names).
///
/// Live graph: two CSR directions (16 B targets + offsets), interned
/// dictionaries (name bytes + `Arc<str>` headers + hash index), schema
/// instance lists, histogram. Streaming construction peak adds the
/// 12 B/edge staging buffer and the transient CSR assembly on top of the
/// finished graph.
const GRAPH_LIVE_BUDGET: f64 = 80.0;
const GRAPH_PEAK_BUDGET: f64 = 120.0;
/// Index budget at the audit's landmark density (64 landmarks): entries,
/// partition arrays and the correlation table.
const INDEX_LIVE_BUDGET: f64 = 48.0;

fn edge_target() -> usize {
    if let Ok(v) = std::env::var("KG_SCALE_SMOKE_EDGES") {
        return v.parse().expect("KG_SCALE_SMOKE_EDGES must be a number");
    }
    if cfg!(debug_assertions) {
        25_000
    } else {
        250_000
    }
}

#[test]
fn bytes_per_edge_stays_under_committed_budgets() {
    let config = LubmConfig::sized_edges(edge_target(), 0xA0D17);

    // -- Graph construction: live footprint and construction peak.
    let live_before = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let g = {
        let mut b = GraphBuilder::with_chunk_edges(1 << 15);
        lubm::emit(&config, &mut b);
        b.build().unwrap()
    };
    let graph_live = ALLOC.live_bytes().saturating_sub(live_before);
    let graph_peak = ALLOC.peak_bytes().saturating_sub(live_before);
    let edges = g.num_edges();
    assert!(edges > 0);
    let live_per_edge = graph_live as f64 / edges as f64;
    let peak_per_edge = graph_peak as f64 / edges as f64;
    eprintln!(
        "memory audit: graph {edges} edges, {live_per_edge:.1} B/edge live \
         (budget {GRAPH_LIVE_BUDGET}), {peak_per_edge:.1} B/edge construction peak \
         (budget {GRAPH_PEAK_BUDGET})"
    );
    assert!(
        live_per_edge <= GRAPH_LIVE_BUDGET,
        "graph holds {live_per_edge:.1} B/edge live ({graph_live} bytes over {edges} edges); \
         budget is {GRAPH_LIVE_BUDGET} B/edge"
    );
    assert!(
        peak_per_edge <= GRAPH_PEAK_BUDGET,
        "graph construction peaked at {peak_per_edge:.1} B/edge ({graph_peak} bytes over \
         {edges} edges); budget is {GRAPH_PEAK_BUDGET} B/edge"
    );
    // The allocator agrees with the graph's own accounting to within
    // allocator rounding (heap_bytes undercounts allocation slack).
    assert!(
        g.heap_bytes() as f64 <= graph_live as f64 * 1.05,
        "heap_bytes() claims more ({}) than was actually allocated ({graph_live})",
        g.heap_bytes()
    );

    // -- Index build at the audit landmark density.
    let idx_before = ALLOC.live_bytes();
    let idx = LocalIndex::build(
        &g,
        &LocalIndexConfig { num_landmarks: Some(64), seed: 0xA0D17, ..Default::default() },
    );
    let idx_live = ALLOC.live_bytes().saturating_sub(idx_before);
    let idx_per_edge = idx_live as f64 / edges as f64;
    eprintln!(
        "memory audit: index ({} landmarks) {idx_per_edge:.1} B/edge live \
         (budget {INDEX_LIVE_BUDGET})",
        idx.stats().num_landmarks
    );
    assert!(
        idx_per_edge <= INDEX_LIVE_BUDGET,
        "index holds {idx_per_edge:.1} B/edge live ({idx_live} bytes over {edges} edges); \
         budget is {INDEX_LIVE_BUDGET} B/edge"
    );
    assert!(idx.stats().num_landmarks > 0);
}
