//! Per-edge memory audit: builds a LUBM-shaped graph of a target edge
//! count through the chunked builder, then the local index, and reports
//! bytes/edge for both — measured by the counting global allocator (real
//! footprint including allocator slack) alongside each structure's own
//! `heap_bytes`-style accounting.
//!
//! ```text
//! cargo run --release -p kgreach-bench --bin mem_audit [target_edges] [landmarks]
//! ```
//!
//! Defaults: 1,000,000 edges, 64 landmarks. The committed regression
//! budgets live in `tests/memory_audit.rs`; this binary is the
//! exploratory side of the same harness.

use kgreach::{LocalIndex, LocalIndexConfig};
use kgreach_datagen::{lubm, LubmConfig};
use kgreach_graph::GraphBuilder;
use kgreach_sync::alloc::CountingAlloc;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() {
    let mut args = std::env::args().skip(1);
    let target: usize = args.next().map_or(1_000_000, |a| a.parse().expect("target_edges"));
    let landmarks: usize = args.next().map_or(64, |a| a.parse().expect("landmarks"));

    let config = LubmConfig::sized_edges(target, 0xA0D17);
    println!(
        "mem_audit: target {target} edges ({} universities x {} departments), {landmarks} landmarks",
        config.universities, config.departments
    );

    let live_before = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let t = Instant::now();
    let mut b = GraphBuilder::new();
    lubm::emit(&config, &mut b);
    let buffer_peak = b.peak_buffer_bytes();
    let g = b.build().expect("LUBM fits");
    let build_time = t.elapsed();
    let graph_live = ALLOC.live_bytes().saturating_sub(live_before);
    let graph_peak = ALLOC.peak_bytes().saturating_sub(live_before);
    let e = g.num_edges() as f64;

    println!(
        "graph: |V| = {}, |E| = {}, built in {:.2?}",
        g.num_vertices(),
        g.num_edges(),
        build_time
    );
    println!(
        "  live after build:      {:>12} bytes  {:>7.1} B/edge",
        graph_live,
        graph_live as f64 / e
    );
    println!(
        "  construction peak:     {:>12} bytes  {:>7.1} B/edge",
        graph_peak,
        graph_peak as f64 / e
    );
    println!(
        "  edge-buffer peak:      {:>12} bytes  {:>7.1} B/edge",
        buffer_peak,
        buffer_peak as f64 / e
    );
    println!(
        "  self-reported heap:    {:>12} bytes  {:>7.1} B/edge",
        g.heap_bytes(),
        g.heap_bytes() as f64 / e
    );

    let idx_before = ALLOC.live_bytes();
    let t = Instant::now();
    let idx = LocalIndex::build(
        &g,
        &LocalIndexConfig { num_landmarks: Some(landmarks), seed: 0xA0D17, ..Default::default() },
    );
    let index_time = t.elapsed();
    let idx_live = ALLOC.live_bytes().saturating_sub(idx_before);
    println!(
        "index: {} landmarks, {} II pairs, {} EIT pairs, built in {:.2?}",
        idx.stats().num_landmarks,
        idx.stats().ii_pairs,
        idx.stats().eit_pairs,
        index_time
    );
    println!(
        "  live after build:      {:>12} bytes  {:>7.1} B/edge",
        idx_live,
        idx_live as f64 / e
    );
    println!(
        "  self-reported size:    {:>12} bytes  {:>7.1} B/edge",
        idx.stats().bytes,
        idx.stats().bytes as f64 / e
    );
    println!("total: {:.1} B/edge live for graph + index", (graph_live + idx_live) as f64 / e);
}
