//! Scale benchmark — cold start and index build at multi-million-edge
//! size. The committed artifact `bench-results/BENCH_scale.json` is
//! generated at 5M edges:
//!
//! ```text
//! KG_SCALE_EDGES=5000000 CRITERION_JSON=bench-results/BENCH_scale.json \
//!     cargo bench -p kgreach-bench --bench scale
//! ```
//!
//! Without `KG_SCALE_EDGES` the dataset defaults to 50k edges so the CI
//! smoke run (`cargo bench -- --test`, which executes every body once)
//! stays inside the CI budget; the generated graph is memoized in
//! `target/kg-snapshots` either way.
//!
//! Rows (at the 5M size):
//! - `cold_start/5M/text_parse_and_rebuild` — parse the N-Triples file,
//!   re-intern everything, rebuild the local index.
//! - `cold_start/5M/snapshot_load` — restore graph + index from the
//!   binary engine snapshot (one bulk read, decoded in place).
//!   Contract (asserted by CI on the committed JSON): ≥ 3× faster than
//!   the text path.
//! - `index_build/5M/landmarks64` — the landmark index build alone, at
//!   the audit density of 64 landmarks (full density at this scale is an
//!   experiment, not a benchmark).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kgreach::{LocalIndex, LocalIndexConfig, LscrEngine};
use kgreach_datagen::lubm::{self, LubmConfig};
use kgreach_graph::{io, GraphBuilder};

/// Target edge count: `KG_SCALE_EDGES`, else a CI-sized default.
fn edge_target() -> usize {
    match std::env::var("KG_SCALE_EDGES") {
        Ok(v) => v.parse().expect("KG_SCALE_EDGES must be a number"),
        Err(_) => 50_000,
    }
}

/// `5000000` → `5M`, `50000` → `50k`; odd sizes print verbatim.
fn size_label(target: usize) -> String {
    if target >= 1_000_000 && target % 1_000_000 == 0 {
        format!("{}M", target / 1_000_000)
    } else if target >= 1_000 && target % 1_000 == 0 {
        format!("{}k", target / 1_000)
    } else {
        target.to_string()
    }
}

fn bench_scale(c: &mut Criterion) {
    let target = edge_target();
    let label = size_label(target);
    let seed = 0x5CA1E;
    let config = LubmConfig::sized_edges(target, seed);
    let g = kgreach_bench::cached_graph(&format!("lubm-scale-{target}-{seed}"), || {
        let mut b = GraphBuilder::new();
        lubm::emit(&config, &mut b);
        b.build().expect("LUBM generation fits the label bitset")
    });
    println!(
        "# scale bench: |V| = {}, |E| = {} (target {target})",
        g.num_vertices(),
        g.num_edges()
    );
    let index_config =
        LocalIndexConfig { num_landmarks: Some(64), seed, ..LocalIndexConfig::default() };

    let dir = std::env::temp_dir().join(format!("kgreach-scale-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let text_path = dir.join("scale.nt");
    let snap_path = dir.join("scale.kgsnap");
    io::save_graph(&g, &text_path).expect("write text triples");
    let engine = LscrEngine::with_index_config(g, index_config.clone());
    let _ = engine.local_index(); // build once so the snapshot embeds it
    engine.save_snapshot_file(&snap_path).expect("write engine snapshot");

    // Multi-second bodies at the 5M size: two samples bound the run to
    // minutes while still exposing an outlier through min/max.
    let samples = if target >= 1_000_000 { 2 } else { 10 };

    let mut group = c.benchmark_group("cold_start");
    group.sample_size(samples);
    group.bench_function(format!("{label}/text_parse_and_rebuild"), |b| {
        b.iter(|| {
            let g = io::load_graph(&text_path).expect("parse text triples");
            let index = LocalIndex::build(&g, &index_config);
            black_box((g.num_edges(), index.stats().num_landmarks))
        })
    });
    group.bench_function(format!("{label}/snapshot_load"), |b| {
        b.iter(|| {
            let engine = LscrEngine::from_snapshot_file(&snap_path).expect("load snapshot");
            black_box(engine.local_index_if_built().expect("index restored").stats().num_landmarks)
        })
    });
    group.finish();

    let g = engine.graph();
    let mut group = c.benchmark_group("index_build");
    group.sample_size(samples);
    group.bench_function(format!("{label}/landmarks64"), |b| {
        b.iter(|| black_box(LocalIndex::build(&g, &index_config).stats().num_landmarks))
    });
    group.finish();
    drop(g);
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
