//! Cold start — the snapshot subsystem's reason to exist: restoring a
//! serving engine's graph from a binary snapshot vs re-parsing the text
//! triple file, on the largest datagen graph (D5', ~55k vertices / ~240k
//! edges). Both rows load the graph alone: an engine snapshot holds no
//! index, and neither path builds one.
//!
//! Expected shape: `snapshot_load` several times faster than
//! `text_parse` — text parsing pays per-line term parsing and
//! re-interning plus the CSR sort, while the snapshot path streams
//! validated arrays straight into place. Numbers are recorded in
//! README.md ("Persistence").

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kgreach::LscrEngine;
use kgreach_graph::io;

fn bench_cold_start(c: &mut Criterion) {
    let spec = kgreach_bench::lubm_datasets(1.0).pop().expect("datasets are non-empty");
    let g = kgreach_bench::build_lubm(&spec);

    let dir = std::env::temp_dir().join(format!("kgreach-cold-start-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let text_path = dir.join("d5.nt");
    let snap_path = dir.join("d5.kgsnap");
    io::save_graph(&g, &text_path).expect("write text triples");
    LscrEngine::new(g).save_snapshot_file(&snap_path).expect("write engine snapshot");

    let mut group = c.benchmark_group("cold_start");
    group.sample_size(10);
    group.bench_function("text_parse", |b| {
        b.iter(|| black_box(io::load_graph(&text_path).expect("parse text triples").num_edges()))
    });
    group.bench_function("snapshot_load", |b| {
        b.iter(|| {
            let engine = LscrEngine::from_snapshot_file(&snap_path).expect("load snapshot");
            black_box(engine.graph().num_edges())
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_cold_start);
criterion_main!(benches);
