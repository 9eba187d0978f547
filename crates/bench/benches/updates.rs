//! Dynamic updates — the delta-overlay subsystem's reason to exist:
//! absorbing a 1% edge delta and answering queries vs rebuilding the
//! whole engine (graph freeze + Algorithm 3 index build) from the final
//! triple set, on the largest datagen graph (D5', ~55k vertices / ~240k
//! edges).
//!
//! Expected shape: `apply_delta_and_query` ≥ 5× faster than
//! `rebuild_and_query` — the overlay touches only the patched vertices
//! and the update drops the local index instead of repairing it, while
//! the rebuild pays the full CSR sort, schema derivation and every
//! landmark BFS.
//! `compact` is measured separately: the cost of re-freezing the overlay
//! once the delta threshold trips. Numbers are recorded in
//! `bench-results/BENCH_updates.json` and README.md ("Performance").

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kgreach::{
    Algorithm, LocalIndex, LocalIndexConfig, LscrEngine, LscrQuery, QueryOptions, UpdateBatch,
};
use kgreach_graph::{GraphBuilder, Triple};

fn bench_updates(c: &mut Criterion) {
    let spec = kgreach_bench::lubm_datasets(1.0).pop().expect("datasets are non-empty");
    let g = kgreach_bench::build_lubm(&spec);
    let final_triples: Vec<Triple> = g.to_triples().collect();
    let config = LocalIndexConfig { num_landmarks: None, seed: spec.seed, ..Default::default() };

    // A 1% delta: the batch inserts it, the inverse batch removes it, so
    // one engine serves every iteration and ends each one where it began.
    let delta = final_triples.len() / 100;
    let mut insert = UpdateBatch::new();
    let mut remove = UpdateBatch::new();
    for t in final_triples.iter().rev().take(delta) {
        insert.insert(&t.subject, &t.predicate, &t.object);
        remove.delete(&t.subject, &t.predicate, &t.object);
    }
    let base_triples = &final_triples[..final_triples.len() - delta];
    let base = {
        let mut b = GraphBuilder::with_capacity(g.num_vertices(), base_triples.len());
        for t in base_triples {
            b.add(t);
        }
        b.build().expect("base graph builds")
    };

    // A small query probe (the paper's selective S1 constraint) run
    // after each maintenance strategy; vertex names resolve in every
    // engine involved.
    let probe: Vec<(String, String)> = (0..4)
        .map(|i| {
            let s = &final_triples[i * 97].subject;
            let t = &final_triples[i * 131 + 7].object;
            (s.clone(), t.clone())
        })
        .collect();
    let run_probe = |engine: &LscrEngine| {
        let graph = engine.graph();
        let labels = graph.all_labels();
        let constraint = kgreach_datagen::constraints::s1();
        let mut session = engine.session();
        let opts = QueryOptions::default();
        let mut hits = 0usize;
        for (s, t) in &probe {
            let (Some(s), Some(t)) = (graph.vertex_id(s), graph.vertex_id(t)) else { continue };
            let q = engine.compile(&LscrQuery::new(s, t, labels, constraint.clone()));
            let q = q.expect("probe compiles");
            let out = session.answer_compiled(&graph, &q, Algorithm::Auto, &opts);
            hits += usize::from(out.expect("probe answers").answer);
        }
        hits
    };

    let engine = LscrEngine::with_index_config(base, config.clone());

    let mut group = c.benchmark_group("updates");
    group.sample_size(10);
    // Each iteration applies exactly ONE 1%-delta batch (the direction
    // alternates so the engine ends every iteration valid) and then runs
    // the probe — the acceptance scenario "apply a delta, then query".
    let mut applied = false;
    group.bench_function("apply_delta_and_query", |b| {
        b.iter(|| {
            let batch = if applied { &remove } else { &insert };
            applied = !applied;
            engine.apply_update(batch).expect("delta applies");
            black_box(run_probe(&engine))
        })
    });
    if applied {
        engine.apply_update(&remove).expect("delta reverts");
    }
    group.bench_function("rebuild_and_query", |b| {
        b.iter(|| {
            let mut builder = GraphBuilder::with_capacity(g.num_vertices(), final_triples.len());
            for t in &final_triples {
                builder.add(t);
            }
            let rebuilt = builder.build().expect("rebuild");
            let index = LocalIndex::build(&rebuilt, &config);
            let fresh = LscrEngine::with_index_config(rebuilt, config.clone());
            fresh.set_local_index(index).expect("index matches");
            black_box(run_probe(&fresh))
        })
    });
    // The O(delta) engine-swap floor: a single-edge insert+delete pair
    // on an index-free engine over the compact graph (overlay carry-over
    // is delta-sized work, measured by apply_delta_and_query above). The
    // swap shares
    // the frozen CSR/dictionaries via `Arc`, so this stays in
    // microseconds on D5' (~55k vertices / ~240k edges) where it used
    // to pay a full O(|V|+|E|) graph memcpy per batch.
    let (single_insert, single_remove) = {
        let t = &final_triples[0];
        let mut i = UpdateBatch::new();
        i.insert(&t.subject, &t.predicate, "bench-single-edge-object");
        let mut r = UpdateBatch::new();
        r.delete(&t.subject, &t.predicate, "bench-single-edge-object");
        (i, r)
    };
    let bare = LscrEngine::new(g.clone());
    group.bench_function("single_edge_apply", |b| {
        b.iter(|| {
            bare.apply_update(&single_insert).expect("insert applies");
            black_box(bare.apply_update(&single_remove).expect("delete applies"))
        })
    });
    group.bench_function("compact", |b| {
        b.iter(|| {
            engine.apply_update(&insert).expect("delta applies");
            engine.compact();
            engine.apply_update(&remove).expect("delta reverts");
            black_box(engine.graph_epoch())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
