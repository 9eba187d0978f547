//! Live updates: a serving engine absorbing an edit stream.
//!
//! The scenario the dynamic-graph subsystem exists for: an engine built
//! from a (scaled-down) replica of the paper's D5' LUBM dataset keeps
//! serving queries while facts stream in — new publications, retracted
//! and re-asserted memberships. Each batch drops the local index; the
//! first INS query afterwards builds it once for the streamed graph. At
//! the end, the streamed engine is checked query-for-query against an
//! engine rebuilt from the final triple set: same answers, proving the
//! overlay, the epoch invalidation and the lazy rebuild preserved
//! exactness.
//!
//! Run with `cargo run --example live_update`.

use kgreach::{Algorithm, LocalIndexConfig, LscrEngine, LscrQuery, QueryOptions};
use kgreach_datagen::lubm::{generate, LubmConfig};
use kgreach_datagen::updates::{update_workload, UpdateWorkloadConfig};
use kgreach_graph::{GraphBuilder, Triple};
use std::sync::Arc;

pub(crate) fn main() {
    // A laptop-sized D5'-shaped LUBM replica (same generator and density
    // as the bench datasets, scaled down so this example runs in
    // seconds).
    let final_graph =
        generate(&LubmConfig { universities: 2, departments: 6, seed: 105 }).expect("labels fit");
    let final_triples: Vec<Triple> = final_graph.to_triples().collect();
    println!(
        "final dataset: {} vertices, {} edges",
        final_graph.num_vertices(),
        final_graph.num_edges()
    );

    // Hold out 2% of the edges as the live stream (with churn: some base
    // facts are retracted and re-asserted along the way).
    let stream = update_workload(
        &final_triples,
        &UpdateWorkloadConfig {
            holdout_fraction: 0.02,
            batch_size: 48,
            churn_per_batch: 2,
            seed: 42,
        },
    );
    let mut builder = GraphBuilder::new();
    for t in &stream.base {
        builder.add(t);
    }
    let config = LocalIndexConfig { num_landmarks: Some(64), seed: 1, ..Default::default() };
    let engine =
        LscrEngine::with_index_config(builder.build().expect("base builds"), config.clone());
    let _ = engine.local_index(); // serve INS from the start
    println!(
        "serving from base: {} edges, streaming {} batches",
        engine.graph().num_edges(),
        stream.batches.len()
    );

    // Apply the stream. Each batch bumps the epoch and drops the index.
    for batch in &stream.batches {
        engine.apply_update(batch).expect("batch applies");
    }
    println!(
        "stream applied: epoch {}, overlay delta: {:?}",
        engine.graph_epoch(),
        engine.graph().delta_stats()
    );
    assert!(engine.local_index_if_built().is_none(), "the stream drops the index");

    // Rebuild an engine from the final set and compare answers by name
    // (ids differ: the live engine interned stream names incrementally).
    let rebuilt = {
        let mut b = GraphBuilder::new();
        for t in &final_triples {
            b.add(t);
        }
        LscrEngine::with_index_config(b.build().expect("rebuild"), config)
    };
    let constraint = kgreach_datagen::constraints::s1();
    let live_graph = engine.graph();
    let rebuilt_graph = rebuilt.graph();
    assert_eq!(live_graph.num_edges(), rebuilt_graph.num_edges());
    let (mut live, mut fresh) = (engine.session(), rebuilt.session());
    let opts = QueryOptions::default();

    let mut checked = 0usize;
    for (i, t) in final_triples.iter().enumerate().step_by(997) {
        for (j, t2) in final_triples.iter().enumerate().step_by(1409) {
            let (ls, lt) = (
                live_graph.vertex_id(&t.subject).expect("name exists live"),
                live_graph.vertex_id(&t2.object).expect("name exists live"),
            );
            let (rs, rt) = (
                rebuilt_graph.vertex_id(&t.subject).expect("name exists rebuilt"),
                rebuilt_graph.vertex_id(&t2.object).expect("name exists rebuilt"),
            );
            let lq = LscrQuery::new(ls, lt, live_graph.all_labels(), constraint.clone());
            let rq = LscrQuery::new(rs, rt, rebuilt_graph.all_labels(), constraint.clone());
            let lq = engine.compile(&lq).expect("live compiles");
            let rq = rebuilt.compile(&rq).expect("rebuilt compiles");
            for alg in [Algorithm::Uis, Algorithm::Ins, Algorithm::Auto] {
                let live_ans = live
                    .answer_compiled(&live_graph, &lq, alg, &opts)
                    .expect("live answers")
                    .answer;
                let rebuilt_ans = fresh
                    .answer_compiled(&rebuilt_graph, &rq, alg, &opts)
                    .expect("rebuilt answers")
                    .answer;
                assert_eq!(
                    live_ans, rebuilt_ans,
                    "{alg} disagrees on pair ({i}, {j}) after the stream"
                );
            }
            checked += 1;
        }
    }
    println!("streamed engine ≡ rebuilt engine on {checked} probe pairs × 3 algorithms");
    // The first INS probe built the index for the streamed graph; every
    // later one reused it.
    let built = engine.local_index_if_built().expect("INS rebuilt the index");
    assert_eq!(built.graph_fingerprint(), live_graph.fingerprint());
    assert!(Arc::ptr_eq(&built, &engine.local_index()), "the index was built once");
    println!("index rebuilt once, by the first INS query after the stream");

    // Finally, compact: same answers, clean CSR, epoch preserved.
    let epoch = engine.graph_epoch();
    engine.compact();
    assert!(!engine.graph().has_overlay());
    assert_eq!(engine.graph_epoch(), epoch);
    println!("compacted back to a clean CSR at epoch {epoch}");
}
