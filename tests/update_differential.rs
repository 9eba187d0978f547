//! Dynamic-update differential suite: an engine that *applied* an edit
//! stream must be indistinguishable from an engine *rebuilt* from the
//! final triple set — on every algorithm, sequentially and under
//! multi-threaded `answer_batch`, with the local index maintained
//! incrementally along the way.
//!
//! Vertex/label ids differ between the two engines (the live engine
//! interns update names incrementally; the rebuild interns in triple
//! order), so all comparisons translate queries **by name**.

use kgreach::{
    Algorithm, LocalIndexConfig, LscrEngine, LscrQuery, QueryOptions, SubstructureConstraint,
};
use kgreach_datagen::updates::UpdateWorkloadConfig;
use kgreach_graph::{GraphBuilder, LabelSet, UpdateBatch};
use kgreach_integration::matrix::{
    all_pairs, holdout, random_batches, s1_s3, Form, Matrix, Run, ALGORITHMS,
};
use kgreach_integration::random_typed_graph;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// On random graphs and random update scripts, the updated engine
    /// (index maintained incrementally) answers identically to an engine
    /// rebuilt from its final triples — for all four algorithms.
    #[test]
    fn overlay_engine_equals_rebuilt_engine(
        seed in 0u64..2000,
        n in 6usize..14,
        density in 1usize..3,
        rounds in 1usize..5,
    ) {
        let m = Matrix::new(
            random_typed_graph(n, n * density, 3, 2, seed),
            random_batches(seed ^ 0xabcd, rounds),
            LocalIndexConfig { num_landmarks: Some(3), seed, ..Default::default() },
        );
        let g = &m.graph;
        // Half the alphabet, id-deterministic on the rebuilt graph; and
        // one narrow label: |L| ≪ alphabet is always mask-selective, so
        // both of UIS's frontiers expand through the masks and the
        // overlay's *reverse* expansion view (`in_expansion`) gets
        // differentially tested against the rebuilt CSR too.
        let half: LabelSet = g.all_labels().iter().step_by(2).collect();
        let label_sets = [g.all_labels(), half, g.label_set(&["l0"])];
        let constraint = SubstructureConstraint::parse(
            "SELECT ?x WHERE { ?x <rdf:type> <C0> . ?x <l0> ?y . }",
        ).unwrap();
        // Every base vertex is typed and no batch deletes a type, so V(S,G)
        // is never empty under `typed`: UIS's endpoint sides always step.
        let typed = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <rdf:type> ?c . }")
            .unwrap();
        let mut queries = all_pairs(g, &label_sets, &constraint);
        queries.extend(all_pairs(g, &label_sets, &typed));
        let runs = Run::each(&ALGORITHMS, &QueryOptions::default(), false);
        let mut backward_over_live = 0;
        m.run(&queries, &runs, &[Form::Engine, Form::Overlay], |case, out| {
            if case.form == Form::Overlay {
                backward_over_live += out.stats.backward_edges_scanned;
            }
            // An empty V(S,G) the plan already holds settles UIS (and
            // `Auto`, which resolves to it) before any side steps.
            if case.vsg_hint == Some(0) && out.stats.algorithm == Some(Algorithm::Uis) {
                assert!(!out.answer, "query {}", case.query);
                assert_eq!(out.stats.negative_terminations, 1, "query {}", case.query);
                assert_eq!(out.stats.edges_scanned, 0, "query {}", case.query);
            }
        });
        // The sweep reached `in_expansion` on the live side — over the
        // overlay, whenever the live graph carries one.
        prop_assert!(backward_over_live > 0, "UIS's backward frontier never stepped");
    }
}

/// The acceptance-criteria scenario: an S1–S3 evaluation workload on a
/// LUBM replica, answered identically by the streamed-updates engine and
/// the rebuilt engine — sequentially and under 8-thread `answer_batch`.
#[test]
fn s_workloads_agree_after_update_stream() {
    let final_graph = kgreach_integration::small_lubm(21);
    let config = UpdateWorkloadConfig {
        holdout_fraction: 0.05,
        batch_size: 40,
        churn_per_batch: 3,
        seed: 77,
    };
    let (base, script) = holdout(&final_graph, &config);
    let index = LocalIndexConfig { num_landmarks: Some(24), seed: 5, ..Default::default() };
    let m = Matrix::new(base, script, index);
    assert!(m.patched > 0, "the stream must exercise partition-local repair");
    assert_eq!(
        m.graph.num_edges(),
        final_graph.num_edges(),
        "streams must replay to the final set"
    );
    let queries = s1_s3(&m.graph, 6, |_| 13);
    let runs = Run::each(&ALGORITHMS, &QueryOptions::default(), false);
    m.run(&queries, &runs, &[Form::Engine, Form::Overlay, Form::Batch8], |_, _| {});
}

/// Concurrent updates against concurrent readers: queries never crash,
/// never see a half-applied batch (each batch toggles one edge that
/// makes a two-hop route exist/vanish), and the final state is exact.
#[test]
fn updates_race_queries_safely() {
    let mut b = GraphBuilder::new();
    b.add_triple("src", "p", "mid");
    b.add_triple("src", "marker", "anchor");
    let engine = LscrEngine::new(b.build().unwrap());
    let constraint =
        SubstructureConstraint::parse("SELECT ?x WHERE { ?x <marker> <anchor> . }").unwrap();
    // "mid" -> "dst" flips in and out of existence; reachability of dst
    // tracks it, and "src" always satisfies the constraint.
    std::thread::scope(|scope| {
        let engine = &engine;
        let writer = scope.spawn(move || {
            for i in 0..60 {
                let mut batch = UpdateBatch::new();
                if i % 2 == 0 {
                    batch.insert("mid", "p", "dst");
                } else {
                    batch.delete("mid", "p", "dst");
                }
                engine.apply_update(&batch).unwrap();
            }
        });
        for _ in 0..2 {
            let constraint = constraint.clone();
            scope.spawn(move || {
                let mut session = engine.session();
                for _ in 0..200 {
                    let g = engine.graph();
                    let (Some(s), Some(m)) = (g.vertex_id("src"), g.vertex_id("mid")) else {
                        continue;
                    };
                    // src -> mid always holds regardless of the writer.
                    let q = LscrQuery::new(s, m, g.all_labels(), constraint.clone());
                    assert!(session.answer(&q, Algorithm::Uis).unwrap().answer);
                    if let Some(d) = g.vertex_id("dst") {
                        let q = LscrQuery::new(s, d, g.all_labels(), constraint.clone());
                        // May be true or false depending on the writer's
                        // phase; must simply not crash or wedge.
                        let _ = session.answer(&q, Algorithm::Auto).unwrap();
                    }
                }
            });
        }
        writer.join().unwrap();
    });
    // Final state: 60 batches end on a delete (i = 59 odd).
    let g = engine.graph();
    assert_eq!(g.num_edges(), 2);
    assert_eq!(engine.graph_epoch(), 60);
}

/// Snapshot persistence mid-overlay: saving a live engine compacts on
/// the fly; the restored engine answers identically and fingerprints
/// match.
#[test]
fn snapshot_mid_overlay_roundtrips() {
    let mut batch = UpdateBatch::new();
    batch.insert("n1", "l0", "fresh").insert("fresh", "l1", "n2").delete("n0", "rdf:type", "C0");
    let m = Matrix::new(
        random_typed_graph(20, 40, 3, 2, 9),
        vec![batch],
        LocalIndexConfig { num_landmarks: Some(4), seed: 9, ..Default::default() },
    );
    let g = m.live.graph();
    assert!(g.has_overlay());
    let constraint = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <l0> ?y . }").unwrap();
    let queries = all_pairs(&m.graph, &[m.graph.all_labels()], &constraint);
    let runs = Run::each(
        &[Algorithm::Uis, Algorithm::Ins, Algorithm::Auto],
        &QueryOptions::default(),
        false,
    );
    m.run(&queries, &runs, &[Form::Overlay, Form::Snapshot], |_, _| {});

    // Graph-level snapshot of a live graph also round-trips.
    let mut gbytes = Vec::new();
    kgreach_graph::snapshot::write_graph_snapshot(&g, &mut gbytes).unwrap();
    let gg = kgreach_graph::snapshot::read_graph_snapshot(&gbytes[..]).unwrap();
    assert_eq!(gg.fingerprint(), g.fingerprint());
}
