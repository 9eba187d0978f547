//! Persistence: build a serving engine once, snapshot its graph, restart
//! without re-parsing anything.
//!
//! The scenario: a nightly job generates a LUBM-like KG and writes one
//! binary engine snapshot. Serving processes then cold-start from that
//! file — graph, dictionaries and CSR adjacency restored and verified
//! (checksums + fingerprint) — and answer exactly as the original engine
//! did. The snapshot holds no local index: `Auto` never reads one, and
//! the first query that forces INS builds it on the restored graph. Run
//! with `cargo run --example persistence`.

use kgreach::{
    Algorithm, LocalIndexConfig, LscrEngine, LscrQuery, QueryOptions, SubstructureConstraint,
};
use kgreach_datagen::lubm::{generate, LubmConfig};
use std::time::Instant;

pub(crate) fn main() {
    // ---- the nightly build ------------------------------------------------
    let graph = generate(&LubmConfig { universities: 1, departments: 3, seed: 42 })
        .expect("LUBM fits the label bitset");
    println!(
        "built graph: |V|={} |E|={} |L|={}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.num_labels()
    );
    let engine = LscrEngine::with_index_config(
        graph,
        LocalIndexConfig { num_landmarks: Some(40), seed: 42, ..Default::default() },
    );

    let dir = std::env::temp_dir().join(format!("kgreach-persistence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("engine.kgsnap");
    engine.save_snapshot_file(&path).expect("snapshot writes");
    println!(
        "snapshot written: {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path).expect("snapshot exists").len()
    );

    // ---- the serving cold start -------------------------------------------
    let restart_started = Instant::now();
    let restored = LscrEngine::from_snapshot_file(&path).expect("snapshot loads");
    println!("cold start from snapshot in {:?} (graph only)", restart_started.elapsed());
    assert_eq!(restored.graph().fingerprint(), engine.graph().fingerprint());
    assert!(restored.local_index_if_built().is_none(), "a snapshot holds no index");

    // The restored engine serves identically — same ids, same answers.
    let g = restored.graph();
    let student =
        g.vertex_id("GraduateStudentV0.Department0.University0").expect("generated entity exists");
    let professor = g.vertex_id("FullProfessor0.Department0.University0").expect("entity exists");
    let q = LscrQuery::new(
        student,
        professor,
        g.all_labels(),
        SubstructureConstraint::parse("SELECT ?x WHERE { ?x <rdf:type> <ub:FullProfessor> . }")
            .expect("constraint parses"),
    );
    let opts = QueryOptions::default();
    let q_before = engine.compile(&q).expect("query compiles");
    let q_after = restored.compile(&q).expect("query compiles");
    let (mut before, mut after) = (engine.session(), restored.session());
    for alg in [Algorithm::Auto, Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins] {
        let original =
            before.answer_compiled(&engine.graph(), &q_before, alg, &opts).expect("answers").answer;
        let after_restart =
            after.answer_compiled(&g, &q_after, alg, &opts).expect("answers").answer;
        assert_eq!(original, after_restart, "{alg} must not change across a restart");
        println!("{alg:>5}: {after_restart} (same before and after restart)");
    }

    // Only the forced INS read an index, and it built one for the graph it
    // pinned, the restored graph.
    let index = restored.local_index_if_built().expect("the forced INS built the index");
    assert_eq!(index.graph_fingerprint(), g.fingerprint());
    println!(
        "forced INS built the local index lazily: {} landmarks, {} II pairs",
        index.stats().num_landmarks,
        index.stats().ii_pairs
    );

    std::fs::remove_dir_all(&dir).ok();
    println!("persistence scenario OK");
}
