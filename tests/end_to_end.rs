//! End-to-end pipeline tests: generators → constraints → workloads →
//! all three algorithms → consistency with the oracle, across crates.

use kgreach::{Algorithm, LocalIndexConfig, LscrEngine, LscrQuery, QueryOptions};
use kgreach_datagen::constraints::{all_lubm_constraints, s1, s3};
use kgreach_datagen::queries::{generate_workload, QueryGenConfig};
use kgreach_graph::snapshot::xxh64;
use kgreach_integration::matrix::{workload, Form, Matrix, Run, ALGORITHMS};
use kgreach_integration::small_lubm;
use std::fmt::Write as _;

/// Every algorithm answers S1–S5 workloads like the oracle, and like the
/// generator's own ground truth.
#[test]
fn full_lubm_pipeline_s1_to_s5() {
    let m = Matrix::of(small_lubm(21));
    let workloads =
        all_lubm_constraints().into_iter().map(|(_, c)| workload(&m.graph, &c, 3, 5, 30_000));
    let (queries, truth): (Vec<_>, Vec<_>) = workloads.flatten().unzip();
    let runs = Run::each(&ALGORITHMS, &QueryOptions::default(), false);
    m.run(&queries, &runs, &[Form::Engine], |case, out| assert_eq!(out.answer, truth[case.query]));
}

/// `generate_workload` for S1–S5 on one replica, pinned: every query's
/// endpoints, labels, answer and failure shape and each workload's attempt
/// count, hashed with XXH64 (seed 0). Recorded at PR 24, before the
/// false-kind classifier became an oracle call; never edit it to make a
/// change pass.
#[test]
fn generated_workloads_are_pinned() {
    const WORKLOADS_HASH: u64 = 0xfa49_21b8_e083_458c;
    let g = small_lubm(3);
    let config = QueryGenConfig {
        num_true: 20,
        num_false: 20,
        max_attempts: 30_000,
        enforce_difficulty: false,
        ..QueryGenConfig::default()
    };
    let mut log = String::new();
    for (name, constraint) in all_lubm_constraints() {
        let w = generate_workload(&g, &constraint, &config);
        writeln!(log, "{name} {}", w.attempts).unwrap();
        for gq in w.true_queries.iter().chain(&w.false_queries) {
            let q = &gq.query;
            let row = (q.source, q.target, q.label_constraint, gq.expected, gq.false_kind);
            writeln!(log, "{row:?}").unwrap();
        }
    }
    assert_eq!(xxh64(log.as_bytes(), 0), WORKLOADS_HASH, "generated workloads changed");
}

/// One workload answered by INS over engines with different index layouts.
#[test]
fn workload_is_reusable_across_engines() {
    let g = small_lubm(22);
    let queries: Vec<LscrQuery> =
        workload(&g, &s3(), 4, 6, 30_000).into_iter().map(|(q, _)| q).collect();
    for (landmarks, seed) in [(32, 1), (500, 2)] {
        let index = LocalIndexConfig { num_landmarks: Some(landmarks), seed, ..Default::default() };
        let ins = Run::each(&[Algorithm::Ins], &QueryOptions::default(), false);
        Matrix::new(g.clone(), Vec::new(), index).run(&queries, &ins, &[Form::Engine], |_, _| {});
    }
}

/// The same queries by *name* answer alike on a graph and its text
/// round-trip (ids may differ; names are the stable identity).
#[test]
fn graph_io_roundtrip_preserves_answers() {
    let m = Matrix::of(small_lubm(23));
    let v = |name| m.graph.vertex_id(name).unwrap();
    let source = v("UndergraduateStudent0.Department0.University0");
    let q = LscrQuery::new(source, v("University1"), m.graph.all_labels(), s1());
    let runs = Run::each(&ALGORITHMS, &QueryOptions::default(), false);
    m.run(&[q], &runs, &[Form::Text], |_, _| {});
}

#[test]
fn lcr_baselines_agree_on_lubm() {
    use kgreach_graph::traverse::lcr_reachable;
    use kgreach_lcr::{Budget, LandmarkConfig, LandmarkIndex};
    use rand::{Rng, SeedableRng};

    let g = small_lubm(24);
    let landmark = LandmarkIndex::build(
        &g,
        &LandmarkConfig { num_landmarks: Some(40), b: 5 },
        Budget::unlimited(),
    )
    .unwrap();

    let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
    for _ in 0..150 {
        let s = kgreach_graph::VertexId(rng.gen_range(0..g.num_vertices() as u32));
        let t = kgreach_graph::VertexId(rng.gen_range(0..g.num_vertices() as u32));
        let l = kgreach_graph::LabelSet::from_bits(rng.gen::<u64>()).intersection(g.all_labels());
        let expected = lcr_reachable(&g, s, t, l);
        assert_eq!(landmark.reaches(&g, s, t, l), expected, "landmark {s}->{t}");
    }
}

#[test]
fn sparql_vsg_equals_brute_force_scck() {
    let g = small_lubm(25);
    for (name, constraint) in all_lubm_constraints() {
        let compiled = constraint.compile(&g).unwrap();
        let via_engine = compiled.satisfying_vertices(&g);
        let via_scck: Vec<_> = g.vertices().filter(|&v| compiled.satisfies(&g, v)).collect();
        assert_eq!(via_engine, via_scck, "{name}: V(S,G) mismatch");
    }
}

#[test]
fn passed_vertex_metric_ordering() {
    // INS's pruning should never pass *more* vertices than UIS* on the
    // same true query (both are V(S,G)-driven; INS adds index pruning).
    // This is the paper's Figures 10-14 passed-vertex ordering.
    let g = small_lubm(26);
    let w = generate_workload(
        &g,
        &s3(),
        &QueryGenConfig {
            num_true: 6,
            num_false: 0,
            seed: 8,
            max_attempts: 30_000,
            enforce_difficulty: false,
        },
    );
    let engine = LscrEngine::new(g);
    let mut session = engine.session();
    // The paper's UIS is Algorithm 1 with its one frontier.
    let one_frontier = QueryOptions::default().with_one_frontier(true);
    let mut ins_total = 0usize;
    let mut uis_total = 0usize;
    for gq in &w.true_queries {
        let compiled = engine.compile(&gq.query).unwrap();
        ins_total += session
            .answer_compiled(&engine.graph(), &compiled, Algorithm::Ins, &QueryOptions::default())
            .unwrap()
            .stats
            .passed_vertices;
        uis_total += session
            .answer_compiled(&engine.graph(), &compiled, Algorithm::Uis, &one_frontier)
            .unwrap()
            .stats
            .passed_vertices;
    }
    assert!(
        ins_total <= uis_total * 2,
        "INS passed {ins_total} vs UIS {uis_total}: pruning regressed badly"
    );
}
