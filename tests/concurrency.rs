//! Concurrency tests for the shared-engine API: one `LscrEngine` across
//! many threads must answer a mixed UIS/UIS*/INS/Auto workload exactly
//! like the single-threaded oracle — on eight scoped threads with a
//! session each, with the local index built up front or built lazily by
//! the racing INS queries, and via compiled queries shared by reference
//! across threads.

use kgreach::{Algorithm, CompiledLscrQuery, LscrEngine, LscrQuery, QueryOptions};
use kgreach_datagen::constraints::{s1, s3};
use kgreach_integration::{answer, answer_on_sessions, small_lubm};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const THREADS: usize = 8;

/// A mixed workload over the shared LUBM replica: random endpoints and
/// label sets against two constraints of very different selectivity, each
/// query tagged with an algorithm round-robin across UIS/UIS*/INS/Auto.
fn mixed_workload(engine: &LscrEngine, queries: usize) -> Vec<(LscrQuery, Algorithm)> {
    let g = engine.graph();
    let mut rng = SmallRng::seed_from_u64(0xC0C0);
    let algs = [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto];
    let constraints = [s1(), s3()];
    (0..queries)
        .map(|i| {
            let s = kgreach_graph::VertexId(rng.gen_range(0..g.num_vertices() as u32));
            let t = kgreach_graph::VertexId(rng.gen_range(0..g.num_vertices() as u32));
            let labels =
                kgreach_graph::LabelSet::from_bits(rng.gen::<u64>()).intersection(g.all_labels());
            let c = constraints[i % constraints.len()].clone();
            (LscrQuery::new(s, t, labels, c), algs[i % algs.len()])
        })
        .collect()
}

fn sequential_oracle(engine: &LscrEngine, workload: &[(LscrQuery, Algorithm)]) -> Vec<bool> {
    workload.iter().map(|(q, _)| answer(engine, q, Algorithm::Oracle).unwrap().answer).collect()
}

/// `workload` on eight scoped threads, one session each, contiguous
/// chunks, checked against the sequential oracle.
fn eight_sessions_match_the_oracle(engine: &LscrEngine, workload: &[(LscrQuery, Algorithm)]) {
    let expected = sequential_oracle(engine, workload);
    let outcomes = answer_on_sessions(engine, workload, &QueryOptions::default(), THREADS);
    assert_eq!(outcomes.len(), workload.len());
    for (i, out) in outcomes.iter().enumerate() {
        assert_eq!(
            out.answer, expected[i],
            "query {i} ({}) diverged under 8 threads",
            workload[i].1
        );
        assert!(out.stats.algorithm.is_some(), "executed algorithm recorded");
    }
}

#[test]
fn shared_engine_eight_threads_matches_sequential_oracle() {
    let engine = LscrEngine::new(small_lubm(40));
    // Built up front, so INS runs on every thread. The algorithm tag
    // cycles every 4 queries, so each thread's chunk of 12 spans every
    // algorithm.
    let _ = engine.local_index();
    let workload = mixed_workload(&engine, 96);
    eight_sessions_match_the_oracle(&engine, &workload);
}

#[test]
fn eight_sessions_build_the_index_lazily_and_match_sequential_oracle() {
    // No index up front: the first INS queries on the eight threads race
    // to build it.
    let engine = LscrEngine::new(small_lubm(41));
    eight_sessions_match_the_oracle(&engine, &mixed_workload(&engine, 64));
}

#[test]
fn compiled_queries_shared_across_threads() {
    let engine = LscrEngine::new(small_lubm(42));
    let _ = engine.local_index();
    let g = engine.graph();
    let mut rng = SmallRng::seed_from_u64(7);
    let compiled: Vec<(CompiledLscrQuery, bool)> = (0..12)
        .map(|i| {
            let s = kgreach_graph::VertexId(rng.gen_range(0..g.num_vertices() as u32));
            let t = kgreach_graph::VertexId(rng.gen_range(0..g.num_vertices() as u32));
            let c = if i % 2 == 0 { s1() } else { s3() };
            let q = LscrQuery::new(s, t, g.all_labels(), c);
            let expected = answer(&engine, &q, Algorithm::Oracle).unwrap().answer;
            (engine.compile(&q).unwrap(), expected)
        })
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let (compiled, engine, g) = (&compiled, &engine, &g);
            scope.spawn(move || {
                let mut session = engine.session();
                let algs = [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto];
                let opts = QueryOptions::default();
                for (i, (cq, expected)) in compiled.iter().enumerate() {
                    let alg = algs[(worker + i) % algs.len()];
                    let out = session.answer_compiled(g, cq, alg, &opts).unwrap();
                    assert_eq!(out.answer, *expected, "compiled query {i} via {alg}");
                }
            });
        }
    });
    // Every plan's V(S,G) was materialized exactly once (the memo is a
    // `OnceLock` on the compiled constraint) and is now shared.
    for (cq, _) in &compiled {
        assert!(cq.constraint.vsg_len_if_materialized().is_some());
    }
}

#[test]
fn plan_cache_converges_under_concurrency() {
    let engine = LscrEngine::new(small_lubm(43));
    let g = engine.graph();
    let q = LscrQuery::new(
        kgreach_graph::VertexId(0),
        kgreach_graph::VertexId(1),
        g.all_labels(),
        s1(),
    );
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let engine = &engine;
            let q = &q;
            scope.spawn(move || {
                for _ in 0..50 {
                    engine.compile(q).unwrap();
                }
            });
        }
    });
    // 400 compilations of the same SPARQL text → one cached plan.
    assert_eq!(engine.cached_plans(), 1);
}
