//! Concurrency tests for the shared-engine API: one `LscrEngine` across
//! many threads must answer a mixed UIS/UIS*/INS/Auto workload exactly
//! like the single-threaded oracle — via raw `std::thread::scope`
//! sessions, via `answer_batch`, and via compiled queries shared by
//! reference across threads.

use kgreach::{Algorithm, CompiledLscrQuery, LscrEngine, LscrQuery, QueryOptions};
use kgreach_datagen::constraints::{s1, s3};
use kgreach_integration::small_lubm;
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
    let mut session = engine.session();
    workload.iter().map(|(q, _)| session.answer(q, Algorithm::Oracle).unwrap().answer).collect()
}

#[test]
fn shared_engine_eight_threads_matches_sequential_oracle() {
    let engine = LscrEngine::new(small_lubm(40));
    let _ = engine.local_index(); // exercise INS on every thread
    let workload = mixed_workload(&engine, 96);
    let expected = sequential_oracle(&engine, &workload);

    // Raw scoped threads, one session each, contiguous chunks — the
    // algorithm tag cycles every 4 queries, so each chunk of 12 spans
    // every algorithm.
    let mut answers = vec![None; workload.len()];
    let mut slots: Vec<&mut [Option<bool>]> = Vec::new();
    let mut rest = answers.as_mut_slice();
    for _ in 0..THREADS {
        let (head, tail) = rest.split_at_mut(workload.len() / THREADS);
        slots.push(head);
        rest = tail;
    }
    std::thread::scope(|scope| {
        for (worker, chunk) in slots.into_iter().enumerate() {
            let workload = &workload;
            let engine = &engine;
            scope.spawn(move || {
                let mut session = engine.session();
                let base = worker * chunk.len();
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    let (q, alg) = &workload[base + offset];
                    *slot = Some(session.answer(q, *alg).unwrap().answer);
                }
            });
        }
    });
    for (i, got) in answers.iter().enumerate() {
        assert_eq!(
            got.unwrap(),
            expected[i],
            "query {i} ({}) diverged under 8 threads",
            workload[i].1
        );
    }
}

#[test]
fn answer_batch_eight_threads_matches_sequential_oracle() {
    let engine = LscrEngine::new(small_lubm(41));
    let workload = mixed_workload(&engine, 64);
    let expected = sequential_oracle(&engine, &workload);
    let results = engine.answer_batch(&workload, THREADS);
    assert_eq!(results.len(), workload.len());
    for (i, r) in results.iter().enumerate() {
        let out = r.as_ref().unwrap();
        assert_eq!(out.answer, expected[i], "batch query {i} diverged");
        assert!(out.stats.algorithm.is_some(), "executed algorithm recorded");
    }
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
            let expected = engine.answer(&q, Algorithm::Oracle).unwrap().answer;
            (engine.compile(&q).unwrap(), expected)
        })
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let compiled = &compiled;
            let engine = &engine;
            scope.spawn(move || {
                let mut session = engine.session();
                let algs = [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto];
                let opts = QueryOptions::default();
                for (i, (cq, expected)) in compiled.iter().enumerate() {
                    let alg = algs[(worker + i) % algs.len()];
                    let out = session.answer_compiled(cq, alg, &opts).unwrap();
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
