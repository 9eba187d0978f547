//! Random substructure constraints with controlled selectivity on a
//! YAGO-style scale-free KG — the §6.2 experiment in miniature, plus a
//! multi-threaded pass over the same workload, one session per thread.
//!
//! Run with: `cargo run -p kgreach-examples --release --example yago_explore`

use kgreach::{Algorithm, CompiledLscrQuery, LscrEngine, LscrQuery, QueryOptions};
use kgreach_datagen::random_constraint_with_magnitude;
use kgreach_datagen::yago::{generate, YagoConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub(crate) fn main() {
    let engine = LscrEngine::new(
        generate(&YagoConfig {
            entities: 12_000,
            edges_per_entity: 3,
            num_labels: 20,
            num_classes: 24,
            seed: 99,
        })
        .unwrap(),
    );
    let g = engine.graph();
    println!(
        "YAGO-style KG: {} vertices, {} edges, {} labels (scale-free: max degree {})",
        g.num_vertices(),
        g.num_edges(),
        g.num_labels(),
        kgreach_graph::GraphStats::compute(&g).max_out_degree
    );

    let mut session = engine.session();
    let opts = QueryOptions::default();
    let mut rng = SmallRng::seed_from_u64(41);
    let all = g.all_labels();
    let mut batch: Vec<CompiledLscrQuery> = Vec::new();

    for magnitude in [10usize, 100, 1000] {
        let Some((constraint, count)) =
            random_constraint_with_magnitude(&g, magnitude, 7 + magnitude as u64)
        else {
            println!("magnitude {magnitude}: no constraint found");
            continue;
        };
        println!("\nmagnitude {magnitude}: |V(S,G)| = {count}");
        println!("  constraint: {}", constraint.to_sparql());
        for _ in 0..3 {
            let s = kgreach_graph::VertexId(rng.gen_range(0..g.num_vertices() as u32));
            let t = kgreach_graph::VertexId(rng.gen_range(0..g.num_vertices() as u32));
            let q = engine.compile(&LscrQuery::new(s, t, all, constraint.clone())).unwrap();
            let mut answers = Vec::new();
            print!("  {s}→{t}: ");
            for alg in Algorithm::ALL {
                let out = session.answer_compiled(&g, &q, alg, &opts).unwrap();
                print!("{}={} ({} passed)  ", alg.name(), out.answer, out.stats.passed_vertices);
                answers.push(out.answer);
            }
            println!();
            assert!(answers.windows(2).all(|w| w[0] == w[1]), "disagreement");
            batch.push(q);
        }
    }

    // The same compiled workload once more on 4 threads, each answering a
    // chunk on a session of its own, with the engine picking algorithms —
    // answers must not change.
    let start = std::time::Instant::now();
    let chunk = batch.len().div_ceil(4).max(1);
    let results: Vec<bool> = std::thread::scope(|scope| {
        let threads: Vec<_> = batch
            .chunks(chunk)
            .map(|queries| {
                let (engine, g, opts) = (&engine, &g, &opts);
                scope.spawn(move || {
                    let mut session = engine.session();
                    let answer = |q| session.answer_compiled(g, q, Algorithm::Auto, opts).unwrap();
                    queries.iter().map(answer).map(|out| out.answer).collect::<Vec<_>>()
                })
            })
            .collect();
        threads.into_iter().flat_map(|t| t.join().unwrap()).collect()
    });
    let trues = results.iter().filter(|&&answer| answer).count();
    println!(
        "\nthreaded: {} queries via Auto across 4 threads in {:?} ({trues} true)",
        batch.len(),
        start.elapsed()
    );
    for (q, answer) in batch.iter().zip(&results) {
        let sequential = session.answer_compiled(&g, q, Algorithm::Oracle, &opts).unwrap().answer;
        assert_eq!(*answer, sequential, "threaded answer drifted");
    }
    println!("All algorithms (and the threaded pass) agreed on every query.");
}
