//! Shared helpers for the runnable examples.

use kgreach::{Algorithm, LscrEngine, LscrQuery, QueryOptions};

/// Answers `query` with every practical algorithm (through one session on
/// the shared engine) and prints a comparison line per algorithm; panics
/// if the algorithms disagree.
pub fn run_all_algorithms(engine: &LscrEngine, label: &str, query: &LscrQuery) -> bool {
    println!("── {label}");
    let g = engine.graph();
    let compiled = engine.compile(query).expect("query is valid");
    let mut session = engine.session();
    let mut answers = Vec::new();
    for alg in Algorithm::ALL {
        let outcome =
            session.answer_compiled(&g, &compiled, alg, &QueryOptions::default()).unwrap();
        println!(
            "   {:<5} → {:<5} in {:>9.3?}  (passed {} vertices, scck {}, |V(S,G)| {})",
            alg.name(),
            outcome.answer,
            outcome.elapsed,
            outcome.stats.passed_vertices,
            outcome.stats.scck_calls,
            outcome.stats.vsg_size.map_or("-".into(), |v| v.to_string()),
        );
        answers.push(outcome.answer);
    }
    assert!(
        answers.windows(2).all(|w| w[0] == w[1]),
        "algorithms disagree on {label} — this is a bug"
    );
    answers[0]
}
