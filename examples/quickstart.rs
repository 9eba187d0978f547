//! Quickstart: build a small knowledge graph, pose an LSCR query, compile
//! it once through the shared engine and answer it on a session.
//!
//! Run with: `cargo run -p kgreach-examples --example quickstart`

use kgreach::{Algorithm, LscrEngine, LscrQuery, QueryOptions, SubstructureConstraint};
use kgreach_graph::GraphBuilder;

pub(crate) fn main() {
    // A little collaboration graph. Labels are predicates; vertices are
    // interned by name on first use.
    let mut builder = GraphBuilder::new();
    for (s, p, o) in [
        ("ada", "mentors", "grace"),
        ("grace", "collaboratesWith", "alan"),
        ("alan", "mentors", "kurt"),
        ("grace", "rdf:type", "Researcher"),
        ("alan", "rdf:type", "Researcher"),
        ("alan", "leads", "theoryLab"),
        ("kurt", "collaboratesWith", "ada"),
    ] {
        builder.add_triple(s, p, o);
    }

    // The engine owns the graph (shared, Send + Sync, answers via &self);
    // reach the graph through `engine.graph()`.
    let engine = LscrEngine::new(builder.build().expect("≤64 labels"));
    let graph = engine.graph();
    println!(
        "graph: {} vertices, {} edges, {} labels",
        graph.num_vertices(),
        graph.num_edges(),
        graph.num_labels()
    );

    // LSCR query: can `ada` reach `kurt` along mentorship/collaboration
    // edges, through someone who leads a lab?
    let query = LscrQuery::new(
        graph.vertex_id("ada").unwrap(),
        graph.vertex_id("kurt").unwrap(),
        graph.label_set(&["mentors", "collaboratesWith"]),
        SubstructureConstraint::parse("SELECT ?x WHERE { ?x <leads> ?lab . }").unwrap(),
    );

    // A compiled query is validated and planned once and reuses the
    // materialized V(S,G) on every execution. A session reuses one scratch
    // set across the whole loop — including `Auto`, where the engine picks
    // the algorithm and records its choice.
    let compiled = engine.compile(&query).unwrap();
    let mut session = engine.session();
    let opts = QueryOptions::default();
    for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
        let outcome = session.answer_compiled(&graph, &compiled, alg, &opts).unwrap();
        println!(
            "{:<5} answered {:<5} in {:?} (ran {}, passed {} vertices)",
            alg.name(),
            outcome.answer,
            outcome.elapsed,
            outcome.stats.algorithm.expect("recorded").name(),
            outcome.stats.passed_vertices
        );
        assert!(outcome.answer, "ada → grace → alan(leads lab) → kurt exists");
    }

    // Options select extras like the witness path.
    let witness = session
        .answer_compiled(&graph, &compiled, Algorithm::UisStar, &opts.clone().with_witness(true))
        .unwrap()
        .witness
        .expect("true answers yield a witness when requested");
    let names: Vec<&str> = witness.vertices().iter().map(|&v| graph.vertex_name(v)).collect();
    println!("witness path: {} (via {})", names.join(" → "), graph.vertex_name(witness.via));
    assert_eq!(graph.vertex_name(witness.via), "alan");

    // Tighten the label constraint: without collaboration edges the lab
    // leader is unreachable.
    let strict = LscrQuery::new(
        query.source,
        query.target,
        graph.label_set(&["mentors"]),
        query.constraint.clone(),
    );
    let strict = engine.compile(&strict).unwrap();
    let outcome = session.answer_compiled(&graph, &strict, Algorithm::Uis, &opts).unwrap();
    println!("mentors-only: {}", outcome.answer);
    assert!(!outcome.answer);
}
