//! SPARQL-engine benchmarks on the D5' LUBM replica (`lubm-d5`, the graph
//! `kgbench` runs on): the two operations the LSCR algorithms lean on —
//! `SCck` (per-vertex satisfaction) and `V(S,G)` materialization — plus the
//! plan compilation that decides what both cost, and the parse of the
//! constraint's text (lex, parse, canonical text) that every `/query`
//! pays before the plan cache is even asked. All four are *cold*:
//! nothing here touches the per-constraint memos, so the rows are what a
//! plan-cache miss or a post-update query pays.
//!
//! Numbers are recorded in `bench-results/BENCH_sparql.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kgreach::SubstructureConstraint;
use kgreach_bench::{build_lubm, lubm_datasets};
use kgreach_datagen::constraints::all_lubm_constraints;

/// The constraint shape that held 85 % of `constraint-churn`'s window: a
/// 20k-instance class beside a ~500-member department.
fn type_and_member() -> SubstructureConstraint {
    SubstructureConstraint::parse(
        "SELECT ?x WHERE { ?x <rdf:type> <ub:UndergraduateStudent> . \
         <Department0.University0> <ub:hasMember> ?x . }",
    )
    .expect("type-and-member shape parses")
}

fn bench_sparql(c: &mut Criterion) {
    let g = build_lubm(&lubm_datasets(1.0)[5]);
    // SCck over a fixed slice of vertices (mix of hits and misses).
    let probes: Vec<_> = g.vertices().step_by(97).collect();

    let mut constraints = all_lubm_constraints();
    constraints.push(("type-member", type_and_member()));
    for (name, constraint) in constraints {
        let compiled = constraint.compile(&g).unwrap();
        assert!(!compiled.is_unsatisfiable(), "{name} resolves on lubm-d5");
        let mut group = c.benchmark_group(format!("sparql/{name}"));
        group.sample_size(10);
        group.bench_function("vsg", |b| {
            b.iter(|| black_box(compiled.satisfying_vertices(&g)).len())
        });
        group.bench_function("scck_probe", |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for &v in &probes {
                    hits += compiled.satisfies(&g, v) as usize;
                }
                black_box(hits)
            })
        });
        group.bench_function("compile", |b| b.iter(|| black_box(constraint.compile(&g)).is_ok()));
        let text = constraint.sparql_text();
        group.bench_function("parse", |b| {
            b.iter(|| black_box(SubstructureConstraint::parse(black_box(text))).is_ok())
        });
        group.finish();
    }
}

criterion_group!(benches, bench_sparql);
criterion_main!(benches);
