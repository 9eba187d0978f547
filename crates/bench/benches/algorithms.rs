//! Functional benchmarks of the three LSCR algorithms (plus `Auto`, the
//! served path) on a fixed LUBM workload — the criterion view of the
//! Figures 10–14 experiment.

use criterion::{black_box, criterion_group, criterion_main, Bencher, BenchmarkId, Criterion};
use kgreach::{Algorithm, CompiledLscrQuery, LscrEngine, QueryOptions, SearchScratch};
use kgreach_datagen::constraints::{s1, s3};
use kgreach_datagen::lubm::{generate, LubmConfig};
use kgreach_datagen::queries::{generate_workload, QueryGenConfig};

fn bench_algorithms(c: &mut Criterion) {
    let engine = LscrEngine::new(
        generate(&LubmConfig { universities: 2, departments: 6, seed: 77 }).unwrap(),
    );
    let graph = engine.graph();
    let g = &*graph;
    let index = engine.local_index();
    let mut scratch = SearchScratch::new(g.num_vertices());
    let opts = QueryOptions::default();
    // The `UIS` rows are the paper's Algorithm 1 — one frontier — as they
    // have been since the first recorded run; the library's default runs
    // beside them as `UIS (default)`.
    let uis_rows = [
        ("UIS", QueryOptions::default().with_one_frontier(true)),
        ("UIS (default)", QueryOptions::default()),
    ];

    // The three most frequent predicates — the label-selective `L` used by
    // the `-narrowL` groups below. High-frequency labels keep the search
    // region meaningful while the label filter rejects most of each
    // vertex's adjacency, which is the workload mask-guided expansion
    // targets.
    let narrow = kgreach_datagen::top_label_set(g, 3);

    for (cname, constraint) in [("S1", s1()), ("S3", s3())] {
        let w = generate_workload(
            g,
            &constraint,
            &QueryGenConfig {
                num_true: 5,
                num_false: 5,
                seed: 3,
                max_attempts: 60_000,
                enforce_difficulty: false,
            },
        );
        let queries: Vec<_> = w
            .true_queries
            .iter()
            .chain(&w.false_queries)
            .map(|gq| gq.query.compile(g).unwrap())
            .collect();

        // Same endpoints and substructure constraints with `L` narrowed to
        // the three hot labels: the label-selective S-workload.
        let narrow_queries: Vec<_> = queries
            .iter()
            .map(|q| {
                let mut q = q.clone();
                q.label_constraint = narrow;
                q
            })
            .collect();
        let mut group = c.benchmark_group(format!("lscr/{cname}-narrowL"));
        group.sample_size(10);
        for (row, opts) in &uis_rows {
            group.bench_function(BenchmarkId::new(*row, narrow_queries.len()), |b| {
                b.iter(|| {
                    for q in &narrow_queries {
                        black_box(kgreach::uis::answer_with(g, q, &mut scratch, opts).answer);
                    }
                })
            });
        }
        group.bench_function(BenchmarkId::new("UIS*", narrow_queries.len()), |b| {
            b.iter(|| {
                for q in &narrow_queries {
                    black_box(kgreach::uis_star::answer_with(g, q, &mut scratch, &opts).answer);
                }
            })
        });
        group.bench_function(BenchmarkId::new("INS", narrow_queries.len()), |b| {
            b.iter(|| {
                for q in &narrow_queries {
                    black_box(kgreach::ins::answer_with(g, q, &index, &mut scratch, &opts).answer);
                }
            })
        });
        group.bench_function(
            BenchmarkId::new("Auto", narrow_queries.len()),
            auto(&engine, &narrow_queries),
        );
        group.finish();

        let mut group = c.benchmark_group(format!("lscr/{cname}"));
        group.sample_size(10);
        for (row, opts) in &uis_rows {
            group.bench_function(BenchmarkId::new(*row, queries.len()), |b| {
                b.iter(|| {
                    for q in &queries {
                        black_box(kgreach::uis::answer_with(g, q, &mut scratch, opts).answer);
                    }
                })
            });
        }
        group.bench_function(BenchmarkId::new("UIS*", queries.len()), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(kgreach::uis_star::answer_with(g, q, &mut scratch, &opts).answer);
                }
            })
        });
        group.bench_function(BenchmarkId::new("INS", queries.len()), |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(kgreach::ins::answer_with(g, q, &index, &mut scratch, &opts).answer);
                }
            })
        });
        group.bench_function(BenchmarkId::new("Auto", queries.len()), auto(&engine, &queries));
        group.finish();
    }
}

/// `Auto` through the full session path — what is served.
/// `check_bench_json` holds this row within 10× of its group's fastest;
/// the forced-kernel rows beside it are reported, not bounded.
fn auto<'a>(
    engine: &'a LscrEngine,
    queries: &'a [CompiledLscrQuery],
) -> impl FnMut(&mut Bencher) + 'a {
    move |b| {
        let mut session = engine.session();
        let (g, opts) = (engine.graph(), QueryOptions::default());
        b.iter(|| {
            for q in queries {
                let out = session.answer_compiled(&g, q, Algorithm::Auto, &opts);
                black_box(out.expect("compiled for this graph").answer);
            }
        })
    }
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
