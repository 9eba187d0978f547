//! Index-construction benchmarks and two design ablations:
//!
//! * **landmark count** — the paper fixes `k = log|V|·√|V|`; sweep k/4,
//!   k, 4k to show the indexing-cost/pruning trade-off;
//! * **landmark selection** — schema-guided (paper §5.1.2) vs
//!   highest-degree (the traditional strategy it argues against).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kgreach::{default_num_landmarks, select_landmarks_by_degree, LocalIndex, LocalIndexConfig};
use kgreach_datagen::lubm::{generate, LubmConfig};
use kgreach_lcr::{Budget, SamplingTreeIndex};

fn bench_local_index_build(c: &mut Criterion) {
    let g = generate(&LubmConfig { universities: 2, departments: 6, seed: 5 }).unwrap();
    let k = default_num_landmarks(g.num_vertices());

    let mut group = c.benchmark_group("index/local_build");
    group.sample_size(10);
    for (label, count) in [("k/4", k / 4), ("k", k), ("4k", 4 * k)] {
        group.bench_function(BenchmarkId::new("landmarks", label), |b| {
            b.iter(|| {
                let idx = LocalIndex::build(
                    &g,
                    &LocalIndexConfig {
                        num_landmarks: Some(count.max(1)),
                        seed: 5,
                        ..Default::default()
                    },
                );
                black_box(idx.stats().ii_pairs)
            })
        });
    }
    group.finish();
}

fn bench_landmark_selection_ablation(c: &mut Criterion) {
    let g = generate(&LubmConfig { universities: 2, departments: 6, seed: 6 }).unwrap();
    let k = default_num_landmarks(g.num_vertices());

    let mut group = c.benchmark_group("index/selection_ablation");
    group.sample_size(10);
    group.bench_function("schema_guided", |b| {
        b.iter(|| {
            let idx = LocalIndex::build(
                &g,
                &LocalIndexConfig { num_landmarks: Some(k), seed: 6, ..Default::default() },
            );
            black_box(idx.stats().ii_pairs)
        })
    });
    group.bench_function("highest_degree", |b| {
        b.iter(|| {
            let landmarks = select_landmarks_by_degree(&g, k);
            let idx = LocalIndex::build_with_landmarks(&g, landmarks);
            black_box(idx.stats().ii_pairs)
        })
    });
    group.finish();
}

fn bench_baseline_indexes(c: &mut Criterion) {
    // Small graph: the baselines are the expensive comparators.
    let g = generate(&LubmConfig { universities: 1, departments: 2, seed: 7 }).unwrap();
    let mut group = c.benchmark_group("index/baselines");
    group.sample_size(10);
    group.bench_function("sampling_tree", |b| {
        b.iter(|| {
            let idx = SamplingTreeIndex::build(&g, Budget::unlimited()).unwrap();
            black_box(idx.stored_pairs)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_local_index_build,
    bench_landmark_selection_ablation,
    bench_baseline_indexes
);
criterion_main!(benches);
