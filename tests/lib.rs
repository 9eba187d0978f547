//! Shared fixtures and generators for the cross-crate integration tests.

use kgreach::{CompiledLscrQuery, LscrQuery, SubstructureConstraint, Witness};
use kgreach_datagen::{all_lubm_constraints, top_label_set};
use kgreach_graph::{Graph, GraphBuilder, LabelId, LabelSet, UpdateBatch, VertexId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A random edge-labeled digraph with `n` vertices, `m` edges and
/// `labels` labels, deterministically derived from `seed`.
pub fn random_graph(n: usize, m: usize, labels: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    for i in 0..n {
        b.intern_vertex(&format!("n{i}"));
    }
    for _ in 0..m {
        let s = rng.gen_range(0..n) as u32;
        let t = rng.gen_range(0..n) as u32;
        let l = rng.gen_range(0..labels);
        let label = format!("l{l}");
        let li = b.intern_label(&label);
        b.add_edge(VertexId(s), li, VertexId(t));
    }
    b.build().expect("labels fit")
}

/// A random typed graph: like [`random_graph`] plus `rdf:type` edges into
/// `classes` class vertices, so schema-driven machinery (landmark
/// selection, constraint generation) has something to work with.
pub fn random_typed_graph(n: usize, m: usize, labels: usize, classes: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n + classes, m + n);
    for i in 0..n {
        b.intern_vertex(&format!("n{i}"));
    }
    let type_label = b.intern_label("rdf:type");
    for i in 0..n {
        let c = rng.gen_range(0..classes);
        let cv = b.intern_vertex(&format!("C{c}"));
        b.add_edge(VertexId(i as u32), type_label, cv);
    }
    for _ in 0..m {
        let s = rng.gen_range(0..n) as u32;
        let t = rng.gen_range(0..n) as u32;
        let l = rng.gen_range(0..labels);
        let li = b.intern_label(&format!("l{l}"));
        b.add_edge(VertexId(s), li, VertexId(t));
    }
    b.build().expect("labels fit")
}

/// A small LUBM replica shared by the heavier integration tests.
pub fn small_lubm(seed: u64) -> Graph {
    kgreach_datagen::lubm::generate(&kgreach_datagen::LubmConfig {
        universities: 2,
        departments: 4,
        seed,
    })
    .expect("LUBM fits")
}

/// Every `(s, t)` pair of `g` under every label set, with constraint `c`
/// (source-major, then target, then label set).
pub fn all_pairs(g: &Graph, label_sets: &[LabelSet], c: &SubstructureConstraint) -> Vec<LscrQuery> {
    let mut queries = Vec::new();
    for s in g.vertices() {
        for t in g.vertices() {
            for &labels in label_sets {
                queries.push(LscrQuery::new(s, t, labels, c.clone()));
            }
        }
    }
    queries
}

/// `n` seeded draws on a LUBM graph, cycling through S1–S5.
pub fn lubm_draws(g: &Graph, n: usize, seed: u64) -> Vec<LscrQuery> {
    let constraints = all_lubm_constraints();
    let narrow = top_label_set(g, 3);
    let num_labels = g.num_labels();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut label_ids: Vec<u16> = (0..num_labels as u16).collect();
    (0..n)
        .map(|i| {
            let s = VertexId(rng.gen_range(0..g.num_vertices()) as u32);
            let mut t = VertexId(rng.gen_range(0..g.num_vertices()) as u32);
            // 20–80 % of the labels (the paper's §6.1.1 range); every
            // fourth draw uses the narrow top-3 set instead, which is
            // what makes `L` mask-selective on LUBM.
            let share = rng.gen_range(20..=80usize);
            label_ids.shuffle(&mut rng);
            let mut labels: LabelSet = if i % 4 == 3 {
                narrow
            } else {
                label_ids[..(num_labels * share).div_ceil(100)]
                    .iter()
                    .map(|&l| LabelId(l))
                    .collect()
            };
            // Uniform pairs are almost never connected: every other draw
            // takes `t` from a random walk out of `s` and admits the
            // walk's labels, so `s ⇝_L t` holds and `S` decides.
            if i % 2 == 0 {
                t = s;
                for _ in 0..rng.gen_range(1..=8usize) {
                    let Some(e) = g.out_neighbors(t).choose(&mut rng) else { break };
                    labels.insert(e.label);
                    t = e.vertex;
                }
            }
            LscrQuery::new(s, t, labels, constraints[i % constraints.len()].1.clone())
        })
        .collect()
}

/// Checks that `w` certifies `q` on `g`: a path of existing edges with
/// labels in `L` from `s` to `t` (empty only when `s = t`), and `via` is
/// the first vertex on it that satisfies `S`.
pub fn assert_witness(g: &Graph, q: &CompiledLscrQuery, w: &Witness) {
    let vertices = if w.path.is_empty() { vec![q.source] } else { w.vertices() };
    assert_eq!(vertices.first(), Some(&q.source), "witness does not start at s: {w:?}");
    assert_eq!(vertices.last(), Some(&q.target), "witness does not end at t: {w:?}");
    for pair in w.path.windows(2) {
        assert_eq!(pair[0].dst, pair[1].src, "witness edges do not connect: {w:?}");
    }
    for e in &w.path {
        assert!(g.has_edge(e.src, e.label, e.dst), "witness edge {e:?} is not in the graph");
        assert!(q.label_constraint.contains(e.label), "witness edge {e:?} has a label outside L");
    }
    let first = vertices.into_iter().find(|&v| q.constraint.satisfies(g, v));
    assert_eq!(first, Some(w.via), "via is not the first vertex satisfying S: {w:?}");
}

/// A random edit script: seeded ops over a bounded name universe, so
/// inserts collide with existing edges, deletes hit absent edges, and
/// vertices interned mid-script get reused — all the overlay edge cases.
pub fn random_batches(seed: u64, rounds: usize) -> Vec<UpdateBatch> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut batches = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut batch = UpdateBatch::new();
        for _ in 0..rng.gen_range(1..6) {
            let s = format!("n{}", rng.gen_range(0..16));
            let p = format!("l{}", rng.gen_range(0..4));
            let o = format!("n{}", rng.gen_range(0..16));
            if rng.gen_range(0..3) == 0 {
                batch.delete(&s, &p, &o);
            } else {
                batch.insert(&s, &p, &o);
            }
        }
        batches.push(batch);
    }
    batches
}
