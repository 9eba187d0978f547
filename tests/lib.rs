//! Shared fixtures and generators for the cross-crate integration tests.
//! The differential matrix — the case generator every oracle comparison
//! runs through — is [`matrix`].

use kgreach_graph::{Graph, GraphBuilder, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub mod matrix;

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
