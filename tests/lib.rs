//! Shared fixtures and generators for the cross-crate integration tests.
//! The differential matrix — the case generator every oracle comparison
//! runs through — is [`matrix`].

use kgreach_datagen::{all_lubm_constraints, lubm, top_label_set, LubmConfig};
use kgreach_graph::{Graph, GraphBuilder, VertexId};
use kgreach_serve::Json;
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

/// The five `/query` bodies the allocation budget and the decoder sweeps
/// share, on the LUBM graph they are drawn from: S1–S5 in the
/// `wire-closed` shape (vertex 0 to vertex 1 under the three most frequent
/// labels, the constraint's canonical text, `"algorithm":"auto"`).
pub fn s1_s5_wire_bodies() -> (Graph, Vec<(&'static str, String)>) {
    let g = lubm::generate(&LubmConfig::sized(2000, 105)).expect("LUBM fits");
    let labels: Vec<Json> =
        top_label_set(&g, 3).iter().map(|l| Json::str(g.label_name(l))).collect();
    let bodies = all_lubm_constraints()
        .into_iter()
        .map(|(name, c)| {
            let body = Json::Obj(vec![
                ("source".into(), Json::str(g.vertex_name(VertexId(0)))),
                ("target".into(), Json::str(g.vertex_name(VertexId(1)))),
                ("labels".into(), Json::Arr(labels.clone())),
                ("constraint".into(), Json::str(c.sparql_text())),
                ("algorithm".into(), Json::str("auto")),
            ]);
            (name, body.to_string())
        })
        .collect();
    (g, bodies)
}
