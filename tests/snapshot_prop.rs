//! Property tests for the binary snapshot subsystem: round-trips are
//! *identity* — not merely "equivalent" — for arbitrary generated graphs
//! and local indexes, and engines restored from snapshots answer exactly
//! like the oracle on the original graph. The text triple format gets the
//! same treatment under hostile vertex/label names.

use kgreach::{LocalIndex, LocalIndexConfig, LscrQuery, QueryOptions, SubstructureConstraint};
use kgreach_graph::snapshot::{read_graph_snapshot, write_graph_snapshot};
use kgreach_graph::{io, GraphBuilder, LabelId, LabelSet, VertexId};
use kgreach_integration::matrix::{Form, Matrix, Run, ALGORITHMS};
use kgreach_integration::random_typed_graph;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A constraint whose satisfying set is nontrivial on the random typed
/// graphs (same shape as the agreement suite).
fn constraint(c: usize, l: usize) -> SubstructureConstraint {
    SubstructureConstraint::parse(&format!(
        "SELECT ?x WHERE {{ ?x <rdf:type> <C{c}> . ?x <l{l}> ?y . }}"
    ))
    .unwrap()
}

/// A name drawn from a palette that deliberately includes every character
/// the text format has to escape: spaces, quotes, angle brackets,
/// backslashes and line breaks.
fn hostile_name(rng: &mut SmallRng) -> String {
    const PALETTE: &[char] =
        &['a', 'b', 'x', '0', ':', '/', ' ', '"', '<', '>', '\\', '\n', '\r', '\t', 'é', '𝓛'];
    let len = rng.gen_range(1usize..10);
    (0..len).map(|_| PALETTE[rng.gen_range(0..PALETTE.len())]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    #[test]
    fn graph_snapshot_roundtrip_is_identity(
        seed in 0u64..5000,
        n in 2usize..48,
        density in 1usize..4,
    ) {
        let g = random_typed_graph(n, n * density, 4, 3, seed);
        let mut bytes = Vec::new();
        write_graph_snapshot(&g, &mut bytes).unwrap();
        let g2 = read_graph_snapshot(&bytes[..]).unwrap();

        prop_assert_eq!(g2.fingerprint(), g.fingerprint());
        // Dictionaries: identical names at identical ids.
        for v in g.vertices() {
            prop_assert_eq!(g2.vertex_name(v), g.vertex_name(v));
        }
        for l in 0..g.num_labels() as u16 {
            prop_assert_eq!(g2.label_name(LabelId(l)), g.label_name(LabelId(l)));
        }
        // Edge lists: identical in both directions, including order.
        let edges: Vec<_> = g.edges().collect();
        let edges2: Vec<_> = g2.edges().collect();
        prop_assert_eq!(edges, edges2);
        for v in g.vertices() {
            prop_assert_eq!(g2.in_neighbors(v), g.in_neighbors(v));
        }
        // Schema layer.
        prop_assert_eq!(g2.schema().type_label, g.schema().type_label);
        prop_assert_eq!(g2.schema().num_classes(), g.schema().num_classes());
        for (class, instances) in g.schema().iter_classes() {
            prop_assert_eq!(g2.schema().instances_of(class), instances);
        }
        // Serialization is canonical: re-saving reproduces the bytes.
        let mut bytes2 = Vec::new();
        write_graph_snapshot(&g2, &mut bytes2).unwrap();
        prop_assert_eq!(bytes, bytes2);
    }

    #[test]
    fn index_snapshot_roundtrip_is_identity(
        seed in 0u64..5000,
        n in 2usize..40,
        density in 1usize..4,
        k in 1usize..8,
    ) {
        let g = random_typed_graph(n, n * density, 4, 3, seed);
        let idx = LocalIndex::build(&g, &LocalIndexConfig { num_landmarks: Some(k), seed, ..Default::default() });
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        let loaded = LocalIndex::load(&bytes[..]).unwrap();

        prop_assert_eq!(loaded.graph_fingerprint(), idx.graph_fingerprint());
        prop_assert_eq!(loaded.partition().landmarks(), idx.partition().landmarks());
        for v in g.vertices() {
            prop_assert_eq!(loaded.partition().af(v), idx.partition().af(v));
        }
        for ord in 0..idx.partition().num_landmarks() as u32 {
            let (a, b) = (idx.entry(ord), loaded.entry(ord));
            let a_ii: Vec<_> = a.ii_pairs().map(|(v, c)| (v, c.clone())).collect();
            let b_ii: Vec<_> = b.ii_pairs().map(|(v, c)| (v, c.clone())).collect();
            prop_assert_eq!(a_ii, b_ii);
            let a_eit: Vec<_> = a.eit_pairs().collect();
            let b_eit: Vec<_> = b.eit_pairs().collect();
            prop_assert_eq!(a_eit, b_eit);
        }
        for a in 0..idx.partition().num_landmarks() as u32 {
            for b in 0..idx.partition().num_landmarks() as u32 {
                prop_assert_eq!(loaded.correlation(a, b), idx.correlation(a, b));
            }
        }
        // Canonical bytes.
        let mut bytes2 = Vec::new();
        loaded.save(&mut bytes2).unwrap();
        prop_assert_eq!(bytes, bytes2);
    }

    #[test]
    fn snapshot_engine_agrees_with_oracle(
        seed in 0u64..5000,
        n in 8usize..40,
        density in 1usize..4,
        s_raw in 0u32..40,
        t_raw in 0u32..40,
        label_bits in 0u64..256,
        class in 0usize..3,
        label in 0usize..4,
    ) {
        // Answers through a snapshot-restored engine (graph + index, no
        // rebuild) must match the oracle on the *original* graph: the
        // matrix's snapshot form, with the index built before the save.
        let m = Matrix::of(random_typed_graph(n, n * density, 4, 3, seed));
        m.live.local_index();
        let (s, t) = (VertexId(s_raw % n as u32), VertexId(t_raw % n as u32));
        let labels = LabelSet::from_bits(label_bits).intersection(m.graph.all_labels());
        let q = LscrQuery::new(s, t, labels, constraint(class, label));
        let runs = Run::each(&ALGORITHMS, &QueryOptions::default(), false);
        m.run(&[q], &runs, &[Form::Snapshot], |_, _| {});
    }

    #[test]
    fn text_format_roundtrips_hostile_names(
        seed in 0u64..100_000,
        num_edges in 1usize..20,
    ) {
        // Arbitrary names over the escape-hostile palette: the text
        // fallback format must lose nothing either.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut names = Vec::new();
        for _ in 0..rng.gen_range(2usize..8) {
            names.push(hostile_name(&mut rng));
        }
        let mut labels = Vec::new();
        for _ in 0..rng.gen_range(1usize..4) {
            labels.push(hostile_name(&mut rng));
        }
        let mut b = GraphBuilder::new();
        for _ in 0..num_edges {
            let s = &names[rng.gen_range(0..names.len())];
            let p = &labels[rng.gen_range(0..labels.len())];
            let o = &names[rng.gen_range(0..names.len())];
            b.add_triple(s, p, o);
        }
        let g = b.build().unwrap();
        let mut text = Vec::new();
        io::write_graph(&g, &mut text).unwrap();
        let g2 = io::read_graph(&text[..]).unwrap();
        prop_assert_eq!(g2.num_vertices(), g.num_vertices());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        prop_assert_eq!(g2.num_labels(), g.num_labels());
        for e in g.edges() {
            let s = g2.vertex_id(g.vertex_name(e.src));
            let l = g2.label_id(g.label_name(e.label));
            let t = g2.vertex_id(g.vertex_name(e.dst));
            prop_assert!(s.is_some() && l.is_some() && t.is_some(), "names lost in text form");
            prop_assert!(
                g2.has_edge(s.unwrap(), l.unwrap(), t.unwrap()),
                "edge lost in text form"
            );
        }
    }
}
