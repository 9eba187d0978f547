//! Property-based cross-algorithm agreement: on arbitrary random graphs,
//! constraints and queries, UIS ≡ UIS\* ≡ INS ≡ oracle, plus metamorphic
//! monotonicity properties from the problem definition.

use kgreach::Algorithm::{Auto, Ins, Uis, UisStar};
use kgreach::{LocalIndexConfig, LscrQuery, QueryOptions, SubstructureConstraint, VsgOrder};
use kgreach_graph::{LabelSet, VertexId};
use kgreach_integration::matrix::{Form, Matrix, Run};
use kgreach_integration::random_typed_graph;
use proptest::prelude::*;

/// A constraint whose satisfying set is nontrivial on the random typed
/// graphs: members of class `C{c}` with some `l{l}` out-edge.
fn constraint(c: usize, l: usize) -> SubstructureConstraint {
    SubstructureConstraint::parse(&format!(
        "SELECT ?x WHERE {{ ?x <rdf:type> <C{c}> . ?x <l{l}> ?y . }}"
    ))
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn all_algorithms_agree(
        seed in 0u64..5000,
        n in 8usize..40,
        density in 1usize..4,
        s_raw in 0u32..40,
        t_raw in 0u32..40,
        label_bits in 0u64..256,
        class in 0usize..3,
        label in 0usize..4,
    ) {
        let g = random_typed_graph(n, n * density, 4, 3, seed);
        let s = VertexId(s_raw % n as u32);
        let t = VertexId(t_raw % n as u32);
        let labels = LabelSet::from_bits(label_bits).intersection(g.all_labels());
        let q = LscrQuery::new(s, t, labels, constraint(class, label));
        let shuffled = QueryOptions::default().with_vsg_order(VsgOrder::Shuffled(seed));
        for k in [1usize, 4, 16] {
            let index = LocalIndexConfig { num_landmarks: Some(k), seed, ..Default::default() };
            let mut runs = Run::each(&[Ins], &QueryOptions::default(), false);
            if k == 1 {
                runs.extend(Run::each(&[Uis, UisStar], &QueryOptions::default(), false));
                runs.extend(Run::each(&[UisStar], &shuffled, false));
            }
            let m = Matrix::new(g.clone(), Vec::new(), index);
            m.run(std::slice::from_ref(&q), &runs, &[Form::Kernels], |_, _| {});
        }
    }

    #[test]
    fn auto_agrees_with_oracle(
        seed in 0u64..5000,
        n in 8usize..40,
        density in 1usize..4,
        s_raw in 0u32..40,
        t_raw in 0u32..40,
        label_bits in 0u64..256,
        class in 0usize..3,
        label in 0usize..4,
        prebuild_raw in 0u8..2,
    ) {
        // Auto resolves to UIS whether or not the index is prebuilt; the
        // matrix holds its answer to the oracle's and its recorded choice
        // to a concrete algorithm.
        let g = random_typed_graph(n, n * density, 4, 3, seed);
        let s = VertexId(s_raw % n as u32);
        let t = VertexId(t_raw % n as u32);
        let labels = LabelSet::from_bits(label_bits).intersection(g.all_labels());
        let q = LscrQuery::new(s, t, labels, constraint(class, label));
        let prebuild = prebuild_raw == 1;
        let m = Matrix::of(g);
        if prebuild {
            m.engine.local_index();
        }
        let mut ran = None;
        let auto = Run::each(&[Auto], &QueryOptions::default(), false);
        m.run(&[q], &auto, &[Form::Engine], |_, out| ran = out.stats.algorithm);
        if !prebuild {
            prop_assert!(
                m.engine.local_index_if_built().is_none() || ran == Some(Ins),
                "planning alone must not build the index"
            );
        }
    }

    #[test]
    fn enlarging_label_constraint_is_monotone(
        seed in 0u64..2000,
        n in 8usize..30,
        s_raw in 0u32..30,
        t_raw in 0u32..30,
        label_bits in 0u64..16,
        extra_bit in 0usize..4,
    ) {
        // If Q is true under L, it stays true under any L' ⊇ L.
        let g = random_typed_graph(n, n * 3, 4, 3, seed);
        let s = VertexId(s_raw % n as u32);
        let t = VertexId(t_raw % n as u32);
        let small = LabelSet::from_bits(label_bits).intersection(g.all_labels());
        let big = small.with(kgreach_graph::LabelId(extra_bit as u16)).intersection(g.all_labels());
        let c = constraint(0, 0);
        let engine = kgreach::LscrEngine::new(g);
        let small_ans = engine.answer(&LscrQuery::new(s, t, small, c.clone()), Uis).unwrap().answer;
        let big_ans = engine.answer(&LscrQuery::new(s, t, big, c), Uis).unwrap().answer;
        prop_assert!(!small_ans || big_ans, "true under {:?} but false under {:?}", small, big);
    }

    #[test]
    fn adding_edges_is_monotone(
        seed in 0u64..2000,
        n in 8usize..25,
        s_raw in 0u32..25,
        t_raw in 0u32..25,
        extra_src in 0u32..25,
        extra_dst in 0u32..25,
    ) {
        // Adding an edge (with an in-constraint label) never turns a true
        // query false.
        use kgreach_graph::GraphBuilder;
        let base = random_typed_graph(n, n * 2, 3, 2, seed);
        let mut b = GraphBuilder::new();
        for e in base.edges() {
            b.add_triple(
                base.vertex_name(e.src),
                base.label_name(e.label),
                base.vertex_name(e.dst),
            );
        }
        // Preserve vertex count: re-intern all names.
        for v in base.vertices() {
            b.intern_vertex(base.vertex_name(v));
        }
        b.add_triple(
            base.vertex_name(VertexId(extra_src % n as u32)),
            "l0",
            base.vertex_name(VertexId(extra_dst % n as u32)),
        );
        let bigger = b.build().unwrap();

        let c = constraint(0, 0);
        let labels_base = base.all_labels();
        let labels_big = bigger.label_set(
            &labels_base.iter().map(|l| base.label_name(l)).collect::<Vec<_>>(),
        );
        let s_name = base.vertex_name(VertexId(s_raw % n as u32));
        let t_name = base.vertex_name(VertexId(t_raw % n as u32));

        let q1 = LscrQuery::new(
            base.vertex_id(s_name).unwrap(),
            base.vertex_id(t_name).unwrap(),
            labels_base,
            c.clone(),
        );
        let q2 = LscrQuery::new(
            bigger.vertex_id(s_name).unwrap(),
            bigger.vertex_id(t_name).unwrap(),
            labels_big,
            c,
        );
        let e1 = kgreach::LscrEngine::new(base);
        let before = e1.answer(&q1, Uis).unwrap().answer;
        let e2 = kgreach::LscrEngine::new(bigger);
        let after = e2.answer(&q2, Uis).unwrap().answer;
        prop_assert!(!before || after, "adding an edge turned a true query false");
    }

    #[test]
    fn vsg_matches_brute_force(
        seed in 0u64..3000,
        n in 8usize..30,
        class in 0usize..3,
        label in 0usize..4,
    ) {
        let g = random_typed_graph(n, n * 3, 4, 3, seed);
        let c = constraint(class, label);
        let compiled = c.compile(&g).unwrap();
        let via_engine = compiled.satisfying_vertices(&g);
        let brute: Vec<VertexId> =
            g.vertices().filter(|&v| compiled.satisfies(&g, v)).collect();
        prop_assert_eq!(via_engine, brute);
    }

    #[test]
    fn cms_antichain_invariant(
        sets in prop::collection::vec(0u64..1024, 0..24),
    ) {
        // Cms maintains a minimal antichain under arbitrary insertions,
        // and covers() is equivalent to "some inserted set ⊆ query".
        let mut cms = kgreach_graph::Cms::new();
        for &bits in &sets {
            cms.insert(LabelSet::from_bits(bits));
        }
        prop_assert!(cms.is_antichain());
        for probe in 0u64..64 {
            let q = LabelSet::from_bits(probe * 13 % 1024);
            let expected = sets.iter().any(|&b| LabelSet::from_bits(b).is_subset_of(q));
            prop_assert_eq!(cms.covers(q), expected);
        }
    }
}
