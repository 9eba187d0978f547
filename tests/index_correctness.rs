//! Index-structure correctness across crates: the local index (built, and
//! patched across an update script) against brute-force CMS and the
//! oracle, and every LCR baseline against the full transitive closure on
//! shared random graphs.

use kgreach::{
    ins, oracle, LocalIndex, LocalIndexConfig, QueryOptions, SearchScratch, SubstructureConstraint,
};
use kgreach_graph::{Cms, LabelSet, VertexId};
use kgreach_integration::matrix::{all_pairs, random_batches};
use kgreach_integration::{random_graph, random_typed_graph};
use kgreach_lcr::{
    Budget, FullTransitiveClosure, LandmarkConfig, LandmarkIndex, SamplingTreeIndex,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Brute-force CMS from `s` restricted to vertices whose partition
/// ordinal is `ord` (mirrors Definition 5.1's `M(u, v | F(u))`).
fn brute_cms_in_partition(
    g: &kgreach_graph::Graph,
    index: &LocalIndex,
    s: VertexId,
    ord: u32,
) -> std::collections::BTreeMap<VertexId, Cms> {
    let mut out: std::collections::BTreeMap<VertexId, Cms> = Default::default();
    // Label-set BFS with antichain dedup (the same fixpoint the index
    // computes, implemented independently with a different queue order).
    let mut stack = vec![(s, LabelSet::EMPTY)];
    let mut seen: std::collections::BTreeMap<VertexId, Cms> = Default::default();
    while let Some((v, l)) = stack.pop() {
        let fresh =
            if v == s && l.is_empty() { true } else { seen.entry(v).or_default().insert(l) };
        if !fresh {
            continue;
        }
        if v != s || !l.is_empty() {
            out.entry(v).or_default().insert(l);
        }
        for e in g.out_neighbors(v) {
            if index.partition().af(e.vertex) == Some(ord) {
                stack.push((e.vertex, l.with(e.label)));
            }
        }
    }
    out
}

/// Every landmark's `II` entry of `index` equals the brute-force CMS on `g`.
fn assert_ii_matches_brute_force(g: &kgreach_graph::Graph, index: &LocalIndex, ctx: &str) {
    for ord in 0..index.partition().num_landmarks() as u32 {
        let lm = index.partition().landmark(ord);
        let brute = brute_cms_in_partition(g, index, lm, ord);
        let entry = index.entry(ord);
        assert_eq!(entry.num_ii(), brute.len(), "{ctx} ord {ord}: II size mismatch");
        for (v, cms) in &brute {
            let indexed = entry
                .ii_cms(*v)
                .unwrap_or_else(|| panic!("{ctx} ord {ord}: missing II entry for {v}"));
            let a: Vec<LabelSet> = indexed.iter().collect();
            let b: Vec<LabelSet> = cms.iter().collect();
            assert_eq!(a, b, "{ctx} ord {ord}: CMS mismatch at {v}");
        }
    }
}

#[test]
fn local_index_ii_matches_brute_force_on_random_graphs() {
    for seed in 0..6 {
        let g = random_typed_graph(40, 140, 4, 3, seed);
        let index = LocalIndex::build(
            &g,
            &LocalIndexConfig { num_landmarks: Some(4), seed, ..Default::default() },
        );
        assert_ii_matches_brute_force(&g, &index, &format!("seed {seed}"));
    }
}

/// `LocalIndex::patched` across a random update script: after every batch
/// each `II` entry equals the brute-force CMS on the updated graph, and INS
/// over the patched index answers every pair as the oracle does.
#[test]
fn patched_index_matches_brute_force_and_the_oracle() {
    let constraint =
        SubstructureConstraint::parse("SELECT ?x WHERE { ?x <rdf:type> <C0> . }").unwrap();
    for seed in 0..4 {
        let mut g = random_typed_graph(16, 48, 4, 2, seed);
        let config = LocalIndexConfig { num_landmarks: Some(4), seed, ..Default::default() };
        let mut index = LocalIndex::build(&g, &config);
        for (round, batch) in random_batches(seed ^ 0x9a7c, 6).iter().enumerate() {
            let summary = g.apply_update(batch).unwrap();
            // A budget of every partition always repairs, never rebuilds.
            let (patched, repaired) =
                index.patched(&g, &summary.touched_sources, 1.0).expect("within budget");
            let ctx = format!("seed {seed} round {round}");
            assert!(repaired <= summary.touched_sources.len(), "{ctx}: {repaired} repaired");
            index = patched;
            assert_eq!(index.graph_fingerprint(), g.fingerprint());
            assert_ii_matches_brute_force(&g, &index, &ctx);
            let half: LabelSet = g.all_labels().iter().step_by(2).collect();
            let mut scratch = SearchScratch::new(g.num_vertices());
            for q in all_pairs(&g, &[g.all_labels(), half], &constraint) {
                let cq = q.compile(&g).unwrap();
                let want = oracle::answer(&g, &cq).answer;
                let out = ins::answer_with(&g, &cq, &index, &mut scratch, &QueryOptions::default());
                assert_eq!(out.answer, want, "{ctx}: INS over the patched index, {q:?}");
            }
        }
    }
}

#[test]
fn eit_entries_satisfy_theorem_5_1() {
    // For every (L, V) pair in EIT[u] and every v ∈ V: u ⇝_L v must hold
    // in the full graph (Theorem 5.1's soundness direction).
    use kgreach_graph::traverse::lcr_reachable;
    for seed in 0..6 {
        let g = random_typed_graph(40, 140, 4, 3, seed);
        let index = LocalIndex::build(
            &g,
            &LocalIndexConfig { num_landmarks: Some(4), seed, ..Default::default() },
        );
        for ord in 0..index.partition().num_landmarks() as u32 {
            let lm = index.partition().landmark(ord);
            for (l, exits) in index.entry(ord).eit_pairs() {
                for &v in exits {
                    assert!(
                        lcr_reachable(&g, lm, v, l),
                        "seed {seed}: EIT claims {lm} ⇝_{l:?} {v} but it does not hold"
                    );
                }
            }
        }
    }
}

#[test]
fn all_lcr_indexes_match_full_tc() {
    for seed in 0..4 {
        let g = random_graph(28, 84, 4, seed);
        let tc = FullTransitiveClosure::build(&g, Budget::unlimited()).unwrap();
        let tree = SamplingTreeIndex::build(&g, Budget::unlimited()).unwrap();
        let landmark = LandmarkIndex::build(
            &g,
            &LandmarkConfig { num_landmarks: Some(6), b: 3 },
            Budget::unlimited(),
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xAA);
        for _ in 0..250 {
            let s = VertexId(rng.gen_range(0..28));
            let t = VertexId(rng.gen_range(0..28));
            let l = LabelSet::from_bits(rng.gen_range(0..16));
            let expected = tc.reaches(s, t, l);
            assert_eq!(tree.reaches(s, t, l), expected, "sampling-tree {s}->{t} {l:?}");
            assert_eq!(landmark.reaches(&g, s, t, l), expected, "landmark {s}->{t} {l:?}");
        }
    }
}

#[test]
fn partition_covers_reachable_region() {
    // Every vertex reachable from some landmark is assigned a partition,
    // and every assigned vertex is reachable from its landmark.
    use kgreach_graph::traverse::reachable_set;
    let g = random_typed_graph(50, 150, 4, 3, 9);
    let index = LocalIndex::build(
        &g,
        &LocalIndexConfig { num_landmarks: Some(5), seed: 9, ..Default::default() },
    );
    let part = index.partition();
    let mut reachable_from_any = std::collections::BTreeSet::new();
    for &lm in part.landmarks() {
        for v in reachable_set(&g, lm) {
            reachable_from_any.insert(v);
        }
    }
    for v in g.vertices() {
        match part.af(v) {
            Some(ord) => {
                let lm = part.landmark(ord);
                assert!(
                    reachable_set(&g, lm).contains(&v),
                    "{v} assigned to {lm}'s partition but unreachable from it"
                );
            }
            None => {
                assert!(
                    !reachable_from_any.contains(&v),
                    "{v} reachable from a landmark but unassigned"
                );
            }
        }
    }
}

#[test]
fn index_build_deterministic_and_bounded() {
    let g = random_typed_graph(60, 180, 5, 4, 3);
    let cfg = LocalIndexConfig { num_landmarks: Some(8), seed: 42, ..Default::default() };
    let a = LocalIndex::build(&g, &cfg);
    let b = LocalIndex::build(&g, &cfg);
    assert_eq!(a.partition().landmarks(), b.partition().landmarks());
    assert_eq!(a.stats().ii_pairs, b.stats().ii_pairs);
    assert_eq!(a.stats().eit_pairs, b.stats().eit_pairs);
    // II never indexes more pairs than (partition size)² total.
    let assigned = a.stats().assigned_vertices;
    assert!(a.stats().ii_pairs <= assigned * assigned);
}
