//! Shared fixtures: the paper's Figure 3 running example.
//!
//! Exposed publicly so integration tests, examples and benches across the
//! workspace can exercise the exact worked examples from the paper.

use crate::constraint::SubstructureConstraint;
use kgreach_graph::{Graph, GraphBuilder};

/// The Figure 3(a) running-example graph `G0`.
///
/// Edges are reconstructed so that *every* worked example in the paper
/// holds exactly:
/// `M(v0,v3) = {{friendOf}}` (two friendOf hops via v1),
/// `M(v0,v4) = {{friendOf,likes}, {advisorOf,follows}, {likes,follows}}`
/// (and nothing else — in particular no `{friendOf,follows}` path),
/// `V(S0,G0) = {v1, v2}`, the §2 examples under `L = {likes, follows}`,
/// and the §3 recall path
/// `<v3, likes, v4, hates, v1, friendOf, v3, likes, v4>`.
pub fn figure3() -> Graph {
    let mut b = GraphBuilder::new();
    for (s, p, o) in [
        ("v0", "friendOf", "v1"),
        ("v0", "likes", "v2"),
        ("v0", "advisorOf", "v2"),
        ("v1", "friendOf", "v3"),
        ("v2", "friendOf", "v3"),
        ("v2", "follows", "v4"),
        ("v3", "likes", "v4"),
        ("v4", "hates", "v1"),
    ] {
        b.add_triple(s, p, o);
    }
    b.build().expect("figure-3 fixture builds")
}

/// The Figure 3(b) substructure constraint `S0 = (?x, {v3}, {},
/// {(?x, friendOf, v3), (v3, likes, ?y)})` in SPARQL form.
pub fn s0() -> SubstructureConstraint {
    SubstructureConstraint::parse("SELECT ?x WHERE { ?x <friendOf> <v3> . <v3> <likes> ?y . }")
        .expect("S0 parses")
}

/// `s` to `t` under every label of `g`, constrained by [`s0`].
#[cfg(test)]
pub(crate) fn all_labels_query(g: &Graph, s: &str, t: &str) -> crate::LscrQuery {
    crate::LscrQuery::new(g.vertex_id(s).unwrap(), g.vertex_id(t).unwrap(), g.all_labels(), s0())
}

/// `query` answered by `algorithm` under default options on one pin of
/// `engine`'s graph: compiled through its plans, then answered on a
/// session of its own.
#[cfg(test)]
pub(crate) fn answer(
    engine: &crate::LscrEngine,
    query: &crate::LscrQuery,
    algorithm: crate::Algorithm,
) -> Result<crate::QueryOutcome, crate::QueryError> {
    let (g, compiled) = engine.compile_pinned(query)?;
    engine.session().answer_compiled(&g, &compiled, algorithm, &crate::QueryOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_matches_paper_counts() {
        let g = figure3();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.num_labels(), 5);
    }

    #[test]
    fn fixture_matches_paper_cms_examples() {
        // M(v0, v3) = {{friendOf}} and M(v0, v4) = three exact sets —
        // verified by brute-force path enumeration.
        let g = figure3();
        let v0 = g.vertex_id("v0").unwrap();
        let v3 = g.vertex_id("v3").unwrap();
        let v4 = g.vertex_id("v4").unwrap();
        let mut cms3 = kgreach_graph::Cms::new();
        let mut cms4 = kgreach_graph::Cms::new();
        let mut stack = vec![(v0, kgreach_graph::LabelSet::EMPTY, 0usize)];
        while let Some((v, l, d)) = stack.pop() {
            if d > 6 {
                continue;
            }
            for e in g.out_neighbors(v) {
                let l2 = l.with(e.label);
                if e.vertex == v3 {
                    cms3.insert(l2);
                }
                if e.vertex == v4 {
                    cms4.insert(l2);
                }
                stack.push((e.vertex, l2, d + 1));
            }
        }
        assert_eq!(cms3.len(), 1);
        assert!(cms3.covers(g.label_set(&["friendOf"])));
        assert_eq!(cms4.len(), 3);
        assert!(cms4.covers(g.label_set(&["friendOf", "likes"])));
        assert!(cms4.covers(g.label_set(&["advisorOf", "follows"])));
        assert!(cms4.covers(g.label_set(&["likes", "follows"])));
        assert!(!cms4.covers(g.label_set(&["friendOf", "follows"])));
    }

    #[test]
    fn s0_selects_v1_v2() {
        let g = figure3();
        let c = s0().compile(&g).unwrap();
        let names: Vec<&str> =
            c.satisfying_vertices(&g).iter().map(|&v| g.vertex_name(v)).collect();
        assert_eq!(names, vec!["v1", "v2"]);
    }
}
