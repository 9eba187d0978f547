//! Witness paths: evidence for true LSCR queries.
//!
//! The paper's motivating scenarios (criminal link analysis, suspicious
//! transaction detection — §1) need more than a boolean: investigators
//! want the *path* — the transaction chain and the middleman who satisfies
//! the substructure constraint. A witness is the path the
//! [`oracle`](crate::oracle) found: the branch of its breadth-first tree
//! over `(vertex, seen)` that reached `(t, true)`. Every edge label is in
//! `L`, and `via` is the first vertex on the path that satisfies `S`.
//!
//! The path is a shortest `L`-path from `s` to `t` through a satisfying
//! vertex. Among equally short ones, the BFS picks by discovery order: each
//! vertex's out-edges are scanned in label-sorted order, and the first
//! edge to reach a state wins. A satisfying `s = t` is the empty path.
//!
//! ```
//! use kgreach::{find_witness, LscrQuery};
//! use kgreach::fixtures::{figure3, s0};
//!
//! let g = figure3();
//! let q = LscrQuery::new(
//!     g.vertex_id("v0").unwrap(),
//!     g.vertex_id("v4").unwrap(),
//!     g.label_set(&["likes", "follows"]),
//!     s0(),
//! );
//! let w = find_witness(&g, &q.compile(&g).unwrap()).expect("reachable");
//! assert_eq!(g.vertex_name(w.via), "v2"); // the satisfying vertex on the path
//! ```

use crate::query::CompiledLscrQuery;
use kgreach_graph::{Edge, Graph, LabelSet, VertexId};

/// A witness for a true LSCR query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// The full edge sequence from `s` to `t`.
    pub path: Vec<Edge>,
    /// The first vertex on the path that satisfies the constraint.
    pub via: VertexId,
}

impl Witness {
    /// Vertices along the path, `s` first, `t` last.
    pub fn vertices(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.path.len() + 1);
        if let Some(first) = self.path.first() {
            out.push(first.src);
        }
        out.extend(self.path.iter().map(|e| e.dst));
        out
    }

    /// The set of labels used by the path.
    pub fn labels(&self) -> LabelSet {
        self.path.iter().map(|e| e.label).collect()
    }
}

/// Finds a witness path for `q`, or `None` when the query is false.
pub fn find_witness(g: &Graph, q: &CompiledLscrQuery) -> Option<Witness> {
    crate::oracle::search(g, q, &mut 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{answer, figure3, s0};
    use crate::query::LscrQuery;

    fn witness_for(g: &Graph, s: &str, t: &str, labels: &[&str]) -> Option<Witness> {
        let q = LscrQuery::new(
            g.vertex_id(s).unwrap(),
            g.vertex_id(t).unwrap(),
            g.label_set(labels),
            s0(),
        )
        .compile(g)
        .unwrap();
        find_witness(g, &q)
    }

    #[test]
    fn witness_for_paper_example() {
        // §2: L = {likes, follows}: v0 ⇝ v4 via v2 (satisfies S0).
        let g = figure3();
        let w = witness_for(&g, "v0", "v4", &["likes", "follows"]).expect("query is true");
        assert_eq!(g.vertex_name(w.via), "v2");
        let names: Vec<&str> = w.vertices().iter().map(|&v| g.vertex_name(v)).collect();
        assert_eq!(names, vec!["v0", "v2", "v4"]);
        assert!(w.labels().is_subset_of(g.label_set(&["likes", "follows"])));
    }

    #[test]
    fn witness_uses_recall_path() {
        // §3: v3 → v4 under {likes, hates, friendOf} must loop through v1.
        let g = figure3();
        let w = witness_for(&g, "v3", "v4", &["likes", "hates", "friendOf"]).unwrap();
        assert_eq!(g.vertex_name(w.via), "v1");
        let names: Vec<&str> = w.vertices().iter().map(|&v| g.vertex_name(v)).collect();
        assert_eq!(names, vec!["v3", "v4", "v1", "v3", "v4"]);
    }

    #[test]
    fn no_witness_for_false_queries() {
        let g = figure3();
        assert!(witness_for(&g, "v0", "v3", &["likes", "follows"]).is_none());
        assert!(witness_for(&g, "v4", "v0", &["likes", "follows", "friendOf"]).is_none());
    }

    #[test]
    fn witness_path_edges_exist_and_connect() {
        let g = figure3();
        let all = ["friendOf", "likes", "advisorOf", "follows", "hates"];
        for (s, t) in [("v0", "v4"), ("v0", "v3"), ("v3", "v4")] {
            let w = witness_for(&g, s, t, &all).unwrap_or_else(|| panic!("{s}->{t} true"));
            // Every edge exists in the graph and consecutive edges connect.
            for pair in w.path.windows(2) {
                assert_eq!(pair[0].dst, pair[1].src);
            }
            for e in &w.path {
                assert!(g.has_edge(e.src, e.label, e.dst), "missing edge {e:?}");
            }
            assert_eq!(w.path.first().unwrap().src, g.vertex_id(s).unwrap());
            assert_eq!(w.path.last().unwrap().dst, g.vertex_id(t).unwrap());
            // The via vertex is on the path and satisfies S0.
            assert!(w.vertices().contains(&w.via));
        }
    }

    #[test]
    fn witness_agrees_with_engine_answer() {
        // find_witness is Some ⟺ the query is true, across many queries.
        let engine = crate::LscrEngine::new(figure3());
        let g = engine.graph();
        let all = ["friendOf", "likes", "advisorOf", "follows", "hates"];
        let sets = [all.as_slice(), &["likes", "follows"], &["friendOf"], &[]];
        for s in ["v0", "v1", "v2", "v3", "v4"] {
            for t in ["v0", "v1", "v2", "v3", "v4"] {
                if s == t {
                    continue; // zero-edge witnesses are represented as empty paths
                }
                for labels in &sets {
                    let q = LscrQuery::new(
                        g.vertex_id(s).unwrap(),
                        g.vertex_id(t).unwrap(),
                        g.label_set(labels),
                        s0(),
                    );
                    let expected = answer(&engine, &q, crate::Algorithm::Uis).unwrap().answer;
                    let w = find_witness(&g, &q.compile(&g).unwrap());
                    assert_eq!(w.is_some(), expected, "{s}->{t} {labels:?}");
                }
            }
        }
    }
}
