//! A brute-force LSCR oracle used as the correctness reference.
//!
//! Theorem 2.1: `s ⇝_{L,S} t` iff some vertex `u` satisfying `S` has
//! `s ⇝_L u` and `u ⇝_L t`. The oracle decides it with one breadth-first
//! search over the product of `G` with one bit, `seen` — "the path so far
//! passed a vertex satisfying `S`". It starts at `(s, SCck(s))`; an edge
//! `(u, l, w)` with `l ∈ L` leads from `(u, b)` to `(w, b ∨ SCck(w))`; the
//! answer is whether the goal `(t, true)` is reached. The BFS tree that
//! reaches it is the [`find_witness`](crate::find_witness) path, so the
//! answer and its certificate come from the same search.
//!
//! That search is independent of the machinery it checks, which is what
//! makes it a trustworthy oracle for UIS/UIS\*/INS: it calls plain
//! [`CompiledConstraint::satisfies`](crate::CompiledConstraint::satisfies)
//! with no `SCck` memo, reads no incident-label mask, runs no precheck,
//! never materializes `V(S,G)`, consults no local index and shares no
//! frontier, close map or scratch with the kernels — only `out_neighbors`
//! and two dense arrays of `2·|V|` slots.
//!
//! ```
//! use kgreach::LscrQuery;
//! use kgreach::fixtures::{figure3, s0};
//!
//! let g = figure3();
//! let q = LscrQuery::new(
//!     g.vertex_id("v0").unwrap(),
//!     g.vertex_id("v4").unwrap(),
//!     g.label_set(&["likes", "follows"]),
//!     s0(),
//! );
//! assert!(kgreach::oracle::answer(&g, &q.compile(&g).unwrap()).answer);
//! ```

use crate::query::{CompiledLscrQuery, QueryOutcome, SearchClock, SearchStats};
use crate::witness::Witness;
use kgreach_graph::{Edge, Graph, LabelId, VertexId};
use std::collections::VecDeque;

/// Answers `q` by one BFS over `(vertex, seen)`.
pub fn answer(g: &Graph, q: &CompiledLscrQuery) -> QueryOutcome {
    let clock = SearchClock::start_now();
    let mut stats = SearchStats { algorithm: Some(crate::Algorithm::Oracle), ..Default::default() };
    let answer = search(g, q, &mut stats.scck_calls).is_some();
    QueryOutcome::finished(answer, stats, clock.elapsed())
}

/// The oracle's search: BFS from `(s, SCck(s))` until `(t, true)` is
/// reached, then the tree path back to the root. `via` is the vertex where
/// `seen` turned true. Counts `SCck` calls into `scck_calls`.
pub(crate) fn search(g: &Graph, q: &CompiledLscrQuery, scck_calls: &mut usize) -> Option<Witness> {
    let mut scck = |v: VertexId| {
        *scck_calls += 1;
        q.constraint.satisfies(g, v)
    };
    // State `2·v + seen`. `parent[state]` is the state it was first reached
    // from (`UNREACHED` before that; the root is its own parent) and
    // `label[state]` the label of that edge.
    const UNREACHED: usize = usize::MAX;
    let state = |v: VertexId, seen: bool| 2 * v.index() + usize::from(seen);
    let vertex = |state: usize| VertexId::from_index(state / 2);
    let mut parent = vec![UNREACHED; 2 * g.num_vertices()];
    let mut label = vec![LabelId(0); 2 * g.num_vertices()];
    let root = state(q.source, scck(q.source));
    let goal = state(q.target, true);
    parent[root] = root;
    let mut queue = VecDeque::from([root]);
    while parent[goal] == UNREACHED {
        let from = queue.pop_front()?;
        let seen = from % 2 == 1;
        for e in g.out_neighbors(vertex(from)) {
            if !q.label_constraint.contains(e.label) {
                continue;
            }
            // A reached `(w, false)` means `SCck(w)` is false: no call.
            let w = e.vertex;
            let to = state(w, seen || (parent[state(w, false)] == UNREACHED && scck(w)));
            if parent[to] == UNREACHED {
                (parent[to], label[to]) = (from, e.label);
                queue.push_back(to);
            }
        }
    }
    let (mut path, mut via, mut to) = (Vec::new(), q.source, goal);
    while to != root {
        let from = parent[to];
        path.push(Edge::new(vertex(from), label[to], vertex(to)));
        if from % 2 < to % 2 {
            via = vertex(to);
        }
        to = from;
    }
    path.reverse();
    Some(Witness { path, via })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::SubstructureConstraint;
    use crate::fixtures::figure3;
    use crate::query::LscrQuery;

    fn run(g: &Graph, s: &str, t: &str, labels: &[&str], sparql: &str) -> bool {
        let q = LscrQuery::new(
            g.vertex_id(s).unwrap(),
            g.vertex_id(t).unwrap(),
            g.label_set(labels),
            SubstructureConstraint::parse(sparql).unwrap(),
        );
        answer(g, &q.compile(g).unwrap()).answer
    }

    const S0: &str = "SELECT ?x WHERE { ?x <friendOf> <v3> . <v3> <likes> ?y . }";

    #[test]
    fn paper_running_examples() {
        let g = figure3();
        // §2: given L = {likes, follows}: v0 ⇝ v4 true, v0 ⇝ v3 false.
        assert!(run(&g, "v0", "v4", &["likes", "follows"], S0));
        assert!(!run(&g, "v0", "v3", &["likes", "follows"], S0));
        // §3: L = {likes, hates, friendOf}: v3 ⇝ v4 via recall through v1.
        assert!(run(&g, "v3", "v4", &["likes", "hates", "friendOf"], S0));
    }

    #[test]
    fn substructure_only_examples() {
        let g = figure3();
        let all = ["friendOf", "likes", "advisorOf", "follows", "hates"];
        // §2: v0 ⇝S0 v4, v0 ⇝S0 v3, v3 ⇝S0 v4 (all labels allowed).
        assert!(run(&g, "v0", "v4", &all, S0));
        assert!(run(&g, "v0", "v3", &all, S0));
        assert!(run(&g, "v3", "v4", &all, S0));
    }

    #[test]
    fn label_insufficient_is_false() {
        let g = figure3();
        assert!(!run(&g, "v0", "v4", &["likes"], S0));
    }

    #[test]
    fn unreachable_target_is_false() {
        let g = figure3();
        let all = ["friendOf", "likes", "advisorOf", "follows", "hates"];
        // v4 reaches v1/v3/v4 but never v0.
        assert!(!run(&g, "v4", "v0", &all, S0));
    }

    #[test]
    fn source_equals_target() {
        let g = figure3();
        let all = ["friendOf", "likes", "advisorOf", "follows", "hates"];
        // v1 satisfies S0 and trivially reaches itself.
        assert!(run(&g, "v1", "v1", &all, S0));
        // v0 does not satisfy S0, but the cycle v0→…? v0 has no cycle back:
        // nothing reaches v0, so no satisfying vertex can return to it.
        assert!(!run(&g, "v0", "v0", &all, S0));
        // v4: cycle v4 -hates-> v1 -friendOf-> v3 -likes-> v4 passes v1. ✓
        assert!(run(&g, "v4", "v4", &all, S0));
    }

    #[test]
    fn stats_count_scck() {
        let g = figure3();
        let q = LscrQuery::new(
            g.vertex_id("v0").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.all_labels(),
            SubstructureConstraint::parse(S0).unwrap(),
        );
        let out = answer(&g, &q.compile(&g).unwrap());
        assert!(out.answer);
        assert!(out.stats.scck_calls >= 1);
    }
}
