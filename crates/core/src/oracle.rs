//! A brute-force LSCR oracle used as the correctness reference.
//!
//! Decomposes Theorem 2.1 literally: `s ⇝_{L,S} t` iff some vertex `u`
//! satisfying `S` has `s ⇝_L u` and `u ⇝_L t`. It computes the full
//! forward label-reachable set of `s`, the full *backward* label-reachable
//! set of `t`, and `V(S,G)` by brute force, then intersects. Three linear
//! passes — independent of the search machinery under test, which is what
//! makes it a trustworthy oracle for UIS/UIS\*/INS.
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
use kgreach_graph::traverse::EpochMask;
use kgreach_graph::{Graph, LabelSet, VertexId};
use std::collections::VecDeque;

/// Answers `q` by the three-pass decomposition.
pub fn answer(g: &Graph, q: &CompiledLscrQuery) -> QueryOutcome {
    let clock = SearchClock::start_now();
    let mut stats = SearchStats { algorithm: Some(crate::Algorithm::Oracle), ..Default::default() };

    let forward = directional_closure(g, q.source, q.label_constraint, Direction::Forward);
    let backward = directional_closure(g, q.target, q.label_constraint, Direction::Backward);

    let mut answer = false;
    for v in g.vertices() {
        if forward.contains(v) && backward.contains(v) {
            stats.scck_calls += 1;
            if q.constraint.satisfies(g, v) {
                answer = true;
                break;
            }
        }
    }

    QueryOutcome::finished(answer, stats, clock.elapsed())
}

enum Direction {
    Forward,
    Backward,
}

/// Label-constrained closure of `start` in the given direction (contains
/// `start` itself, matching the reflexive-path convention used across the
/// crate: the zero-edge path satisfies any label constraint).
fn directional_closure(g: &Graph, start: VertexId, l: LabelSet, dir: Direction) -> EpochMask {
    let mut mask = EpochMask::new(g.num_vertices());
    let mut queue = VecDeque::new();
    mask.insert(start);
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        let edges = match dir {
            Direction::Forward => g.out_neighbors(u),
            Direction::Backward => g.in_neighbors(u),
        };
        for e in edges {
            if l.contains(e.label) && mask.insert(e.vertex) {
                queue.push_back(e.vertex);
            }
        }
    }
    mask
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
