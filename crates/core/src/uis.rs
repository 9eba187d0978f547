//! UIS — the uninformed search baseline (paper Algorithm 1).
//!
//! A stack search over the label-feasible region of `s` with the three-state
//! `close` surjection giving it *recall*: once a vertex `u` with
//! `close[u] = T` is found (a satisfying vertex lies on some path to `u`),
//! previously explored `F` vertices are re-explored in state `T` (case 1),
//! so each vertex is expanded at most twice (Definition 3.2's search tree:
//! each graph vertex maps to at most the two nodes `v_F` and `v_T`).
//!
//! Per-vertex substructure checks use `SCck` directly — no `V(S,G)`
//! materialization and no index — which is what makes UIS applicable to
//! arbitrary edge-labeled graphs, and also what its
//! `O(|V|·(|V_S|+|E_S|+|E_?|) + |E|)` time bound (Theorem 3.3) pays for.
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
//! let out = kgreach::uis::answer(&g, &q.compile(&g).unwrap());
//! assert!(out.answer);
//! assert!(out.stats.scck_calls > 0); // per-vertex SCck, no V(S,G)
//! ```

use crate::close::CloseState;
use crate::kernel::finish;
use crate::query::{CompiledLscrQuery, QueryOptions, QueryOutcome, SearchClock, SearchStats};
use crate::session::{ScratchParts, SearchScratch};
use kgreach_graph::Graph;

/// Answers `q` with Algorithm 1, reusing the session scratch across calls
/// (reset here). Honors the step budget / timeout in `opts`.
pub fn answer_with(
    g: &Graph,
    q: &CompiledLscrQuery,
    scratch: &mut SearchScratch,
    opts: &QueryOptions,
) -> QueryOutcome {
    let clock = SearchClock::start_now();
    let limits = clock.limits(opts);
    let mut stats = SearchStats { algorithm: Some(crate::Algorithm::Uis), ..Default::default() };
    let ScratchParts { close, stack, .. } = scratch.parts();
    close.reset();
    stack.clear();

    let s = q.source;
    let t = q.target;
    let labels = q.label_constraint;
    // One strategy decision for the whole search: mask-guided expansion
    // only when L is selective enough to skip vertices/runs.
    let selective = g.expansion_selective(labels);

    // Line 1-2: stack with s; close[s] ← SCck(s, S).
    stack.push(s);
    stats.pushes += 1;
    stats.scck_calls += 1;
    let (s_sat, s_hit) = q.constraint.satisfies_cached(g, s);
    stats.scck_cache_hits += usize::from(s_hit);
    let s_state = if s_sat { CloseState::T } else { CloseState::F };
    close.set(s, s_state);

    // s = t: the zero-edge path answers immediately when s satisfies S;
    // otherwise a cycle back to t must be found by the normal search.
    if s == t && s_state == CloseState::T {
        return finish(true, false, stats, close, clock);
    }

    // Lines 3-11.
    while let Some(u) = stack.pop() {
        if limits.exceeded(stats.edges_scanned) {
            return finish(false, true, stats, close, clock);
        }
        let u_is_t = close.is_t(u);
        // Flat expansion: one slice scan; under a selective L the
        // incident-label mask skips the vertex outright (empty slice),
        // and the accounting keeps skipped = degree − scanned exact
        // either way.
        let exp = g.out_expansion(u, labels, selective);
        stats.edges_skipped += exp.degree;
        for e in exp.edges {
            if !labels.contains(e.label) {
                continue;
            }
            stats.edges_scanned += 1;
            stats.edges_skipped -= 1;
            let v = e.vertex;
            let v_state = close.get(v);
            let explored = if u_is_t && v_state != CloseState::T {
                // Case 1: s ⇝_{L,S} u and (u,l,v) with l ∈ L ⇒ s ⇝_{L,S} v.
                close.set(v, CloseState::T);
                stack.push(v);
                stats.pushes += 1;
                true
            } else if v_state == CloseState::N {
                // Case 2: first contact — close[v] ← SCck(v, S).
                stats.scck_calls += 1;
                let (sat, hit) = q.constraint.satisfies_cached(g, v);
                stats.scck_cache_hits += usize::from(hit);
                close.set(v, if sat { CloseState::T } else { CloseState::F });
                stack.push(v);
                stats.pushes += 1;
                true
            } else {
                false
            };
            // Lines 10-11: report as soon as t is proved in state T.
            if explored && v == t && close.is_t(v) {
                return finish(true, false, stats, close, clock);
            }
        }
    }

    finish(false, false, stats, close, clock)
}

/// Answers `q` with freshly allocated scratch and default options.
pub fn answer(g: &Graph, q: &CompiledLscrQuery) -> QueryOutcome {
    let mut scratch = SearchScratch::new(g.num_vertices());
    answer_with(g, q, &mut scratch, &QueryOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::SubstructureConstraint;
    use crate::fixtures::{figure3, s0};
    use crate::oracle;
    use crate::query::LscrQuery;
    use kgreach_graph::GraphBuilder;

    fn run(g: &Graph, s: &str, t: &str, labels: &[&str]) -> QueryOutcome {
        let q = LscrQuery::new(
            g.vertex_id(s).unwrap(),
            g.vertex_id(t).unwrap(),
            g.label_set(labels),
            s0(),
        );
        answer(g, &q.compile(g).unwrap())
    }

    const ALL: [&str; 5] = ["friendOf", "likes", "advisorOf", "follows", "hates"];

    #[test]
    fn paper_section2_examples() {
        let g = figure3();
        assert!(run(&g, "v0", "v4", &["likes", "follows"]).answer);
        assert!(!run(&g, "v0", "v3", &["likes", "follows"]).answer);
    }

    #[test]
    fn paper_section3_recall_example() {
        // L = {likes, hates, friendOf}: v3 ⇝ v4 requires walking
        // v3→v4→v1→v3→v4 — the recall capability of case 1.
        let g = figure3();
        let out = run(&g, "v3", "v4", &["likes", "hates", "friendOf"]);
        assert!(out.answer);
    }

    #[test]
    fn substructure_only_reachability() {
        let g = figure3();
        assert!(run(&g, "v0", "v4", &ALL).answer);
        assert!(run(&g, "v0", "v3", &ALL).answer);
        assert!(run(&g, "v3", "v4", &ALL).answer);
    }

    #[test]
    fn false_when_labels_insufficient() {
        let g = figure3();
        assert!(!run(&g, "v0", "v4", &["likes"]).answer);
    }

    #[test]
    fn false_when_target_unreachable() {
        let g = figure3();
        assert!(!run(&g, "v4", "v0", &ALL).answer);
    }

    #[test]
    fn source_equals_target_cases() {
        let g = figure3();
        assert!(run(&g, "v1", "v1", &ALL).answer); // v1 satisfies S0
        assert!(!run(&g, "v0", "v0", &ALL).answer); // no cycle back to v0
        assert!(run(&g, "v4", "v4", &ALL).answer); // cycle through v1
    }

    #[test]
    fn stats_populated() {
        let g = figure3();
        let out = run(&g, "v0", "v4", &ALL);
        assert!(out.stats.passed_vertices > 0);
        assert!(out.stats.scck_calls > 0);
        assert!(out.stats.edges_scanned > 0);
        assert!(out.stats.pushes > 0);
        assert!(out.stats.vsg_size.is_none()); // UIS never materializes V(S,G)
    }

    #[test]
    fn each_vertex_expanded_at_most_twice() {
        // Theorem 3.3: pushes ≤ 2|V| — the search-tree bound.
        let g = figure3();
        for s in ["v0", "v1", "v2", "v3", "v4"] {
            for t in ["v0", "v1", "v2", "v3", "v4"] {
                let out = run(&g, s, t, &ALL);
                assert!(out.stats.pushes <= 2 * g.num_vertices(), "{s}->{t}");
            }
        }
    }

    #[test]
    fn agrees_with_oracle_on_figure3() {
        let g = figure3();
        let label_sets: Vec<Vec<&str>> = vec![
            ALL.to_vec(),
            vec!["likes", "follows"],
            vec!["likes", "hates", "friendOf"],
            vec!["friendOf"],
            vec![],
        ];
        for s in ["v0", "v1", "v2", "v3", "v4"] {
            for t in ["v0", "v1", "v2", "v3", "v4"] {
                for ls in &label_sets {
                    let q = LscrQuery::new(
                        g.vertex_id(s).unwrap(),
                        g.vertex_id(t).unwrap(),
                        g.label_set(ls),
                        s0(),
                    );
                    let cq = q.compile(&g).unwrap();
                    assert_eq!(
                        answer(&g, &cq).answer,
                        oracle::answer(&g, &cq).answer,
                        "disagreement on {s}->{t} with {ls:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_label_constraint() {
        let g = figure3();
        // No edges usable: only s = t with satisfying s can be true.
        assert!(!run(&g, "v0", "v4", &[]).answer);
        assert!(run(&g, "v1", "v1", &[]).answer);
    }

    #[test]
    fn satisfying_source_propagates_t() {
        // s itself satisfies S: everything reachable under L is T.
        let mut b = GraphBuilder::new();
        b.add_triple("sat", "marked", "anchor");
        b.add_triple("sat", "p", "m");
        b.add_triple("m", "p", "t");
        let g = b.build().unwrap();
        let c =
            SubstructureConstraint::parse("SELECT ?x WHERE { ?x <marked> <anchor> . }").unwrap();
        let q = LscrQuery::new(
            g.vertex_id("sat").unwrap(),
            g.vertex_id("t").unwrap(),
            g.label_set(&["p"]),
            c,
        );
        let out = answer(&g, &q.compile(&g).unwrap());
        assert!(out.answer);
    }

    #[test]
    fn scratch_reuse_across_queries() {
        let g = figure3();
        let mut scratch = SearchScratch::new(g.num_vertices());
        let opts = QueryOptions::default();
        let q1 = LscrQuery::new(
            g.vertex_id("v0").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.all_labels(),
            s0(),
        )
        .compile(&g)
        .unwrap();
        let q2 = LscrQuery::new(
            g.vertex_id("v4").unwrap(),
            g.vertex_id("v0").unwrap(),
            g.all_labels(),
            s0(),
        )
        .compile(&g)
        .unwrap();
        assert!(answer_with(&g, &q1, &mut scratch, &opts).answer);
        assert!(!answer_with(&g, &q2, &mut scratch, &opts).answer);
        assert!(answer_with(&g, &q1, &mut scratch, &opts).answer); // stale state cleared
    }

    #[test]
    fn step_budget_interrupts_without_wrong_answers() {
        let g = figure3();
        let q = LscrQuery::new(
            g.vertex_id("v0").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.label_set(&ALL),
            s0(),
        )
        .compile(&g)
        .unwrap();
        let mut scratch = SearchScratch::new(g.num_vertices());
        // Budget 0: interrupted immediately after the first expansion
        // round, answer unproven.
        let out = answer_with(&g, &q, &mut scratch, &QueryOptions::default().with_step_budget(0));
        assert!(out.interrupted);
        assert!(!out.answer);
        // A generous budget finds the true answer uninterrupted.
        let out =
            answer_with(&g, &q, &mut scratch, &QueryOptions::default().with_step_budget(10_000));
        assert!(!out.interrupted);
        assert!(out.answer);
        assert_eq!(out.stats.algorithm, Some(crate::Algorithm::Uis));
    }
}
