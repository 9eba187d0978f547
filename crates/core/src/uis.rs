//! UIS — the uninformed search baseline (paper Algorithm 1), run from
//! both ends.
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
//! # Two frontiers
//!
//! Algorithm 1 has no idea where `t` is: on a broad `L` it scans the
//! label-feasible region of `s` until it stumbles on it. The surjection
//! reads the same from `t` as from `s`, so a second side runs the same two
//! cases over the reverse expansion ([`Graph::in_expansion`]) on the
//! session's backward scratch:
//!
//! * `back[u] = F` — `u ⇝_L t` is proved;
//! * `back[u] = T` — `u ⇝_L t` is proved through a vertex satisfying `S`
//!   (`u` and `t` included): a `T` vertex re-marks every non-`T`
//!   in-neighbour `T` and re-pushes it, first contact is `SCck`.
//!
//! Each step pops from the shorter stack (ties go forward), and limits
//! are checked once per expanded vertex on either side.
//!
//! **Meeting rule.** The answer is `true` the moment a vertex is marked on
//! one side that is non-`N` on the other with at least one of its two
//! states `T`: `s ⇝_L u ⇝_L t` holds and a satisfying vertex lies on one
//! of the halves. A meet with both states `F` proves nothing — the halves
//! join into an `L`-path, but no satisfying vertex is known on it — and
//! loses nothing either: whichever side later learns of one re-marks the
//! vertex `T`, and that mark is checked like any other.
//!
//! **An emptied stack is a proof.** A side whose stack empties has
//! computed its closure completely and exactly (`T` on that side is
//! precisely "reachable through a satisfying vertex"), and it never met
//! the other endpoint in state `T` — the forward side marks `t` on the
//! way, and `s` is marked before the backward side starts, so either would
//! have been a meet. The answer is `false` whichever side it is; when it
//! is the backward one (`negative_terminations`), `R_t` is often a handful
//! of vertices where the forward closure is thousands of edges. An
//! interrupted search is reported as interrupted, never as `false`.
//!
//! **Lazy seeding.** Two O(1) mask prechecks run first — no out-label of
//! `s` or no in-label of `t` in `L`, with `s ≠ t`, is `false` outright
//! (`negative_terminations`). The backward side is then seeded
//! (`SCck(t)`) only when it takes its first step, so a query the forward
//! side settles while its stack holds one vertex pays a reset and the two
//! mask loads for the second frontier, nothing more.
//!
//! **Cost.** Alternating by stack length keeps the two sides within one
//! expansion of each other, so the worst case is twice the cheaper of the
//! two closures plus one hub (the last vertex popped may carry any
//! degree). Theorem 3.3's bound holds with the constant doubled:
//! `pushes ≤ 2|V|` per side.
//!
//! **The switch.** [`QueryOptions::one_frontier`] keeps the backward side
//! from ever stepping and skips the mask prechecks: what runs is
//! Algorithm 1 as printed, same marks in the same order. The paper-facing
//! harnesses (Figs. 10–15, the §6.1.1 difficulty filter) run UIS that way.
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

use crate::close::{CloseMap, CloseState};
use crate::kernel::{finish, label_starved};
use crate::query::{
    CompiledLscrQuery, QueryOptions, QueryOutcome, RunLimits, SearchClock, SearchStats,
};
use crate::session::{ScratchParts, SearchScratch};
use kgreach_graph::{Graph, VertexId};

/// One direction of the search: its `close` surjection and its stack.
struct Side<'a> {
    close: &'a mut CloseMap,
    stack: &'a mut Vec<VertexId>,
}

/// What the two directions share.
struct Uis<'a> {
    g: &'a Graph,
    q: &'a CompiledLscrQuery,
    /// One strategy decision for the whole search: mask-guided expansion
    /// only when L is selective enough to skip vertices/runs.
    selective: bool,
    stats: SearchStats,
}

impl Uis<'_> {
    /// `SCck(v, S)` as a `close` state.
    #[inline(always)]
    fn scck(&mut self, v: VertexId) -> CloseState {
        self.stats.scck_calls += 1;
        let (sat, hit) = self.q.constraint.satisfies_cached(self.g, v);
        self.stats.scck_cache_hits += usize::from(hit);
        if sat {
            CloseState::T
        } else {
            CloseState::F
        }
    }

    /// Marks `v` with `state` on `this` side and pushes it; `true` when
    /// the mark decides the query (the meeting rule of the module docs).
    /// `goal` is the other side's endpoint, which counts as met in state
    /// `T` even while that side is unseeded — Algorithm 1 lines 10-11.
    #[inline(always)]
    fn mark(
        &mut self,
        this: &mut Side<'_>,
        v: VertexId,
        state: CloseState,
        other: &CloseMap,
        goal: VertexId,
    ) -> bool {
        this.close.set(v, state);
        this.stack.push(v);
        self.stats.pushes += 1;
        match other.get(v) {
            CloseState::N => state == CloseState::T && v == goal,
            CloseState::F => state == CloseState::T,
            CloseState::T => true,
        }
    }

    /// Algorithm 1 lines 4-11 for one popped vertex of `this` side, over
    /// the out-expansion or (`BACKWARD`) the in-expansion.
    #[inline(always)]
    fn step<const BACKWARD: bool>(
        &mut self,
        this: &mut Side<'_>,
        other: &CloseMap,
        goal: VertexId,
    ) -> bool {
        let u = this.stack.pop().expect("the caller checked the stack is non-empty");
        let u_is_t = this.close.is_t(u);
        let labels = self.q.label_constraint;
        // Flat expansion: one slice scan; under a selective L the
        // incident-label mask skips the vertex outright (empty slice),
        // and the accounting keeps skipped = degree − scanned exact
        // either way.
        let exp = if BACKWARD {
            self.g.in_expansion(u, labels, self.selective)
        } else {
            self.g.out_expansion(u, labels, self.selective)
        };
        self.stats.edges_skipped += exp.degree;
        for e in exp.edges {
            if !labels.contains(e.label) {
                continue;
            }
            self.stats.edges_scanned += 1;
            self.stats.backward_edges_scanned += usize::from(BACKWARD);
            self.stats.edges_skipped -= 1;
            let v = e.vertex;
            let v_state = this.close.get(v);
            let state = if u_is_t && v_state != CloseState::T {
                // Case 1: s ⇝_{L,S} u and (u,l,v) with l ∈ L ⇒ s ⇝_{L,S} v.
                CloseState::T
            } else if v_state == CloseState::N {
                // Case 2: first contact — close[v] ← SCck(v, S).
                self.scck(v)
            } else {
                continue;
            };
            if self.mark(this, v, state, other, goal) {
                return true;
            }
        }
        false
    }

    /// The search proper: `Some(answer)`, or `None` when a limit cut it
    /// short. The sides come by value so that their `&mut` fields reach
    /// the inlined steps as arguments the optimizer may assume distinct:
    /// behind `&mut Side` the one-frontier loop read 7 % slower than the
    /// single loop it replaces, and with `step` left out of line 20 %.
    fn run(
        &mut self,
        mut fwd: Side<'_>,
        mut bwd: Side<'_>,
        limits: RunLimits,
        two_frontiers: bool,
    ) -> Option<bool> {
        let (s, t) = (self.q.source, self.q.target);

        if two_frontiers && label_starved(self.g, s, t, self.q.label_constraint) {
            self.stats.negative_terminations += 1;
            return Some(false);
        }

        // Lines 1-2: stack with s; close[s] ← SCck(s, S). With s = t the
        // zero-edge path answers at once when s satisfies S; otherwise a
        // cycle back to t must be found by the normal search.
        let s_state = self.scck(s);
        if self.mark(&mut fwd, s, s_state, bwd.close, t) {
            return Some(true);
        }

        // Lines 3-11, from whichever end has the shorter stack. Until its
        // first step the backward side is the unseeded t: length 1.
        let mut seeded = false;
        loop {
            if fwd.stack.is_empty() {
                return Some(false);
            }
            if seeded && bwd.stack.is_empty() {
                self.stats.negative_terminations += 1;
                return Some(false);
            }
            if limits.exceeded(self.stats.edges_scanned) {
                return None;
            }
            let back_len = if seeded { bwd.stack.len() } else { 1 };
            let met = if two_frontiers && back_len < fwd.stack.len() {
                if !seeded {
                    seeded = true;
                    let t_state = self.scck(t);
                    if self.mark(&mut bwd, t, t_state, fwd.close, s) {
                        return Some(true);
                    }
                }
                self.step::<true>(&mut bwd, fwd.close, s)
            } else {
                self.step::<false>(&mut fwd, bwd.close, t)
            };
            if met {
                return Some(true);
            }
        }
    }
}

/// Answers `q` with Algorithm 1 run from both ends (see the module docs),
/// reusing the session scratch across calls (reset here). Honors the step
/// budget / timeout in `opts`; `opts.one_frontier` selects the paper's
/// single frontier.
pub fn answer_with(
    g: &Graph,
    q: &CompiledLscrQuery,
    scratch: &mut SearchScratch,
    opts: &QueryOptions,
) -> QueryOutcome {
    let clock = SearchClock::start_now();
    let ScratchParts { close, stack, back, back_stack, .. } = scratch.parts();
    close.reset();
    stack.clear();
    back.reset();
    back_stack.clear();
    let mut search = Uis {
        g,
        q,
        selective: g.expansion_selective(q.label_constraint),
        stats: SearchStats { algorithm: Some(crate::Algorithm::Uis), ..Default::default() },
    };

    let answer = search.run(
        Side { close: &mut *close, stack },
        Side { close: &mut *back, stack: back_stack },
        clock.limits(opts),
        !opts.one_frontier,
    );
    let mut out = finish(answer == Some(true), answer.is_none(), search.stats, close, clock);
    // `finish` counts the forward map; an unseeded backward map adds 0.
    out.stats.passed_vertices += back.passed_vertices();
    out
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
        // Theorem 3.3: pushes ≤ 2|V| — the search-tree bound — per side:
        // one side under the one-frontier switch, two by default.
        let g = figure3();
        let one_frontier = QueryOptions::default().with_one_frontier(true);
        let mut scratch = SearchScratch::new(g.num_vertices());
        for s in ["v0", "v1", "v2", "v3", "v4"] {
            for t in ["v0", "v1", "v2", "v3", "v4"] {
                let q = LscrQuery::new(
                    g.vertex_id(s).unwrap(),
                    g.vertex_id(t).unwrap(),
                    g.label_set(&ALL),
                    s0(),
                )
                .compile(&g)
                .unwrap();
                let out = answer_with(&g, &q, &mut scratch, &one_frontier);
                assert!(out.stats.pushes <= 2 * g.num_vertices(), "{s}->{t} one frontier");
                assert_eq!(out.stats.backward_edges_scanned, 0, "{s}->{t} one frontier");
                let out = answer_with(&g, &q, &mut scratch, &QueryOptions::default());
                assert!(out.stats.pushes <= 2 * 2 * g.num_vertices(), "{s}->{t}");
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
