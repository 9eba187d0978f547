//! UIS — the uninformed search baseline (paper Algorithm 1), run from
//! both ends and from `V(S,G)`.
//!
//! A stack search over the label-feasible region of `s` with the three-state
//! `close` surjection giving it *recall*: once a vertex `u` with
//! `close[u] = T` is found (a satisfying vertex lies on some path to `u`),
//! previously explored `F` vertices are re-explored in state `T` (case 1),
//! so each vertex is expanded at most twice (Definition 3.2's search tree:
//! each graph vertex maps to at most the two nodes `v_F` and `v_T`).
//!
//! Per-vertex substructure checks use `SCck` directly — no index — which
//! is what makes UIS applicable to arbitrary edge-labeled graphs, and also
//! what its `O(|V|·(|V_S|+|E_S|+|E_?|) + |E|)` time bound (Theorem 3.3)
//! pays for.
//!
//! # Four sides
//!
//! Algorithm 1 has no idea where `t` is: on a broad `L` it scans the
//! label-feasible region of `s` until it stumbles on it. The search runs
//! up to four sides on the session scratch, each a stack:
//!
//! * the **forward** side — Algorithm 1 itself, `close[u] = F` for
//!   `s ⇝_L u`, `T` for `s ⇝_{L,S} u`;
//! * the **backward** side — the same two cases over the reverse
//!   expansion ([`Graph::in_expansion`]): `back[u] = F` for `u ⇝_L t`, `T`
//!   for `u ⇝_L t` through a vertex satisfying `S` (`u` and `t` included);
//! * the **backward candidate** side, seeded with every `u ∈ V(S,G)`: it
//!   holds `x` with origin `u` once `x ⇝_L u` is proved;
//! * the **forward candidate** side, seeded likewise: it holds `x` with
//!   origin `u` once `u ⇝_L x` is proved.
//!
//! Each step pops from the shortest stack (ties go forward, then backward,
//! then to the candidate sides), and limits are checked once per expanded
//! vertex on any side. Theorem 2.1 is what the candidate sides read
//! directly: the answer is `true` iff `s ⇝_L u ⇝_L t` for some
//! `u ∈ V(S,G)`.
//!
//! **Meeting rule.** The answer is `true` the moment a vertex is marked on
//! one endpoint side that is non-`N` on the other with at least one of its
//! two states `T`: `s ⇝_L u ⇝_L t` holds and a satisfying vertex lies on
//! one of the halves. A meet with both states `F` proves nothing — the
//! halves join into an `L`-path, but no satisfying vertex is known on it —
//! and loses nothing either: whichever side later learns of one re-marks
//! the vertex `T`, and that mark is checked like any other.
//!
//! **Candidate rule.** A vertex `x` the forward side holds and the
//! backward candidate side holds with origin `u` proves `s ⇝_L x ⇝_L u`,
//! and `u` satisfies `S`: `s ⇝_{L,S} u`. So `u` is marked `T` on the
//! forward side and pushed — whichever of the two marks of `x` comes
//! second applies the rule. The backward side does the same with the
//! forward candidate side (`u ⇝_L x ⇝_L t`, so `u ⇝_L t` through `u`
//! itself). The mark is an ordinary mark, checked by the meeting rule; it
//! only makes a side learn sooner what its own closure would prove.
//!
//! **An emptied endpoint stack is a proof.** An endpoint side whose stack
//! empties has computed its closure completely and exactly: every mark it
//! made, the candidate rule's included, is a true fact about that closure,
//! and every pushed vertex was expanded in its final state, so `T` on that
//! side is precisely "reachable through a satisfying vertex". It never met
//! the other endpoint in state `T` — the forward side marks `t` on the
//! way, and `s` is marked before the backward side starts, so either would
//! have been a meet. The answer is `false` whichever side it is; when it
//! is the backward one (`negative_terminations`), `R_t` is often a handful
//! of vertices where the forward closure is thousands of edges. A
//! candidate side that empties just stops stepping. An interrupted search
//! is reported as interrupted, never as `false`.
//!
//! **Lazy seeding.** Two O(1) mask prechecks run first — no out-label of
//! `s` or no in-label of `t` in `L`, with `s ≠ t`, is `false` outright
//! (`negative_terminations`). The backward side is then seeded
//! (`SCck(t)`) only when it takes its first step: until then it counts as
//! a stack of length 1. Each candidate side counts as `|V(S,G)|` long
//! until seeded — exact from the plan's memo once some query materialised
//! it, the schema estimate (`estimate_candidates`) until then — and both
//! are seeded together, materialising `V(S,G)` through the plan's memo,
//! when one would step. So the rule that seeds the backward side needs no
//! threshold for the candidate sides: a constraint with tens of thousands
//! of candidates never seeds them on a search that settles sooner, and one
//! with a single candidate seeds them as soon as both endpoint stacks hold
//! two vertices. A seeded empty `V(S,G)` is `false` at once
//! (`negative_terminations`).
//!
//! **Cost.** Alternating by stack length keeps the sides within one
//! expansion of each other, so the worst case is a small multiple of the
//! cheapest closure plus one hub (the last vertex popped may carry any
//! degree). Theorem 3.3's bound holds per side: `pushes ≤ 2|V|` on each
//! endpoint side, and `≤ |V|` on each candidate side, which holds a vertex
//! once. Candidate-side edges count in `edges_scanned` (the backward
//! candidate side's in `backward_edges_scanned` too), candidate-held
//! vertices in `passed_vertices`, and `vsg_size` is `Some` exactly when the
//! candidate sides seeded; they call no `SCck`.
//!
//! **The switch.** [`QueryOptions::one_frontier`] keeps the backward and
//! candidate sides from ever stepping and skips the mask prechecks: what
//! runs is Algorithm 1 as printed, same marks in the same order. The
//! paper-facing harnesses (Figs. 10–15, the §6.1.1 difficulty filter) run
//! UIS that way.
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
//! assert!(out.stats.scck_calls > 0); // per-vertex SCck
//! assert!(out.stats.vsg_size.is_none()); // settled before V(S,G) was due
//! ```

use crate::close::{CloseMap, CloseState, OriginMap};
use crate::kernel::{finish, label_starved};
use crate::query::{
    CompiledLscrQuery, QueryOptions, QueryOutcome, RunLimits, SearchClock, SearchStats,
};
use crate::session::{ScratchParts, SearchScratch};
use kgreach_graph::{Graph, VertexId};

/// One endpoint side of the search: its `close` surjection and its stack.
struct Side<'a> {
    close: &'a mut CloseMap,
    stack: &'a mut Vec<VertexId>,
}

/// One candidate side: the `V(S,G)` vertex each held vertex was reached
/// from, and its stack.
struct Candidates<'a> {
    origin: &'a mut OriginMap,
    stack: &'a mut Vec<VertexId>,
}

impl Candidates<'_> {
    /// The stack length the shortest-stack rule reads: an emptied side is
    /// done and never steps again.
    fn stack_len(&self) -> usize {
        if self.stack.is_empty() {
            usize::MAX
        } else {
            self.stack.len()
        }
    }
}

/// What the four sides share.
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

    /// Marks `v` with `state` on `this` endpoint side and pushes it; `true`
    /// when the mark decides the query (the meeting rule of the module
    /// docs). `goal` is the other side's endpoint, which counts as met in
    /// state `T` even while that side is unseeded — Algorithm 1 lines
    /// 10-11.
    #[inline(always)]
    fn mark_one(
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

    /// [`mark_one`](Self::mark_one), then — once the candidate sides are
    /// seeded (`feeder` is the opposite one) — the candidate rule: when
    /// `feeder` holds `v`, its origin `u` is joined to this side's endpoint
    /// through `v`, and `u` satisfies `S`, so `u` is marked `T` and pushed.
    #[inline(always)]
    fn mark(
        &mut self,
        this: &mut Side<'_>,
        v: VertexId,
        state: CloseState,
        other: &CloseMap,
        goal: VertexId,
        feeder: Option<&OriginMap>,
    ) -> bool {
        if self.mark_one(this, v, state, other, goal) {
            return true;
        }
        match feeder.and_then(|f| f.get(v)) {
            Some(u) if !this.close.is_t(u) => self.mark_one(this, u, CloseState::T, other, goal),
            _ => false,
        }
    }

    /// Algorithm 1 lines 4-11 for one popped vertex of `this` endpoint
    /// side, over the out-expansion or (`BACKWARD`) the in-expansion; marks
    /// as [`mark`](Self::mark) does.
    #[inline(always)]
    fn step<const BACKWARD: bool>(
        &mut self,
        this: &mut Side<'_>,
        other: &CloseMap,
        goal: VertexId,
        feeder: Option<&OriginMap>,
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
            if self.mark(this, v, state, other, goal, feeder) {
                return true;
            }
        }
        false
    }

    /// One popped vertex of a candidate side: every unheld neighbour under
    /// `L` — in-neighbours on the backward candidate side (`BACKWARD`),
    /// out-neighbours on the forward one — inherits the popped vertex's
    /// origin `u`. A neighbour `endpoint` already holds joins `u` to that
    /// side's endpoint, and `u` is marked `T` there.
    #[inline(always)]
    fn candidate_step<const BACKWARD: bool>(
        &mut self,
        this: &mut Candidates<'_>,
        endpoint: &mut Side<'_>,
        other: &CloseMap,
        goal: VertexId,
    ) -> bool {
        let x = this.stack.pop().expect("the caller checked the stack is non-empty");
        let u = this.origin.get(x).expect("a stacked vertex has an origin");
        let labels = self.q.label_constraint;
        let exp = if BACKWARD {
            self.g.in_expansion(x, labels, self.selective)
        } else {
            self.g.out_expansion(x, labels, self.selective)
        };
        self.stats.edges_skipped += exp.degree;
        for e in exp.edges {
            if !labels.contains(e.label) {
                continue;
            }
            self.stats.edges_scanned += 1;
            self.stats.backward_edges_scanned += usize::from(BACKWARD);
            self.stats.edges_skipped -= 1;
            let y = e.vertex;
            if this.origin.get(y).is_some() {
                continue;
            }
            this.origin.set(y, u);
            this.stack.push(y);
            self.stats.pushes += 1;
            if !endpoint.close.is_n(y)
                && !endpoint.close.is_t(u)
                && self.mark_one(endpoint, u, CloseState::T, other, goal)
            {
                return true;
            }
        }
        false
    }

    /// Seeds the backward side with `t` before its first step —
    /// `back[t] ← SCck(t, S)`; `true` when that mark decides the query.
    fn seed_backward(
        &mut self,
        bwd: &mut Side<'_>,
        fwd: &CloseMap,
        feeder: Option<&OriginMap>,
    ) -> bool {
        let (s, t) = (self.q.source, self.q.target);
        let t_state = self.scck(t);
        self.mark(bwd, t, t_state, fwd, s, feeder)
    }

    /// Seeds both candidate sides with every `u ∈ V(S,G)`, each its own
    /// origin. An endpoint side that already holds a candidate holds it
    /// `T` (its `SCck` is true), so seeding has no candidate rule to apply.
    fn seed_candidates(&mut self, bc: &mut Candidates<'_>, fc: &mut Candidates<'_>) {
        let vsg = self.q.constraint.satisfying_vertices_cached(self.g);
        self.stats.vsg_size = Some(vsg.len());
        bc.origin.ensure_len(self.g.num_vertices());
        fc.origin.ensure_len(self.g.num_vertices());
        for &u in vsg.iter() {
            bc.origin.set(u, u);
            fc.origin.set(u, u);
        }
        bc.stack.extend_from_slice(&vsg);
        fc.stack.extend_from_slice(&vsg);
        self.stats.pushes += 2 * vsg.len();
    }

    /// The stop rules, checked before each step: an emptied endpoint stack
    /// is a proof of `false` (the backward one once seeded), an exceeded
    /// limit an interruption. `None` while the search goes on.
    #[inline(always)]
    fn stopped(
        &mut self,
        fwd: &Side<'_>,
        bwd: &Side<'_>,
        back_seeded: bool,
        limits: &RunLimits,
    ) -> Option<Option<bool>> {
        if fwd.stack.is_empty() {
            return Some(Some(false));
        }
        if back_seeded && bwd.stack.is_empty() {
            self.stats.negative_terminations += 1;
            return Some(Some(false));
        }
        limits.exceeded(self.stats.edges_scanned).then_some(None)
    }

    /// `|V(S,G)|` as an unseeded candidate side's stack length: exact from
    /// the plan's memo once materialised, the schema estimate until then.
    fn unseeded_candidates_len(&self) -> usize {
        let c = &self.q.constraint;
        c.vsg_len_if_materialized()
            .unwrap_or_else(|| c.estimate_candidates(self.g, self.g.label_histogram()))
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
        mut bc: Candidates<'_>,
        mut fc: Candidates<'_>,
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
        if self.mark_one(&mut fwd, s, s_state, bwd.close, t) {
            return Some(true);
        }

        // Lines 3-11, from whichever side has the shortest stack; ties go
        // forward, then backward, then to the candidate sides (backward one
        // first). Until its first step the backward side is the unseeded
        // t, length 1, and until they seed the candidate sides are the
        // unseeded V(S,G), `unseeded` long.
        let (mut back_seeded, mut fed) = (false, false);
        let unseeded = if two_frontiers { self.unseeded_candidates_len() } else { usize::MAX };
        loop {
            if let Some(stop) = self.stopped(&fwd, &bwd, back_seeded, &limits) {
                return stop;
            }
            let back_len = if back_seeded { bwd.stack.len() } else { 1 };
            let cand_len = if fed { bc.stack_len().min(fc.stack_len()) } else { unseeded };
            let met = if !two_frontiers || fwd.stack.len() <= back_len.min(cand_len) {
                self.step::<false>(&mut fwd, bwd.close, t, fed.then_some(&*bc.origin))
            } else if back_len <= cand_len {
                let feeder = fed.then_some(&*fc.origin);
                if !std::mem::replace(&mut back_seeded, true)
                    && self.seed_backward(&mut bwd, fwd.close, feeder)
                {
                    return Some(true);
                }
                self.step::<true>(&mut bwd, fwd.close, s, feeder)
            } else if !std::mem::replace(&mut fed, true) {
                self.seed_candidates(&mut bc, &mut fc);
                if bc.stack.is_empty() {
                    // V(S,G) = ∅: no path passes a satisfying vertex.
                    self.stats.negative_terminations += 1;
                    return Some(false);
                }
                false
            } else if bc.stack_len() <= fc.stack_len() {
                self.candidate_step::<true>(&mut bc, &mut fwd, bwd.close, t)
            } else {
                self.candidate_step::<false>(&mut fc, &mut bwd, fwd.close, s)
            };
            if met {
                return Some(true);
            }
        }
    }
}

/// Answers `q` with Algorithm 1 run from both ends and from `V(S,G)` (see
/// the module docs), reusing the session scratch across calls (reset
/// here). Honors the step budget / timeout in `opts`; `opts.one_frontier`
/// selects the paper's single frontier.
pub fn answer_with(
    g: &Graph,
    q: &CompiledLscrQuery,
    scratch: &mut SearchScratch,
    opts: &QueryOptions,
) -> QueryOutcome {
    let clock = SearchClock::start_now();
    let ScratchParts {
        close,
        stack,
        back,
        back_stack,
        vsg_back,
        vsg_back_stack,
        vsg_fwd,
        vsg_fwd_stack,
        ..
    } = scratch.parts();
    close.reset();
    stack.clear();
    back.reset();
    back_stack.clear();
    vsg_back.reset();
    vsg_back_stack.clear();
    vsg_fwd.reset();
    vsg_fwd_stack.clear();
    let mut search = Uis {
        g,
        q,
        selective: g.expansion_selective(q.label_constraint),
        stats: SearchStats { algorithm: Some(crate::Algorithm::Uis), ..Default::default() },
    };

    let answer = search.run(
        Side { close: &mut *close, stack },
        Side { close: &mut *back, stack: back_stack },
        Candidates { origin: &mut *vsg_back, stack: vsg_back_stack },
        Candidates { origin: &mut *vsg_fwd, stack: vsg_fwd_stack },
        clock.limits(opts),
        !opts.one_frontier,
    );
    let mut out = finish(answer == Some(true), answer.is_none(), search.stats, close, clock);
    // `finish` counts the forward map; an unseeded map adds 0.
    out.stats.passed_vertices +=
        back.passed_vertices() + vsg_back.passed_vertices() + vsg_fwd.passed_vertices();
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
        assert!(out.stats.vsg_size.is_none()); // settled before V(S,G) was due
    }

    #[test]
    fn each_vertex_expanded_at_most_twice() {
        // Theorem 3.3: pushes ≤ 2|V| — the search-tree bound — per
        // endpoint side: one side under the one-frontier switch, two by
        // default, plus ≤ |V| on each candidate side once they seed.
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
                let candidates = if out.stats.vsg_size.is_some() { 2 } else { 0 };
                let bound = (2 * 2 + candidates) * g.num_vertices();
                assert!(out.stats.pushes <= bound, "{s}->{t}");
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
    fn candidate_sides_meet_at_a_midway_satisfying_vertex() {
        // s = c0 → c1 → … → c20 = t, and only c10 satisfies S. Each end
        // also carries three decoy chains (out of s, into t) that the
        // endpoint sides explore before the path.
        let mut b = GraphBuilder::new();
        let c = |i: usize| format!("c{i}");
        for i in 0..20 {
            b.add_triple(&c(i), "p", &c(i + 1));
        }
        for d in 0..3 {
            b.add_triple(&c(0), "p", &format!("out{d}_0"));
            b.add_triple(&format!("in{d}_0"), "p", &c(20));
            for j in 0..30 {
                b.add_triple(&format!("out{d}_{j}"), "p", &format!("out{d}_{}", j + 1));
                b.add_triple(&format!("in{d}_{}", j + 1), "p", &format!("in{d}_{j}"));
            }
        }
        b.add_triple(&c(10), "mark", "h");
        b.add_triple("h", "tag", "anchor");
        let g = b.build().unwrap();
        let (s, t) = (g.vertex_id("c0").unwrap(), g.vertex_id("c20").unwrap());
        let answer = |sparql: &str| {
            let constraint = SubstructureConstraint::parse(sparql).unwrap();
            let q = LscrQuery::new(s, t, g.label_set(&["p"]), constraint);
            answer(&g, &q.compile(&g).unwrap())
        };
        // One candidate, and the schema says so: the candidate sides seed.
        let seeded = answer("SELECT ?x WHERE { ?x <mark> <h> . }");
        // The same V(S,G) = {c10} under a pattern no statistic bounds: they
        // count as |V| long and never step — two endpoint sides alone.
        let endpoints = answer("SELECT ?x WHERE { ?x ?p ?y . ?y <tag> <anchor> . }");
        assert!(seeded.answer && endpoints.answer);
        assert_eq!(seeded.stats.vsg_size, Some(1));
        assert_eq!(endpoints.stats.vsg_size, None);
        assert!(
            seeded.stats.edges_scanned < endpoints.stats.edges_scanned,
            "{:?} against {:?}",
            seeded.stats,
            endpoints.stats
        );
    }

    #[test]
    fn empty_seeded_candidates_answer_false_at_once() {
        // An unsatisfiable constraint estimates 0 candidates: the candidate
        // sides seed before anything else steps, and V(S,G) = ∅ settles it.
        let g = figure3();
        let c = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <likes> <ghost> . }").unwrap();
        let q = LscrQuery::new(
            g.vertex_id("v0").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.all_labels(),
            c,
        );
        let out = answer(&g, &q.compile(&g).unwrap());
        assert!(!out.answer && !out.interrupted);
        assert_eq!(out.stats.vsg_size, Some(0));
        assert_eq!(out.stats.edges_scanned, 0);
        assert_eq!(out.stats.negative_terminations, 1);
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
