//! UIS\* — the improved uninformed search (paper Algorithm 2).
//!
//! Instead of probing every visited vertex with `SCck`, UIS\* materializes
//! `V(S,G)` once (through the SPARQL engine) and reduces the LSCR query to
//! a sequence of label-constrained reachability checks
//! `s ⇝_L v` / `v ⇝_L t` for `v ∈ V(S,G)`, run by the shared function
//! `LCS(s*, t*, L, B)` over one **global stack** and one `close` map:
//!
//! * `B = F` invocations explore the still-unexplored (`N`) region
//!   reachable from `s` — across all invocations they amount to a single
//!   traversal (Theorem 4.1);
//! * `B = T` invocations re-explore from a satisfying vertex, upgrading
//!   `F` vertices to `T` — again each vertex is upgraded at most once.
//!
//! Total work is `O(|V| + |E|)` (Theorem 4.5) — but the paper's evaluation
//! shows the *order* in which `V(S,G)` is processed dominates real
//! performance (§6: UIS\* often loses to plain UIS because the set is
//! unordered and the search keeps "falling into bad directions"; INS fixes
//! exactly this). [`VsgOrder::Shuffled`] reproduces that unordered behaviour.
//!
//! Only the global stack and the `LCS` body live in this module. The
//! skeleton around them — seeding, the mask precheck and the candidate
//! loop — is shared with INS and documented in the crate-private
//! `kernel` module (`crates/core/src/kernel.rs`; see also
//! ARCHITECTURE.md, "Query lifecycle").
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
//! let out = kgreach::uis_star::answer(&g, &q.compile(&g).unwrap());
//! assert!(out.answer);
//! assert_eq!(out.stats.vsg_size, Some(2)); // V(S0, G0) = {v1, v2}
//! ```

use crate::close::CloseState;
use crate::engine::Algorithm;
use crate::kernel::{Frontier, Search};
use crate::query::{CompiledLscrQuery, QueryOptions, QueryOutcome, SearchClock, VsgOrder};
use crate::session::SearchScratch;
use kgreach_graph::{Graph, VertexId};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Answers `q` with freshly allocated scratch and default options
/// (ascending `V(S,G)` order).
pub fn answer(g: &Graph, q: &CompiledLscrQuery) -> QueryOutcome {
    let mut scratch = SearchScratch::new(g.num_vertices());
    answer_with(g, q, &mut scratch, &QueryOptions::default())
}

/// Answers `q` with session-owned scratch (reset here), materializing
/// `V(S,G)` in the order requested by [`QueryOptions::vsg_order`] —
/// [`VsgOrder::Shuffled`] is the paper's "disordered" semantics (§4:
/// existing SPARQL engines cannot order the matches usefully for
/// reachability).
///
/// The reported time includes the `V(S,G)` materialization — UIS\* and
/// INS both pay the SPARQL engine, and comparing them against UIS is only
/// fair if that cost is on the clock. The set is obtained through the
/// compiled constraint's shared memo
/// ([`CompiledConstraint::satisfying_vertices_cached`](crate::constraint::CompiledConstraint::satisfying_vertices_cached)),
/// so repeated queries over one compiled plan materialize it once.
pub fn answer_with(
    g: &Graph,
    q: &CompiledLscrQuery,
    scratch: &mut SearchScratch,
    opts: &QueryOptions,
) -> QueryOutcome {
    let clock = SearchClock::start_now();
    let vsg = q.constraint.satisfying_vertices_cached(g);
    let shuffled;
    let vsg: &[VertexId] = if let VsgOrder::Shuffled(seed) = opts.vsg_order {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut copy = vsg.to_vec();
        copy.shuffle(&mut rng);
        shuffled = copy;
        &shuffled
    } else {
        &vsg
    };
    let search =
        Search::new(g, q, Algorithm::UisStar, vsg.len(), clock.limits(opts), scratch.parts());
    search.stack.clear();
    search.run(&mut StackFrontier { next: 0 }, vsg, clock)
}

/// The global LIFO stack of Algorithm 2 (`Search::stack`), with `V(S,G)`
/// handed out in slice order.
struct StackFrontier {
    /// Position of the next candidate in `vsg`.
    next: usize,
}

impl Frontier for StackFrontier {
    fn push(&mut self, search: &mut Search<'_>, v: VertexId, _t_star: VertexId) {
        search.stack.push(v);
        search.stats.pushes += 1;
    }

    fn next_candidate(&mut self, _search: &Search<'_>, vsg: &[VertexId]) -> Option<VertexId> {
        let v = vsg.get(self.next).copied();
        self.next += 1;
        v
    }

    /// The paper's `LCS(s*, t*, L, B)` (Algorithm 2, lines 14-24),
    /// verifying `s* ⇝_L t*` over the shared stack/`close`.
    fn lcs(
        &mut self,
        search: &mut Search<'_>,
        s_star: VertexId,
        t_star: VertexId,
        b: bool,
    ) -> bool {
        search.stats.lcs_invocations += 1;
        if s_star == t_star {
            // Zero-edge path: for B = T, s* additionally becomes T.
            if b {
                search.close.set(s_star, CloseState::T);
            }
            return true;
        }
        // Lines 15-16.
        if b {
            search.close.set(s_star, CloseState::T);
            search.stack.push(s_star);
            search.stats.pushes += 1;
        }
        // Line 17: while (B=F ∧ S≠φ) or (B = close[S.first] = T).
        loop {
            if search.limits.exceeded(search.stats.edges_scanned) {
                search.interrupted = true;
                return false;
            }
            let u = match search.stack.last() {
                Some(&top) if !b || search.close.is_t(top) => {
                    search.stack.pop();
                    top
                }
                _ => break,
            };
            // Flat expansion: one slice scan; under a selective L the
            // incident-label mask skips the vertex outright (empty
            // slice), and the accounting keeps skipped = degree −
            // scanned exact either way.
            let exp = search.g.out_expansion(u, search.labels, search.selective);
            search.stats.edges_skipped += exp.degree;
            for e in exp.edges {
                if !search.labels.contains(e.label) {
                    continue;
                }
                search.stats.edges_scanned += 1;
                search.stats.edges_skipped -= 1;
                let w = e.vertex;
                // Line 20: case 1 (B=T ∧ close[w]≠T), case 2 (B=F ∧ close[w]=N).
                let explore = if b { !search.close.is_t(w) } else { search.close.is_n(w) };
                if explore {
                    search.close.set(w, if b { CloseState::T } else { CloseState::F });
                    search.stack.push(w);
                    search.stats.pushes += 1;
                    if w == t_star {
                        // Correctness fix over the paper's literal Alg. 2:
                        // a B=F invocation returning mid-scan would lose
                        // u's remaining edges from the global traversal
                        // (Theorem 4.1 only covers *false* returns). Re-
                        // push u so later invocations resume its scan;
                        // already-explored neighbors are skipped by case 2.
                        if !b {
                            search.stack.push(u);
                            search.stats.pushes += 1;
                        }
                        return true;
                    }
                }
            }
        }
        // Line 24: pop the elements passed in this invocation (state T), so
        // the next B = F invocation resumes at the old F frontier.
        if b {
            while let Some(&x) = search.stack.last() {
                if search.close.is_t(x) {
                    search.stack.pop();
                } else {
                    break;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure3, s0};
    use crate::oracle;
    use crate::query::LscrQuery;

    const ALL: [&str; 5] = ["friendOf", "likes", "advisorOf", "follows", "hates"];

    fn run(g: &Graph, s: &str, t: &str, labels: &[&str]) -> QueryOutcome {
        let q = LscrQuery::new(
            g.vertex_id(s).unwrap(),
            g.vertex_id(t).unwrap(),
            g.label_set(labels),
            s0(),
        );
        answer(g, &q.compile(g).unwrap())
    }

    #[test]
    fn paper_examples() {
        let g = figure3();
        assert!(run(&g, "v0", "v4", &["likes", "follows"]).answer);
        assert!(!run(&g, "v0", "v3", &["likes", "follows"]).answer);
        assert!(run(&g, "v3", "v4", &["likes", "hates", "friendOf"]).answer);
    }

    #[test]
    fn section4_worked_example() {
        // §4: Q0 = (v3, v4, {likes, hates, friendOf}, S0) is answered by
        // verifying v3 ⇝_L v1 and v1 ⇝_L v4.
        let g = figure3();
        let out = run(&g, "v3", "v4", &["likes", "hates", "friendOf"]);
        assert!(out.answer);
        assert_eq!(out.stats.vsg_size, Some(2)); // V(S0,G0) = {v1, v2}
        assert!(out.stats.lcs_invocations >= 2);
    }

    #[test]
    fn substructure_only() {
        let g = figure3();
        assert!(run(&g, "v0", "v4", &ALL).answer);
        assert!(run(&g, "v0", "v3", &ALL).answer);
        assert!(!run(&g, "v4", "v0", &ALL).answer);
    }

    #[test]
    fn source_equals_target() {
        let g = figure3();
        assert!(run(&g, "v1", "v1", &ALL).answer);
        assert!(!run(&g, "v0", "v0", &ALL).answer);
        assert!(run(&g, "v4", "v4", &ALL).answer);
    }

    #[test]
    fn endpoint_in_vsg_shortcut() {
        // t = v1 ∈ V(S0,G0): answer is plain label reachability s ⇝_L t.
        let g = figure3();
        assert!(run(&g, "v0", "v1", &["friendOf"]).answer);
        assert!(!run(&g, "v3", "v1", &["likes"]).answer); // v3-likes->v4 only
        assert!(run(&g, "v3", "v1", &["likes", "hates"]).answer);
    }

    #[test]
    fn exhaustive_agreement_with_oracle_and_uis() {
        let g = figure3();
        let label_sets: Vec<Vec<&str>> = vec![
            ALL.to_vec(),
            vec!["likes", "follows"],
            vec!["likes", "hates", "friendOf"],
            vec!["friendOf", "likes"],
            vec!["hates"],
            vec![],
        ];
        let mut scratch = SearchScratch::new(g.num_vertices());
        let opts = QueryOptions::default();
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
                    let expected = oracle::answer(&g, &cq).answer;
                    assert_eq!(
                        answer_with(&g, &cq, &mut scratch, &opts).answer,
                        expected,
                        "uis* vs oracle on {s}->{t} {ls:?}"
                    );
                    assert_eq!(
                        crate::uis::answer(&g, &cq).answer,
                        expected,
                        "uis vs oracle on {s}->{t} {ls:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_orders_agree() {
        // The V(S,G) processing order affects cost, never the answer.
        let g = figure3();
        let mut scratch = SearchScratch::new(g.num_vertices());
        let opts = QueryOptions::default();
        for s in ["v0", "v1", "v3", "v4"] {
            for t in ["v0", "v2", "v4"] {
                let q = LscrQuery::new(
                    g.vertex_id(s).unwrap(),
                    g.vertex_id(t).unwrap(),
                    g.label_set(&["likes", "hates", "friendOf"]),
                    s0(),
                );
                let cq = q.compile(&g).unwrap();
                let reference = answer_with(&g, &cq, &mut scratch, &opts).answer;
                for seed in 0..10 {
                    let shuffled = opts.clone().with_vsg_order(VsgOrder::Shuffled(seed));
                    assert_eq!(
                        answer_with(&g, &cq, &mut scratch, &shuffled).answer,
                        reference,
                        "seed {seed} changed the answer for {s}->{t}"
                    );
                }
            }
        }
    }

    #[test]
    fn step_budget_interrupts() {
        let g = figure3();
        let mut scratch = SearchScratch::new(g.num_vertices());
        let q = LscrQuery::new(
            g.vertex_id("v3").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.label_set(&["likes", "hates", "friendOf"]),
            s0(),
        );
        let cq = q.compile(&g).unwrap();
        let out = answer_with(&g, &cq, &mut scratch, &QueryOptions::default().with_step_budget(0));
        assert!(out.interrupted);
        assert!(!out.answer);
    }

    #[test]
    fn pushes_bounded_by_search_tree() {
        // Definition 3.2: ≤ 2 nodes per vertex, plus one s* push per LCS.
        let g = figure3();
        let out = run(&g, "v3", "v4", &ALL);
        let bound = 2 * g.num_vertices() + out.stats.lcs_invocations;
        assert!(out.stats.pushes <= bound, "{} > {bound}", out.stats.pushes);
    }

    #[test]
    fn empty_vsg_means_false() {
        let g = figure3();
        let c = crate::constraint::SubstructureConstraint::parse(
            "SELECT ?x WHERE { ?x <likes> <v0> . }", // nobody likes v0
        )
        .unwrap();
        let q = LscrQuery::new(
            g.vertex_id("v0").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.all_labels(),
            c,
        );
        let out = answer(&g, &q.compile(&g).unwrap());
        assert!(!out.answer);
        assert_eq!(out.stats.vsg_size, Some(0));
        assert_eq!(out.stats.lcs_invocations, 0);
    }
}
