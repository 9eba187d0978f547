//! INS — the informed search algorithm (paper Algorithm 4).
//!
//! INS has the same skeleton as UIS\* — materialize `V(S,G)`, chain
//! label-constrained searches through a shared `close` map — with three
//! changes that together produce its order-of-magnitude speedups (§6):
//!
//! 1. `V(S,G)` is processed by the priority heap `H` instead of an
//!    arbitrary order, so the search starts from promising candidates
//!    (explored ones, landmarks, partitions correlated with the target).
//! 2. The global LIFO stack becomes the global priority queue `Q`, freeing
//!    the expansion order from the LIFO "bad direction" pathology
//!    (paper Figure 8).
//! 3. When the frontier touches a landmark `w`, the precomputed local
//!    index replaces edge-at-a-time exploration of `F(w)`:
//!    * `Check(II[w], t*)` answers `w ⇝_L t*` immediately when `t*` lives
//!      in `w`'s partition (line 22);
//!    * `Cut(II[w])` marks every intra-partition vertex reachable under
//!      `L` without touching its edges (line 25);
//!    * `Push(EIT[w])` enqueues the partition's exit frontier under `L`
//!      (line 25) — landmarks themselves are never enqueued.
//!
//! Only what these three changes touch lives in this module: the queue
//! frontier, the candidate heap, the `LCS` body and `Cut`/`Push`. The
//! skeleton itself — seeding, prechecks and the candidate loop — is the
//! one UIS\* runs (the crate-private `kernel` module,
//! `crates/core/src/kernel.rs`).
//!
//! ```
//! use kgreach::{LocalIndex, LocalIndexConfig, LscrQuery};
//! use kgreach::fixtures::{figure3, s0};
//!
//! let g = figure3();
//! let index = LocalIndex::build(&g, &LocalIndexConfig::default());
//! let q = LscrQuery::new(
//!     g.vertex_id("v0").unwrap(),
//!     g.vertex_id("v4").unwrap(),
//!     g.label_set(&["likes", "follows"]),
//!     s0(),
//! );
//! assert!(kgreach::ins::answer(&g, &q.compile(&g).unwrap(), &index).answer);
//! ```

use crate::close::CloseState;
use crate::engine::Algorithm;
use crate::kernel::{Frontier, Search};
use crate::local_index::LocalIndex;
use crate::priority::{CandidateHeap, PriorityContext};
use crate::query::{CompiledLscrQuery, QueryOptions, QueryOutcome, SearchClock};
use crate::session::SearchScratch;
use kgreach_graph::{Dir, Graph, VertexId};

/// Answers `q` with Algorithm 4 over a prebuilt [`LocalIndex`], with
/// freshly allocated scratch and default options.
pub fn answer(g: &Graph, q: &CompiledLscrQuery, index: &LocalIndex) -> QueryOutcome {
    let mut scratch = SearchScratch::new(g.num_vertices());
    answer_with(g, q, index, &mut scratch, &QueryOptions::default())
}

/// Answers `q` with session-owned scratch (reset here). The reported time
/// includes the `V(S,G)` materialization, as for UIS\*; the set comes
/// from the compiled constraint's shared memo, so repeated queries over
/// one compiled plan materialize it once.
pub fn answer_with(
    g: &Graph,
    q: &CompiledLscrQuery,
    index: &LocalIndex,
    scratch: &mut SearchScratch,
    opts: &QueryOptions,
) -> QueryOutcome {
    let clock = SearchClock::start_now();
    let vsg = q.constraint.satisfying_vertices_cached(g);
    let search = Search::new(g, q, Algorithm::Ins, vsg.len(), clock.limits(opts), scratch.parts());
    search.queue.reset();
    search.run(&mut QueueFrontier { index, heap: None }, &vsg, clock)
}

/// The global priority queue `Q` of Algorithm 4 (`Search::queue`) guided
/// by the local index, with `V(S,G)` handed out by the heap `H`.
struct QueueFrontier<'a> {
    index: &'a LocalIndex,
    /// `H`, built on the first candidate request: the mask precheck can
    /// decide the query without ever ordering the candidates.
    heap: Option<CandidateHeap>,
}

impl Frontier for QueueFrontier<'_> {
    #[inline]
    fn push(&mut self, search: &mut Search<'_>, v: VertexId, t_star: VertexId) {
        let ctx =
            PriorityContext { close: &*search.close, index: self.index, source: v, target: t_star };
        search.queue.push(v, &ctx);
        search.stats.pushes += 1;
    }

    fn next_candidate(&mut self, search: &Search<'_>, vsg: &[VertexId]) -> Option<VertexId> {
        let ctx = PriorityContext {
            close: &*search.close,
            index: self.index,
            source: search.s,
            target: search.t,
        };
        self.heap.get_or_insert_with(|| CandidateHeap::new(vsg, &ctx)).pop(&ctx)
    }

    /// Algorithm 4's `LCS(s*, t*, L, B)` (lines 16-30).
    fn lcs(
        &mut self,
        search: &mut Search<'_>,
        s_star: VertexId,
        t_star: VertexId,
        b: bool,
    ) -> bool {
        search.stats.lcs_invocations += 1;
        if s_star == t_star {
            if b {
                search.close.set(s_star, CloseState::T);
            }
            return true;
        }
        // Lines 17-18.
        if b {
            search.close.set(s_star, CloseState::T);
            self.push(search, s_star, t_star);
        }
        // Line 19: while (B=F ∧ Q≠φ) or (B = close[Q.first] = T).
        loop {
            if search.limits.exceeded(search.stats.edges_scanned) {
                search.interrupted = true;
                return false;
            }
            // Inline context so the queue (disjoint field) stays borrowable.
            let ctx = PriorityContext {
                close: &*search.close,
                index: self.index,
                source: t_star,
                target: t_star,
            };
            let Some(u) = search.queue.pop(&ctx) else { break };
            if b && !search.close.is_t(u) {
                // Q's top is an F element: it belongs to the suspended
                // B=F traversal. Put it back and stop this invocation.
                self.push(search, u, t_star);
                break;
            }
            if u == t_star {
                // t* can enter Q through Push(EIT[·]) without an explicit
                // edge scan; popping it proves s* ⇝_L t*. Re-push so the
                // global traversal can still resume t*'s own edges.
                if !b {
                    self.push(search, u, t_star);
                }
                return true;
            }
            let u_state = search.close.get(u);
            debug_assert!(u_state != CloseState::N, "queued vertices are explored");

            // Flat expansion: one slice scan; under a selective L the
            // incident-label mask skips the vertex outright (empty
            // slice), and the accounting keeps skipped = degree −
            // scanned exact either way.
            let exp = search.g.expansion(Dir::Out, u, search.labels, search.selective);
            search.stats.edges_skipped += exp.degree;
            for e in exp.edges {
                if !search.labels.contains(e.label) {
                    continue;
                }
                search.stats.edges_scanned += 1;
                search.stats.edges_skipped -= 1;
                let w = e.vertex;

                // Reaching t* directly decides this invocation regardless
                // of landmark status (paper line 28; hoisted so a landmark
                // t* is not missed).
                if w == t_star {
                    Self::mark(search, w, b);
                    // Correctness fix mirroring UIS*: a B=F invocation
                    // returning mid-scan must not lose u's remaining edges
                    // from the global traversal.
                    if !b {
                        self.push(search, u, t_star);
                    }
                    return true;
                }

                if self.index.partition().is_landmark(w) {
                    // Line 22: t* lives in w's partition and w is its
                    // landmark — the precomputed CMS answers w ⇝_L t*.
                    if self.index.partition().af(t_star) == self.index.partition().af(w) {
                        search.stats.index_hits += 1;
                        if self
                            .index
                            .entry_of(w)
                            .is_some_and(|entry| entry.check(t_star, search.labels))
                        {
                            // w is deliberately left UNMARKED here: the
                            // `already`-marked idempotence guard below
                            // assumes a marked landmark had its region
                            // Cut/Push-processed, and this shortcut does
                            // not process it. (Regression: marking w here
                            // stranded every candidate reachable only
                            // through F(w)'s exits — a later resumed B=F
                            // traversal skipped the region forever.)
                            if !b {
                                self.push(search, u, t_star);
                            }
                            return true;
                        }
                    }

                    // Lines 24-25: prune F(w) with the local index. Skip
                    // when this landmark was already pruned at this state —
                    // Cut/Push are idempotent per state.
                    let already = if b { search.close.is_t(w) } else { !search.close.is_n(w) };
                    Self::mark(search, w, b);
                    if !already {
                        self.cut_and_push(search, w, t_star, b);
                    }
                } else {
                    // Lines 26-27: ordinary frontier expansion.
                    let explore = if b { !search.close.is_t(w) } else { search.close.is_n(w) };
                    if explore {
                        Self::mark(search, w, b);
                        self.push(search, w, t_star);
                    }
                }
            }
        }
        false
    }
}

impl QueueFrontier<'_> {
    /// `Cut(II[w])` and `Push(EIT[w])` (line 25): mark the intra-partition
    /// region reachable under `L` and enqueue its exit frontier.
    fn cut_and_push(&mut self, search: &mut Search<'_>, w: VertexId, t_star: VertexId, b: bool) {
        search.stats.index_hits += 1;
        let Some(ord) = self.index.partition().af(w) else { return };
        let entry = self.index.entry(ord);

        // Cut: for (x, 𝕃) ∈ II[w] with some Lᵢ ⊆ L, close[x] ← B.
        for (x, cms) in entry.ii_pairs() {
            if search.close.is_t(x) {
                continue;
            }
            if (b || search.close.is_n(x)) && cms.covers(search.labels) {
                Self::mark(search, x, b);
            }
        }
        // Push: for (Lx, V) ∈ EIT[w] with Lx ⊆ L, enqueue eligible exits.
        for (lx, exits) in entry.eit_pairs() {
            if !lx.is_subset_of(search.labels) {
                continue;
            }
            for &x in exits {
                let eligible = if b { !search.close.is_t(x) } else { search.close.is_n(x) };
                if eligible {
                    Self::mark(search, x, b);
                    self.push(search, x, t_star);
                }
            }
        }
    }

    #[inline]
    fn mark(search: &mut Search<'_>, v: VertexId, b: bool) {
        let state = if b { CloseState::T } else { CloseState::F };
        // Never downgrade T.
        if !(state == CloseState::F && search.close.is_t(v)) {
            search.close.set(v, state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure3, s0};
    use crate::local_index::{LocalIndex, LocalIndexConfig};
    use crate::oracle;
    use crate::query::LscrQuery;

    const ALL: [&str; 5] = ["friendOf", "likes", "advisorOf", "follows", "hates"];

    fn build_index(g: &Graph, k: usize, seed: u64) -> LocalIndex {
        LocalIndex::build(
            g,
            &LocalIndexConfig { num_landmarks: Some(k), seed, ..Default::default() },
        )
    }

    fn run(g: &Graph, idx: &LocalIndex, s: &str, t: &str, labels: &[&str]) -> QueryOutcome {
        let q = LscrQuery::new(
            g.vertex_id(s).unwrap(),
            g.vertex_id(t).unwrap(),
            g.label_set(labels),
            s0(),
        );
        answer(g, &q.compile(g).unwrap(), idx)
    }

    #[test]
    fn paper_examples() {
        let g = figure3();
        let idx = build_index(&g, 2, 1);
        assert!(run(&g, &idx, "v0", "v4", &["likes", "follows"]).answer);
        assert!(!run(&g, &idx, "v0", "v3", &["likes", "follows"]).answer);
        assert!(run(&g, &idx, "v3", "v4", &["likes", "hates", "friendOf"]).answer);
    }

    #[test]
    fn source_equals_target() {
        let g = figure3();
        let idx = build_index(&g, 2, 1);
        assert!(run(&g, &idx, "v1", "v1", &ALL).answer);
        assert!(!run(&g, &idx, "v0", "v0", &ALL).answer);
        assert!(run(&g, &idx, "v4", "v4", &ALL).answer);
    }

    #[test]
    fn exhaustive_agreement_with_oracle_across_indexes() {
        // Every (s, t, L) on figure3, under several landmark layouts: INS
        // must agree with the oracle regardless of partitioning.
        let g = figure3();
        let label_sets: Vec<Vec<&str>> = vec![
            ALL.to_vec(),
            vec!["likes", "follows"],
            vec!["likes", "hates", "friendOf"],
            vec!["friendOf", "likes"],
            vec!["advisorOf"],
            vec![],
        ];
        let opts = QueryOptions::default();
        for (k, seed) in [(1usize, 1u64), (2, 1), (2, 7), (3, 5), (5, 2)] {
            let idx = build_index(&g, k, seed);
            let mut scratch = SearchScratch::new(g.num_vertices());
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
                        let got = answer_with(&g, &cq, &idx, &mut scratch, &opts).answer;
                        assert_eq!(
                            got, expected,
                            "INS(k={k},seed={seed}) wrong on {s}->{t} {ls:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn index_pruning_is_exercised() {
        // A landmark interposed between s and t: the search must answer
        // through Check(II[lm], t) instead of walking edge by edge.
        // `lm` is the only schema-typed instance, so k = 1 selects it
        // deterministically.
        let mut b = kgreach_graph::GraphBuilder::new();
        b.add_triple("s", "p", "lm");
        b.add_triple("lm", "p", "a");
        b.add_triple("a", "p", "t");
        b.add_triple("s", "marked", "anchor");
        b.add_triple("lm", "rdf:type", "C");
        let g = b.build().unwrap();
        let idx = build_index(&g, 1, 0);
        let lm = g.vertex_id("lm").unwrap();
        assert!(idx.partition().is_landmark(lm), "schema selection picks lm");

        let c = crate::constraint::SubstructureConstraint::parse(
            "SELECT ?x WHERE { ?x <marked> <anchor> . }",
        )
        .unwrap();
        let q = LscrQuery::new(
            g.vertex_id("s").unwrap(),
            g.vertex_id("t").unwrap(),
            g.label_set(&["p"]),
            c,
        );
        let out = answer(&g, &q.compile(&g).unwrap(), &idx);
        assert!(out.answer);
        assert!(out.stats.index_hits > 0, "expected landmark pruning to fire");
        // The intermediate vertex `a` was skipped entirely: the edge walk
        // stopped at lm and the index answered for the rest.
        assert!(out.stats.edges_scanned <= 2, "scanned {}", out.stats.edges_scanned);
    }

    #[test]
    fn check_shortcut_does_not_strand_the_partition() {
        // Regression for an incompleteness bug: when a B=F search
        // returned through the line-22 Check shortcut, the landmark was
        // marked without Cut/Push, and the `already`-marked idempotence
        // guard then skipped its region forever — candidates reachable
        // only through that partition's exits became undiscoverable when
        // the suspended traversal resumed.
        //
        // Layout: s → w → a → {c1, c2}, c2 → t, partition F(w) =
        // {w, a, c1} and F(z) = {z, c2, t}. Candidates (marker edges to
        // `anchor`): c1 (a dead end, popped first by id order) and c2
        // (the true connector). The c1 probe returns through Check on w;
        // the c2 probe then needs F(w)'s exit a → c2, which only exists
        // in the traversal if the Check path ran Cut/Push.
        let mut b = kgreach_graph::GraphBuilder::new();
        for (s, p, o) in [
            ("s", "p", "w"),
            ("w", "p", "a"),
            ("a", "p", "c1"),
            ("c1", "m", "anchor"),
            ("a", "p", "c2"),
            ("z", "p", "c2"),
            ("c2", "p", "t"),
            ("c2", "m", "anchor"),
        ] {
            b.add_triple(s, p, o);
        }
        let g = b.build().unwrap();
        let idx = LocalIndex::build_with_landmarks(
            &g,
            vec![g.vertex_id("w").unwrap(), g.vertex_id("z").unwrap()],
        );
        // The layout assumptions behind the regression: c1 sits in w's
        // partition (Check can fire for it), c2 does not.
        let part = idx.partition();
        assert_eq!(part.af(g.vertex_id("c1").unwrap()), part.af(g.vertex_id("w").unwrap()));
        assert_ne!(part.af(g.vertex_id("c2").unwrap()), part.af(g.vertex_id("w").unwrap()));

        let c = crate::constraint::SubstructureConstraint::parse(
            "SELECT ?x WHERE { ?x <m> <anchor> . }",
        )
        .unwrap();
        let q = LscrQuery::new(
            g.vertex_id("s").unwrap(),
            g.vertex_id("t").unwrap(),
            g.label_set(&["p"]),
            c,
        );
        let cq = q.compile(&g).unwrap();
        assert!(oracle::answer(&g, &cq).answer, "fixture must be reachable via c2");
        assert!(answer(&g, &cq, &idx).answer, "INS must find the path through F(w)'s exit");
    }

    #[test]
    fn stats_are_populated() {
        let g = figure3();
        let idx = build_index(&g, 2, 1);
        let out = run(&g, &idx, "v0", "v4", &ALL);
        assert!(out.answer);
        assert_eq!(out.stats.vsg_size, Some(2));
        assert!(out.stats.passed_vertices > 0);
        assert!(out.stats.lcs_invocations >= 1);
        assert_eq!(out.stats.scck_calls, 0); // INS never calls SCck
    }

    #[test]
    fn step_budget_interrupts() {
        let g = figure3();
        let idx = build_index(&g, 2, 1);
        let mut scratch = SearchScratch::new(g.num_vertices());
        let q = LscrQuery::new(
            g.vertex_id("v0").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.label_set(&["likes", "follows"]),
            s0(),
        );
        let cq = q.compile(&g).unwrap();
        let out =
            answer_with(&g, &cq, &idx, &mut scratch, &QueryOptions::default().with_step_budget(0));
        assert!(out.interrupted);
        assert!(!out.answer);
    }

    #[test]
    fn empty_vsg_is_false() {
        let g = figure3();
        let idx = build_index(&g, 2, 1);
        let c = crate::constraint::SubstructureConstraint::parse(
            "SELECT ?x WHERE { ?x <likes> <v0> . }",
        )
        .unwrap();
        let q = LscrQuery::new(
            g.vertex_id("v0").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.all_labels(),
            c,
        );
        let out = answer(&g, &q.compile(&g).unwrap(), &idx);
        assert!(!out.answer);
        assert_eq!(out.stats.vsg_size, Some(0));
    }
}
