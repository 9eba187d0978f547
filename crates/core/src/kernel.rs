//! The search core UIS\* and INS share (paper Algorithms 2 and 4).
//!
//! Both algorithms materialize `V(S,G)` and reduce the LSCR query to a
//! chain of label-constrained reachability checks `s ⇝_L v` / `v ⇝_L t`
//! for `v ∈ V(S,G)`, run by `LCS(s*, t*, L, B)` over one frontier and one
//! `close` map. Everything about that skeleton that does not depend on
//! the frontier lives here, once, as [`Search`]: the search state,
//! seeding, the empty-`V(S,G)` and mask prechecks, the candidate loop,
//! limit and interrupt handling, and the final [`finish`]. What differs
//! is behind [`Frontier`]: the container (LIFO stack vs the priority
//! queue `Q`), the candidate order (slice order vs the heap `H`) and the
//! body of one `LCS` invocation. The two `LCS` bodies are separate on
//! purpose — INS's landmark `Check`/`Cut`/`Push` arms have no
//! counterpart in UIS\*, and a merged body would branch on its caller.
//! UIS borrows only [`finish`] and [`label_starved`]: its `SCck`-driven
//! loop has no candidates and no `LCS`.
//!
//! The one departure from the paper's listings is [`label_starved`], an
//! O(1) precheck: when `s` has no usable out-label or `t` no usable
//! in-label under `L`, no one-or-more-edge path can start or finish, and
//! the query is `false` before anything is expanded. There is a single
//! forward frontier and no meet-in-the-middle here: the served search is
//! UIS (`Algorithm::Auto` resolves to it, see
//! `LscrEngine::plan_algorithm`), whose sides meet between `s`, `t` and
//! `V(S,G)`; these two kernels run when forced, and in the paper's
//! experiments.

use crate::close::{CloseMap, CloseState};
use crate::engine::Algorithm;
use crate::priority::GlobalQueue;
use crate::query::{CompiledLscrQuery, QueryOutcome, RunLimits, SearchClock, SearchStats};
use crate::session::ScratchParts;
use kgreach_graph::{Graph, LabelSet, VertexId};

/// What distinguishes UIS\* from INS inside the shared skeleton. Every
/// method receives the [`Search`] it serves; the frontier containers
/// themselves (`stack`, `queue`) are session scratch and live there.
pub(crate) trait Frontier {
    /// Enqueues an already-marked `v`; priorities are taken toward
    /// `t_star`.
    fn push(&mut self, search: &mut Search<'_>, v: VertexId, t_star: VertexId);

    /// The next `V(S,G)` candidate of the classic loop, `None` once all
    /// of `vsg` has been handed out.
    fn next_candidate(&mut self, search: &Search<'_>, vsg: &[VertexId]) -> Option<VertexId>;

    /// One `LCS(s*, t*, L, B)` invocation: verifies `s* ⇝_L t*` over the
    /// shared frontier and `close`, setting `search.interrupted` when a
    /// limit cuts it short.
    fn lcs(&mut self, search: &mut Search<'_>, s_star: VertexId, t_star: VertexId, b: bool)
        -> bool;
}

/// The O(1) mask precheck: with no out-label of `s` (or no in-label of
/// `t`) usable under `L`, no path with ≥ 1 edge can leave `s` (or enter
/// `t`) — only the zero-edge `s = t` witness remains, and `s ≠ t` rules
/// it out.
#[inline]
pub(crate) fn label_starved(g: &Graph, s: VertexId, t: VertexId, labels: LabelSet) -> bool {
    s != t
        && (g.out_label_mask(s).intersection(labels).is_empty()
            || g.in_label_mask(t).intersection(labels).is_empty())
}

/// The state of one UIS\*/INS execution over the session scratch.
pub(crate) struct Search<'a> {
    pub(crate) g: &'a Graph,
    pub(crate) s: VertexId,
    pub(crate) t: VertexId,
    pub(crate) labels: LabelSet,
    /// Whether mask-guided expansion pays for this query's `L` — one
    /// strategy decision for every `LCS` invocation of the query.
    pub(crate) selective: bool,
    pub(crate) close: &'a mut CloseMap,
    /// UIS\*'s global stack.
    pub(crate) stack: &'a mut Vec<VertexId>,
    /// INS's global priority queue `Q`.
    pub(crate) queue: &'a mut GlobalQueue,
    pub(crate) stats: SearchStats,
    pub(crate) limits: RunLimits,
    pub(crate) interrupted: bool,
}

impl<'a> Search<'a> {
    /// Fresh state for `q` over `parts` (`close` is reset here; each
    /// frontier resets its own container).
    pub(crate) fn new(
        g: &'a Graph,
        q: &CompiledLscrQuery,
        algorithm: Algorithm,
        vsg_len: usize,
        limits: RunLimits,
        parts: ScratchParts<'a>,
    ) -> Self {
        let ScratchParts { close, stack, queue, .. } = parts;
        close.reset();
        Search {
            g,
            s: q.source,
            t: q.target,
            labels: q.label_constraint,
            selective: g.expansion_selective(q.label_constraint),
            close,
            stack,
            queue,
            stats: SearchStats {
                vsg_size: Some(vsg_len),
                algorithm: Some(algorithm),
                ..Default::default()
            },
            limits,
            interrupted: false,
        }
    }

    /// Algorithm 2 lines 1-12 / Algorithm 4 lines 1-14 around `frontier`.
    pub(crate) fn run(
        mut self,
        frontier: &mut impl Frontier,
        vsg: &[VertexId],
        clock: SearchClock,
    ) -> QueryOutcome {
        let (s, t) = (self.s, self.t);
        // Frontier seeded with s; close[s] ← F.
        self.close.set(s, CloseState::F);
        frontier.push(&mut self, s, t);

        if vsg.is_empty() {
            return self.finish(false, clock);
        }
        if label_starved(self.g, s, t, self.labels) {
            self.stats.negative_terminations += 1;
            return self.finish(false, clock);
        }

        let mut answer = false;
        while let Some(v) = frontier.next_candidate(&self, vsg) {
            if self.interrupted || self.limits.exceeded(self.stats.edges_scanned) {
                self.interrupted = true;
                break;
            }
            match self.close.get(v) {
                CloseState::N => {
                    if v == s || v == t {
                        // v ∈ V(S,G) coincides with an endpoint: plain
                        // label-reachability decides the whole query.
                        answer = frontier.lcs(&mut self, s, t, false);
                        break;
                    } else if frontier.lcs(&mut self, s, v, false)
                        && frontier.lcs(&mut self, v, t, true)
                    {
                        answer = true;
                        break;
                    }
                }
                CloseState::F => {
                    if frontier.lcs(&mut self, v, t, true) {
                        answer = true;
                        break;
                    }
                }
                // T: v's whole L-reachable region was already explored in a
                // previous B = T invocation and t was not in it.
                CloseState::T => {}
            }
        }
        self.finish(answer, clock)
    }

    fn finish(self, answer: bool, clock: SearchClock) -> QueryOutcome {
        finish(answer, self.interrupted, self.stats, self.close, clock)
    }
}

/// Assembles the outcome of a search over `close`: `passed_vertices` is
/// the paper's metric, the vertices with `close ≠ N` when it stopped.
pub(crate) fn finish(
    answer: bool,
    interrupted: bool,
    mut stats: SearchStats,
    close: &CloseMap,
    clock: SearchClock,
) -> QueryOutcome {
    stats.passed_vertices = close.passed_vertices();
    let mut out = QueryOutcome::finished(answer, stats, clock.elapsed());
    out.interrupted = interrupted;
    out
}
