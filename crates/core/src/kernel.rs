//! The search core UIS\* and INS share (paper Algorithms 2 and 4).
//!
//! Both algorithms materialize `V(S,G)` and reduce the LSCR query to a
//! chain of label-constrained reachability checks `s ⇝_L v` / `v ⇝_L t`
//! for `v ∈ V(S,G)`, run by `LCS(s*, t*, L, B)` over one frontier and one
//! `close` map. Everything about that skeleton that does not depend on
//! the frontier lives here, once, as [`Search`]: the search state,
//! seeding, the empty-`V(S,G)` and mask prechecks, the candidate loop,
//! the bidirectional phase with both of its cleanup loops, limit and
//! interrupt handling, and the final [`finish`]. What differs is behind
//! [`Frontier`]: the container (LIFO stack vs the priority queue `Q`),
//! the candidate order (slice order vs the heap `H`), the body of one
//! `LCS` invocation, and one forward expansion step of the bidirectional
//! phase. The two `LCS` bodies are separate on purpose — INS's landmark
//! `Check`/`Cut`/`Push` arms have no counterpart in UIS\*, and a merged
//! body would branch on its caller. UIS borrows only [`finish`]: its
//! single `SCck`-driven loop has no candidates and no `LCS`.
//!
//! # Bidirectional phase and early negative termination
//!
//! Under a *selective* label constraint
//! ([`Graph::expansion_selective`]), when `V(S,G)` is large enough
//! ([`QueryOptions::bidi_min_candidates`](crate::QueryOptions)), the
//! candidate loop is preceded by a meet-in-the-middle phase: a backward
//! frontier over the reverse label-masked expansion view
//! ([`Graph::in_expansion`]) races the usual forward `B = F` frontier,
//! alternating by the smaller-frontier heuristic. The query is decided
//! the moment the frontiers intersect *at a `V(S,G)` candidate* (meeting
//! at a non-candidate proves nothing — the witness must pass through
//! `V(S,G)`). When one side exhausts first, its `close` map becomes an
//! O(1) oracle for that side's half of every remaining
//! `s ⇝_L v ⇝_L t` check:
//!
//! * backward exhausted with **no candidate in `R_t`** — early negative
//!   termination, no candidate loop at all;
//! * backward exhausted otherwise — `v ⇝_L t` is decided by `R_t`
//!   membership (no `B = T` invocation ever runs) and forward expansion
//!   prunes every push outside `R_t` (any useful intermediate `x` on a
//!   path to a candidate `v ∈ R_t` satisfies `x ⇝ v ⇝ t`, so `x ∈ R_t`);
//! * forward exhausted — `s ⇝_L v` is decided by `close ≠ N`, with the
//!   partial backward map kept as a positive-only shortcut.
//!
//! Two O(1) mask prechecks run even earlier: when `s` has no usable
//! out-label or `t` no usable in-label under `L`, no one-or-more-edge
//! path can start or finish, and the query falls to its zero-edge case.
//! The phase is gated on selectivity — broad-`L` queries keep the
//! classic single-frontier path byte for byte — and on candidate count:
//! the backward closure replaces up to `|V(S,G)|` per-candidate `v ⇝ t`
//! probes, so for small candidate sets the classic chained probes win
//! and the phase stays off.

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
    /// Whether no live vertex is left to expand.
    fn is_empty(&self, search: &Search<'_>) -> bool;

    /// Frontier size, for the smaller-frontier alternation — an upper
    /// bound is enough (the queue counts superseded entries).
    fn len(&self, search: &Search<'_>) -> usize;

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

    /// One forward `B = F` expansion step of the bidirectional phase,
    /// with the same marking discipline as [`lcs`](Self::lcs) so later
    /// invocations resume the traversal (Theorem 4.1). Every fresh mark
    /// goes through [`Search::note_forward`]; returns `true` as soon as
    /// the frontiers meet at a candidate.
    fn forward_step(&mut self, search: &mut Search<'_>) -> bool;
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
    /// Backward `close`: marks `R_t`, the vertices proven to reach `t`
    /// under `L` — by the reverse-expansion frontier, or by an INS
    /// landmark `Check`. Complete exactly when the bidirectional phase
    /// exhausted the backward frontier.
    pub(crate) back: &'a mut CloseMap,
    pub(crate) back_stack: &'a mut Vec<VertexId>,
    /// `V(S,G)` membership (`N` = not a candidate).
    pub(crate) cand: &'a mut CloseMap,
    /// When set (backward frontier completed), forward expansion skips
    /// every push outside `R_t` — cone pruning, sound because any useful
    /// intermediate `x` on a path to a candidate `v ∈ R_t` satisfies
    /// `x ⇝ v ⇝ t`.
    pub(crate) prune_to_back: bool,
    /// Candidates marked by the forward / backward side of the
    /// bidirectional phase: an exhausted side that saw none proves the
    /// answer `false`.
    fwd_cand_seen: usize,
    back_cand_seen: usize,
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
        let ScratchParts { close, stack, queue, back, back_stack, cand } = parts;
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
            back,
            back_stack,
            cand,
            prune_to_back: false,
            fwd_cand_seen: 0,
            back_cand_seen: 0,
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

        // O(1) mask prechecks: with no out-label of s (or no in-label of t)
        // usable under L, no path with ≥ 1 edge can leave s (or enter t) —
        // only the zero-edge s = t witness remains, and s ≠ t rules it out.
        if s != t
            && (self.g.out_label_mask(s).intersection(self.labels).is_empty()
                || self.g.in_label_mask(t).intersection(self.labels).is_empty())
        {
            self.stats.negative_terminations += 1;
            return self.finish(false, clock);
        }

        // Selective L over a large candidate set: meet-in-the-middle phase
        // (see the module docs); it either decides the query outright or
        // completes one frontier and finishes through the specialized
        // cleanup loops. Small candidate sets stay on the classic chained
        // probes — one backward closure can only beat them when it replaces
        // many per-candidate `v ⇝ t` probes.
        if self.selective && vsg.len() >= self.limits.bidi_min_candidates {
            let answer = self.bidirectional(frontier, vsg);
            return self.finish(answer, clock);
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

    /// The meet-in-the-middle phase plus its cleanup loops; always
    /// returns the final answer (setting `interrupted` on truncation).
    fn bidirectional(&mut self, frontier: &mut impl Frontier, vsg: &[VertexId]) -> bool {
        self.back.reset();
        self.back_stack.clear();
        self.cand.reset();
        for &v in vsg {
            self.cand.set(v, CloseState::F);
        }
        self.fwd_cand_seen = usize::from(!self.cand.is_n(self.s));

        // Seed the backward frontier at t.
        if self.reach_back(self.t) && !self.close.is_n(self.t) {
            return true; // s = t ∈ V(S,G): zero-edge witness
        }

        // Race the frontiers, expanding the smaller one each step, until
        // they meet at a candidate or one side exhausts.
        while !frontier.is_empty(self) && !self.back_stack.is_empty() {
            if self.limits.exceeded(self.stats.edges_scanned) {
                self.interrupted = true;
                return false;
            }
            let met = if self.back_stack.len() <= frontier.len(self) {
                self.backward_step()
            } else {
                frontier.forward_step(self)
            };
            if met {
                return true;
            }
        }

        if self.back_stack.is_empty() {
            // R_t fully enumerated (Check-derived seeds only add known
            // R_t members, whose in-closures stay inside R_t).
            if self.back_cand_seen == 0 {
                // No candidate reaches t: early negative termination —
                // the candidate loop is skipped entirely.
                self.stats.negative_terminations += 1;
                return false;
            }
            self.prune_to_back = true;
            self.cleanup_back_complete(frontier, vsg)
        } else {
            // The forward region R_s is fully enumerated.
            if self.fwd_cand_seen == 0 {
                self.stats.negative_terminations += 1;
                return false;
            }
            self.cleanup_forward_complete(frontier, vsg)
        }
    }

    /// Adds the unmarked `w` to `R_t` and the backward frontier; returns
    /// whether `w` is a candidate.
    #[inline]
    pub(crate) fn reach_back(&mut self, w: VertexId) -> bool {
        self.back.set(w, CloseState::F);
        self.back_stack.push(w);
        self.stats.pushes += 1;
        let is_cand = !self.cand.is_n(w);
        self.back_cand_seen += usize::from(is_cand);
        is_cand
    }

    /// Candidate/meet accounting for a vertex the forward side of the
    /// bidirectional phase just marked `F`; `true` when the frontiers
    /// meet at it.
    #[inline]
    pub(crate) fn note_forward(&mut self, w: VertexId) -> bool {
        if self.cand.is_n(w) {
            return false;
        }
        self.fwd_cand_seen += 1;
        !self.back.is_n(w)
    }

    /// One backward expansion step: pop a proven `R_t` member and mark
    /// its usable in-neighbors. `true` when the frontiers meet at a
    /// candidate.
    fn backward_step(&mut self) -> bool {
        let x = self.back_stack.pop().expect("backward frontier non-empty");
        let exp = self.g.in_expansion(x, self.labels, true);
        self.stats.edges_skipped += exp.degree;
        for e in exp.edges {
            if !self.labels.contains(e.label) {
                continue;
            }
            self.stats.edges_scanned += 1;
            self.stats.backward_edges_scanned += 1;
            self.stats.edges_skipped -= 1;
            let w = e.vertex;
            if self.back.is_n(w) && self.reach_back(w) && !self.close.is_n(w) {
                return true; // meet at candidate w
            }
        }
        false
    }

    /// Candidate loop once `back` holds all of `R_t`: `v ⇝_L t` is a
    /// membership probe (no `B = T` invocation runs), and `lcs(s, v, F)`
    /// settles the forward half with pushes confined to `R_t`.
    fn cleanup_back_complete(&mut self, frontier: &mut impl Frontier, vsg: &[VertexId]) -> bool {
        let (s, t) = (self.s, self.t);
        for &v in vsg {
            if self.interrupted || self.limits.exceeded(self.stats.edges_scanned) {
                self.interrupted = true;
                return false;
            }
            match self.close.get(v) {
                CloseState::N => {
                    if v == s || v == t {
                        // Endpoint ∈ V(S,G): the query reduces to plain
                        // s ⇝_L t, and R_t membership decides it.
                        return !self.back.is_n(s);
                    }
                    if self.back.is_n(v) {
                        continue; // v cannot reach t
                    }
                    if frontier.lcs(self, s, v, false) {
                        return true; // s ⇝ v and v ∈ R_t
                    }
                }
                CloseState::F => {
                    if !self.back.is_n(v) {
                        return true; // s ⇝ v already known
                    }
                }
                CloseState::T => {}
            }
        }
        false
    }

    /// Candidate loop once the forward frontier exhausted: `close ≠ N`
    /// decides `s ⇝_L v`, and the partial backward map doubles as a
    /// positive-only `v ⇝_L t` shortcut before the classic `B = T` probe.
    fn cleanup_forward_complete(&mut self, frontier: &mut impl Frontier, vsg: &[VertexId]) -> bool {
        let (s, t) = (self.s, self.t);
        for &v in vsg {
            if self.interrupted || self.limits.exceeded(self.stats.edges_scanned) {
                self.interrupted = true;
                return false;
            }
            match self.close.get(v) {
                CloseState::N => {
                    if v == t {
                        // t ∈ V(S,G) reduces the query to s ⇝_L t, and
                        // the complete forward region disproves it.
                        return false;
                    }
                    // s cannot reach v: skip without any LCS call.
                }
                CloseState::F => {
                    if v == s || v == t {
                        // Endpoint ∈ V(S,G): reduces to s ⇝_L t.
                        return !self.close.is_n(t);
                    }
                    if !self.back.is_n(v) {
                        return true; // backward phase already proved v ⇝ t
                    }
                    if frontier.lcs(self, v, t, true) {
                        return true;
                    }
                }
                CloseState::T => {}
            }
        }
        false
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
