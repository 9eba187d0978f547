//! INS's evaluation function: the priority heap `H` and the global
//! priority queue `Q` (paper §5.2).
//!
//! Traditional informed searches (best-first, A\*) rank frontier vertices
//! with a heuristic; INS does the same with two structures whose composite
//! priorities are derived from the `close` surjection, landmark membership,
//! and the partition-correlation estimate `ρ`:
//!
//! * [`CandidateHeap`] (`H`) orders `V(S,G)`: explored (`F`) candidates
//!   before unexplored (`N`), then landmarks, then smaller `ρ` — `ρ(v, t)`
//!   for `F` candidates (how near the candidate is to the target),
//!   `ρ(s, v)` for `N` candidates (how near the source is to the
//!   candidate).
//! * [`GlobalQueue`] (`Q`) replaces UIS\*'s LIFO stack: `T` elements first
//!   (rule i), then same-partition-as-`t*` (rule ii), landmarks (rule iii),
//!   smaller `ρ(·, t*)` (rule iv), unexplored home landmark (rule v), and
//!   insertion order last (rule vi). Duplicate pushes keep only the newest
//!   entry (the paper's dedup rule).
//!
//! Both structures are **lazy**: priorities depend on mutable state
//! (`close`, and `t*` changes between `LCS` invocations), so entries store
//! a key snapshot and are re-keyed on pop when stale. Key components only
//! change monotonically within an invocation, so re-push counts are
//! bounded and pops stay amortized `O(log n)`.

use crate::close::{CloseMap, CloseState};
use crate::local_index::LocalIndex;
use kgreach_graph::VertexId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Priority context shared by both structures for key computation.
pub struct PriorityContext<'a> {
    /// The `close` surjection.
    pub close: &'a CloseMap,
    /// The local index (partition + correlation degrees).
    pub index: &'a LocalIndex,
    /// Query source `s` (for `ρ(s, v)` on unexplored candidates).
    pub source: VertexId,
    /// Current reachability target (`t` in `H`; `t*` in `Q`).
    pub target: VertexId,
}

type HKey = (u8, u8, u32);

/// The heap `H` over `V(S,G)`.
#[derive(Debug)]
pub struct CandidateHeap {
    heap: BinaryHeap<Reverse<(HKey, u32)>>,
}

impl CandidateHeap {
    /// Initializes `H` with the candidate set `V(S,G)`.
    pub fn new(candidates: &[VertexId], ctx: &PriorityContext<'_>) -> Self {
        let mut heap = BinaryHeap::with_capacity(candidates.len());
        for &v in candidates {
            heap.push(Reverse((Self::key(v, ctx), v.0)));
        }
        CandidateHeap { heap }
    }

    /// H priority: `(close-state rank, non-landmark, ρ)`.
    /// F-explored candidates rank before N; T candidates rank last (their
    /// whole `T`-region was already searched).
    fn key(v: VertexId, ctx: &PriorityContext<'_>) -> HKey {
        let (state_rank, rho) = match ctx.close.get(v) {
            CloseState::F => (0u8, ctx.index.rho(v, ctx.target)),
            CloseState::N => (1u8, ctx.index.rho(ctx.source, v)),
            CloseState::T => (2u8, u32::MAX),
        };
        let non_landmark = !ctx.index.partition().is_landmark(v) as u8;
        (state_rank, non_landmark, rho)
    }

    /// Pops the current top candidate, re-keying stale entries.
    pub fn pop(&mut self, ctx: &PriorityContext<'_>) -> Option<VertexId> {
        while let Some(Reverse((stored, raw))) = self.heap.pop() {
            let v = VertexId(raw);
            let fresh = Self::key(v, ctx);
            if fresh == stored {
                return Some(v);
            }
            // close state changed since insertion: re-key and retry.
            self.heap.push(Reverse((fresh, raw)));
            // The re-pushed entry may itself be the top again; the loop
            // terminates because keys only change when close states do.
            if let Some(Reverse((top, top_raw))) = self.heap.peek() {
                if *top_raw == raw && *top == fresh {
                    self.heap.pop();
                    return Some(v);
                }
            }
        }
        None
    }

    /// Whether the heap is exhausted.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of entries (counting stale duplicates).
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

type QKey = (u8, u8, u8, u32, u8);

/// The global priority queue `Q`.
#[derive(Debug)]
pub struct GlobalQueue {
    heap: BinaryHeap<Reverse<(QKey, u64, u32)>>,
    /// Latest push sequence per vertex; `0` = not queued. Implements the
    /// "duplicate pushes keep the newest" rule.
    token: Vec<u64>,
    seq: u64,
    /// Per-partition memo of `ρ(partition, t*)` — ρ only depends on the
    /// source's partition, and `t*` is fixed within one `LCS` invocation,
    /// so this turns the hot correlation lookup into an array read.
    /// Encoding: `0` = unset, otherwise `(1 << 32) | ρ`.
    rho_memo: Vec<u64>,
    memo_target: Option<VertexId>,
}

const MEMO_SET: u64 = 1 << 32;

impl GlobalQueue {
    /// Creates an empty queue over `n` vertices.
    pub fn new(n: usize) -> Self {
        GlobalQueue {
            heap: BinaryHeap::new(),
            token: vec![0; n],
            seq: 0,
            rho_memo: Vec::new(),
            memo_target: None,
        }
    }

    /// Grows the queue to cover at least `n` vertices (dynamic graphs
    /// grow `|V|` between queries; fresh token slots start at `0` = not
    /// queued). Never shrinks.
    pub fn ensure_len(&mut self, n: usize) {
        if n > self.token.len() {
            self.token.resize(n, 0);
        }
    }

    /// Readies the queue for a fresh query in O(1): drops all live
    /// entries and invalidates the per-target ρ memo. Push tokens and the
    /// sequence counter are *kept* — stale tokens are harmless once the
    /// heap is empty (they are only consulted against live heap entries),
    /// and the monotone sequence preserves FIFO tie-breaking across
    /// queries.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.memo_target = None;
    }

    /// Memoized `ρ(v, t*)` (see [`LocalIndex::rho`]).
    fn rho(&mut self, v: VertexId, ctx: &PriorityContext<'_>) -> u32 {
        if self.memo_target != Some(ctx.target) {
            self.memo_target = Some(ctx.target);
            self.rho_memo.clear();
            self.rho_memo.resize(ctx.index.partition().num_landmarks(), 0);
        }
        match ctx.index.partition().af(v) {
            Some(ord) => {
                let slot = &mut self.rho_memo[ord as usize];
                if *slot == 0 {
                    *slot = MEMO_SET | u64::from(ctx.index.rho(v, ctx.target));
                }
                (*slot & (MEMO_SET - 1)) as u32
            }
            None => u32::MAX,
        }
    }

    /// Q priority (rules i-v; rule vi is the sequence tiebreak).
    fn key(&mut self, v: VertexId, ctx: &PriorityContext<'_>) -> QKey {
        let part = ctx.index.partition();
        // (i) close[u]=T before close[v]=F (N entries rank after both).
        let state_rank = match ctx.close.get(v) {
            CloseState::T => 0u8,
            CloseState::F => 1,
            CloseState::N => 2,
        };
        // (ii) same partition as t*.
        let af_v = part.af(v);
        let af_t = part.af(ctx.target);
        let af_mismatch = (af_v.is_none() || af_v != af_t) as u8;
        // (iii) landmarks first.
        let non_landmark = !part.is_landmark(v) as u8;
        // (iv) ρ(u, t*), memoized per partition.
        let rho = self.rho(v, ctx);
        // (v) for non-landmarks, prefer an unexplored home landmark (its
        // index entry has not been spent on pruning yet).
        let lm_state = match part.landmark_of(v) {
            Some(lm) if ctx.close.is_n(lm) => 0u8,
            _ => 1,
        };
        (state_rank, af_mismatch, non_landmark, rho, lm_state)
    }

    /// Pushes `v` (or re-prioritizes it if already queued).
    pub fn push(&mut self, v: VertexId, ctx: &PriorityContext<'_>) {
        self.seq += 1;
        self.token[v.index()] = self.seq;
        let key = self.key(v, ctx);
        self.heap.push(Reverse((key, self.seq, v.0)));
    }

    /// Pops the current highest-priority vertex, skipping superseded
    /// entries and re-keying stale ones.
    ///
    /// Rule (v) — the home-landmark state — is frozen at insertion time:
    /// a landmark being explored flips that bit for its whole partition at
    /// once, and re-keying every member would double heap traffic for a
    /// tie-break-level rule. Rules (i)-(iv) are always revalidated.
    pub fn pop(&mut self, ctx: &PriorityContext<'_>) -> Option<VertexId> {
        while let Some(Reverse((stored, seq, raw))) = self.heap.pop() {
            let v = VertexId(raw);
            if self.token[v.index()] != seq {
                continue; // superseded by a newer push (dedup rule)
            }
            let fresh = self.key(v, ctx);
            if (fresh.0, fresh.1, fresh.2, fresh.3) == (stored.0, stored.1, stored.2, stored.3) {
                self.token[v.index()] = 0;
                return Some(v);
            }
            // Stale key (close changed or t* differs from push time).
            self.seq += 1;
            self.token[v.index()] = self.seq;
            self.heap.push(Reverse((fresh, self.seq, raw)));
        }
        None
    }

    /// Whether any live entry remains.
    pub fn is_empty(&self) -> bool {
        // token check keeps this exact despite superseded entries.
        self.heap.iter().all(|Reverse((_, seq, raw))| self.token[VertexId(*raw).index()] != *seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_index::{LocalIndex, LocalIndexConfig};
    use kgreach_graph::{Graph, GraphBuilder};

    /// Two-partition graph: lm0 region {lm0, a}, exit a→lm1, lm1 region
    /// {lm1, b}.
    fn setup() -> (Graph, LocalIndex) {
        let mut b = GraphBuilder::new();
        b.add_triple("lm0", "p", "a");
        b.add_triple("a", "p", "lm1");
        b.add_triple("lm1", "p", "b");
        b.add_triple("lm0", "rdf:type", "C");
        b.add_triple("lm1", "rdf:type", "C");
        let g = b.build().unwrap();
        // Deterministic landmarks: use explicit count 2 and the schema has
        // exactly the two typed instances.
        let idx = LocalIndex::build(
            &g,
            &LocalIndexConfig { num_landmarks: Some(2), seed: 3, ..Default::default() },
        );
        (g, idx)
    }

    #[test]
    fn heap_orders_f_before_n() {
        let (g, idx) = setup();
        let a = g.vertex_id("a").unwrap();
        let b = g.vertex_id("b").unwrap();
        let mut close = CloseMap::new(g.num_vertices());
        close.set(b, CloseState::F);
        let ctx = PriorityContext { close: &close, index: &idx, source: a, target: b };
        let mut h = CandidateHeap::new(&[a, b], &ctx);
        assert_eq!(h.len(), 2);
        assert_eq!(h.pop(&ctx), Some(b)); // F-explored first
        assert_eq!(h.pop(&ctx), Some(a));
        assert_eq!(h.pop(&ctx), None);
        assert!(h.is_empty());
    }

    #[test]
    fn heap_demotes_stale_entries_on_pop() {
        // Lazy re-keying: an entry whose vertex got *demoted* (here to T,
        // which ranks last) is re-keyed on pop instead of being returned
        // with its stale priority. Priority improvements of buried entries
        // are heuristically deferred — harmless for correctness, see the
        // module docs.
        let (g, idx) = setup();
        let a = g.vertex_id("a").unwrap();
        let b = g.vertex_id("b").unwrap();
        let mut close = CloseMap::new(g.num_vertices());
        close.set(b, CloseState::F); // b would pop first…
        let ctx = PriorityContext { close: &close, index: &idx, source: a, target: b };
        let mut h = CandidateHeap::new(&[a, b], &ctx);
        close.set(b, CloseState::T); // …but is demoted to T before the pop.
        let ctx = PriorityContext { close: &close, index: &idx, source: a, target: b };
        assert_eq!(h.pop(&ctx), Some(a));
        assert_eq!(h.pop(&ctx), Some(b));
        assert_eq!(h.pop(&ctx), None);
    }

    #[test]
    fn heap_prefers_landmarks_within_same_state() {
        let (g, idx) = setup();
        let lm0 = g.vertex_id("lm0").unwrap();
        let a = g.vertex_id("a").unwrap();
        let close = CloseMap::new(g.num_vertices());
        let ctx = PriorityContext { close: &close, index: &idx, source: a, target: a };
        let mut h = CandidateHeap::new(&[a, lm0], &ctx);
        // Both N; lm0 is a landmark → first. (ρ ties are possible but the
        // landmark component dominates.)
        assert_eq!(h.pop(&ctx), Some(lm0));
    }

    #[test]
    fn queue_rule_i_t_first() {
        let (g, idx) = setup();
        let a = g.vertex_id("a").unwrap();
        let b = g.vertex_id("b").unwrap();
        let mut close = CloseMap::new(g.num_vertices());
        close.set(a, CloseState::F);
        close.set(b, CloseState::T);
        let ctx = PriorityContext { close: &close, index: &idx, source: a, target: b };
        let mut q = GlobalQueue::new(g.num_vertices());
        q.push(a, &ctx);
        q.push(b, &ctx);
        assert_eq!(q.pop(&ctx), Some(b));
        assert_eq!(q.pop(&ctx), Some(a));
        assert_eq!(q.pop(&ctx), None);
    }

    #[test]
    fn queue_rule_ii_partition_match() {
        let (g, idx) = setup();
        let a = g.vertex_id("a").unwrap(); // partition of lm0
        let b = g.vertex_id("b").unwrap(); // partition of lm1
        let mut close = CloseMap::new(g.num_vertices());
        close.set(a, CloseState::F);
        close.set(b, CloseState::F);
        // target is b → b shares t*'s partition → b first despite ties.
        let ctx = PriorityContext { close: &close, index: &idx, source: a, target: b };
        let mut q = GlobalQueue::new(g.num_vertices());
        q.push(a, &ctx);
        q.push(b, &ctx);
        assert_eq!(q.pop(&ctx), Some(b));
    }

    #[test]
    fn queue_dedup_keeps_newest() {
        let (g, idx) = setup();
        let a = g.vertex_id("a").unwrap();
        let b = g.vertex_id("b").unwrap();
        let mut close = CloseMap::new(g.num_vertices());
        close.set(a, CloseState::F);
        close.set(b, CloseState::F);
        let ctx = PriorityContext { close: &close, index: &idx, source: a, target: b };
        let mut q = GlobalQueue::new(g.num_vertices());
        q.push(a, &ctx);
        q.push(a, &ctx); // duplicate
        assert_eq!(q.pop(&ctx), Some(a));
        assert_eq!(q.pop(&ctx), None); // stale entry dropped
        assert!(q.is_empty());
    }

    #[test]
    fn queue_repush_after_upgrade_moves_to_front() {
        // The algorithms re-push a vertex whenever they upgrade its close
        // state (the push supersedes the old entry), which is how rule (i)
        // surfaces T elements first.
        let (g, idx) = setup();
        let a = g.vertex_id("a").unwrap();
        let b = g.vertex_id("b").unwrap();
        let mut close = CloseMap::new(g.num_vertices());
        close.set(a, CloseState::F);
        close.set(b, CloseState::F);
        let ctx = PriorityContext { close: &close, index: &idx, source: a, target: a };
        let mut q = GlobalQueue::new(g.num_vertices());
        q.push(a, &ctx);
        q.push(b, &ctx);
        close.set(b, CloseState::T);
        let ctx = PriorityContext { close: &close, index: &idx, source: a, target: a };
        q.push(b, &ctx); // supersedes the stale F entry
        assert_eq!(q.pop(&ctx), Some(b));
        assert_eq!(q.pop(&ctx), Some(a));
        assert_eq!(q.pop(&ctx), None);
    }

    #[test]
    fn queue_demotes_stale_entries_on_pop() {
        // Without a re-push, a demoted entry is lazily re-keyed on pop.
        let (g, idx) = setup();
        let a = g.vertex_id("a").unwrap();
        let b = g.vertex_id("b").unwrap();
        let mut close = CloseMap::new(g.num_vertices());
        close.set(a, CloseState::T);
        close.set(b, CloseState::F);
        let ctx = PriorityContext { close: &close, index: &idx, source: a, target: a };
        let mut q = GlobalQueue::new(g.num_vertices());
        q.push(a, &ctx); // keyed as T (rank 0)
        q.push(b, &ctx);
        // a's key in the heap claims T; simulate a context change by
        // re-targeting (t* := b flips rule-ii for both) — pops must still
        // terminate and return both exactly once.
        let ctx = PriorityContext { close: &close, index: &idx, source: a, target: b };
        let first = q.pop(&ctx).unwrap();
        let second = q.pop(&ctx).unwrap();
        assert_ne!(first, second);
        assert_eq!(q.pop(&ctx), None);
    }

    #[test]
    fn queue_reset_reuses_allocations() {
        let (g, idx) = setup();
        let a = g.vertex_id("a").unwrap();
        let b = g.vertex_id("b").unwrap();
        let mut close = CloseMap::new(g.num_vertices());
        close.set(a, CloseState::F);
        close.set(b, CloseState::F);
        let ctx = PriorityContext { close: &close, index: &idx, source: a, target: b };
        let mut q = GlobalQueue::new(g.num_vertices());
        q.push(a, &ctx);
        q.push(b, &ctx);
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.pop(&ctx), None);
        // Pushes after a reset behave like a fresh queue.
        q.push(a, &ctx);
        q.push(a, &ctx); // dedup still keeps newest
        assert_eq!(q.pop(&ctx), Some(a));
        assert_eq!(q.pop(&ctx), None);
    }

    #[test]
    fn queue_fifo_tiebreak() {
        let (g, idx) = setup();
        // Two vertices with identical keys: insertion order wins (rule vi).
        let lm0 = g.vertex_id("lm0").unwrap();
        let a = g.vertex_id("a").unwrap();
        let mut close = CloseMap::new(g.num_vertices());
        close.set(lm0, CloseState::F);
        close.set(a, CloseState::F);
        // source/target outside their partition so rho ties at MAX.
        let b = g.vertex_id("b").unwrap();
        let ctx = PriorityContext { close: &close, index: &idx, source: b, target: b };
        let mut q = GlobalQueue::new(g.num_vertices());
        // a pushed first; lm0 is a landmark so it still wins on rule iii —
        // use two non-landmarks instead for the pure-FIFO check.
        let c_vertex = g.vertex_id("C").unwrap(); // class vertex, non-landmark
        q.push(a, &ctx);
        q.push(c_vertex, &ctx);
        let first = q.pop(&ctx).unwrap();
        assert_eq!(first, a, "FIFO among equal keys");
    }
}
