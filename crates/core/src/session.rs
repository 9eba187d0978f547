//! Per-thread query sessions — the mutable half of the split serving API.
//!
//! The reachability-indexing literature frames scalable serving as a split
//! between *build-once shared state* (graph, local index, compiled plans)
//! and *cheap per-query state* (the `close` surjection, traversal stacks,
//! priority structures). [`LscrEngine`] owns the
//! former behind `&self`; a [`Session`] owns the latter exclusively, so N
//! threads each holding a session answer queries against one shared
//! engine with **zero locking on the hot path** — the only synchronized
//! steps are per-query constant-time snapshots (plan-cache lookup, index
//! handle), never the search itself.
//!
//! ```
//! use kgreach::{Algorithm, LscrEngine, LscrQuery, SubstructureConstraint};
//! use kgreach::fixtures::{figure3, s0};
//!
//! let engine = LscrEngine::new(figure3());
//! let q = LscrQuery::new(
//!     engine.graph().vertex_id("v0").unwrap(),
//!     engine.graph().vertex_id("v4").unwrap(),
//!     engine.graph().label_set(&["likes", "follows"]),
//!     s0(),
//! );
//! let mut session = engine.session();
//! assert!(session.answer(&q, Algorithm::Auto).unwrap().answer);
//! ```

use crate::close::{CloseMap, OriginMap};
use crate::engine::{Algorithm, LscrEngine};
use crate::local_index::LocalIndex;
use crate::priority::GlobalQueue;
use crate::query::{CompiledLscrQuery, LscrQuery, QueryError, QueryOptions, QueryOutcome};
use crate::witness::find_witness;
use crate::{ins, oracle, uis, uis_star};
use kgreach_graph::VertexId;
use std::sync::Arc;

/// The reusable mutable workspace of one search thread: the epoch-reset
/// [`CloseMap`] and traversal stack of the forward side (UIS, UIS\*), the
/// same pair for UIS's backward side, UIS's two candidate sides, and
/// INS's global priority queue. One allocation set serves thousands of
/// queries.
///
/// Most callers never touch this type directly — [`Session`] owns one —
/// but the algorithm modules ([`uis`], [`uis_star`], [`ins`]) accept it
/// explicitly for harnesses that drive them without an engine.
#[derive(Debug)]
pub struct SearchScratch {
    close: CloseMap,
    stack: Vec<VertexId>,
    queue: GlobalQueue,
    /// Backward-frontier `close` — UIS's second side: marks the vertices
    /// known to reach `t` under `L`.
    back: CloseMap,
    back_stack: Vec<VertexId>,
    /// UIS's backward candidate side: `x ⇝_L u` for the recorded
    /// `u ∈ V(S,G)`. Both candidate maps are empty until a search seeds
    /// them, which grows them to the graph.
    vsg_back: OriginMap,
    vsg_back_stack: Vec<VertexId>,
    /// UIS's forward candidate side: `u ⇝_L x` for the recorded
    /// `u ∈ V(S,G)`.
    vsg_fwd: OriginMap,
    vsg_fwd_stack: Vec<VertexId>,
}

impl SearchScratch {
    /// Creates scratch for graphs with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        SearchScratch {
            close: CloseMap::new(num_vertices),
            stack: Vec::with_capacity(64),
            queue: GlobalQueue::new(num_vertices),
            back: CloseMap::new(num_vertices),
            back_stack: Vec::with_capacity(64),
            vsg_back: OriginMap::new(),
            vsg_back_stack: Vec::new(),
            vsg_fwd: OriginMap::new(),
            vsg_fwd_stack: Vec::new(),
        }
    }

    /// Number of vertices this scratch covers.
    pub fn num_vertices(&self) -> usize {
        self.close.len()
    }

    /// Grows the scratch to cover at least `n` vertices — dynamic graphs
    /// intern vertices between queries, and a pooled scratch may predate
    /// them. Never shrinks.
    pub fn ensure(&mut self, n: usize) {
        self.close.ensure_len(n);
        self.queue.ensure_len(n);
        self.back.ensure_len(n);
    }

    /// The scratch as disjoint mutable parts, for a search to borrow the
    /// ones its algorithm uses.
    pub(crate) fn parts(&mut self) -> ScratchParts<'_> {
        ScratchParts {
            close: &mut self.close,
            stack: &mut self.stack,
            queue: &mut self.queue,
            back: &mut self.back,
            back_stack: &mut self.back_stack,
            vsg_back: &mut self.vsg_back,
            vsg_back_stack: &mut self.vsg_back_stack,
            vsg_fwd: &mut self.vsg_fwd,
            vsg_fwd_stack: &mut self.vsg_fwd_stack,
        }
    }
}

/// Split borrow of a [`SearchScratch`]: forward `close` with the UIS/UIS\*
/// stack and INS's global queue, UIS's backward `close` with its stack,
/// and UIS's two candidate maps with theirs.
pub(crate) struct ScratchParts<'a> {
    pub(crate) close: &'a mut CloseMap,
    pub(crate) stack: &'a mut Vec<VertexId>,
    pub(crate) queue: &'a mut GlobalQueue,
    pub(crate) back: &'a mut CloseMap,
    pub(crate) back_stack: &'a mut Vec<VertexId>,
    pub(crate) vsg_back: &'a mut OriginMap,
    pub(crate) vsg_back_stack: &'a mut Vec<VertexId>,
    pub(crate) vsg_fwd: &'a mut OriginMap,
    pub(crate) vsg_fwd_stack: &'a mut Vec<VertexId>,
}

/// A per-thread handle for answering queries against a shared
/// [`LscrEngine`].
///
/// Sessions are cheap to create ([`LscrEngine::session`] recycles scratch
/// through a pool) and are `Send`, so they can be moved into
/// `std::thread::scope` workers. They are deliberately **not** `Sync`:
/// one session per thread is the concurrency model.
///
/// Every query pins one consistent `(graph, index)` snapshot from the
/// engine, so a concurrent
/// [`apply_update`](crate::LscrEngine::apply_update) never changes the
/// graph under a running search; the *next* query through the same
/// session sees the updated graph (and grows the scratch if `|V|` grew).
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e LscrEngine,
    /// `Some` until drop returns the scratch to the engine's pool.
    scratch: Option<SearchScratch>,
}

impl<'e> Session<'e> {
    pub(crate) fn new(engine: &'e LscrEngine, scratch: SearchScratch) -> Self {
        Session { engine, scratch: Some(scratch) }
    }

    /// The engine this session answers against.
    pub fn engine(&self) -> &'e LscrEngine {
        self.engine
    }

    /// Compiles and answers `query` with `algorithm` (default options).
    pub fn answer(
        &mut self,
        query: &LscrQuery,
        algorithm: Algorithm,
    ) -> Result<QueryOutcome, QueryError> {
        self.answer_with_options(query, algorithm, &QueryOptions::default())
    }

    /// Compiles and answers `query` with explicit [`QueryOptions`].
    /// Constraint compilation goes through the engine's plan cache.
    pub fn answer_with_options(
        &mut self,
        query: &LscrQuery,
        algorithm: Algorithm,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome, QueryError> {
        let compiled = self.engine.compile(query)?;
        self.answer_compiled(&compiled, algorithm, opts)
    }

    /// Answers an already-compiled query. A [`CompiledLscrQuery`] is
    /// `Clone + Send + Sync`, so one compiled query can be held and
    /// re-executed by many sessions; its plan and memoized `V(S,G)` are
    /// the ones the engine's plan cache shares.
    ///
    /// A compiled query is bound to the graph content epoch it was
    /// compiled at; if the engine's graph has been updated since, the
    /// plan is transparently recompiled from its retained SPARQL text
    /// (through the engine's plan cache) before the search runs. The
    /// rebind can fail — a snapshot reload may have replaced the graph
    /// with one the query's vertex ids do not fit — and that comes back
    /// as the same [`QueryError`] a fresh `compile` would raise.
    pub fn answer_compiled(
        &mut self,
        query: &CompiledLscrQuery,
        algorithm: Algorithm,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome, QueryError> {
        let mut recompiled: Option<CompiledLscrQuery> = None;
        loop {
            let query = recompiled.as_ref().unwrap_or(query);
            // One consistent `(graph, index)` snapshot for the whole query.
            let (g, index) = self.engine.state_snapshot();
            if query.constraint.graph_epoch() != g.epoch() {
                // Stale plan (caller-held query from before an update or a
                // reload, or one of them raced the snapshot): rebind and
                // retry. Nothing may read the stale plan against `g` —
                // its constants are ids of the old graph.
                recompiled = Some(self.engine.recompile(query)?);
                continue;
            }
            let resolved = if algorithm == Algorithm::Auto {
                self.engine.plan_algorithm(query, None)
            } else {
                algorithm
            };
            if resolved == Algorithm::Ins && index.is_none() {
                // Build installs the index for the *current* graph; retry
                // the snapshot so the pair is consistent.
                let _ = self.engine.local_index();
                continue;
            }
            // Dynamic graphs grow |V| between queries.
            self.scratch.as_mut().expect("scratch present until drop").ensure(g.num_vertices());
            let outcome = self.dispatch(&g, &index, query, resolved, opts);
            return Ok(self.finalize(&g, query, resolved, outcome, opts));
        }
    }

    fn dispatch(
        &mut self,
        g: &kgreach_graph::Graph,
        index: &Option<Arc<LocalIndex>>,
        query: &CompiledLscrQuery,
        algorithm: Algorithm,
        opts: &QueryOptions,
    ) -> QueryOutcome {
        debug_assert!(algorithm != Algorithm::Auto, "Auto resolved before dispatch");
        let scratch = self.scratch.as_mut().expect("scratch present until drop");
        match algorithm {
            Algorithm::Uis => uis::answer_with(g, query, scratch, opts),
            Algorithm::UisStar => uis_star::answer_with(g, query, scratch, opts),
            Algorithm::Ins => {
                let index = index.as_ref().expect("index pinned for INS");
                ins::answer_with(g, query, index, scratch, opts)
            }
            Algorithm::Oracle | Algorithm::Auto => oracle::answer(g, query),
        }
    }

    fn finalize(
        &self,
        g: &kgreach_graph::Graph,
        query: &CompiledLscrQuery,
        resolved: Algorithm,
        mut outcome: QueryOutcome,
        opts: &QueryOptions,
    ) -> QueryOutcome {
        outcome.stats.algorithm = Some(resolved);
        if opts.witness && outcome.answer {
            outcome.witness = find_witness(g, query);
        }
        outcome
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.engine.recycle_scratch(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure3, s0};

    fn q(g: &kgreach_graph::Graph, s: &str, t: &str, labels: &[&str]) -> LscrQuery {
        LscrQuery::new(g.vertex_id(s).unwrap(), g.vertex_id(t).unwrap(), g.label_set(labels), s0())
    }

    #[test]
    fn session_is_send_and_engine_is_sync() {
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send::<Session<'static>>();
        assert_send_sync::<LscrEngine>();
        assert_send_sync::<SearchScratch>();
        // One compiled query is held and executed by many sessions.
        assert_send_sync::<CompiledLscrQuery>();
    }

    #[test]
    fn all_algorithms_through_one_session() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let query = q(&g, "v0", "v4", &["likes", "follows"]);
        let mut session = engine.session();
        for alg in
            [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Oracle, Algorithm::Auto]
        {
            let out = session.answer(&query, alg).unwrap();
            assert!(out.answer, "{alg} disagrees");
            assert!(out.stats.algorithm.is_some());
            assert_ne!(out.stats.algorithm, Some(Algorithm::Auto), "Auto must resolve");
        }
    }

    #[test]
    fn witness_option_attaches_path() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let query = q(&g, "v0", "v4", &["likes", "follows"]);
        let mut session = engine.session();
        let opts = QueryOptions::default().with_witness(true);
        let out = session.answer_with_options(&query, Algorithm::Uis, &opts).unwrap();
        assert!(out.answer);
        let w = out.witness.expect("witness requested for a true answer");
        assert_eq!(engine.graph().vertex_name(w.via), "v2");
        // False answers carry no witness.
        let query = q(&g, "v0", "v3", &["likes", "follows"]);
        let out = session.answer_with_options(&query, Algorithm::Uis, &opts).unwrap();
        assert!(!out.answer);
        assert!(out.witness.is_none());
    }

    #[test]
    fn compiled_queries_honor_shuffled_vsg_order() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let compiled = engine.compile(&q(&g, "v3", "v4", &["likes", "hates", "friendOf"])).unwrap();
        let mut session = engine.session();
        let reference = session
            .answer_compiled(&compiled, Algorithm::UisStar, &QueryOptions::default())
            .unwrap();
        assert!(reference.answer);
        assert!(compiled.constraint.vsg_len_if_materialized().is_some(), "memoized on first run");
        for seed in 0..8 {
            let opts =
                QueryOptions::default().with_vsg_order(crate::query::VsgOrder::Shuffled(seed));
            let out = session.answer_compiled(&compiled, Algorithm::UisStar, &opts).unwrap();
            assert_eq!(out.answer, reference.answer, "seed {seed} changed the answer");
            assert_eq!(out.stats.vsg_size, reference.stats.vsg_size);
        }
    }

    #[test]
    fn compiled_query_held_across_a_shrinking_reload_is_a_typed_error() {
        // Regression: the stale-plan rebind used to `expect` the
        // recompile, so a compiled query whose vertex ids no longer fit
        // the reloaded graph panicked the calling thread (a kg-worker,
        // when a hot reload lands between compile and pin).
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let compiled = engine.compile(&q(&g, "v4", "v0", &["likes"])).unwrap();
        assert_eq!(compiled.source, VertexId(4));

        let mut b = kgreach_graph::GraphBuilder::new();
        b.add_triple("a", "likes", "b");
        let mut bytes = Vec::new();
        LscrEngine::new(b.build().unwrap()).save_snapshot(&mut bytes).unwrap();
        engine.reload_from_snapshot(&bytes[..]).unwrap();
        assert_eq!(engine.graph().num_vertices(), 2);

        let mut session = engine.session();
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            match session.answer_compiled(&compiled, alg, &QueryOptions::default()) {
                Err(QueryError::Graph(kgreach_graph::GraphError::VertexOutOfRange {
                    id: 4,
                    num_vertices: 2,
                })) => {}
                other => panic!("{alg}: expected VertexOutOfRange, got {other:?}"),
            }
        }
        // The session (and its scratch) stays usable afterwards.
        let g = engine.graph();
        let ok = LscrQuery::new(
            g.vertex_id("a").unwrap(),
            g.vertex_id("b").unwrap(),
            g.all_labels(),
            crate::SubstructureConstraint::parse("SELECT ?x WHERE { ?x <likes> <b> . }").unwrap(),
        );
        assert!(session.answer(&ok, Algorithm::Auto).unwrap().answer);
    }

    #[test]
    fn scratch_recycles_through_the_pool() {
        let engine = LscrEngine::new(figure3());
        assert_eq!(engine.pooled_scratch_count(), 0);
        {
            let _s1 = engine.session();
            let _s2 = engine.session();
            assert_eq!(engine.pooled_scratch_count(), 0);
        }
        assert_eq!(engine.pooled_scratch_count(), 2);
        {
            let _s3 = engine.session();
            assert_eq!(engine.pooled_scratch_count(), 1);
        }
        assert_eq!(engine.pooled_scratch_count(), 2);
    }
}
