//! Per-thread query sessions — the mutable half of the split serving API.
//!
//! The reachability-indexing literature frames scalable serving as a split
//! between *build-once shared state* (graph, local index, compiled plans)
//! and *cheap per-query state* (the `close` surjection, traversal stacks,
//! priority structures). [`LscrEngine`] owns the
//! former behind `&self`; a [`Session`] owns the latter exclusively, so N
//! threads each holding a session answer queries against one shared
//! engine without locking around the search itself. The locks are short
//! and constant-time. A warm query compiled and answered on a held
//! session takes one: the state `RwLock`, read once to pin the graph and
//! look the plan up among its plans ([`LscrEngine::compile_text`],
//! [`LscrEngine::compile`] or [`Session::answer_with_options`]). A forced
//! INS reads the state once more, for the index built for the pin. The
//! server's search slot adds its queue mutex twice (taking the slot, with
//! the idle scratch it builds the session around, and releasing it), so
//! a warm `/query` takes three. [`LscrEngine::session`] reads the state
//! once more, to size a new scratch.
//!
//! ```
//! use kgreach::{Algorithm, LscrEngine, LscrQuery, QueryOptions, SubstructureConstraint};
//! use kgreach::fixtures::{figure3, s0};
//!
//! let engine = LscrEngine::new(figure3());
//! let g = engine.graph(); // the pin: names resolve and the query runs on it
//! let q = LscrQuery::new(
//!     g.vertex_id("v0").unwrap(),
//!     g.vertex_id("v4").unwrap(),
//!     g.label_set(&["likes", "follows"]),
//!     s0(),
//! );
//! let compiled = engine.compile(&q).unwrap();
//! let mut session = engine.session();
//! let out = session.answer_compiled(&g, &compiled, Algorithm::Auto, &QueryOptions::default());
//! assert!(out.unwrap().answer);
//! ```

use crate::close::{CloseMap, OriginMap};
use crate::engine::{Algorithm, LscrEngine};
use crate::priority::GlobalQueue;
use crate::query::{CompiledLscrQuery, LscrQuery, QueryError, QueryOptions, QueryOutcome};
use crate::witness::find_witness;
use crate::{ins, oracle, uis, uis_star};
use kgreach_graph::{Graph, VertexId};
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
    /// intern vertices between queries, and a reused scratch may predate
    /// them. Never shrinks.
    pub(crate) fn ensure(&mut self, n: usize) {
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
/// A session owns its [`SearchScratch`]: [`LscrEngine::session`]
/// allocates one sized to the current graph, and [`Session::new`] builds a
/// session around a scratch that [`into_scratch`](Session::into_scratch)
/// handed back, so a caller that answers many short-lived sessions (a
/// server's search slot) reuses one allocation set. Sessions are `Send`,
/// so they can be moved into `std::thread::scope` workers. They are
/// deliberately **not** `Sync`: one session per thread is the concurrency
/// model.
///
/// Every query runs on the graph its caller pinned with
/// [`LscrEngine::graph`], so a concurrent
/// [`apply_update`](crate::LscrEngine::apply_update) never changes the
/// graph under a running search; a query pinned after it sees the
/// updated graph (and grows the scratch if `|V|` grew).
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e LscrEngine,
    scratch: SearchScratch,
}

impl<'e> Session<'e> {
    /// A session answering against `engine` on `scratch`, whatever graph
    /// the scratch was sized for: each query grows it to its pin's `|V|`.
    pub fn new(engine: &'e LscrEngine, scratch: SearchScratch) -> Self {
        Session { engine, scratch }
    }

    /// Ends the session, handing its scratch back for the next one.
    pub fn into_scratch(self) -> SearchScratch {
        self.scratch
    }

    /// [`LscrEngine::compile`], then [`answer_compiled`](Self::answer_compiled),
    /// both on one pin of the engine's graph, taken in the state read that
    /// looks the plan up.
    /// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
    pub fn answer_with_options(
        &mut self,
        query: &LscrQuery,
        algorithm: Algorithm,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome, QueryError> {
        let (graph, compiled) = self.engine.compile_pinned(query)?;
        self.answer_compiled(&graph, &compiled, algorithm, opts)
    }

    /// Answers an already-compiled query on `graph`, the graph the caller
    /// pinned with [`LscrEngine::graph`]: the whole search, its witness
    /// and its ids are read on that one graph, whatever an update or a
    /// reload swaps in meanwhile. A [`CompiledLscrQuery`] is
    /// `Clone + Send + Sync`, so one compiled query can be held and
    /// re-executed by many sessions; its plan and memoized `V(S,G)` are
    /// the ones the engine shares for its graph.
    ///
    /// A held compiled query is bound to the id space and content epoch
    /// it was compiled at. Its source and target are range-checked on
    /// `graph` first ([`QueryError::Graph`]). Compiled for another epoch
    /// of `graph`'s lineage (an update ran in between: ids are stable),
    /// its plan is rebound once to `graph` from its retained SPARQL text,
    /// through the engine's plans for `graph`. Compiled for another lineage
    /// (before a snapshot reload, or by another engine: the same ids name
    /// other vertices), it is refused with
    /// [`QueryError::IdSpaceMismatch`]; compile it again from names.
    ///
    /// [`Algorithm::Ins`] reads the index of `graph`, built on first use
    /// outside every engine lock and kept only while `graph` is the served
    /// graph (see [`LscrEngine::local_index`]).
    pub fn answer_compiled(
        &mut self,
        graph: &Arc<Graph>,
        query: &CompiledLscrQuery,
        algorithm: Algorithm,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome, QueryError> {
        graph.check_vertex(query.source)?;
        graph.check_vertex(query.target)?;
        let rebound;
        let query = if query.constraint.is_bound_to(graph) {
            query
        } else if query.constraint.shares_ids_with(graph) {
            // Nothing may read the stale plan against `graph`: its memos
            // and constants belong to another epoch.
            let (constraint, _) =
                self.engine.plan_for(graph, query.constraint.sparql_text(), None)?;
            rebound = CompiledLscrQuery { constraint, ..*query };
            &rebound
        } else {
            return Err(QueryError::IdSpaceMismatch);
        };
        let resolved = if algorithm == Algorithm::Auto {
            self.engine.plan_algorithm(query, None)
        } else {
            algorithm
        };
        let scratch = &mut self.scratch;
        // Dynamic graphs grow |V| between queries, and a reused scratch
        // may be sized for another graph.
        scratch.ensure(graph.num_vertices());
        let mut outcome = match resolved {
            Algorithm::Uis => uis::answer_with(graph, query, scratch, opts),
            Algorithm::UisStar => uis_star::answer_with(graph, query, scratch, opts),
            Algorithm::Ins => {
                ins::answer_with(graph, query, &self.engine.index_for(graph), scratch, opts)
            }
            Algorithm::Oracle | Algorithm::Auto => oracle::answer(graph, query),
        };
        outcome.stats.algorithm = Some(resolved);
        if opts.witness && outcome.answer {
            outcome.witness = find_witness(graph, query);
        }
        Ok(outcome)
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
        let compiled = engine.compile(&query).unwrap();
        let mut session = engine.session();
        for alg in
            [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Oracle, Algorithm::Auto]
        {
            let out = session
                .answer_compiled(&engine.graph(), &compiled, alg, &QueryOptions::default())
                .unwrap();
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
            .answer_compiled(
                &engine.graph(),
                &compiled,
                Algorithm::UisStar,
                &QueryOptions::default(),
            )
            .unwrap();
        assert!(reference.answer);
        assert!(compiled.constraint.vsg_len_if_materialized().is_some(), "memoized on first run");
        for seed in 0..8 {
            let opts =
                QueryOptions::default().with_vsg_order(crate::query::VsgOrder::Shuffled(seed));
            let out = session
                .answer_compiled(&engine.graph(), &compiled, Algorithm::UisStar, &opts)
                .unwrap();
            assert_eq!(out.answer, reference.answer, "seed {seed} changed the answer");
            assert_eq!(out.stats.vsg_size, reference.stats.vsg_size);
        }
    }

    #[test]
    fn compiled_query_held_across_a_shrinking_reload_is_a_typed_error() {
        // Regression: the stale-plan rebind used to `expect` the
        // recompile, so a compiled query whose vertex ids no longer fit
        // the reloaded graph panicked the calling thread (a server's
        // connection thread, when a hot reload lands between compile and
        // pin).
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
            match session.answer_compiled(&engine.graph(), &compiled, alg, &QueryOptions::default())
            {
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
        let ok = engine.compile(&ok).unwrap();
        assert!(
            session
                .answer_compiled(&engine.graph(), &ok, Algorithm::Auto, &QueryOptions::default())
                .unwrap()
                .answer
        );
    }

    /// Every answer entry, the oracle and `Auto` included.
    const EVERY_ALGORITHM: [Algorithm; 5] =
        [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Oracle, Algorithm::Auto];

    /// `a -p-> b -p-> c`, with the two triples added (so the three names
    /// interned) in the order of `triples`.
    fn chain(triples: [(&str, &str); 2]) -> Graph {
        let mut b = kgreach_graph::GraphBuilder::new();
        for (s, t) in triples {
            b.add_triple(s, "p", t);
        }
        b.build().unwrap()
    }

    /// An engine snapshot of `g`.
    fn snapshot_of(g: Graph) -> Vec<u8> {
        let mut bytes = Vec::new();
        LscrEngine::new(g).save_snapshot(&mut bytes).unwrap();
        bytes
    }

    /// `a → c` through a vertex with a `p`-edge into `c`: true on `chain`.
    fn a_to_c(g: &Graph) -> LscrQuery {
        let v = |name| g.vertex_id(name).unwrap();
        let s = crate::SubstructureConstraint::parse("SELECT ?x WHERE { ?x <p> <c> . }").unwrap();
        LscrQuery::new(v("a"), v("c"), g.all_labels(), s)
    }

    #[test]
    fn compiled_query_held_across_an_id_permuting_reload_is_refused() {
        let engine = LscrEngine::new(chain([("a", "b"), ("b", "c")]));
        let held = engine.compile(&a_to_c(&engine.graph())).unwrap();
        let mut session = engine.session();
        let opts = QueryOptions::default();
        assert!(
            session.answer_compiled(&engine.graph(), &held, Algorithm::Uis, &opts).unwrap().answer
        );

        // The same triples, interned in another order: `held`'s ids now
        // name other vertices (its `a → c` reads as `b → a`).
        engine.reload_from_snapshot(&snapshot_of(chain([("b", "c"), ("a", "b")]))).unwrap();
        let g = engine.graph();
        assert_ne!(g.vertex_id("a"), Some(held.source));
        for alg in EVERY_ALGORITHM {
            match session.answer_compiled(&g, &held, alg, &opts) {
                Err(QueryError::IdSpaceMismatch) => {}
                other => panic!("{alg}: expected IdSpaceMismatch, got {other:?}"),
            }
        }
        // Compiled again from names, the query answers as before.
        let fresh = engine.compile(&a_to_c(&g)).unwrap();
        for alg in EVERY_ALGORITHM {
            assert!(session.answer_compiled(&g, &fresh, alg, &opts).unwrap().answer, "{alg}");
        }
    }

    #[test]
    fn compiled_query_answered_through_another_engine_is_refused() {
        let first = LscrEngine::new(chain([("a", "b"), ("b", "c")]));
        let second = LscrEngine::new(chain([("b", "c"), ("a", "b")]));
        assert_eq!((first.graph_epoch(), second.graph_epoch()), (0, 0));
        let held = first.compile(&a_to_c(&first.graph())).unwrap();
        let mut session = second.session();
        for alg in EVERY_ALGORITHM {
            match session.answer_compiled(&second.graph(), &held, alg, &QueryOptions::default()) {
                Err(QueryError::IdSpaceMismatch) => {}
                other => panic!("{alg}: expected IdSpaceMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn compiled_query_held_across_an_update_rebinds_and_answers_as_a_fresh_compile() {
        let engine = LscrEngine::new(chain([("a", "b"), ("b", "c")]));
        let held = engine.compile(&a_to_c(&engine.graph())).unwrap();
        let mut session = engine.session();
        let opts = QueryOptions::default();
        let mut detour = kgreach_graph::UpdateBatch::new();
        detour.delete("b", "p", "c").insert("a", "p", "x").insert("x", "p", "c");
        let mut cut = kgreach_graph::UpdateBatch::new();
        cut.delete("a", "p", "x");
        for (batch, want) in [(detour, true), (cut, false)] {
            engine.apply_update(&batch).unwrap();
            let g = engine.graph();
            let fresh = engine.compile(&a_to_c(&g)).unwrap();
            assert_eq!(oracle::answer(&g, &fresh).answer, want);
            for alg in EVERY_ALGORITHM {
                let out = session.answer_compiled(&g, &held, alg, &opts).unwrap();
                assert_eq!(out.answer, want, "{alg}: the held query");
                let out = session.answer_compiled(&g, &fresh, alg, &opts).unwrap();
                assert_eq!(out.answer, want, "{alg}: a fresh compile");
            }
        }
    }

    #[test]
    fn a_query_answers_on_its_pin_across_an_update_and_a_reload() {
        let engine = LscrEngine::new(chain([("a", "b"), ("b", "c")]));
        let q = a_to_c(&engine.graph());
        let ids = (q.source, q.target, q.label_constraint);
        let (g, query, _) =
            engine.compile_text(q.constraint.sparql_text(), |_| Ok::<_, QueryError>(ids)).unwrap();
        // Both swaps make `a → c` false on the served graph; the second
        // also renumbers every vertex.
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.delete("b", "p", "c");
        engine.apply_update(&batch).unwrap();
        engine.reload_from_snapshot(&snapshot_of(chain([("b", "a"), ("c", "b")]))).unwrap();
        assert_ne!(engine.graph().vertex_id("a"), Some(query.source));

        let want = oracle::answer(&g, &query).answer;
        assert!(want);
        let mut session = engine.session();
        let opts = QueryOptions::default().with_witness(true);
        for alg in EVERY_ALGORITHM {
            let out = session.answer_compiled(&g, &query, alg, &opts).unwrap();
            assert_eq!(out.answer, want, "{alg}");
            let witness = out.witness.expect("a true answer carries its witness");
            let names: Vec<_> = witness.vertices().into_iter().map(|v| g.vertex_name(v)).collect();
            assert_eq!(names, ["a", "b", "c"], "{alg}: the witness names vertices of the pin");
            assert_eq!(g.vertex_name(witness.via), "b", "{alg}");
            assert!(witness.path.iter().all(|e| g.has_edge(e.src, e.label, e.dst)), "{alg}");
        }
        assert!(engine.local_index_if_built().is_none(), "an index for the pin is not installed");
    }

    #[test]
    fn a_timeout_no_instant_can_hold_means_no_deadline() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let forever = QueryOptions::default().with_timeout(std::time::Duration::MAX);
        let mut session = engine.session();
        for (s, t) in [("v0", "v4"), ("v4", "v0")] {
            let compiled = engine.compile(&q(&g, s, t, &["likes", "follows"])).unwrap();
            for alg in EVERY_ALGORITHM {
                let want = session.answer_compiled(&g, &compiled, alg, &QueryOptions::default());
                let out = session.answer_compiled(&g, &compiled, alg, &forever).unwrap();
                assert_eq!(out.answer, want.unwrap().answer, "{alg}: {s} → {t}");
                assert!(!out.interrupted, "{alg}: {s} → {t}");
            }
        }
    }

    #[test]
    fn a_session_built_around_a_handed_back_scratch_grows_it_to_the_pin() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let compiled = engine.compile(&q(&g, "v0", "v4", &["likes", "follows"])).unwrap();
        let mut scratch = SearchScratch::new(1);
        for alg in EVERY_ALGORITHM {
            let mut session = Session::new(&engine, scratch);
            let out = session.answer_compiled(&g, &compiled, alg, &QueryOptions::default());
            assert!(out.unwrap().answer, "{alg}");
            scratch = session.into_scratch();
            assert_eq!(scratch.num_vertices(), g.num_vertices(), "{alg}");
        }
    }
}
