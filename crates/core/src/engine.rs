//! The shared, concurrency-ready LSCR engine.
//!
//! [`LscrEngine`] owns the shared serving state — the graph behind an
//! [`Arc`], and derived from it the lazily built [`LocalIndex`] and the
//! constraint plans keyed by SPARQL text, swapped together under one
//! lock — and exposes every query entry point through `&self`, so one
//! engine instance is shared across threads (`LscrEngine: Send + Sync`). All
//! mutable per-query state lives in per-thread [`Session`]s; the engine
//! only synchronizes constant-time bookkeeping (pinning the graph with a
//! plan lookup in the same read), never the searches themselves. The
//! plans (`engine/plans.rs`) and snapshot save, load and reload
//! (`engine/persist.rs`) are private child modules, each one more
//! `impl LscrEngine` block.
//!
//! # Dynamic graphs: epochs and invalidation
//!
//! The served graph is not frozen: [`LscrEngine::apply_update`] applies
//! an [`UpdateBatch`] as a delta overlay (see
//! [`kgreach_graph::delta`]) and swaps the new graph in atomically, with
//! no index (the next INS query builds one) and no plans: derived state
//! lives and dies with its graph. Every content-changing batch bumps the
//! graph **epoch**; compiled constraint plans, their embedded `SCck` and
//! `V(S,G)` memos all record the [`lineage`](Graph::lineage) (id space)
//! and epoch they bind to, and a held [`CompiledLscrQuery`] rebinds
//! transparently to another epoch of its lineage and is refused on
//! another lineage (a snapshot reload starts one). A caller pins one
//! graph per query ([`LscrEngine::graph`], or the pin
//! [`LscrEngine::compile_text`] returns) and answers on it, so an update
//! never changes the graph under a running search — in-flight queries
//! finish against the pre-update state, subsequent ones see the new one.
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
//! let opts = QueryOptions::default();
//! let outcome = session.answer_compiled(&g, &compiled, Algorithm::Ins, &opts).unwrap();
//! assert!(outcome.answer);
//! // Auto serves every query with UIS:
//! let outcome = session.answer_compiled(&g, &compiled, Algorithm::Auto, &opts).unwrap();
//! assert!(outcome.answer);
//! assert_eq!(outcome.stats.algorithm, Some(Algorithm::Uis));
//! ```

use crate::constraint::CompiledConstraint;
use crate::local_index::{LocalIndex, LocalIndexConfig};
use crate::query::{CompiledLscrQuery, QueryError};
use crate::session::{SearchScratch, Session};
use kgreach_graph::fxhash::FxHashMap;
use kgreach_graph::{Graph, UpdateBatch, UpdateSummary};
use kgreach_sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

mod persist;
mod plans;

/// The LSCR algorithms implemented by this crate.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum Algorithm {
    /// Algorithm 1 — uninformed stack search with per-vertex `SCck`.
    Uis,
    /// Algorithm 2 — `V(S,G)` + chained label-constrained searches.
    UisStar,
    /// Algorithm 4 — informed search over the local index.
    Ins,
    /// The brute-force reference, one BFS over `(vertex, seen)`
    /// (tests/diagnostics).
    Oracle,
    /// The served default: the engine picks the algorithm, today UIS for
    /// every query (see [`LscrEngine::plan_algorithm`]). The choice is
    /// recorded in [`SearchStats::algorithm`](crate::SearchStats::algorithm).
    Auto,
}

impl Algorithm {
    /// The practical manual algorithms (excludes the oracle and the
    /// adaptive meta-choice).
    pub const ALL: [Algorithm; 3] = [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins];

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Uis => "UIS",
            Algorithm::UisStar => "UIS*",
            Algorithm::Ins => "INS",
            Algorithm::Oracle => "oracle",
            Algorithm::Auto => "Auto",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An owned, thread-shareable LSCR query engine bound to one graph.
///
/// See the [crate docs](crate) for the shared/per-thread state split.
/// A query is answered in two steps: [`compile`](Self::compile) (or
/// [`compile_text`](Self::compile_text) from SPARQL text) validates it
/// and looks its constraint plan up among the served graph's plans, and
/// [`Session::answer_compiled`] on a per-thread [`session`](Self::session)
/// runs the search on that session's reusable scratch. A compiled query
/// can be held and re-answered, reusing its plan and its materialized
/// `V(S,G)`.
#[derive(Debug)]
pub struct LscrEngine {
    /// The serving state a query snapshots together: the graph, and the
    /// index and plans built for exactly that graph. One lock, so a
    /// concurrent [`apply_update`](Self::apply_update) can never be
    /// observed half-swapped (a new graph with an index sized for the
    /// old `|V|` would read out of bounds), and one write swaps all three.
    state: RwLock<EngineState>,
    index_config: LocalIndexConfig,
    /// Orders the writers (updates, compaction, reloads) without blocking
    /// readers: heavy work happens under this lock while queries keep
    /// serving the previous state; only the final swap takes the state
    /// write lock.
    update_lock: Mutex<()>,
}

#[derive(Debug)]
struct EngineState {
    graph: Arc<Graph>,
    /// The index cell of `graph`, created by its first builder under the
    /// read lock (so a swap allocates nothing for it) and shared by every
    /// builder that pinned `graph`: filled once, outside every engine
    /// lock, so racing builds of one graph build once.
    index: OnceLock<Arc<OnceLock<Arc<LocalIndex>>>>,
    /// Plans compiled for `graph`, keyed by canonical constraint text,
    /// compiled outside the lock for a pin and installed only if that pin
    /// is still `graph`.
    plans: FxHashMap<String, Arc<CompiledConstraint>>,
}

impl EngineState {
    /// The state of a freshly swapped-in graph: no index, no plans yet.
    fn new(graph: Arc<Graph>) -> Self {
        EngineState { graph, index: OnceLock::new(), plans: FxHashMap::default() }
    }

    /// The index of `graph`, if built.
    fn built_index(&self) -> Option<Arc<LocalIndex>> {
        self.index.get().and_then(|cell| cell.get().cloned())
    }
}

/// What [`LscrEngine::apply_update`] did to the local index: always
/// [`NotBuilt`](Self::NotBuilt), since an update never builds or repairs
/// one.
/// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexMaintenance {
    /// No index was built for the updated graph: a content-changing batch
    /// drops the index (the next INS query builds one), a no-op batch
    /// keeps it.
    NotBuilt,
    /// Never reported: partition-local repair, of this many partitions.
    /// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
    Patched {
        /// Number of partitions whose `II`/`EIT`/`D` were recomputed.
        partitions_repaired: usize,
    },
    /// Never reported: a rebuild from scratch.
    /// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
    Rebuilt,
}

/// The result of one [`LscrEngine::apply_update`] call.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct UpdateOutcome {
    /// What the batch changed in the graph.
    pub summary: UpdateSummary,
    /// Always [`IndexMaintenance::NotBuilt`].
    /// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
    pub index: IndexMaintenance,
    /// The graph's content epoch after the batch.
    pub epoch: u64,
    /// Whether the engine compacted the overlay into a fresh CSR as part
    /// of this update (see [`LscrEngine::apply_update`]).
    pub compacted: bool,
}

/// A point-in-time summary of an engine's served state, from
/// [`LscrEngine::info`]. Serving processes surface these fields on their
/// health/metrics endpoints.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct EngineInfo {
    /// Vertices in the served graph.
    pub num_vertices: usize,
    /// Edges in the served graph (overlay-merged view).
    pub num_edges: usize,
    /// Distinct edge labels.
    pub num_labels: usize,
    /// Content epoch (bumped by updates and snapshot reloads).
    pub epoch: u64,
    /// Whether un-compacted delta overlay edits are live.
    pub has_overlay: bool,
    /// Heap footprint of the served graph, in bytes.
    pub graph_heap_bytes: usize,
    /// Whether the local index is built/installed.
    pub index_built: bool,
    /// Distinct constraint plans currently cached.
    pub cached_plans: usize,
}

/// When the overlay's changed-edge fraction
/// (`DeltaStats::delta_fraction`)
/// exceeds this threshold after an update, [`LscrEngine::apply_update`]
/// re-freezes the graph via [`Graph::compact`].
pub(crate) const DELTA_COMPACT_THRESHOLD: f64 = 0.5;

impl LscrEngine {
    /// Creates an engine with the default index configuration. The local
    /// index is built lazily on the first INS query (or eagerly via
    /// [`local_index`](Self::local_index)).
    ///
    /// Accepts an owned [`Graph`] or an `Arc<Graph>` — pass a clone of an
    /// existing `Arc` to keep using the graph outside the engine, or
    /// reach it through [`graph`](Self::graph).
    pub fn new(graph: impl Into<Arc<Graph>>) -> Self {
        Self::with_index_config(graph, LocalIndexConfig::default())
    }

    /// Creates an engine with a custom index configuration.
    pub fn with_index_config(graph: impl Into<Arc<Graph>>, config: LocalIndexConfig) -> Self {
        LscrEngine {
            state: RwLock::new(EngineState::new(graph.into())),
            index_config: config,
            update_lock: Mutex::new(()),
        }
    }

    /// The serving state, read. A poisoned lock is recovered: every write
    /// under it swaps in or inserts a value built before the guard was
    /// taken, so a thread that panicked holding it left nothing
    /// half-written.
    fn read(&self) -> RwLockReadGuard<'_, EngineState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The serving state, written. A poisoned lock is recovered, for
    /// [`read`](Self::read)'s reason.
    fn write(&self) -> RwLockWriteGuard<'_, EngineState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The writers' turn (updates, compaction, reloads). The lock guards no
    /// data, only the order of writers: one that panicked holding it died
    /// before its swap, so nothing served changed, and a poisoned lock is
    /// recovered.
    fn writer(&self) -> MutexGuard<'_, ()> {
        self.update_lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current graph, as a shared handle. Queries in flight keep the
    /// handle they started with, so a concurrent
    /// [`apply_update`](Self::apply_update) never changes the graph under
    /// a running search — it swaps a new one in for *subsequent* queries.
    pub fn graph(&self) -> Arc<Graph> {
        Arc::clone(&self.read().graph)
    }

    /// The current graph's content epoch — bumped by every
    /// content-changing [`apply_update`](Self::apply_update).
    pub fn graph_epoch(&self) -> u64 {
        self.read().graph.epoch()
    }

    /// Builds (or returns) the shared local index for the graph current at
    /// the call. The build takes no engine lock: queries and writers run
    /// on while it does.
    pub fn local_index(&self) -> Arc<LocalIndex> {
        self.index_for(&self.graph())
    }

    /// The local index for `graph`, a graph a query pinned. While `graph`
    /// is served, its state's index cell is filled once, outside every
    /// lock, and racing callers wait for that one build; an update swapped
    /// in meanwhile does not wait. A graph an update already replaced gets
    /// a build for its one caller, so a forced INS query finishes under
    /// any write stream.
    pub(crate) fn index_for(&self, graph: &Arc<Graph>) -> Arc<LocalIndex> {
        let cell = {
            let st = self.read();
            Arc::ptr_eq(&st.graph, graph).then(|| Arc::clone(st.index.get_or_init(Arc::default)))
        };
        let build = || {
            #[cfg(test)]
            tests::before_build();
            Arc::new(LocalIndex::build(graph, &self.index_config))
        };
        match cell {
            Some(cell) => Arc::clone(cell.get_or_init(build)),
            None => build(),
        }
    }

    /// The local index if some caller has already built or installed it
    /// (never triggers a build).
    pub fn local_index_if_built(&self) -> Option<Arc<LocalIndex>> {
        self.read().built_index()
    }

    /// Installs a prebuilt index (e.g. shared across engines or loaded
    /// from a build step), replacing any current one; the plans stay.
    ///
    /// The index must have been built for this engine's graph: its
    /// [`graph_fingerprint`](LocalIndex::graph_fingerprint) is checked
    /// and a mismatch is rejected with [`QueryError::IndexGraphMismatch`]
    /// instead of being silently accepted (which would produce wrong
    /// answers).
    pub fn set_local_index(&self, index: impl Into<Arc<LocalIndex>>) -> Result<(), QueryError> {
        let index = index.into();
        let mut st = self.write();
        let expected = st.graph.fingerprint();
        let found = index.graph_fingerprint();
        if expected != found {
            return Err(QueryError::IndexGraphMismatch { expected, found });
        }
        st.index = OnceLock::new();
        st.index.get_or_init(Arc::default).get_or_init(|| index);
        Ok(())
    }

    /// Applies an [`UpdateBatch`] to the served graph: the overlay-merged
    /// graph is swapped in atomically, the content epoch advances, and the
    /// swap discards everything derived from the old graph (the constraint
    /// plans with their embedded `SCck` and `V(S,G)` memos, and the local
    /// index). The index is dropped, not repaired: no served query reads
    /// it (`Auto` is UIS), and the next INS query builds one for the graph
    /// it pins.
    ///
    /// Queries running concurrently finish against the pre-update state
    /// (crash-consistent snapshot semantics); queries started after this
    /// returns see the updated graph. Updates are serialized with each
    /// other, with compaction and with reloads; they wait for no query or
    /// index build, and block no reader while the heavy work runs.
    ///
    /// When the overlay's changed edges pass half the graph's edge count
    /// (`DeltaStats::delta_fraction` > 0.5), the graph is re-frozen
    /// ([`Graph::compact`]), so long-running update streams cannot degrade
    /// query performance unboundedly.
    ///
    /// ```
    /// use kgreach::{Algorithm, LscrEngine, LscrQuery, QueryOptions};
    /// use kgreach::fixtures::{figure3, s0};
    /// use kgreach_graph::UpdateBatch;
    ///
    /// let engine = LscrEngine::new(figure3());
    /// let q = LscrQuery::new(
    ///     engine.graph().vertex_id("v0").unwrap(),
    ///     engine.graph().vertex_id("v4").unwrap(),
    ///     engine.graph().label_set(&["likes", "follows"]),
    ///     s0(),
    /// );
    /// let held = engine.compile(&q).unwrap();
    /// let mut session = engine.session();
    /// let opts = QueryOptions::default();
    /// let before = engine.graph();
    /// assert!(session.answer_compiled(&before, &held, Algorithm::Auto, &opts).unwrap().answer);
    ///
    /// // Sever the v2 → v4 hop: the same held query now answers false on
    /// // the updated graph, and still true on the graph pinned before.
    /// let mut batch = UpdateBatch::new();
    /// batch.delete("v2", "follows", "v4");
    /// let outcome = engine.apply_update(&batch).unwrap();
    /// assert_eq!(outcome.summary.edges_deleted, 1);
    /// let after = engine.graph();
    /// assert!(!session.answer_compiled(&after, &held, Algorithm::Auto, &opts).unwrap().answer);
    /// assert!(session.answer_compiled(&before, &held, Algorithm::Auto, &opts).unwrap().answer);
    /// ```
    pub fn apply_update(&self, batch: &UpdateBatch) -> Result<UpdateOutcome, QueryError> {
        self.update_logged(batch, || Ok(())).map(|(outcome, _)| outcome)
    }

    /// The one update step: [`apply_update`](Self::apply_update), with
    /// `log` run once a content-changing batch is applied to the private
    /// clone and before the swap, so an `Err` from `log` swaps nothing.
    /// Returns `log`'s value, or `None` for a batch that changed nothing
    /// and was not logged.
    pub(crate) fn update_logged<L>(
        &self,
        batch: &UpdateBatch,
        log: impl FnOnce() -> Result<L, QueryError>,
    ) -> Result<(UpdateOutcome, Option<L>), QueryError> {
        let _updates = self.writer();
        // O(delta), not O(|V|+|E|): the clone shares the frozen base (CSR
        // pair, dict base layers, per-class schema lists) behind `Arc`s
        // and copies only overlay state and dict tails — see the `Graph`
        // type docs. In-flight queries keep reading the old graph untouched.
        let mut graph = (*self.graph()).clone();
        let summary = graph.apply_update(batch)?;
        let logged = summary.changed().then(log).transpose()?;
        let compacted = summary.changed()
            && graph
                .delta_stats()
                .is_some_and(|d| d.delta_fraction(graph.num_edges()) > DELTA_COMPACT_THRESHOLD);
        if compacted {
            graph.compact();
        }
        let epoch = graph.epoch();
        if summary.changed() {
            self.swap_state(EngineState::new(Arc::new(graph)));
        }
        let index = IndexMaintenance::NotBuilt;
        Ok((UpdateOutcome { summary, index, epoch, compacted }, logged))
    }

    /// Swaps in `next` as the served state: the one write that discards
    /// the replaced graph's plans and index. They are dropped after the
    /// guard is released, so freeing up to 4,096 plans' memos never stalls
    /// a pin; a build still filling the replaced index serves the callers
    /// that pinned its graph.
    fn swap_state(&self, next: EngineState) {
        let _replaced = std::mem::replace(&mut *self.write(), next);
    }

    /// Re-freezes the served graph's overlay into a clean CSR now (see
    /// [`Graph::compact`]); content, lineage, ids, epoch and fingerprint
    /// are unchanged, so only the graph is swapped: the index cell (built,
    /// being built or empty) and the plans stay. No-op when the graph is
    /// already compact.
    pub fn compact(&self) {
        let _updates = self.writer();
        let graph = self.graph();
        if !graph.has_overlay() {
            return;
        }
        let compacted = Arc::new(graph.compacted());
        // `graph` still holds the replaced graph, so it is freed after the
        // guard is released.
        self.write().graph = compacted;
    }

    /// Opens a per-thread [`Session`] with a new scratch sized to the
    /// current graph. Sessions observe graph updates: each query runs on
    /// the graph its caller pinned and grows the scratch to its `|V|` on
    /// demand. To reuse one scratch across sessions, build them with
    /// [`Session::new`] and take it back with [`Session::into_scratch`].
    pub fn session(&self) -> Session<'_> {
        Session::new(self, SearchScratch::new(self.graph().num_vertices()))
    }

    /// A point-in-time summary of the served state — the cheap
    /// observability hook behind a serving process's health and metrics
    /// endpoints (all counters are reads of existing state; nothing is
    /// built or locked beyond the state read lock).
    pub fn info(&self) -> EngineInfo {
        let st = self.read();
        let (graph, indexed, plans) =
            (Arc::clone(&st.graph), st.built_index().is_some(), st.plans.len());
        drop(st);
        EngineInfo {
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            num_labels: graph.num_labels(),
            epoch: graph.epoch(),
            has_overlay: graph.has_overlay(),
            graph_heap_bytes: graph.heap_bytes(),
            index_built: indexed,
            cached_plans: plans,
        }
    }

    /// The algorithm [`Algorithm::Auto`] resolves to: UIS, for every
    /// query — its sides meet between `s`, `t` and `V(S,G)` (see the
    /// [`uis`](crate::uis) module docs); UIS\* and INS run when forced.
    /// The arguments are unused; the signature stays for a caller that
    /// times the planning step.
    /// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
    pub fn plan_algorithm(
        &self,
        _query: &CompiledLscrQuery,
        _vsg_hint: Option<usize>,
    ) -> Algorithm {
        Algorithm::Uis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{all_labels_query, answer, figure3, s0};
    use crate::query::{LscrQuery, QueryOptions};
    use crate::SubstructureConstraint;
    use kgreach_sync::mpsc;
    use std::cell::Cell;
    use std::time::Duration;

    thread_local! {
        /// Run once, on this thread, just before its next index build.
        static BUILD_GATE: Cell<Option<Box<dyn FnOnce()>>> = const { Cell::new(None) };
    }

    /// [`LscrEngine::index_for`]'s hook: runs the gate this thread set.
    pub(super) fn before_build() {
        if let Some(gate) = BUILD_GATE.take() {
            gate();
        }
    }

    /// Holds this thread's next index build until `release` sends, after
    /// telling `held`.
    fn hold_next_build(held: mpsc::Sender<()>, release: mpsc::Receiver<()>) {
        BUILD_GATE.set(Some(Box::new(move || {
            held.send(()).unwrap();
            let _ = release.recv();
        })));
    }

    #[test]
    fn interrupted_searches_never_poison_caches() {
        // Regression guard: a budget-truncated *negative* answer must not
        // be remembered anywhere — not in the SCck cache (UIS), not in
        // the plan cache's shared V(S,G) memo (UIS*/INS). Truncate a
        // known-true query to a false/interrupted outcome, then re-answer
        // unbudgeted through the same engine and demand the truth back.
        let engine = LscrEngine::new(figure3());
        engine.local_index();
        let g = engine.graph();
        let q = LscrQuery::new(
            g.vertex_id("v3").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.label_set(&["likes", "hates", "friendOf"]),
            s0(),
        );
        let zero = QueryOptions::default().with_step_budget(0);
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            let compiled = engine.compile(&q).unwrap();
            let truncated =
                engine.session().answer_compiled(&engine.graph(), &compiled, alg, &zero).unwrap();
            assert!(truncated.interrupted, "{alg}: budget 0 must interrupt");
            assert!(!truncated.answer, "{alg}: truncated searches answer false");
            let full = answer(&engine, &q, alg).unwrap();
            assert!(full.answer, "{alg}: a truncated negative poisoned a cache");
            assert!(!full.interrupted);
        }
    }

    #[test]
    fn interrupted_compiled_queries_recover_the_truth() {
        // Same invariant for a held compiled query: the V(S,G) memo a
        // truncated run leaves behind is content-derived (the SPARQL
        // evaluation never consults budgets), so the re-answer must
        // succeed — and reuse the memo rather than recompute around it.
        let engine = LscrEngine::new(figure3());
        engine.local_index();
        let g = engine.graph();
        let compiled = engine
            .compile(&LscrQuery::new(
                g.vertex_id("v3").unwrap(),
                g.vertex_id("v4").unwrap(),
                g.label_set(&["likes", "hates", "friendOf"]),
                s0(),
            ))
            .unwrap();
        let zero = QueryOptions::default().with_step_budget(0);
        let mut session = engine.session();
        for alg in [Algorithm::UisStar, Algorithm::Ins] {
            let truncated =
                session.answer_compiled(&engine.graph(), &compiled, alg, &zero).unwrap();
            assert!(truncated.interrupted && !truncated.answer, "{alg}");
            assert_eq!(compiled.constraint.vsg_len_if_materialized(), Some(2), "{alg}");
            let full = session
                .answer_compiled(&engine.graph(), &compiled, alg, &QueryOptions::default())
                .unwrap();
            assert!(full.answer, "{alg}: truncated negative stuck in the shared memo");
            assert!(!full.interrupted);
        }
    }

    #[test]
    fn proven_negatives_are_not_interrupted() {
        // The dual guard: an early *negative termination* is a proof, not
        // a truncation — it must come back `interrupted: false` (so
        // callers may cache it as definitive) with the counter visible.
        let engine = LscrEngine::new(figure3());
        engine.local_index();
        let g = engine.graph();
        // v0 has no out-edge labeled "hates": the O(1) mask precheck
        // proves false without scanning anything.
        let q = LscrQuery::new(
            g.vertex_id("v0").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.label_set(&["hates"]),
            s0(),
        );
        for alg in [Algorithm::UisStar, Algorithm::Ins] {
            let out = answer(&engine, &q, alg).unwrap();
            assert!(!out.answer, "{alg}");
            assert!(!out.interrupted, "{alg}: a proven negative is not a truncation");
            assert!(out.stats.negative_terminations > 0, "{alg}: precheck must fire");
            assert_eq!(out.stats.edges_scanned, 0, "{alg}: terminated before any scan");
        }
    }

    #[test]
    fn all_algorithms_through_engine() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let q = LscrQuery::new(
            g.vertex_id("v3").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.label_set(&["likes", "hates", "friendOf"]),
            s0(),
        );
        for alg in
            [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Oracle, Algorithm::Auto]
        {
            let out = answer(&engine, &q, alg).unwrap();
            assert!(out.answer, "{alg} disagrees");
        }
    }

    #[test]
    fn engine_is_shareable_from_arc_graph() {
        let g = Arc::new(figure3());
        let engine = LscrEngine::new(Arc::clone(&g));
        assert_eq!(engine.graph().num_vertices(), g.num_vertices());
        assert_eq!(engine.graph().num_edges(), g.num_edges());
        let q = all_labels_query(&g, "v0", "v4");
        assert!(answer(&engine, &q, Algorithm::Uis).unwrap().answer);
    }

    #[test]
    fn engine_reuses_index() {
        let engine = LscrEngine::with_index_config(
            figure3(),
            LocalIndexConfig { num_landmarks: Some(2), seed: 4, ..Default::default() },
        );
        let first = engine.local_index();
        assert_eq!(first.stats().num_landmarks, 2);
        // Second access returns the same shared build.
        let again = engine.local_index();
        assert!(Arc::ptr_eq(&first, &again));
    }

    #[test]
    fn set_prebuilt_index() {
        let g = Arc::new(figure3());
        let idx = LocalIndex::build(
            &g,
            &LocalIndexConfig { num_landmarks: Some(3), seed: 9, ..Default::default() },
        );
        let engine = LscrEngine::new(Arc::clone(&g));
        engine.set_local_index(idx).unwrap();
        assert_eq!(engine.local_index().stats().num_landmarks, 3);
    }

    #[test]
    fn mismatched_index_rejected() {
        // An index built for a *different* graph must not be accepted.
        let engine = LscrEngine::new(figure3());
        let mut b = kgreach_graph::GraphBuilder::new();
        b.add_triple("x", "p", "y");
        let other = b.build().unwrap();
        let foreign = LocalIndex::build(&other, &LocalIndexConfig::default());
        match engine.set_local_index(foreign) {
            Err(QueryError::IndexGraphMismatch { expected, found }) => {
                assert_ne!(expected, found);
                assert_eq!(expected, engine.graph().fingerprint());
            }
            other => panic!("expected IndexGraphMismatch, got {other:?}"),
        }
        // The engine still has no index installed.
        assert!(engine.local_index_if_built().is_none());
    }

    #[test]
    fn compiled_query_memoizes_vsg_across_algorithms() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let compiled = engine.compile(&all_labels_query(&g, "v0", "v4")).unwrap();
        assert_eq!(compiled.constraint.vsg_len_if_materialized(), None);
        let opts = QueryOptions::default();
        let mut session = engine.session();
        let out =
            session.answer_compiled(&engine.graph(), &compiled, Algorithm::UisStar, &opts).unwrap();
        assert!(out.answer);
        // First UIS* execution materialized V(S0,G0) = {v1, v2}.
        assert_eq!(compiled.constraint.vsg_len_if_materialized(), Some(2));
        // INS runs over the same plan and the same memo.
        let again =
            session.answer_compiled(&engine.graph(), &compiled, Algorithm::Ins, &opts).unwrap();
        assert!(again.answer);
        assert_eq!(again.stats.vsg_size, Some(2));
        let shared = engine.compile(&all_labels_query(&g, "v3", "v4")).unwrap();
        assert!(Arc::ptr_eq(&shared.constraint, &compiled.constraint));
    }

    #[test]
    fn auto_planner_decisions() {
        // Every query resolves to UIS — an unsatisfiable constraint, any
        // V(S,G) hint, with or without an index — and neither planning
        // nor answering through Auto builds the index.
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let unsat = LscrQuery::new(
            g.vertex_id("v0").unwrap(),
            g.vertex_id("v4").unwrap(),
            g.all_labels(),
            SubstructureConstraint::parse("SELECT ?x WHERE { ?x <likes> <ghost> . }").unwrap(),
        );
        let unsat = engine.compile(&unsat).unwrap();
        let names = ["v0", "v1", "v2", "v3", "v4"];
        for s in names {
            for t in names {
                let q = all_labels_query(&g, s, t);
                let compiled = engine.compile(&q).unwrap();
                for hint in [None, Some(0), Some(1), Some(g.num_vertices())] {
                    assert_eq!(engine.plan_algorithm(&compiled, hint), Algorithm::Uis);
                    assert_eq!(engine.plan_algorithm(&unsat, hint), Algorithm::Uis);
                }
                let out = answer(&engine, &q, Algorithm::Auto).unwrap();
                let expected = answer(&engine, &q, Algorithm::Oracle).unwrap();
                assert_eq!(out.answer, expected.answer, "{s}->{t}");
                assert_eq!(out.stats.algorithm, Some(Algorithm::Uis));
            }
        }
        let out = engine.session().answer_compiled(
            &engine.graph(),
            &unsat,
            Algorithm::Auto,
            &QueryOptions::default(),
        );
        assert!(!out.unwrap().answer);
        assert!(engine.local_index_if_built().is_none(), "planning must not build");
        let _ = engine.local_index();
        assert_eq!(engine.plan_algorithm(&unsat, Some(1)), Algorithm::Uis);
    }

    #[test]
    fn invalid_query_errors() {
        let engine = LscrEngine::new(figure3());
        let q = LscrQuery::new(
            kgreach_graph::VertexId(99),
            engine.graph().vertex_id("v4").unwrap(),
            engine.graph().all_labels(),
            s0(),
        );
        assert!(answer(&engine, &q, Algorithm::Uis).is_err());
    }

    #[test]
    fn apply_update_changes_answers_and_invalidates_caches() {
        let engine = LscrEngine::new(figure3());
        let q = {
            let g = engine.graph();
            LscrQuery::new(
                g.vertex_id("v0").unwrap(),
                g.vertex_id("v4").unwrap(),
                g.label_set(&["likes", "follows"]),
                s0(),
            )
        };
        assert!(answer(&engine, &q, Algorithm::Uis).unwrap().answer);
        assert_eq!(engine.graph_epoch(), 0);
        assert_eq!(engine.cached_plans(), 1);

        // Sever the only satisfying route under {likes, follows}.
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.delete("v2", "follows", "v4");
        let out = engine.apply_update(&batch).unwrap();
        assert_eq!(out.summary.edges_deleted, 1);
        assert_eq!(out.epoch, 1);
        assert_eq!(out.index, IndexMaintenance::NotBuilt);
        assert_eq!(engine.graph_epoch(), 1);
        assert_eq!(engine.cached_plans(), 0, "plan cache invalidated");
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            assert!(!answer(&engine, &q, alg).unwrap().answer, "{alg} must see the delete");
        }

        // Re-create a route through a brand-new vertex; old compiled
        // queries keep working (recompiled transparently).
        let compiled = engine.compile(&q).unwrap();
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.insert("v2", "follows", "bridge").insert("bridge", "likes", "v4");
        let out = engine.apply_update(&batch).unwrap();
        assert_eq!(out.summary.vertices_added, 1);
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            assert!(answer(&engine, &q, alg).unwrap().answer, "{alg} must see the insert");
        }
        // Stale compiled query (epoch 1) against epoch-2 graph.
        let out = engine.session().answer_compiled(
            &engine.graph(),
            &compiled,
            Algorithm::Uis,
            &QueryOptions::default(),
        );
        assert!(out.unwrap().answer);
    }

    #[test]
    fn apply_update_drops_the_index_and_forced_ins_rebuilds_it_lazily() {
        let engine = LscrEngine::with_index_config(
            figure3(),
            LocalIndexConfig { num_landmarks: Some(3), seed: 7, ..Default::default() },
        );
        let before = engine.local_index();
        // A no-op batch changes no content and keeps the index.
        let mut noop = kgreach_graph::UpdateBatch::new();
        noop.insert("v0", "likes", "v2");
        engine.apply_update(&noop).unwrap();
        assert!(Arc::ptr_eq(&before, &engine.local_index_if_built().unwrap()));

        // A content-changing batch drops it, and UIS and Auto leave it
        // unbuilt.
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.insert("v4", "likes", "v0");
        let out = engine.apply_update(&batch).unwrap();
        assert_eq!(out.index, IndexMaintenance::NotBuilt);
        assert!(engine.local_index_if_built().is_none(), "an update drops the index");
        let g = engine.graph();
        let q = LscrQuery::new(
            g.vertex_id("v4").unwrap(),
            g.vertex_id("v2").unwrap(),
            g.label_set(&["likes"]),
            s0(),
        );
        let want = answer(&engine, &q, Algorithm::Oracle).unwrap().answer;
        for alg in [Algorithm::Uis, Algorithm::Auto] {
            assert_eq!(answer(&engine, &q, alg).unwrap().answer, want, "{alg}");
        }
        assert!(engine.local_index_if_built().is_none(), "only INS builds the index");

        // The first forced INS builds it for the updated graph, once.
        assert_eq!(answer(&engine, &q, Algorithm::Ins).unwrap().answer, want);
        let built = engine.local_index_if_built().expect("INS installed the index");
        assert_eq!(built.graph_fingerprint(), g.fingerprint());
        assert_ne!(built.graph_fingerprint(), before.graph_fingerprint());
        assert_eq!(answer(&engine, &q, Algorithm::Ins).unwrap().answer, want);
        assert!(Arc::ptr_eq(&built, &engine.local_index_if_built().unwrap()), "built once");

        // A build for a graph an update has replaced serves its caller and
        // is not installed.
        let pinned = engine.graph();
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.delete("v4", "likes", "v0");
        engine.apply_update(&batch).unwrap();
        let stale = engine.index_for(&pinned);
        assert_eq!(stale.graph_fingerprint(), pinned.fingerprint());
        assert!(engine.local_index_if_built().is_none(), "a stale build was installed");

        // A batch that compacts drops it too.
        let _ = engine.local_index();
        let mut big = kgreach_graph::UpdateBatch::new();
        for i in 0..20 {
            big.insert(&format!("bulk{i}"), "likes", &format!("bulk{}", i + 1));
        }
        let out = engine.apply_update(&big).unwrap();
        assert!(out.compacted, "20 edges on an 8-edge graph must trigger compaction");
        assert!(!engine.graph().has_overlay());
        assert!(engine.local_index_if_built().is_none());
    }

    #[test]
    fn writers_never_wait_for_an_index_build_and_racing_builds_build_once() {
        let engine = LscrEngine::new(figure3());
        let mut reloaded = Vec::new();
        LscrEngine::new(figure3()).save_snapshot(&mut reloaded).unwrap();
        let engine = &engine;
        // An update, a compaction and a reload all return while a forced
        // INS build for the served graph is held.
        let pin = engine.graph();
        let (held_tx, held) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        std::thread::scope(|s| {
            let pin = &pin;
            let build = s.spawn(move || {
                hold_next_build(held_tx, release_rx);
                engine.index_for(pin)
            });
            held.recv().unwrap();
            let (done_tx, done) = mpsc::channel();
            s.spawn(move || {
                let mut batch = UpdateBatch::new();
                batch.insert("v4", "likes", "v0");
                engine.apply_update(&batch).unwrap();
                engine.compact();
                engine.reload_from_snapshot(&reloaded).unwrap();
                done_tx.send(()).unwrap();
            });
            let writers = done.recv_timeout(Duration::from_secs(10));
            release.send(()).unwrap();
            writers.expect("a writer waited for the index build");
            assert_eq!(build.join().unwrap().graph_fingerprint(), pin.fingerprint());
        });
        assert!(engine.local_index_if_built().is_none(), "a replaced pin's index was installed");

        // A second forced INS on a held build's pin gets that build.
        let pin = engine.graph();
        let (held_tx, held) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        std::thread::scope(|s| {
            let pin = &pin;
            let first = s.spawn(move || {
                hold_next_build(held_tx, release_rx);
                engine.index_for(pin)
            });
            held.recv().unwrap();
            let second = s.spawn(move || {
                BUILD_GATE.set(Some(Box::new(|| panic!("a second build for one pin"))));
                engine.index_for(pin)
            });
            std::thread::sleep(Duration::from_millis(50));
            release.send(()).unwrap();
            let (first, second) = (first.join().unwrap(), second.join().unwrap());
            assert!(Arc::ptr_eq(&first, &second), "one pin, one build");
            assert!(Arc::ptr_eq(&first, &engine.local_index_if_built().unwrap()));
        });
    }

    #[test]
    fn a_panicking_index_build_leaves_the_next_forced_ins_free_to_build() {
        let engine = LscrEngine::new(figure3());
        let q = all_labels_query(&engine.graph(), "v0", "v4");
        BUILD_GATE.set(Some(Box::new(|| panic!("seeded panic in an index build"))));
        let failed = std::panic::catch_unwind(|| answer(&engine, &q, Algorithm::Ins));
        assert!(failed.is_err());
        assert!(engine.local_index_if_built().is_none());
        assert!(answer(&engine, &q, Algorithm::Ins).unwrap().answer);
        let built = engine.local_index_if_built().expect("the next forced INS built the index");
        assert_eq!(built.graph_fingerprint(), engine.graph().fingerprint());
        let mut batch = UpdateBatch::new();
        batch.insert("v4", "likes", "v0");
        assert_eq!(engine.apply_update(&batch).unwrap().epoch, 1);
    }

    #[test]
    fn noop_update_keeps_state() {
        let engine = LscrEngine::new(figure3());
        let g_before = engine.graph();
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.insert("v0", "likes", "v2"); // already present
        let out = engine.apply_update(&batch).unwrap();
        assert!(!out.summary.changed());
        assert!(!out.compacted);
        assert_eq!(out.epoch, 0);
        assert!(Arc::ptr_eq(&g_before, &engine.graph()), "no-op update must not swap the graph");
    }

    #[test]
    fn failed_update_leaves_engine_untouched() {
        let engine = LscrEngine::new(figure3());
        let mut batch = kgreach_graph::UpdateBatch::new();
        for i in 0..kgreach_graph::MAX_LABELS {
            batch.insert("a", &format!("p{i}"), "b");
        }
        assert!(matches!(
            engine.apply_update(&batch),
            Err(QueryError::Graph(kgreach_graph::GraphError::TooManyLabels { .. }))
        ));
        assert_eq!(engine.graph_epoch(), 0);
        assert_eq!(engine.graph().num_edges(), 8);
    }

    #[test]
    fn explicit_compact_preserves_served_answers() {
        let engine = LscrEngine::new(figure3());
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.insert("v4", "likes", "v0").delete("v0", "likes", "v2");
        engine.apply_update(&batch).unwrap();
        assert!(engine.graph().has_overlay());
        let q = all_labels_query(&engine.graph(), "v3", "v0");
        let before = answer(&engine, &q, Algorithm::Uis).unwrap().answer;
        let epoch = engine.graph_epoch();
        engine.compact();
        assert!(!engine.graph().has_overlay());
        assert_eq!(engine.graph_epoch(), epoch, "compaction is content-preserving");
        assert_eq!(answer(&engine, &q, Algorithm::Uis).unwrap().answer, before);
        engine.compact(); // idempotent
    }

    #[test]
    fn held_compiled_queries_track_updates() {
        let engine = LscrEngine::new(figure3());
        let q = {
            let g = engine.graph();
            LscrQuery::new(
                g.vertex_id("v0").unwrap(),
                g.vertex_id("v4").unwrap(),
                g.label_set(&["likes", "follows"]),
                s0(),
            )
        };
        let opts = QueryOptions::default();
        let held = engine.compile(&q).unwrap();
        let mut session = engine.session();
        let out =
            session.answer_compiled(&engine.graph(), &held, Algorithm::UisStar, &opts).unwrap();
        assert!(out.answer);
        assert_eq!(held.constraint.vsg_len_if_materialized(), Some(2));

        // Delete one of the two satisfying vertices' qualifying edges:
        // V(S0,G) shrinks, the held query rebinds to a plan for the new
        // epoch, V(S,G) re-materializes, answers update.
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.delete("v1", "friendOf", "v3");
        engine.apply_update(&batch).unwrap();
        let out =
            session.answer_compiled(&engine.graph(), &held, Algorithm::UisStar, &opts).unwrap();
        assert!(out.answer, "v2 still satisfies S0 and routes v0 to v4");
        assert_eq!(out.stats.vsg_size, Some(1), "stale plan rebound to the updated graph");
        // The rebound plan lives in the plan cache, so the fresh memo is
        // materialized once and shared — INS re-executes against it.
        let rebound = engine.compile(&q).unwrap();
        assert_eq!(rebound.constraint.graph_epoch(), engine.graph_epoch());
        assert_eq!(rebound.constraint.vsg_len_if_materialized(), Some(1));
        let out = session.answer_compiled(&engine.graph(), &held, Algorithm::Ins, &opts).unwrap();
        assert!(out.answer);
        assert_eq!(out.stats.vsg_size, Some(1));
    }

    /// A held query whose constraint names the vertex `literal` (written
    /// in `sparql` as an escaped string literal) is answered for that same
    /// constraint after an unrelated update rebuilds its plan from the
    /// canonical text.
    fn held_literal_survives_an_update(literal: &str, sparql: &str) {
        let mut b = kgreach_graph::GraphBuilder::new();
        b.add_triple("s", "next", "m");
        b.add_triple("m", "next", "t");
        b.add_triple("m", "tag", literal);
        let engine = LscrEngine::new(b.build().unwrap());
        let constraint = SubstructureConstraint::parse(sparql).unwrap();
        assert_eq!(constraint.query().patterns[0].object, kgreach_sparql::Term::constant(literal));
        let q = {
            let g = engine.graph();
            let v = |name| g.vertex_id(name).unwrap();
            LscrQuery::new(v("s"), v("t"), g.label_set(&["next"]), constraint)
        };
        let held = engine.compile(&q).unwrap();
        let opts = QueryOptions::default();
        let mut session = engine.session();
        assert!(
            session.answer_compiled(&engine.graph(), &held, Algorithm::Uis, &opts).unwrap().answer
        );

        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.insert("elsewhere", "unrelated", "nowhere");
        engine.apply_update(&batch).unwrap();
        let out = session.answer_compiled(&engine.graph(), &held, Algorithm::Uis, &opts).unwrap();
        assert!(out.answer, "the rebuilt plan must still require ?x <tag> {literal:?}");
    }

    #[test]
    fn held_query_with_an_angle_bracket_literal_survives_an_update() {
        held_literal_survives_an_update("a>b", r#"SELECT ?x WHERE { ?x <tag> "a>b" . }"#);
    }

    #[test]
    fn held_query_with_backslash_and_quote_literal_survives_an_update() {
        held_literal_survives_an_update(r#"a\b"c"#, r#"SELECT ?x WHERE { ?x <tag> "a\\b\"c" . }"#);
    }

    #[test]
    fn engine_info_reports_served_state() {
        let engine = LscrEngine::new(figure3());
        let info = engine.info();
        assert_eq!(info.num_vertices, 5);
        assert_eq!(info.num_edges, 8);
        assert_eq!(info.epoch, 0);
        assert!(!info.index_built && !info.has_overlay);
        assert!(info.graph_heap_bytes > 0);
        let _ = engine.local_index();
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.insert("v4", "likes", "v0");
        engine.apply_update(&batch).unwrap();
        let info = engine.info();
        assert_eq!(info.num_edges, 9);
        assert_eq!(info.epoch, 1);
        assert!(!info.index_built && info.has_overlay, "an update drops the index");
    }

    #[test]
    fn a_panic_under_either_engine_lock_fails_no_later_call() {
        let mut reloaded = Vec::new();
        LscrEngine::new(figure3()).save_snapshot(&mut reloaded).unwrap();
        let mut cut = UpdateBatch::new();
        cut.delete("v2", "follows", "v4");
        let mut grow = UpdateBatch::new();
        grow.insert("v4", "likes", "v0");
        let constraint = s0();
        for lock in ["state", "update"] {
            let engine = LscrEngine::new(figure3());
            let seeded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if lock == "state" {
                    let _held = engine.state.write();
                    panic!("seeded panic under the state lock");
                }
                let _held = engine.update_lock.lock();
                panic!("seeded panic under the update lock");
            }));
            assert!(seeded.is_err());
            assert!(engine.state.read().is_err() || engine.update_lock.lock().is_err(), "{lock}");
            // v0 reaches v4 under {likes, follows} only over v2 -follows-> v4.
            let answers = |want: bool| {
                let (g, q, _) = engine
                    .compile_text(constraint.sparql_text(), |g| {
                        let v = |name| g.vertex_id(name).unwrap();
                        Ok::<_, QueryError>((v("v0"), v("v4"), g.label_set(&["likes", "follows"])))
                    })
                    .unwrap();
                assert_eq!(crate::oracle::answer(&g, &q).answer, want, "{lock}");
                for alg in [Algorithm::Ins, Algorithm::Auto] {
                    let out =
                        engine.session().answer_compiled(&g, &q, alg, &QueryOptions::default());
                    assert_eq!(out.unwrap().answer, want, "{lock}: {alg}");
                }
            };
            answers(true);
            engine.apply_update(&cut).unwrap();
            answers(false);
            engine.apply_update(&grow).unwrap();
            engine.compact();
            assert!(!engine.graph().has_overlay(), "{lock}");
            answers(false);
            engine.reload_from_snapshot(&reloaded).unwrap();
            answers(true);
        }
    }

    #[test]
    fn a_refused_log_step_swaps_nothing() {
        let engine = LscrEngine::new(figure3());
        let before = engine.graph();
        let mut batch = UpdateBatch::new();
        batch.delete("v2", "follows", "v4");
        let refused = engine.update_logged(&batch, || {
            Err::<(), _>(QueryError::Graph(kgreach_graph::GraphError::Io("log full".into())))
        });
        assert!(refused.is_err());
        assert!(Arc::ptr_eq(&before, &engine.graph()), "a refused batch is not served");
        let (outcome, logged) = engine.update_logged(&batch, || Ok(7)).unwrap();
        assert_eq!((outcome.epoch, logged), (1, Some(7)));
        let (_, logged) = engine.update_logged(&batch, || Ok(8)).unwrap();
        assert_eq!(logged, None, "a batch that changes nothing is not logged");
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Uis.name(), "UIS");
        assert_eq!(Algorithm::UisStar.to_string(), "UIS*");
        assert_eq!(Algorithm::Ins.to_string(), "INS");
        assert_eq!(Algorithm::Auto.to_string(), "Auto");
        assert_eq!(Algorithm::ALL.len(), 3);
        assert!(!Algorithm::ALL.contains(&Algorithm::Auto));
    }
}
