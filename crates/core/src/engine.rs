//! The shared, concurrency-ready LSCR engine.
//!
//! [`LscrEngine`] owns the shared serving state — the graph behind an
//! [`Arc`], the lazily built [`LocalIndex`], a constraint-plan cache
//! keyed by SPARQL text — and exposes every query entry point through
//! `&self`, so one engine instance is shared across threads
//! (`LscrEngine: Send + Sync`). All mutable per-query state lives in
//! per-thread [`Session`]s; the engine only synchronizes constant-time
//! bookkeeping (plan-cache lookups, the scratch pool, the state
//! snapshot), never the searches themselves.
//!
//! # Dynamic graphs: epochs and invalidation
//!
//! The served graph is not frozen: [`LscrEngine::apply_update`] applies
//! an [`UpdateBatch`] as a delta overlay (see
//! [`kgreach_graph::delta`]), swaps the new graph in atomically, and
//! maintains the index incrementally. Every content-changing batch bumps
//! the graph **epoch**; compiled constraint plans, their embedded `SCck`
//! and `V(S,G)` memos all record the epoch they bind to, and a held
//! [`CompiledLscrQuery`] rebinds transparently on mismatch. Queries pin
//! one `(graph, index)` snapshot per execution, so an update never
//! changes the graph under a running search — in-flight queries finish
//! against the pre-update state, subsequent ones see the new one.
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
//! let outcome = engine.answer(&q, Algorithm::Ins).unwrap();
//! assert!(outcome.answer);
//! // Auto serves every query with UIS:
//! let outcome = engine.answer(&q, Algorithm::Auto).unwrap();
//! assert!(outcome.answer);
//! assert_eq!(outcome.stats.algorithm, Some(Algorithm::Uis));
//! ```

use crate::constraint::{CompiledConstraint, SubstructureConstraint};
use crate::local_index::{LocalIndex, LocalIndexConfig};
use crate::query::{CompiledLscrQuery, LscrQuery, QueryError, QueryOptions, QueryOutcome};
use crate::session::{SearchScratch, Session};
use kgreach_graph::fxhash::FxHashMap;
use kgreach_graph::snapshot::{
    self, ArtifactKind, PayloadBuf, PayloadCursor, SectionReader, SectionWriter,
};
use kgreach_graph::{Graph, UpdateBatch, UpdateSummary};
use kgreach_sync::{Arc, Mutex, RwLock};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

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

/// Scratch sets retained in the engine pool. Sessions beyond this many
/// concurrent ones still work — their scratch is simply dropped instead
/// of recycled.
const SCRATCH_POOL_CAP: usize = 64;

/// Tag of the engine snapshot's index-presence section, between the
/// graph sections (1–7) and the index sections (16–19).
const TAG_ENGINE_HAS_INDEX: u16 = 15;

/// Distinct constraint plans retained in the plan cache. Once full, new
/// constraint texts compile per-query instead of being cached, bounding
/// engine memory under workloads with unbounded distinct constraints
/// (e.g. per-entity generated patterns).
const PLAN_CACHE_CAP: usize = 4096;

/// An owned, thread-shareable LSCR query engine bound to one graph.
///
/// See the [module docs](self) for the shared/per-thread state split.
/// Entry points, roughly from convenient to fast:
///
/// * [`answer`](Self::answer) / [`answer_with_options`](Self::answer_with_options)
///   — one-shot, grabs pooled scratch per call;
/// * [`session`](Self::session) — a per-thread [`Session`] that reuses
///   one scratch set across many queries (the hot-loop API);
/// * [`compile`](Self::compile) + [`answer_compiled`](Self::answer_compiled)
///   — compile/validate once, reuse the compiled constraint and the
///   materialized `V(S,G)` across repeated executions;
/// * [`answer_batch`](Self::answer_batch) — fan a slice of queries across
///   scoped threads.
#[derive(Debug)]
pub struct LscrEngine {
    /// The serving state both halves of a query snapshot together: the
    /// graph and the index built for exactly that graph. One lock, so a
    /// concurrent [`apply_update`](Self::apply_update) can never be
    /// observed half-swapped (a new graph with an index sized for the
    /// old `|V|` would read out of bounds).
    state: RwLock<EngineState>,
    index_config: LocalIndexConfig,
    plan_cache: RwLock<FxHashMap<String, Arc<CompiledConstraint>>>,
    scratch_pool: Mutex<Vec<SearchScratch>>,
    /// Serializes writers (updates, compaction, index builds) without
    /// blocking readers: heavy work happens under this lock while
    /// queries keep serving the previous state; only the final swap
    /// takes the state write lock.
    update_lock: Mutex<()>,
}

#[derive(Clone, Debug)]
struct EngineState {
    graph: Arc<Graph>,
    index: Option<Arc<LocalIndex>>,
}

/// What [`LscrEngine::apply_update`] did to the local index.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexMaintenance {
    /// No index was built yet, so there was nothing to maintain (the next
    /// INS query builds one against the updated graph).
    NotBuilt,
    /// Partition-local repair: the entries of this many partitions were
    /// recomputed; everything else was reused.
    Patched {
        /// Number of partitions whose `II`/`EIT`/`D` were recomputed.
        partitions_repaired: usize,
    },
    /// The batch exceeded the staleness budget (or compaction kicked in):
    /// the index was rebuilt from scratch, including fresh landmark
    /// selection and partitioning.
    Rebuilt,
}

/// The result of one [`LscrEngine::apply_update`] call.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct UpdateOutcome {
    /// What the batch changed in the graph.
    pub summary: UpdateSummary,
    /// How the local index was maintained.
    pub index: IndexMaintenance,
    /// The graph's content epoch after the batch.
    pub epoch: u64,
    /// Whether the engine compacted the overlay into a fresh CSR as part
    /// of this update (see [`DELTA_COMPACT_THRESHOLD`]).
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
/// re-freezes the graph via [`Graph::compact`] and rebuilds the index so
/// the partition shape catches up with the drifted graph.
pub const DELTA_COMPACT_THRESHOLD: f64 = 0.5;

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
            state: RwLock::new(EngineState { graph: graph.into(), index: None }),
            index_config: config,
            plan_cache: RwLock::new(FxHashMap::default()),
            scratch_pool: Mutex::new(Vec::new()),
            update_lock: Mutex::new(()),
        }
    }

    /// The current graph, as a shared handle. Queries in flight keep the
    /// handle they started with, so a concurrent
    /// [`apply_update`](Self::apply_update) never changes the graph under
    /// a running search — it swaps a new one in for *subsequent* queries.
    pub fn graph(&self) -> Arc<Graph> {
        Arc::clone(&self.state.read().expect("state lock").graph)
    }

    /// The current graph's content epoch — bumped by every
    /// content-changing [`apply_update`](Self::apply_update).
    pub fn graph_epoch(&self) -> u64 {
        self.state.read().expect("state lock").graph.epoch()
    }

    /// One consistent `(graph, index)` pair for a query to run against.
    pub(crate) fn state_snapshot(&self) -> (Arc<Graph>, Option<Arc<LocalIndex>>) {
        let st = self.state.read().expect("state lock");
        (Arc::clone(&st.graph), st.index.clone())
    }

    /// Builds (or returns) the shared local index for the **current**
    /// graph. Builds are serialized on the update lock and run without
    /// blocking concurrent queries; if an update swaps the graph
    /// mid-build, the stale build is discarded and retried.
    pub fn local_index(&self) -> Arc<LocalIndex> {
        loop {
            let (graph, index) = self.state_snapshot();
            if let Some(index) = index {
                return index;
            }
            let _build = self.update_lock.lock().expect("update lock");
            // Re-check under the lock: a racing builder may have won, or
            // an update may have swapped the graph while we waited.
            let (current, index) = self.state_snapshot();
            if let Some(index) = index {
                return index;
            }
            if !Arc::ptr_eq(&current, &graph) {
                continue; // graph moved on; start over against the new one
            }
            let built = Arc::new(LocalIndex::build(&graph, &self.index_config));
            let mut st = self.state.write().expect("state lock");
            if Arc::ptr_eq(&st.graph, &graph) {
                st.index = Some(Arc::clone(&built));
                return built;
            }
            // An update cannot have happened (we hold the update lock),
            // but stay defensive: retry rather than install a mismatch.
        }
    }

    /// The local index if some caller has already built or installed it
    /// (never triggers a build).
    pub fn local_index_if_built(&self) -> Option<Arc<LocalIndex>> {
        self.state.read().expect("state lock").index.clone()
    }

    /// Installs a prebuilt index (e.g. shared across engines or loaded
    /// from a build step), replacing any current one.
    ///
    /// The index must have been built for this engine's graph: its
    /// [`graph_fingerprint`](LocalIndex::graph_fingerprint) is checked
    /// and a mismatch is rejected with [`QueryError::IndexGraphMismatch`]
    /// instead of being silently accepted (which would produce wrong
    /// answers).
    pub fn set_local_index(&self, index: impl Into<Arc<LocalIndex>>) -> Result<(), QueryError> {
        let index = index.into();
        let mut st = self.state.write().expect("state lock");
        let expected = st.graph.fingerprint();
        let found = index.graph_fingerprint();
        if expected != found {
            return Err(QueryError::IndexGraphMismatch { expected, found });
        }
        st.index = Some(index);
        Ok(())
    }

    /// Applies an [`UpdateBatch`] to the served graph: the overlay-merged
    /// graph is swapped in atomically, the content epoch advances, every
    /// content-derived cache (constraint-plan cache with its embedded
    /// `SCck` and `V(S,G)` memos) is invalidated, and the local index —
    /// when one exists — is repaired
    /// partition-locally or rebuilt past the staleness budget (see
    /// [`LocalIndex::patched`]).
    ///
    /// Queries running concurrently finish against the pre-update state
    /// (crash-consistent snapshot semantics); queries started after this
    /// returns see the updated graph. Updates are serialized with each
    /// other, with compaction and with index builds, but never block
    /// readers while the heavy work runs.
    ///
    /// When the accumulated overlay exceeds [`DELTA_COMPACT_THRESHOLD`],
    /// the graph is re-frozen ([`Graph::compact`]) and the index rebuilt,
    /// so long-running update streams cannot degrade query performance
    /// unboundedly.
    ///
    /// ```
    /// use kgreach::{Algorithm, LscrEngine, LscrQuery};
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
    /// assert!(engine.answer(&q, Algorithm::Auto).unwrap().answer);
    ///
    /// // Sever the v2 → v4 hop: the same query now answers false.
    /// let mut batch = UpdateBatch::new();
    /// batch.delete("v2", "follows", "v4");
    /// let outcome = engine.apply_update(&batch).unwrap();
    /// assert_eq!(outcome.summary.edges_deleted, 1);
    /// assert!(!engine.answer(&q, Algorithm::Auto).unwrap().answer);
    /// ```
    pub fn apply_update(&self, batch: &UpdateBatch) -> Result<UpdateOutcome, QueryError> {
        let _updates = self.update_lock.lock().expect("update lock");
        let (old_graph, old_index) = self.state_snapshot();
        // O(delta), not O(|V|+|E|): the clone shares the frozen base (CSR
        // pair, dict base layers, per-class schema lists) behind `Arc`s
        // and copies only overlay state and dict tails — see the `Graph`
        // type docs. In-flight queries keep reading `old_graph` untouched.
        let mut graph = (*old_graph).clone();
        let summary = graph.apply_update(batch)?;
        if !summary.changed() {
            return Ok(UpdateOutcome {
                summary,
                index: match old_index {
                    Some(_) => IndexMaintenance::Patched { partitions_repaired: 0 },
                    None => IndexMaintenance::NotBuilt,
                },
                epoch: graph.epoch(),
                compacted: false,
            });
        }
        let compacted = graph
            .delta_stats()
            .is_some_and(|d| d.delta_fraction(graph.num_edges()) > DELTA_COMPACT_THRESHOLD);
        if compacted {
            graph.compact();
        }
        let graph = Arc::new(graph);
        let budget = self.index_config.staleness_budget;
        let (index, maintenance) = match &old_index {
            None => (None, IndexMaintenance::NotBuilt),
            // Compaction means the partition shape is worth refreshing
            // too: rebuild instead of patching.
            Some(old) if !compacted => {
                match old.patched(&graph, &summary.touched_sources, budget) {
                    Some((patched, repaired)) => (
                        Some(Arc::new(patched)),
                        IndexMaintenance::Patched { partitions_repaired: repaired },
                    ),
                    None => (
                        Some(Arc::new(LocalIndex::build(&graph, &self.index_config))),
                        IndexMaintenance::Rebuilt,
                    ),
                }
            }
            Some(_) => (
                Some(Arc::new(LocalIndex::build(&graph, &self.index_config))),
                IndexMaintenance::Rebuilt,
            ),
        };
        let epoch = graph.epoch();
        {
            let mut st = self.state.write().expect("state lock");
            st.graph = graph;
            st.index = index;
        }
        // Compiled plans are bound to the old epoch (constants resolved
        // against old content); drop them so future compiles bind fresh.
        self.plan_cache.write().expect("plan cache lock").clear();
        Ok(UpdateOutcome { summary, index: maintenance, epoch, compacted })
    }

    /// Re-freezes the served graph's overlay into a clean CSR now (see
    /// [`Graph::compact`]); content, ids and epoch are unchanged, so the
    /// installed index and all caches stay valid. No-op when the graph is
    /// already compact.
    pub fn compact(&self) {
        let _updates = self.update_lock.lock().expect("update lock");
        let (graph, _) = self.state_snapshot();
        if !graph.has_overlay() {
            return;
        }
        let compacted = Arc::new(graph.compacted());
        let mut st = self.state.write().expect("state lock");
        st.graph = compacted;
    }

    /// Opens a per-thread [`Session`], recycling pooled scratch if
    /// available. Sessions observe graph updates: each query pins the
    /// engine's current `(graph, index)` snapshot and grows its scratch
    /// to the current `|V|` on demand.
    pub fn session(&self) -> Session<'_> {
        let scratch = self
            .scratch_pool
            .lock()
            .expect("scratch pool lock")
            .pop()
            .unwrap_or_else(|| SearchScratch::new(self.graph().num_vertices()));
        Session::new(self, scratch)
    }

    pub(crate) fn recycle_scratch(&self, scratch: SearchScratch) {
        // Scratch sized for an older (smaller) graph is still recyclable:
        // sessions grow it on demand per query.
        let mut pool = self.scratch_pool.lock().expect("scratch pool lock");
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
    }

    #[cfg(test)]
    pub(crate) fn pooled_scratch_count(&self) -> usize {
        self.scratch_pool.lock().expect("scratch pool lock").len()
    }

    /// Validates `query` and compiles its constraint through the plan
    /// cache: constraints with identical SPARQL text share one compiled
    /// plan across queries, sessions and threads. Cache hits allocate
    /// nothing (the key is the constraint's precomputed canonical text);
    /// the cache holds at most 4096 plans — beyond that,
    /// new texts compile per-query without being retained.
    pub fn compile(&self, query: &LscrQuery) -> Result<CompiledLscrQuery, QueryError> {
        let graph = self.graph();
        graph.check_vertex(query.source)?;
        graph.check_vertex(query.target)?;
        let key = query.constraint.sparql_text();
        if let Some(cached) = self.plan_cache.read().expect("plan cache lock").get(key) {
            // Entries compiled before a graph update are purged by
            // `apply_update`, but a hit can still race the purge — guard
            // on the epoch the plan was bound to.
            if cached.graph_epoch() == graph.epoch() {
                return Ok(query.with_constraint(Arc::clone(cached)));
            }
        }
        let compiled = Arc::new(query.constraint.compile(&graph)?);
        let mut cache = self.plan_cache.write().expect("plan cache lock");
        let shared = match cache.get(key) {
            // A racing compiler won; keep its plan (same-epoch only).
            Some(winner) if winner.graph_epoch() == compiled.graph_epoch() => Arc::clone(winner),
            Some(_) => {
                cache.insert(key.to_owned(), Arc::clone(&compiled));
                compiled
            }
            None if cache.len() < PLAN_CACHE_CAP => {
                cache.insert(key.to_owned(), Arc::clone(&compiled));
                compiled
            }
            None => compiled, // cache full: serve uncached
        };
        drop(cache);
        Ok(query.with_constraint(shared))
    }

    /// Recompiles a compiled query whose plan is bound to an older graph
    /// epoch, using the canonical SPARQL text the plan retains. Sessions
    /// call this when a caller-held [`CompiledLscrQuery`] outlives an
    /// [`apply_update`](Self::apply_update).
    pub(crate) fn recompile(
        &self,
        query: &CompiledLscrQuery,
    ) -> Result<CompiledLscrQuery, QueryError> {
        let constraint = SubstructureConstraint::parse(query.constraint.sparql_text())?;
        let q = LscrQuery::new(query.source, query.target, query.label_constraint, constraint);
        self.compile(&q)
    }

    /// Number of distinct constraint plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.read().expect("plan cache lock").len()
    }

    /// Compiles and answers `query` with `algorithm`, using pooled
    /// scratch. For query loops, prefer holding a [`session`](Self::session).
    pub fn answer(
        &self,
        query: &LscrQuery,
        algorithm: Algorithm,
    ) -> Result<QueryOutcome, QueryError> {
        self.session().answer(query, algorithm)
    }

    /// [`answer`](Self::answer) with explicit [`QueryOptions`].
    pub fn answer_with_options(
        &self,
        query: &LscrQuery,
        algorithm: Algorithm,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome, QueryError> {
        self.session().answer_with_options(query, algorithm, opts)
    }

    /// Answers an already-compiled query with pooled scratch; see
    /// [`Session::answer_compiled`].
    pub fn answer_compiled(
        &self,
        query: &CompiledLscrQuery,
        algorithm: Algorithm,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome, QueryError> {
        self.session().answer_compiled(query, algorithm, opts)
    }

    /// Answers a batch of `(query, algorithm)` pairs, fanning them across
    /// `threads` scoped worker threads (one [`Session`] each). `0` uses
    /// [`std::thread::available_parallelism`]. Results keep the input
    /// order.
    pub fn answer_batch(
        &self,
        queries: &[(LscrQuery, Algorithm)],
        threads: usize,
    ) -> Vec<Result<QueryOutcome, QueryError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            t => t,
        }
        .min(queries.len());
        // Build the index up front when the batch needs it, so workers
        // don't serialize behind the build lock.
        if queries.iter().any(|(_, a)| *a == Algorithm::Ins) {
            let _ = self.local_index();
        }
        if threads <= 1 {
            let mut session = self.session();
            return queries.iter().map(|(q, alg)| session.answer(q, *alg)).collect();
        }
        let chunk = queries.len().div_ceil(threads);
        let mut results: Vec<Option<Result<QueryOutcome, QueryError>>> = Vec::new();
        results.resize_with(queries.len(), || None);
        std::thread::scope(|scope| {
            for (qs, rs) in queries.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move || {
                    let mut session = self.session();
                    for ((query, alg), slot) in qs.iter().zip(rs) {
                        *slot = Some(session.answer(query, *alg));
                    }
                });
            }
        });
        results.into_iter().map(|r| r.expect("every batch slot filled")).collect()
    }

    /// Writes an engine snapshot: the graph followed by the local index
    /// if one has been built or installed. Restoring with
    /// [`from_snapshot`](Self::from_snapshot) rebuilds *nothing* — both
    /// the adjacency and the landmark index come back exactly as saved,
    /// which is the cold-start path for serving processes (see the
    /// `cold_start` bench: snapshot load vs text parse + index rebuild).
    ///
    /// The plan cache and scratch pool are warm-up state, not data; they
    /// are intentionally not persisted.
    pub fn save_snapshot<W: Write>(&self, writer: W) -> Result<(), QueryError> {
        let (graph, index) = self.state_snapshot();
        let mut w = SectionWriter::new(BufWriter::new(writer), ArtifactKind::Engine)?;
        // A live graph is compacted on the fly by the encoder; the index
        // stays valid because compaction preserves the fingerprint.
        snapshot::write_graph_sections(&graph, &mut w)?;
        let mut flag = PayloadBuf::new();
        flag.put_u8(u8::from(index.is_some()));
        w.section(TAG_ENGINE_HAS_INDEX, flag.as_slice())?;
        if let Some(index) = index {
            index.write_sections(&mut w)?;
        }
        w.finish().map_err(QueryError::from)?;
        Ok(())
    }

    /// Restores an engine written by [`save_snapshot`](Self::save_snapshot):
    /// graph and (when present) local index, without rebuilding either.
    /// A snapshot whose embedded index does not match its own graph —
    /// impossible to write through this API, but representable in a
    /// corrupt file — is rejected through the
    /// [`set_local_index`](Self::set_local_index) fingerprint check
    /// ([`QueryError::IndexGraphMismatch`]). The restored engine uses the
    /// default [`LocalIndexConfig`] for any future lazy build.
    pub fn from_snapshot(bytes: &[u8]) -> Result<LscrEngine, QueryError> {
        let mut r = SectionReader::new(bytes)?;
        r.expect_kind(ArtifactKind::Engine)?;
        let graph = snapshot::read_graph_sections(&mut r)?;
        let mut flag = PayloadCursor::new(
            r.section(TAG_ENGINE_HAS_INDEX, "engine-index-flag")?,
            "engine-index-flag",
        );
        let has_index = match flag.get_u8()? {
            0 => false,
            1 => true,
            byte => return Err(flag.corrupt(format!("index flag byte is {byte}")).into()),
        };
        flag.finish()?;
        let index = if has_index { Some(LocalIndex::read_sections(&mut r)?) } else { None };
        r.end()?;
        let engine = LscrEngine::new(graph);
        if let Some(index) = index {
            engine.set_local_index(index)?;
        }
        Ok(engine)
    }

    /// Hot-swaps the engine's served state with the graph (and index,
    /// when present) from an engine snapshot, without interrupting
    /// service: queries running concurrently finish against the old
    /// state, queries started after this returns see the new one — the
    /// same atomic-swap discipline as
    /// [`apply_update`](Self::apply_update).
    ///
    /// On any error (corrupt snapshot, embedded index built for a
    /// different graph) the engine is left serving its current state
    /// untouched. The reloaded graph's content epoch is
    /// advanced strictly past the replaced graph's
    /// ([`Graph::advance_epoch_to`]), so every epoch-stamped cache bound
    /// to the old content — compiled plans with their `SCck` and `V(S,G)`
    /// memos, including compiled queries held by callers — observes a
    /// mismatch and rebinds instead of serving answers computed against
    /// the old graph. A held query whose vertex ids do not fit the new
    /// graph fails its rebind with a typed [`QueryError`].
    ///
    /// Returns the fresh content epoch. On a durable engine, reload
    /// through [`DurableEngine::reload_from_snapshot`](crate::DurableEngine::reload_from_snapshot)
    /// instead, or a restart recovers the replaced state.
    pub fn reload_from_snapshot(&self, bytes: &[u8]) -> Result<u64, QueryError> {
        // Decode fully before taking any lock: a corrupt snapshot must
        // not stall or damage serving.
        Ok(self.install(LscrEngine::from_snapshot(bytes)?))
    }

    /// Swaps in the state of `staged`, an engine decoded from a snapshot,
    /// as [`reload_from_snapshot`](Self::reload_from_snapshot) describes.
    /// Returns the fresh content epoch.
    pub(crate) fn install(&self, staged: LscrEngine) -> u64 {
        let _updates = self.update_lock.lock().expect("update lock");
        let (graph, index) = staged.state_snapshot();
        let mut graph = (*graph).clone();
        let old_epoch = self.graph_epoch();
        graph.advance_epoch_to(old_epoch + 1);
        let epoch = graph.epoch();
        {
            let mut st = self.state.write().expect("state lock");
            st.graph = Arc::new(graph);
            st.index = index;
        }
        self.plan_cache.write().expect("plan cache lock").clear();
        epoch
    }

    /// A point-in-time summary of the served state — the cheap
    /// observability hook behind a serving process's health and metrics
    /// endpoints (all counters are reads of existing state; nothing is
    /// built or locked beyond the state read lock).
    pub fn info(&self) -> EngineInfo {
        let (graph, index) = self.state_snapshot();
        EngineInfo {
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            num_labels: graph.num_labels(),
            epoch: graph.epoch(),
            has_overlay: graph.has_overlay(),
            graph_heap_bytes: graph.heap_bytes(),
            index_built: index.is_some(),
            cached_plans: self.cached_plans(),
        }
    }

    /// Saves an engine snapshot to a file path.
    pub fn save_snapshot_file(&self, path: impl AsRef<Path>) -> Result<(), QueryError> {
        let file = File::create(path).map_err(kgreach_graph::GraphError::from)?;
        self.save_snapshot(file)
    }

    /// Restores an engine snapshot from a file path: one bulk read, then
    /// [`from_snapshot`](Self::from_snapshot) over the buffer.
    pub fn from_snapshot_file(path: impl AsRef<Path>) -> Result<LscrEngine, QueryError> {
        let bytes = std::fs::read(path).map_err(kgreach_graph::GraphError::from)?;
        Self::from_snapshot(&bytes)
    }

    /// The algorithm [`Algorithm::Auto`] resolves to: UIS, for every
    /// query — its sides meet between `s`, `t` and `V(S,G)` (see the
    /// [`uis`](crate::uis) module docs); UIS\* and INS run when forced.
    /// The arguments are unused; the signature stays for callers that
    /// time the planning step.
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
    use crate::fixtures::{figure3, s0};
    use crate::query::LscrQuery;
    use crate::SubstructureConstraint;

    fn all_labels_query(g: &Graph, s: &str, t: &str) -> LscrQuery {
        LscrQuery::new(g.vertex_id(s).unwrap(), g.vertex_id(t).unwrap(), g.all_labels(), s0())
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
            let truncated = engine.answer_with_options(&q, alg, &zero).unwrap();
            assert!(truncated.interrupted, "{alg}: budget 0 must interrupt");
            assert!(!truncated.answer, "{alg}: truncated searches answer false");
            let full = engine.answer(&q, alg).unwrap();
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
        for alg in [Algorithm::UisStar, Algorithm::Ins] {
            let truncated = engine.answer_compiled(&compiled, alg, &zero).unwrap();
            assert!(truncated.interrupted && !truncated.answer, "{alg}");
            assert_eq!(compiled.constraint.vsg_len_if_materialized(), Some(2), "{alg}");
            let full = engine.answer_compiled(&compiled, alg, &QueryOptions::default()).unwrap();
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
            let out = engine.answer(&q, alg).unwrap();
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
            let out = engine.answer(&q, alg).unwrap();
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
        assert!(engine.answer(&q, Algorithm::Uis).unwrap().answer);
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
    fn plan_cache_shares_compiled_constraints() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        assert_eq!(engine.cached_plans(), 0);
        let q1 = all_labels_query(&g, "v0", "v4");
        let q2 = all_labels_query(&g, "v3", "v4"); // same constraint text
        let c1 = engine.compile(&q1).unwrap();
        let c2 = engine.compile(&q2).unwrap();
        assert_eq!(engine.cached_plans(), 1);
        assert!(Arc::ptr_eq(&c1.constraint, &c2.constraint), "plans must be shared");
        // A different constraint gets its own cache slot.
        let q3 = LscrQuery::new(
            q1.source,
            q1.target,
            q1.label_constraint,
            SubstructureConstraint::parse("SELECT ?x WHERE { ?x <likes> ?y . }").unwrap(),
        );
        engine.compile(&q3).unwrap();
        assert_eq!(engine.cached_plans(), 2);
    }

    #[test]
    fn compiled_query_memoizes_vsg_across_algorithms() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let compiled = engine.compile(&all_labels_query(&g, "v0", "v4")).unwrap();
        assert_eq!(compiled.constraint.vsg_len_if_materialized(), None);
        let opts = QueryOptions::default();
        let out = engine.answer_compiled(&compiled, Algorithm::UisStar, &opts).unwrap();
        assert!(out.answer);
        // First UIS* execution materialized V(S0,G0) = {v1, v2}.
        assert_eq!(compiled.constraint.vsg_len_if_materialized(), Some(2));
        // INS runs over the same plan and the same memo.
        let again = engine.answer_compiled(&compiled, Algorithm::Ins, &opts).unwrap();
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
                let out = engine.answer(&q, Algorithm::Auto).unwrap();
                let expected = engine.answer(&q, Algorithm::Oracle).unwrap();
                assert_eq!(out.answer, expected.answer, "{s}->{t}");
                assert_eq!(out.stats.algorithm, Some(Algorithm::Uis));
            }
        }
        let out = engine.answer_compiled(&unsat, Algorithm::Auto, &QueryOptions::default());
        assert!(!out.unwrap().answer);
        assert!(engine.local_index_if_built().is_none(), "planning must not build");
        let _ = engine.local_index();
        assert_eq!(engine.plan_algorithm(&unsat, Some(1)), Algorithm::Uis);
    }

    #[test]
    fn engine_snapshot_roundtrip() {
        let engine = LscrEngine::with_index_config(
            figure3(),
            LocalIndexConfig { num_landmarks: Some(2), seed: 4, ..Default::default() },
        );
        let q = all_labels_query(&engine.graph(), "v0", "v4");

        // Without an index built: snapshot restores graph only.
        let mut bytes = Vec::new();
        engine.save_snapshot(&mut bytes).unwrap();
        let restored = LscrEngine::from_snapshot(&bytes[..]).unwrap();
        assert!(restored.local_index_if_built().is_none());
        assert_eq!(restored.graph().fingerprint(), engine.graph().fingerprint());
        assert!(restored.answer(&q, Algorithm::Uis).unwrap().answer);

        // With the index built: both come back, nothing is rebuilt.
        let built = engine.local_index();
        let mut bytes = Vec::new();
        engine.save_snapshot(&mut bytes).unwrap();
        let restored = LscrEngine::from_snapshot(&bytes[..]).unwrap();
        let idx = restored.local_index_if_built().expect("index restored from snapshot");
        assert_eq!(idx.stats().num_landmarks, built.stats().num_landmarks);
        assert_eq!(idx.graph_fingerprint(), built.graph_fingerprint());
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            assert_eq!(
                restored.answer(&q, alg).unwrap().answer,
                engine.answer(&q, alg).unwrap().answer,
                "{alg} disagrees after snapshot restore"
            );
        }
    }

    #[test]
    fn engine_snapshot_file_roundtrip() {
        let engine = LscrEngine::new(figure3());
        let _ = engine.local_index();
        let dir = std::env::temp_dir().join("kgreach_engine_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.kgsnap");
        engine.save_snapshot_file(&path).unwrap();
        let restored = LscrEngine::from_snapshot_file(&path).unwrap();
        assert_eq!(restored.graph().fingerprint(), engine.graph().fingerprint());
        assert!(restored.local_index_if_built().is_some());
        std::fs::remove_file(&path).ok();
        // Missing file surfaces as a typed graph/io error.
        assert!(matches!(
            LscrEngine::from_snapshot_file(dir.join("missing.kgsnap")),
            Err(QueryError::Graph(kgreach_graph::GraphError::Io(_)))
        ));
    }

    #[test]
    fn answer_batch_matches_sequential() {
        let engine = LscrEngine::new(figure3());
        let g = engine.graph();
        let mut queries = Vec::new();
        let algs = [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto];
        let names = ["v0", "v1", "v2", "v3", "v4"];
        for (i, s) in names.iter().enumerate() {
            for t in names {
                queries.push((all_labels_query(&g, s, t), algs[i % algs.len()]));
            }
        }
        let sequential: Vec<bool> = queries
            .iter()
            .map(|(q, _)| engine.answer(q, Algorithm::Oracle).unwrap().answer)
            .collect();
        for threads in [0, 1, 2, 8] {
            let results = engine.answer_batch(&queries, threads);
            assert_eq!(results.len(), queries.len());
            for (i, r) in results.iter().enumerate() {
                assert_eq!(
                    r.as_ref().unwrap().answer,
                    sequential[i],
                    "threads={threads}, query {i}"
                );
            }
        }
        assert!(engine.answer_batch(&[], 4).is_empty());
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
        assert!(engine.answer(&q, Algorithm::Uis).is_err());
        // Batch surfaces per-query errors without failing the batch.
        let ok = all_labels_query(&engine.graph(), "v0", "v4");
        let results = engine.answer_batch(&[(q, Algorithm::Uis), (ok, Algorithm::Uis)], 2);
        assert!(results[0].is_err());
        assert!(results[1].as_ref().unwrap().answer);
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
        assert!(engine.answer(&q, Algorithm::Uis).unwrap().answer);
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
            assert!(!engine.answer(&q, alg).unwrap().answer, "{alg} must see the delete");
        }

        // Re-create a route through a brand-new vertex; old compiled
        // queries keep working (recompiled transparently).
        let compiled = engine.compile(&q).unwrap();
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.insert("v2", "follows", "bridge").insert("bridge", "likes", "v4");
        let out = engine.apply_update(&batch).unwrap();
        assert_eq!(out.summary.vertices_added, 1);
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            assert!(engine.answer(&q, alg).unwrap().answer, "{alg} must see the insert");
        }
        // Stale compiled query (epoch 1) against epoch-2 graph.
        let out = engine.answer_compiled(&compiled, Algorithm::Uis, &QueryOptions::default());
        assert!(out.unwrap().answer);
    }

    #[test]
    fn apply_update_patches_or_rebuilds_the_index() {
        let engine = LscrEngine::with_index_config(
            figure3(),
            LocalIndexConfig { num_landmarks: Some(3), seed: 7, ..Default::default() },
        );
        let _ = engine.local_index();
        let fp_before = engine.local_index().graph_fingerprint();

        // A one-edge batch stays within the staleness budget → patched.
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.insert("v4", "likes", "v0");
        let out = engine.apply_update(&batch).unwrap();
        assert!(
            matches!(out.index, IndexMaintenance::Patched { partitions_repaired: 0..=1 }),
            "one touched source repairs at most one partition, got {:?}",
            out.index
        );
        let idx = engine.local_index_if_built().expect("index maintained, not dropped");
        assert_eq!(idx.graph_fingerprint(), engine.graph().fingerprint());
        assert_ne!(idx.graph_fingerprint(), fp_before);

        // INS answers correctly against the maintained index.
        let g = engine.graph();
        let q = LscrQuery::new(
            g.vertex_id("v4").unwrap(),
            g.vertex_id("v2").unwrap(),
            g.label_set(&["likes"]),
            s0(),
        );
        let want = engine.answer(&q, Algorithm::Oracle).unwrap().answer;
        assert_eq!(engine.answer(&q, Algorithm::Ins).unwrap().answer, want);

        // A huge batch (relative to the graph) blows the delta threshold:
        // compaction + index rebuild.
        let mut big = kgreach_graph::UpdateBatch::new();
        for i in 0..20 {
            big.insert(&format!("bulk{i}"), "likes", &format!("bulk{}", i + 1));
        }
        let out = engine.apply_update(&big).unwrap();
        assert!(out.compacted, "20 edges on a 9-edge graph must trigger compaction");
        assert_eq!(out.index, IndexMaintenance::Rebuilt);
        assert!(!engine.graph().has_overlay());
        let idx = engine.local_index_if_built().unwrap();
        assert_eq!(idx.graph_fingerprint(), engine.graph().fingerprint());
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
        let before = engine.answer(&q, Algorithm::Uis).unwrap().answer;
        let epoch = engine.graph_epoch();
        engine.compact();
        assert!(!engine.graph().has_overlay());
        assert_eq!(engine.graph_epoch(), epoch, "compaction is content-preserving");
        assert_eq!(engine.answer(&q, Algorithm::Uis).unwrap().answer, before);
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
        let out = engine.answer_compiled(&held, Algorithm::UisStar, &opts).unwrap();
        assert!(out.answer);
        assert_eq!(held.constraint.vsg_len_if_materialized(), Some(2));

        // Delete one of the two satisfying vertices' qualifying edges:
        // V(S0,G) shrinks, the held query rebinds to a plan for the new
        // epoch, V(S,G) re-materializes, answers update.
        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.delete("v1", "friendOf", "v3");
        engine.apply_update(&batch).unwrap();
        let out = engine.answer_compiled(&held, Algorithm::UisStar, &opts).unwrap();
        assert!(out.answer, "v2 still satisfies S0 and routes v0 to v4");
        assert_eq!(out.stats.vsg_size, Some(1), "stale plan rebound to the updated graph");
        // The rebound plan lives in the plan cache, so the fresh memo is
        // materialized once and shared — INS re-executes against it.
        let rebound = engine.compile(&q).unwrap();
        assert_eq!(rebound.constraint.graph_epoch(), engine.graph_epoch());
        assert_eq!(rebound.constraint.vsg_len_if_materialized(), Some(1));
        let out = engine.answer_compiled(&held, Algorithm::Ins, &opts).unwrap();
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
        assert!(engine.answer_compiled(&held, Algorithm::Uis, &opts).unwrap().answer);

        let mut batch = kgreach_graph::UpdateBatch::new();
        batch.insert("elsewhere", "unrelated", "nowhere");
        engine.apply_update(&batch).unwrap();
        let out = engine.answer_compiled(&held, Algorithm::Uis, &opts).unwrap();
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
    fn reload_from_snapshot_swaps_state_and_advances_epoch() {
        // Serving engine: figure3 with an index and a cached plan.
        let engine = LscrEngine::new(figure3());
        let _ = engine.local_index();
        let q = all_labels_query(&engine.graph(), "v0", "v4");
        assert!(engine.answer(&q, Algorithm::Ins).unwrap().answer);
        assert_eq!(engine.cached_plans(), 1);

        // Replacement snapshot: a different graph entirely.
        let mut b = kgreach_graph::GraphBuilder::new();
        b.add_triple("a", "likes", "b");
        b.add_triple("b", "likes", "c");
        let other = LscrEngine::new(b.build().unwrap());
        let _ = other.local_index();
        let mut bytes = Vec::new();
        other.save_snapshot(&mut bytes).unwrap();

        let epoch = engine.reload_from_snapshot(&bytes[..]).unwrap();
        assert_eq!(epoch, 1, "reload must advance past the replaced epoch 0");
        assert_eq!(engine.graph_epoch(), 1);
        assert_eq!(engine.cached_plans(), 0, "plan cache invalidated on reload");
        assert_eq!(engine.graph().fingerprint(), other.graph().fingerprint());
        let idx = engine.local_index_if_built().expect("index restored from snapshot");
        assert_eq!(idx.graph_fingerprint(), engine.graph().fingerprint());

        // Answers now follow the new content for every algorithm (the
        // constraint is re-resolved against the new graph: b satisfies
        // it and sits on the a → c path).
        let g = engine.graph();
        let q2 = LscrQuery::new(
            g.vertex_id("a").unwrap(),
            g.vertex_id("c").unwrap(),
            g.all_labels(),
            SubstructureConstraint::parse("SELECT ?x WHERE { ?x <likes> <c> . }").unwrap(),
        );
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            assert!(engine.answer(&q2, alg).unwrap().answer, "{alg} after reload");
        }
    }

    #[test]
    fn failed_reload_leaves_engine_serving() {
        let engine = LscrEngine::new(figure3());
        let q = all_labels_query(&engine.graph(), "v0", "v4");
        let fp = engine.graph().fingerprint();
        // Not a snapshot at all.
        assert!(engine.reload_from_snapshot(&b"garbage"[..]).is_err());
        // Truncated snapshot.
        let mut bytes = Vec::new();
        engine.save_snapshot(&mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(engine.reload_from_snapshot(&bytes[..]).is_err());
        assert_eq!(engine.graph().fingerprint(), fp, "state untouched on failed reload");
        assert_eq!(engine.graph_epoch(), 0);
        assert!(engine.answer(&q, Algorithm::Uis).unwrap().answer);
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
        assert!(info.index_built && info.has_overlay);
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
