//! LSCR query types, execution options and per-query statistics.
//!
//! ```
//! use kgreach::{Algorithm, LscrEngine, LscrQuery, QueryOptions};
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
//! let opts = QueryOptions::default().with_witness(true);
//! let out = engine.session().answer_compiled(&g, &compiled, Algorithm::Auto, &opts).unwrap();
//! assert!(out.answer && out.witness.is_some());
//! ```

use crate::constraint::{CompiledConstraint, SubstructureConstraint};
use crate::engine::Algorithm;
use crate::witness::Witness;
use kgreach_graph::{Graph, GraphError, GraphFingerprint, LabelSet, VertexId};
use kgreach_sparql::SparqlError;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An LSCR query `Q = (s, t, L, S)` (paper Definition 2.4): does a path
/// from `source` to `target` exist whose edge labels are all in
/// `label_constraint` and which passes a vertex satisfying `constraint`?
#[derive(Clone, Debug)]
pub struct LscrQuery {
    /// Source vertex `s`.
    pub source: VertexId,
    /// Target vertex `t`.
    pub target: VertexId,
    /// Label constraint `L ⊆ 𝓛`.
    pub label_constraint: LabelSet,
    /// Substructure constraint `S`.
    pub constraint: SubstructureConstraint,
}

/// Errors raised when preparing a query for execution.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum QueryError {
    /// Source/target/label out of range for the graph.
    Graph(GraphError),
    /// The constraint failed to compile.
    Sparql(SparqlError),
    /// A prebuilt [`LocalIndex`](crate::LocalIndex) was built for a
    /// different graph than the engine's (fingerprint mismatch).
    IndexGraphMismatch {
        /// Fingerprint of the engine's graph.
        expected: GraphFingerprint,
        /// Fingerprint of the graph the index was built for.
        found: GraphFingerprint,
    },
    /// A compiled query's ids belong to another graph's id space
    /// (`Graph::lineage`): it was compiled before a snapshot reload, or by
    /// another engine. Compile it again from names.
    IdSpaceMismatch,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Graph(e) => write!(f, "{e}"),
            QueryError::Sparql(e) => write!(f, "{e}"),
            QueryError::IndexGraphMismatch { expected, found } => write!(
                f,
                "local index was built for a different graph: engine graph is [{expected}], \
                 index was built for [{found}]"
            ),
            QueryError::IdSpaceMismatch => f.write_str(
                "the compiled query's ids belong to another graph (compiled before a snapshot \
                 reload, or by another engine); compile it again against the pinned graph",
            ),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Graph(e) => Some(e),
            QueryError::Sparql(e) => Some(e),
            QueryError::IndexGraphMismatch { .. } | QueryError::IdSpaceMismatch => None,
        }
    }
}

impl From<GraphError> for QueryError {
    fn from(e: GraphError) -> Self {
        QueryError::Graph(e)
    }
}

impl From<SparqlError> for QueryError {
    fn from(e: SparqlError) -> Self {
        QueryError::Sparql(e)
    }
}

impl LscrQuery {
    /// Creates a query.
    pub fn new(
        source: VertexId,
        target: VertexId,
        label_constraint: LabelSet,
        constraint: SubstructureConstraint,
    ) -> Self {
        LscrQuery { source, target, label_constraint, constraint }
    }

    /// Validates the query against `g` and compiles the constraint.
    ///
    /// [`LscrEngine::compile`](crate::LscrEngine::compile) is the cached
    /// equivalent: it reuses compiled constraints across queries with the
    /// same SPARQL text.
    pub fn compile(&self, g: &Graph) -> Result<CompiledLscrQuery, QueryError> {
        g.check_vertex(self.source)?;
        g.check_vertex(self.target)?;
        Ok(CompiledLscrQuery {
            source: self.source,
            target: self.target,
            label_constraint: self.label_constraint,
            constraint: Arc::new(self.constraint.compile(g)?),
        })
    }
}

/// A query validated and resolved against one graph.
///
/// The compiled constraint is behind an [`Arc`], so the engine's plan
/// cache and every clone of a compiled query share one plan — and the
/// `V(S,G)` and `SCck` memos it carries — across queries and threads.
/// Hold one and re-execute it with
/// [`Session::answer_compiled`](crate::Session::answer_compiled) to
/// amortize compilation and `V(S,G)` materialization over a workload;
/// after a graph update it is rebound transparently, and after a snapshot
/// reload it is refused ([`QueryError::IdSpaceMismatch`]).
#[derive(Clone, Debug)]
pub struct CompiledLscrQuery {
    /// Source vertex `s`.
    pub source: VertexId,
    /// Target vertex `t`.
    pub target: VertexId,
    /// Label constraint `L`.
    pub label_constraint: LabelSet,
    /// Compiled substructure constraint.
    pub constraint: Arc<CompiledConstraint>,
}

/// How the `V(S,G)` candidate set is ordered before UIS\* processes it.
///
/// The paper treats the set as *disordered* (§4: existing SPARQL engines
/// cannot order it usefully); the shuffled variant reproduces that
/// behaviour deterministically for the evaluation harness. INS ignores
/// this option — its priority heap imposes its own order.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum VsgOrder {
    /// Ascending vertex-id order (what the SPARQL engine emits).
    #[default]
    Ascending,
    /// Seeded shuffle — the paper's "disordered" semantics.
    Shuffled(u64),
}

/// Per-execution options, replacing the old one-shape-fits-all outcome.
///
/// Construct with [`QueryOptions::default`] and refine with the builder
/// methods; the struct is `#[non_exhaustive]` so future options are not
/// breaking changes.
///
/// ```
/// use kgreach::QueryOptions;
/// use std::time::Duration;
///
/// let opts = QueryOptions::default()
///     .with_witness(true)
///     .with_step_budget(1_000_000)
///     .with_timeout(Duration::from_millis(50));
/// assert!(opts.witness);
/// ```
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct QueryOptions {
    /// Reconstruct a [`Witness`] path for true answers.
    pub witness: bool,
    /// Abort the search after this many scanned edges (the answer is then
    /// *unproven*, see [`QueryOutcome::interrupted`]).
    pub step_budget: Option<u64>,
    /// Abort the search after this much wall-clock time.
    pub timeout: Option<Duration>,
    /// `V(S,G)` processing order for UIS\*.
    pub vsg_order: VsgOrder,
    /// UIS only: mask prechecks and backward side off — Algorithm 1 as the
    /// paper prints it, mark for mark. UIS\* and INS have one frontier to
    /// begin with and ignore it; the paper-facing harnesses set it.
    pub one_frontier: bool,
}

impl QueryOptions {
    /// Toggles witness-path reconstruction for true answers.
    pub fn with_witness(mut self, witness: bool) -> Self {
        self.witness = witness;
        self
    }

    /// Caps the number of edges the search may scan.
    pub fn with_step_budget(mut self, edges: u64) -> Self {
        self.step_budget = Some(edges);
        self
    }

    /// Caps the wall-clock time of the search.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the `V(S,G)` processing order for UIS\*.
    pub fn with_vsg_order(mut self, order: VsgOrder) -> Self {
        self.vsg_order = order;
        self
    }

    /// Runs UIS as Algorithm 1 prints it (see
    /// [`one_frontier`](Self::one_frontier)).
    pub fn with_one_frontier(mut self, one_frontier: bool) -> Self {
        self.one_frontier = one_frontier;
        self
    }
}

/// Resolved step/time limits for one execution, derived from
/// [`QueryOptions`] at search start. Checked once per expanded vertex —
/// cheap when no limit is set (one integer compare, no clock read).
#[derive(Copy, Clone, Debug)]
pub(crate) struct RunLimits {
    max_edges: u64,
    deadline: Option<Instant>,
}

impl RunLimits {
    pub(crate) fn new(opts: &QueryOptions, start: Instant) -> Self {
        RunLimits {
            max_edges: opts.step_budget.unwrap_or(u64::MAX),
            // A deadline `Instant` cannot hold is no deadline.
            deadline: opts.timeout.and_then(|t| start.checked_add(t)),
        }
    }

    /// Whether the search must stop now.
    #[inline]
    pub(crate) fn exceeded(&self, edges_scanned: usize) -> bool {
        edges_scanned as u64 >= self.max_edges || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The wall clock of one search execution.
///
/// All clock reads in the search kernels funnel through this type: the
/// kernels themselves never call [`Instant::now`] directly (enforced by
/// the `check_sync_lints` hygiene pass), which keeps every timing
/// decision — deadline arithmetic and elapsed reporting alike — in one
/// auditable place.
#[derive(Copy, Clone, Debug)]
pub(crate) struct SearchClock {
    start: Instant,
}

impl SearchClock {
    /// Starts the clock at the current instant.
    #[inline]
    pub(crate) fn start_now() -> Self {
        SearchClock { start: Instant::now() }
    }

    /// Resolves `opts` into [`RunLimits`] anchored at this clock's start.
    #[inline]
    pub(crate) fn limits(&self, opts: &QueryOptions) -> RunLimits {
        RunLimits::new(opts, self.start)
    }

    /// Wall-clock time since the clock started.
    #[inline]
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Counters accumulated while answering one query.
///
/// `passed_vertices` is the paper's evaluation metric (§6): the number of
/// vertices whose `close` state is not `N` when the search stops.
///
/// The struct is `#[non_exhaustive]`: future counters are not breaking
/// changes. Construct via `Default` and read fields directly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SearchStats {
    /// Vertices with `close ≠ N` at termination. UIS counts every map of
    /// its sides — a vertex marked from `s` and from `t`, or held by a
    /// candidate side too, counts once per side — so the figure is what
    /// the search passed; under the one-frontier switch that is the
    /// paper's metric exactly, as it is for UIS\*/INS.
    pub passed_vertices: usize,
    /// Invocations of `SCck`, by UIS's endpoint sides only: UIS's
    /// candidate sides start from `V(S,G)` and call none, nor do
    /// UIS\*/INS.
    pub scck_calls: usize,
    /// `SCck` invocations answered from the per-constraint result cache
    /// without re-running the SPARQL-pattern embedding (a subset of
    /// `scck_calls`).
    pub scck_cache_hits: usize,
    /// Edges scanned across all traversals.
    pub edges_scanned: usize,
    /// Incident edges of expanded vertices that did **not** enter the
    /// search: `Σ degree − edges_scanned` over expanded vertices. This
    /// covers both edges rejected by the per-edge label filter and whole
    /// adjacencies the incident-label mask pruned without loading (the
    /// two are not distinguished — under a selective `L` the mask turns
    /// most of this count into work that never happened), plus any
    /// matched edges made moot by an early termination of the expanding
    /// scan.
    pub edges_skipped: usize,
    /// Stack/queue pushes.
    pub pushes: usize,
    /// `LCS` invocations (UIS\*/INS).
    pub lcs_invocations: usize,
    /// `|V(S,G)|` when the algorithm materialized it: always for UIS\* and
    /// INS, for UIS exactly when its candidate sides seeded.
    pub vsg_size: Option<usize>,
    /// Local-index landmark entries consulted (INS).
    pub index_hits: usize,
    /// Edges scanned against the edges' direction (over the reverse
    /// expansion), by UIS's backward side and its backward candidate side.
    /// A subset of `edges_scanned`.
    pub backward_edges_scanned: usize,
    /// Early negative terminations: the search proved the answer `false`
    /// from the incident-label masks of `s` and `t` before expanding
    /// anything, or — UIS — from its emptied backward stack or an empty
    /// `V(S,G)` once its candidate sides seeded.
    pub negative_terminations: usize,
    /// The algorithm that actually executed — for
    /// [`Algorithm::Auto`] the one it resolved to (UIS).
    pub algorithm: Option<Algorithm>,
}

/// The outcome of answering one query.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct QueryOutcome {
    /// The boolean answer of `Q`.
    pub answer: bool,
    /// Search counters.
    pub stats: SearchStats,
    /// Wall-clock time spent answering.
    pub elapsed: Duration,
    /// The witness path, when requested via [`QueryOptions::witness`] and
    /// the answer is true.
    pub witness: Option<Witness>,
    /// Whether a step budget or timeout stopped the search early. When
    /// set, `answer == false` means *not proven within the limits*, not
    /// *definitely unreachable*.
    pub interrupted: bool,
}

impl QueryOutcome {
    /// Assembles an outcome with no witness and no interruption — the
    /// common case for the search algorithms; the session layer fills in
    /// the rest.
    pub(crate) fn finished(answer: bool, stats: SearchStats, elapsed: Duration) -> Self {
        QueryOutcome { answer, stats, elapsed, witness: None, interrupted: false }
    }
}

impl fmt::Display for QueryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{} in {:?} (passed={}, scck={}, edges={})",
            if self.answer { "TRUE" } else { "FALSE" },
            if self.interrupted { " (interrupted)" } else { "" },
            self.elapsed,
            self.stats.passed_vertices,
            self.stats.scck_calls,
            self.stats.edges_scanned
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgreach_graph::GraphBuilder;
    use std::error::Error as _;

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_triple("a", "p", "b");
        b.build().unwrap()
    }

    fn any_constraint() -> SubstructureConstraint {
        SubstructureConstraint::parse("SELECT ?x WHERE { ?x <p> <b> . }").unwrap()
    }

    #[test]
    fn compile_validates_vertices() {
        let g = tiny();
        let q = LscrQuery::new(VertexId(0), VertexId(9), LabelSet::all(1), any_constraint());
        match q.compile(&g) {
            Err(QueryError::Graph(_)) => {}
            other => panic!("expected graph error, got {other:?}"),
        }
        let q = LscrQuery::new(VertexId(0), VertexId(1), LabelSet::all(1), any_constraint());
        assert!(q.compile(&g).is_ok());
    }

    #[test]
    fn error_display_and_source_chain() {
        let e: QueryError = GraphError::VertexOutOfRange { id: 9, num_vertices: 2 }.into();
        assert!(e.to_string().contains("vertex id 9"));
        assert!(e.source().is_some_and(|s| s.to_string().contains("vertex id 9")));
        let e: QueryError = SparqlError::EmptyPattern.into();
        assert!(e.to_string().contains("no triple patterns"));
        assert!(e.source().is_some_and(|s| s.is::<SparqlError>()));
        let fp = tiny().fingerprint();
        let e = QueryError::IndexGraphMismatch { expected: fp, found: fp };
        assert!(e.to_string().contains("different graph"));
        assert!(e.source().is_none());
    }

    #[test]
    fn options_builder_roundtrip() {
        let opts = QueryOptions::default()
            .with_witness(true)
            .with_step_budget(42)
            .with_timeout(Duration::from_secs(1))
            .with_vsg_order(VsgOrder::Shuffled(7))
            .with_one_frontier(true);
        assert!(opts.witness && opts.one_frontier);
        assert_eq!(opts.step_budget, Some(42));
        assert_eq!(opts.timeout, Some(Duration::from_secs(1)));
        assert_eq!(opts.vsg_order, VsgOrder::Shuffled(7));
        let defaults = QueryOptions::default();
        assert!(!defaults.witness && !defaults.one_frontier && defaults.step_budget.is_none());
        assert_eq!(defaults.vsg_order, VsgOrder::Ascending);
    }

    #[test]
    fn run_limits_semantics() {
        let start = Instant::now();
        let unlimited = RunLimits::new(&QueryOptions::default(), start);
        assert!(!unlimited.exceeded(usize::MAX - 1));
        let limits = RunLimits::new(&QueryOptions::default().with_step_budget(10), start);
        assert!(!limits.exceeded(9));
        assert!(limits.exceeded(10));
        let limits = RunLimits::new(&QueryOptions::default().with_timeout(Duration::ZERO), start);
        assert!(limits.exceeded(0));
    }

    #[test]
    fn outcome_display() {
        let mut o = QueryOutcome::finished(
            true,
            SearchStats { passed_vertices: 5, ..Default::default() },
            Duration::from_millis(3),
        );
        let text = o.to_string();
        assert!(text.contains("TRUE"));
        assert!(text.contains("passed=5"));
        assert!(!text.contains("interrupted"));
        o.interrupted = true;
        assert!(o.to_string().contains("interrupted"));
    }
}
