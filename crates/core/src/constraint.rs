//! Substructure constraints (paper Definition 2.2) and their evaluation.
//!
//! A substructure constraint `S = (?x, V_S, E_S, E_?)` is a variable-
//! substructure with a distinguished variable `?x`; a vertex `u`
//! *satisfies* `S` when binding `?x := u` embeds the pattern into the
//! graph. The paper observes that `S` "can be expressed by a SPARQL query"
//! (§2) and evaluates `V(S,G)` with a SPARQL engine (§4) — we do exactly
//! that: a constraint wraps a single-projection [`SelectQuery`], and the
//! two operations the search algorithms need are
//!
//! * [`CompiledConstraint::satisfies`] — the paper's `SCck(v, S)`;
//! * [`CompiledConstraint::satisfying_vertices`] — the paper's `V(S,G)`.
//!
//! [`ConstraintBuilder`] provides the formal-tuple view for callers that
//! prefer constructing `(?x, V_S, E_S, E_?)` programmatically.
//!
//! # Hot-path layout: the SCck result cache
//!
//! `SCck(v, S)` is a pure function of the graph *content at one epoch*,
//! so its results are memoized per compiled constraint in an
//! [`ScckCache`] — tri-state (*unknown / sat / unsat*) atomic slots, so
//! the cache is populated lock-free by concurrent sessions. It
//! is never reset: a memo lives and dies with the compiled constraint
//! that owns it. Because the engine's plan cache shares one
//! [`CompiledConstraint`] across every query with the same SPARQL text,
//! repeated *and* concurrent queries with the same `S` never re-run the
//! pattern embedding for a vertex twice — the dominant cost of UIS
//! (Theorem 3.3) drops to one array probe after warm-up. The
//! cache allocates lazily three times over: nothing before the first
//! [`satisfies_cached`](CompiledConstraint::satisfies_cached) call, so
//! constraints that only ever materialize `V(S,G)` pay nothing; then the
//! first [`INLINE_SLOTS`] results inline, all that most narrow searches
//! ever record; then one byte per vertex one [`PAGE_SLOTS`]-vertex page
//! at a time, so a broader search of a 50k-vertex graph holds a few
//! 1 KiB pages, not the whole array (the engine keeps up to 4,096 such
//! memos alive, and a table of page pointers alone would be 864 B each).
//! Dynamic updates never poison the memo: a compiled
//! constraint records the [`Graph::epoch`] it was bound to,
//! `satisfies_cached` falls back to direct evaluation on mismatch, and
//! the engine recompiles stale plans (see `LscrEngine::apply_update`).
//!
//! ```
//! use kgreach::SubstructureConstraint;
//! use kgreach::fixtures::figure3;
//!
//! let g = figure3();
//! let s0 = SubstructureConstraint::parse(
//!     "SELECT ?x WHERE { ?x <friendOf> <v3> . <v3> <likes> ?y . }").unwrap();
//! let compiled = s0.compile(&g).unwrap();
//! assert_eq!(compiled.satisfying_vertices(&g).len(), 2); // V(S0, G0) = {v1, v2}
//! ```

use kgreach_graph::{Graph, VertexId};
use kgreach_sparql::{eval, parse, Plan, SelectQuery, SparqlError, Term, TriplePattern};
use kgreach_sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use kgreach_sync::{Arc, OnceLock};
use std::fmt;

/// A substructure constraint: a SPARQL BGP with one distinguished variable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubstructureConstraint {
    query: SelectQuery,
    /// Canonical re-serialization of `query`, fixed at construction so
    /// plan-cache keying never re-formats the query on the hot path.
    text: String,
}

impl SubstructureConstraint {
    /// Parses a constraint from SPARQL text, e.g. the paper's `S1`:
    /// `SELECT ?x WHERE { ?x <ub:researchInterest> "Research12" . }`.
    ///
    /// The query must project exactly one variable (the `?x` of the
    /// formal definition).
    pub fn parse(sparql: &str) -> Result<Self, SparqlError> {
        Self::from_query(parse(sparql)?)
    }

    /// Wraps an already-parsed query; must project exactly one variable.
    pub fn from_query(query: SelectQuery) -> Result<Self, SparqlError> {
        if query.projection.len() != 1 {
            return Err(SparqlError::Parse {
                message: format!(
                    "a substructure constraint projects exactly one variable, found {}",
                    query.projection.len()
                ),
            });
        }
        let text = query.canonical_text();
        Ok(SubstructureConstraint { query, text })
    }

    /// The distinguished variable name (without `?`).
    pub fn variable(&self) -> &str {
        &self.query.projection[0]
    }

    /// The underlying query.
    pub fn query(&self) -> &SelectQuery {
        &self.query
    }

    /// Number of triple patterns (`|E_S| + |E_?|` in the formal view).
    pub fn num_patterns(&self) -> usize {
        self.query.patterns.len()
    }

    /// Compiles the constraint against a graph for repeated evaluation.
    ///
    /// The compiled plan is **bound to the graph's content epoch**: plan
    /// compilation resolves constant names to ids and decides
    /// satisfiability from the edges present *now*, so after a dynamic
    /// update (which can intern a previously unresolvable constant) the
    /// plan may be stale. [`graph_epoch`](CompiledConstraint::graph_epoch)
    /// records the binding; the engine recompiles stale plans via the
    /// retained [`sparql_text`](CompiledConstraint::sparql_text).
    pub fn compile(&self, g: &Graph) -> Result<CompiledConstraint, SparqlError> {
        Ok(CompiledConstraint {
            plan: Plan::compile(g, &self.query)?,
            scck: Arc::new(OnceLock::new()),
            vsg: Arc::new(OnceLock::new()),
            text: Arc::from(self.text.as_str()),
            graph_epoch: g.epoch(),
        })
    }

    /// The constraint re-serialized as SPARQL text.
    pub fn to_sparql(&self) -> String {
        self.text.clone()
    }

    /// The canonical SPARQL text, borrowed — the engine's plan-cache key
    /// (precomputed at construction; cache hits allocate nothing).
    pub fn sparql_text(&self) -> &str {
        &self.text
    }
}

impl fmt::Display for SubstructureConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// A concurrency-safe memo of `SCck(v, S)` results for one
/// `(constraint, graph)` pair — see the [module docs](self) for where it
/// sits in the hot path.
///
/// The first [`INLINE_SLOTS`] results are held inline, one atomic word
/// each (`v << 2 | state`, 0 = free), claimed in order through a counter;
/// the rest go to a page table of one atomic byte per vertex, allocated
/// with the first result that does not fit inline: 0 = *unknown*,
/// 1 = *unsat*, 2 = *sat*. A slot is never reused and each word or byte is
/// the whole entry — nothing else is published through it — and `SCck` is
/// deterministic, so racing writers store the same value and `Relaxed`
/// suffices on both sides (a vertex two writers record at once may take
/// two slots). There is no reset: the only cache in the product sits
/// inside a [`CompiledConstraint`] bound to one graph epoch and is dropped
/// with its plan when an update purges the engine's plan cache.
#[derive(Debug)]
pub struct ScckCache {
    inline: [AtomicU64; INLINE_SLOTS],
    /// Inline slots claimed; past [`INLINE_SLOTS`] results go to `pages`.
    claimed: AtomicU32,
    /// Slot `v` lives in `pages[v / PAGE_SLOTS]`; a page is allocated by
    /// the first [`set`](Self::set) that lands in it, and every slot of an
    /// unallocated page is *unknown*.
    pages: OnceLock<Box<[OnceLock<Box<Page>>]>>,
    len: usize,
}

/// Results an [`ScckCache`] holds inline before it allocates its pages.
pub const INLINE_SLOTS: usize = 8;

/// Vertices per lazily allocated [`ScckCache`] page (1 KiB of slots).
pub const PAGE_SLOTS: usize = 1024;

type Page = [AtomicU8; PAGE_SLOTS];

const UNKNOWN: u8 = 0;
const UNSAT: u8 = 1;
const SAT: u8 = 2;

impl ScckCache {
    /// Creates a cache over `n` vertices, all *unknown*.
    pub fn new(n: usize) -> Self {
        ScckCache {
            inline: std::array::from_fn(|_| AtomicU64::new(0)),
            claimed: AtomicU32::new(0),
            pages: OnceLock::new(),
            len: n,
        }
    }

    /// The memoized `SCck(v, S)`, or `None` while *unknown*.
    #[inline(always)]
    pub fn get(&self, v: VertexId) -> Option<bool> {
        // relaxed: a word or byte is the whole entry, so there is nothing
        // for an edge to publish; a page is ordered by its `OnceLock`.
        let paged = self.pages.get().and_then(|pages| pages[v.index() / PAGE_SLOTS].get());
        if let Some(page) = paged {
            // relaxed: the byte is the whole entry (see above).
            match page[v.index() % PAGE_SLOTS].load(Ordering::Relaxed) {
                UNKNOWN => {}
                state => return Some(state == SAT),
            }
        }
        let key = u64::from(v.0) << 2;
        self.inline.iter().find_map(|slot| {
            // relaxed: the word is the whole entry (see above).
            let word = slot.load(Ordering::Relaxed);
            (word != 0 && word & !0b11 == key).then_some(word & 0b11 == u64::from(SAT))
        })
    }

    /// Records `SCck(v, S) = sat`.
    #[inline(always)]
    pub fn set(&self, v: VertexId, sat: bool) {
        let state = if sat { SAT } else { UNSAT };
        // relaxed: see `get` — a claimed inline slot is this writer's
        // alone, and racing writers of one page byte store the same value.
        if self.claimed.load(Ordering::Relaxed) < INLINE_SLOTS as u32 {
            // relaxed: the claim publishes nothing; the slot is ours alone.
            let i = self.claimed.fetch_add(1, Ordering::Relaxed) as usize;
            if let Some(slot) = self.inline.get(i) {
                // relaxed: the word is the whole entry (see `get`).
                slot.store(u64::from(v.0) << 2 | u64::from(state), Ordering::Relaxed);
                return;
            }
        }
        let pages = self.pages.get_or_init(|| {
            let mut pages = Vec::new();
            pages.resize_with(self.len.div_ceil(PAGE_SLOTS), OnceLock::new);
            pages.into_boxed_slice()
        });
        let page = pages[v.index() / PAGE_SLOTS]
            .get_or_init(|| Box::new(std::array::from_fn(|_| AtomicU8::new(UNKNOWN))));
        // relaxed: racing writers of one byte store the same value.
        page[v.index() % PAGE_SLOTS].store(state, Ordering::Relaxed);
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A constraint resolved against one graph **at one content epoch**.
#[derive(Clone, Debug)]
pub struct CompiledConstraint {
    plan: Plan,
    /// Lazily allocated SCck memo, shared by every clone of this compiled
    /// constraint (engine plan-cache entries hand out clones/`Arc`s).
    scck: Arc<OnceLock<ScckCache>>,
    /// Lazily materialized `V(S,G)` memo, shared like [`Self::scck`].
    /// `V(S,G)` is a pure function of graph content at one epoch — the
    /// same contract as SCck — so every query sharing this compiled plan
    /// (the engine plan cache hands out clones) materializes it at most
    /// once. Guarded by the same epoch check as
    /// [`satisfies_cached`](Self::satisfies_cached).
    vsg: Arc<OnceLock<Arc<Vec<VertexId>>>>,
    /// Canonical SPARQL text, retained so the engine can recompile a
    /// stale plan after a graph update without the original
    /// [`SubstructureConstraint`] in hand.
    text: Arc<str>,
    /// The [`Graph::epoch`] the plan was compiled at.
    graph_epoch: u64,
}

impl CompiledConstraint {
    /// The paper's `SCck(v, S)`: whether vertex `v` satisfies the
    /// constraint.
    #[inline]
    pub fn satisfies(&self, g: &Graph, v: VertexId) -> bool {
        eval::satisfies(g, &self.plan, v)
    }

    /// [`satisfies`](Self::satisfies) through the per-constraint
    /// [`ScckCache`]. Returns `(result, cache_hit)`; on a miss the
    /// embedding runs once and the result is published for every other
    /// query — concurrent ones included — sharing this compiled
    /// constraint. Falls back to an uncached evaluation if the cache was
    /// allocated for a graph of a different size (compiled constraints
    /// are bound to one graph; the guard keeps a misuse from turning into
    /// an out-of-bounds probe).
    #[inline]
    pub fn satisfies_cached(&self, g: &Graph, v: VertexId) -> (bool, bool) {
        if self.graph_epoch != g.epoch() {
            // The memo was filled against other graph content; evaluate
            // uncached rather than serve stale bits. (The engine
            // recompiles stale plans before searching, so this guard only
            // fires for callers driving algorithm modules directly.)
            return (self.satisfies(g, v), false);
        }
        let cache = self.scck.get_or_init(|| ScckCache::new(g.num_vertices()));
        if cache.len() != g.num_vertices() {
            return (self.satisfies(g, v), false);
        }
        if let Some(known) = cache.get(v) {
            return (known, true);
        }
        let sat = eval::satisfies(g, &self.plan, v);
        cache.set(v, sat);
        (sat, false)
    }

    /// The SCck cache, if some query has already allocated it
    /// (diagnostics/tests).
    pub fn scck_cache(&self) -> Option<&ScckCache> {
        self.scck.get()
    }

    /// The canonical SPARQL text this plan was compiled from — the
    /// engine's plan-cache key and the recompile source after a graph
    /// update.
    pub fn sparql_text(&self) -> &str {
        &self.text
    }

    /// The [`Graph::epoch`] this plan was compiled at. A plan is valid
    /// only for graph content of that epoch; the engine recompiles on
    /// mismatch (see `LscrEngine::apply_update`).
    pub fn graph_epoch(&self) -> u64 {
        self.graph_epoch
    }

    /// The paper's `V(S,G)`: every vertex satisfying the constraint, in
    /// ascending id order. The paper treats this set as *disordered*
    /// (§4: existing engines cannot order it usefully); UIS\* shuffles it,
    /// INS orders it with its own priority heap.
    pub fn satisfying_vertices(&self, g: &Graph) -> Vec<VertexId> {
        eval::select_distinct(g, &self.plan)
    }

    /// [`satisfying_vertices`](Self::satisfying_vertices) through the
    /// per-constraint memo: the set is materialized once and shared by
    /// every query (concurrent ones included) using this compiled plan.
    /// SPARQL evaluation never consults search budgets, so a memoized set
    /// is always complete — a budget-interrupted query cannot poison it.
    /// Falls back to an uncached evaluation when the graph's content
    /// epoch no longer matches the one the plan was compiled at (same
    /// guard as [`satisfies_cached`](Self::satisfies_cached)).
    pub fn satisfying_vertices_cached(&self, g: &Graph) -> Arc<Vec<VertexId>> {
        if self.graph_epoch != g.epoch() {
            return Arc::new(self.satisfying_vertices(g));
        }
        Arc::clone(self.vsg.get_or_init(|| Arc::new(self.satisfying_vertices(g))))
    }

    /// `|V(S,G)|` if some query has already materialized the shared memo
    /// (diagnostics, and UIS's count of its unseeded candidate sides).
    pub fn vsg_len_if_materialized(&self) -> Option<usize> {
        self.vsg.get().map(|v| v.len())
    }

    /// Whether the constraint provably matches nothing in this graph
    /// (some constant failed to resolve).
    pub fn is_unsatisfiable(&self) -> bool {
        self.plan.unsatisfiable
    }

    /// A cheap upper-bound estimate of `|V(S,G)|`, without evaluating the
    /// constraint: the minimum over the `?x`-incident patterns of each
    /// pattern's standalone match bound, taken from schema statistics
    /// (class instance counts for `rdf:type` patterns), adjacency degrees
    /// (concrete endpoints), or `label_counts` (per-label edge counts,
    /// indexed by label id — typically `GraphStats::label_histogram`).
    ///
    /// UIS counts its unseeded candidate sides with it, in O(patterns)
    /// time, until the memo holds the exact `|V(S,G)|`. Returns
    /// `g.num_vertices()` when nothing bounds `?x`.
    pub fn estimate_candidates(&self, g: &Graph, label_counts: &[usize]) -> usize {
        use kgreach_sparql::{NodeRef, PredRef};
        if self.plan.unsatisfiable {
            return 0;
        }
        let n = g.num_vertices();
        let Some(&x) = self.plan.projection.first() else { return n };
        let mut best = n;
        for p in &self.plan.patterns {
            let touches_x = p.s == NodeRef::Var(x) || p.o == NodeRef::Var(x);
            if !touches_x {
                continue;
            }
            let bound = match (p.s, p.p, p.o) {
                // (?x, rdf:type, C): the schema knows the class size.
                (NodeRef::Var(_), PredRef::Const(l), NodeRef::Const(c))
                    if g.schema().type_label == Some(l) =>
                {
                    g.schema().instances_of(c).len()
                }
                // A concrete endpoint bounds matches by its degree.
                (NodeRef::Const(v), PredRef::Const(l), _) => g.out_neighbors_with_label(v, l).len(),
                (_, PredRef::Const(l), NodeRef::Const(v)) => g.in_neighbors_with_label(v, l).len(),
                (NodeRef::Const(v), PredRef::Var(_), _) => g.out_degree(v),
                (_, PredRef::Var(_), NodeRef::Const(v)) => g.in_degree(v),
                // Both endpoints variable: every edge with this label is a
                // potential match.
                (_, PredRef::Const(l), _) => label_counts.get(l.index()).copied().unwrap_or(n),
                (_, PredRef::Var(_), _) => n,
            };
            best = best.min(bound);
        }
        best
    }
}

/// Builds a constraint from the formal tuple `(?x, V_S, E_S, E_?)`.
///
/// * concrete edges (`E_S`) connect concrete vertices (`V_S`);
/// * variable edges (`E_?`) have a variable on one side — at least one must
///   touch `?x` (Definition 2.2's side condition).
#[derive(Clone, Debug, Default)]
pub struct ConstraintBuilder {
    patterns: Vec<TriplePattern>,
    next_fresh: usize,
}

impl ConstraintBuilder {
    /// Creates an empty builder; the distinguished variable is `?x`.
    pub fn new() -> Self {
        ConstraintBuilder::default()
    }

    /// Adds a concrete edge `(u, l, v)` from `E_S` (all names are graph
    /// vertex/label names).
    pub fn concrete_edge(mut self, u: &str, l: &str, v: &str) -> Self {
        self.patterns.push(TriplePattern::new(
            Term::constant(u),
            Term::constant(l),
            Term::constant(v),
        ));
        self
    }

    /// Adds a variable edge `(?x, l, v)` — `?x` points at concrete `v`.
    pub fn x_to(mut self, l: &str, v: &str) -> Self {
        self.patterns.push(TriplePattern::new(
            Term::var("x"),
            Term::constant(l),
            Term::constant(v),
        ));
        self
    }

    /// Adds a variable edge `(u, l, ?x)` — concrete `u` points at `?x`.
    pub fn to_x(mut self, u: &str, l: &str) -> Self {
        self.patterns.push(TriplePattern::new(
            Term::constant(u),
            Term::constant(l),
            Term::var("x"),
        ));
        self
    }

    /// Adds `(?x, l, ?fresh)` — `?x` has *some* `l`-successor.
    pub fn x_to_any(mut self, l: &str) -> Self {
        let v = format!("y{}", self.next_fresh);
        self.next_fresh += 1;
        self.patterns.push(TriplePattern::new(Term::var("x"), Term::constant(l), Term::var(v)));
        self
    }

    /// Adds `(?fresh, l, v)` — concrete `v` has *some* `l`-predecessor.
    pub fn any_to(mut self, l: &str, v: &str) -> Self {
        let u = format!("y{}", self.next_fresh);
        self.next_fresh += 1;
        self.patterns.push(TriplePattern::new(Term::var(u), Term::constant(l), Term::constant(v)));
        self
    }

    /// Adds an arbitrary pattern (full generality: chained variables etc.).
    pub fn pattern(mut self, p: TriplePattern) -> Self {
        self.patterns.push(p);
        self
    }

    /// Finishes the constraint.
    ///
    /// Errors if no pattern mentions `?x` (Definition 2.2 requires an
    /// `E_?` edge incident to or pointing at `?x`).
    pub fn build(self) -> Result<SubstructureConstraint, SparqlError> {
        let touches_x = self.patterns.iter().any(|p| p.variables().any(|v| v == "x"));
        if !touches_x {
            return Err(SparqlError::Parse {
                message: "substructure constraint must have an edge incident to ?x".into(),
            });
        }
        SubstructureConstraint::from_query(SelectQuery {
            projection: vec!["x".into()],
            patterns: self.patterns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure3() -> Graph {
        crate::fixtures::figure3()
    }

    /// The paper's S0 from Figure 3(b).
    fn s0() -> SubstructureConstraint {
        SubstructureConstraint::parse("SELECT ?x WHERE { ?x <friendOf> <v3> . <v3> <likes> ?y . }")
            .unwrap()
    }

    #[test]
    fn s0_satisfying_vertices_match_paper() {
        let g = figure3();
        let c = s0().compile(&g).unwrap();
        let vs = c.satisfying_vertices(&g);
        let names: Vec<&str> = vs.iter().map(|&v| g.vertex_name(v)).collect();
        assert_eq!(names, vec!["v1", "v2"]); // paper: V(S0, G0) = {v1, v2}
    }

    #[test]
    fn s0_scck_per_vertex() {
        let g = figure3();
        let c = s0().compile(&g).unwrap();
        assert!(c.satisfies(&g, g.vertex_id("v1").unwrap()));
        assert!(c.satisfies(&g, g.vertex_id("v2").unwrap()));
        assert!(!c.satisfies(&g, g.vertex_id("v0").unwrap()));
        assert!(!c.satisfies(&g, g.vertex_id("v3").unwrap()));
        assert!(!c.satisfies(&g, g.vertex_id("v4").unwrap()));
        assert!(!c.is_unsatisfiable());
    }

    #[test]
    fn projection_arity_enforced() {
        let q = parse("SELECT ?x ?y WHERE { ?x <p> ?y . }").unwrap();
        assert!(SubstructureConstraint::from_query(q).is_err());
        assert!(SubstructureConstraint::parse("SELECT ?x ?y WHERE { ?x <p> ?y . }").is_err());
    }

    #[test]
    fn variable_and_display() {
        let c = s0();
        assert_eq!(c.variable(), "x");
        assert_eq!(c.num_patterns(), 2);
        let text = c.to_sparql();
        assert!(text.contains("SELECT ?x"));
        assert_eq!(format!("{c}"), text);
        // Round-trips through the parser.
        let again = SubstructureConstraint::parse(&text).unwrap();
        assert_eq!(again, c);
    }

    #[test]
    fn builder_reproduces_s0() {
        let g = figure3();
        let c = ConstraintBuilder::new()
            .x_to("friendOf", "v3")
            .pattern(TriplePattern::new(
                Term::constant("v3"),
                Term::constant("likes"),
                Term::var("y"),
            ))
            .build()
            .unwrap();
        let compiled = c.compile(&g).unwrap();
        let names: Vec<&str> =
            compiled.satisfying_vertices(&g).iter().map(|&v| g.vertex_name(v)).collect();
        assert_eq!(names, vec!["v1", "v2"]);
    }

    #[test]
    fn builder_variants() {
        let g = figure3();
        // ?x such that v0 -advisorOf-> ?x
        let c = ConstraintBuilder::new().to_x("v0", "advisorOf").build().unwrap();
        let compiled = c.compile(&g).unwrap();
        let names: Vec<&str> =
            compiled.satisfying_vertices(&g).iter().map(|&v| g.vertex_name(v)).collect();
        assert_eq!(names, vec!["v2"]);

        // ?x with some follows-successor (only v2 follows anyone)
        let c = ConstraintBuilder::new().x_to_any("follows").build().unwrap();
        let compiled = c.compile(&g).unwrap();
        assert_eq!(compiled.satisfying_vertices(&g).len(), 1);

        // combining concrete context edges with the ?x edge
        let c = ConstraintBuilder::new()
            .concrete_edge("v3", "likes", "v4")
            .x_to("friendOf", "v3")
            .build()
            .unwrap();
        let compiled = c.compile(&g).unwrap();
        assert_eq!(compiled.satisfying_vertices(&g).len(), 2);

        // any_to: ?x bound by someone pointing at v4 — not x-incident alone
        let err = ConstraintBuilder::new().any_to("likes", "v4").build();
        assert!(err.is_err());
    }

    #[test]
    fn builder_requires_x() {
        let err = ConstraintBuilder::new().concrete_edge("v3", "likes", "v4").build();
        assert!(err.is_err());
        let err = ConstraintBuilder::new().build();
        assert!(err.is_err());
    }

    #[test]
    fn estimate_bounds_actual_candidates() {
        let g = figure3();
        let hist = kgreach_graph::GraphStats::compute(&g).label_histogram;
        for sparql in [
            "SELECT ?x WHERE { ?x <friendOf> <v3> . <v3> <likes> ?y . }",
            "SELECT ?x WHERE { ?x <likes> ?y . }",
            "SELECT ?x WHERE { <v0> <advisorOf> ?x . }",
            "SELECT ?x WHERE { ?x ?p <v4> . }",
        ] {
            let c = SubstructureConstraint::parse(sparql).unwrap().compile(&g).unwrap();
            let actual = c.satisfying_vertices(&g).len();
            let estimate = c.estimate_candidates(&g, &hist);
            assert!(
                estimate >= actual,
                "{sparql}: estimate {estimate} < actual {actual} (must be an upper bound)"
            );
            assert!(estimate <= g.num_vertices());
        }
        // Unsatisfiable constraints estimate to zero.
        let c = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <friendOf> <ghost> . }")
            .unwrap()
            .compile(&g)
            .unwrap();
        assert_eq!(c.estimate_candidates(&g, &hist), 0);
    }

    #[test]
    fn estimate_uses_schema_class_counts() {
        let mut b = kgreach_graph::GraphBuilder::new();
        for i in 0..10 {
            b.add_triple(&format!("s{i}"), "rdf:type", "Small");
            b.add_triple(&format!("s{i}"), "p", "hub");
        }
        for i in 0..50 {
            b.add_triple(&format!("b{i}"), "rdf:type", "Big");
        }
        let g = b.build().unwrap();
        let hist = kgreach_graph::GraphStats::compute(&g).label_histogram;
        let c = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <rdf:type> <Small> . }")
            .unwrap()
            .compile(&g)
            .unwrap();
        assert_eq!(c.estimate_candidates(&g, &hist), 10);
        let c = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <rdf:type> <Big> . }")
            .unwrap()
            .compile(&g)
            .unwrap();
        assert_eq!(c.estimate_candidates(&g, &hist), 50);
    }

    #[test]
    fn scck_cache_agrees_with_direct_evaluation() {
        let g = figure3();
        let c = s0().compile(&g).unwrap();
        assert!(c.scck_cache().is_none(), "cache allocates lazily");
        for v in g.vertices() {
            let direct = c.satisfies(&g, v);
            let (miss, hit1) = c.satisfies_cached(&g, v);
            let (hit, hit2) = c.satisfies_cached(&g, v);
            assert_eq!(miss, direct, "{v}");
            assert_eq!(hit, direct, "{v}");
            assert!(!hit1, "first probe of {v} must miss");
            assert!(hit2, "second probe of {v} must hit");
        }
        let cache = c.scck_cache().expect("allocated after first use");
        assert_eq!(cache.len(), g.num_vertices());
        assert!(!cache.is_empty());
        // Clones share the cache: a clone's probe hits immediately.
        let clone = c.clone();
        assert!(clone.satisfies_cached(&g, VertexId(0)).1);
    }

    #[test]
    fn scck_cache_foreign_graph_guard() {
        let g = figure3();
        let c = s0().compile(&g).unwrap();
        let _ = c.satisfies_cached(&g, VertexId(0)); // allocate for figure3
        let mut b = kgreach_graph::GraphBuilder::new();
        for i in 0..10 {
            b.add_triple(&format!("a{i}"), "p", "b");
        }
        let other = b.build().unwrap();
        // Different |V|: evaluated uncached instead of probing out of
        // bounds (never a hit, never a panic).
        let (_, hit) = c.satisfies_cached(&other, VertexId(7));
        assert!(!hit);
    }

    #[test]
    fn scck_cache_pages_do_not_alias() {
        // Slots either side of a page boundary, and a last page shorter
        // than PAGE_SLOTS; pages nobody wrote to read as unknown.
        let n = 2 * PAGE_SLOTS + 7;
        let cache = ScckCache::new(n);
        let at = |i: usize| VertexId(i as u32);
        // These fill the inline slots, so the writes below land in pages.
        for i in 1..=INLINE_SLOTS {
            cache.set(at(PAGE_SLOTS + i), true);
        }
        assert!(cache.pages.get().is_none(), "the inline slots come first");
        cache.set(at(PAGE_SLOTS - 1), true);
        cache.set(at(PAGE_SLOTS), false);
        cache.set(at(n - 1), true);
        assert_eq!(cache.get(at(PAGE_SLOTS + 1)), Some(true));
        assert_eq!(cache.get(at(PAGE_SLOTS - 1)), Some(true));
        assert_eq!(cache.get(at(PAGE_SLOTS)), Some(false));
        assert_eq!(cache.get(at(n - 1)), Some(true));
        assert_eq!(cache.get(at(0)), None, "same page as a written slot");
        assert_eq!(cache.get(at(2 * PAGE_SLOTS)), None);
        assert_eq!(cache.len(), n);
    }

    #[test]
    fn scck_cache_racing_writers_keep_every_entry() {
        // Four threads each write every fourth vertex, so they race for
        // the inline slots and then for the page; no entry is lost or
        // takes another's value.
        let cache = ScckCache::new(64);
        std::thread::scope(|scope| {
            for lane in 0..4usize {
                let cache = &cache;
                scope.spawn(move || {
                    for i in (lane..64).step_by(4) {
                        cache.set(VertexId(i as u32), i % 3 == 0);
                    }
                });
            }
        });
        for i in 0..64u32 {
            assert_eq!(cache.get(VertexId(i)), Some(i % 3 == 0), "vertex {i}");
        }
    }

    #[test]
    fn scck_cache_is_concurrency_safe() {
        let g = figure3();
        let c = s0().compile(&g).unwrap();
        let expected: Vec<bool> = g.vertices().map(|v| c.satisfies(&g, v)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        for v in g.vertices() {
                            let (sat, _) = c.satisfies_cached(&g, v);
                            assert_eq!(sat, expected[v.index()]);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn unsatisfiable_constraint_detected() {
        let g = figure3();
        let c = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <friendOf> <ghost> . }")
            .unwrap()
            .compile(&g)
            .unwrap();
        assert!(c.is_unsatisfiable());
        assert!(c.satisfying_vertices(&g).is_empty());
        assert!(!c.satisfies(&g, VertexId(0)));
    }
}
