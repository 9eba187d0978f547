//! The knowledge graph `G = (V, E, 𝓛, LS)`, its builder, and its dynamic
//! update path.
//!
//! [`Graph`] is a query-optimized snapshot: interned vertex and label
//! dictionaries, CSR adjacency in both directions, and the RDFS
//! [`Schema`] layer. [`GraphBuilder`] accumulates triples (string-level or
//! pre-interned) and freezes them into a `Graph`.
//!
//! A frozen graph is not sealed forever:
//! [`apply_update`](Graph::apply_update) layers an [`UpdateBatch`] of
//! edge insertions/deletions (and freshly interned vertices and labels)
//! over the base CSR as a [`DeltaOverlay`](crate::DeltaOverlay), every
//! accessor presents the merged view, and
//! [`compact`](Graph::compact) re-freezes the overlay into a clean CSR
//! once the delta grows. Each content-changing batch bumps the graph's
//! [`epoch`](Graph::epoch), the invalidation signal for every cache
//! derived from graph content.

use crate::csr::{label_run_in, slice_has_edge, Csr, Expansion, LabeledTarget, PerLabelRuns};
use crate::delta::{DeltaOverlay, DeltaStats, MaskChange, UpdateBatch, UpdateOp, UpdateSummary};
use crate::dict::Dict;
use crate::error::{GraphError, Result};
use crate::fxhash::fx_set_with_capacity;
use crate::ids::{Edge, LabelId, VertexId};
use crate::labelset::{LabelSet, MAX_LABELS};
use crate::schema::Schema;
use crate::triples::{vocab, Triple};

/// A structural identity stamp for one frozen [`Graph`].
///
/// Shared artifacts derived from a graph (e.g. a prebuilt local index)
/// carry the fingerprint of the graph they were built for, so installing
/// them against a *different* graph can be rejected instead of silently
/// producing wrong answers. Two graphs with equal fingerprints have the
/// same vertex/edge/label counts and the same edge multiset hash; the
/// `edge_hash` is an order-independent FxHash fold over all
/// `(src, label, dst)` triples, so builder insertion order is irrelevant.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct GraphFingerprint {
    /// `|V|` of the fingerprinted graph.
    pub num_vertices: usize,
    /// `|E|` of the fingerprinted graph.
    pub num_edges: usize,
    /// `|𝓛|` of the fingerprinted graph.
    pub num_labels: usize,
    /// Order-independent hash of the edge multiset.
    pub edge_hash: u64,
}

impl std::fmt::Display for GraphFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|V|={} |E|={} |L|={} hash={:016x}",
            self.num_vertices, self.num_edges, self.num_labels, self.edge_hash
        )
    }
}

/// An edge-labeled knowledge graph: a frozen CSR base plus an optional
/// `DeltaOverlay` of applied updates (see the `delta` module docs).
///
/// Cloning is O(delta), not O(|V|+|E|): the CSR pair lives behind `Arc`s
/// (updates never mutate it — they only grow the overlay), the
/// dictionaries share their frozen base layer, and the schema shares its
/// per-class instance lists, so a clone copies only overlay state, dict
/// tails and O(|𝓛|) statistics. The engine's update path
/// (`LscrEngine::apply_update` in `kgreach`) leans on this to prepare the
/// post-batch graph without copying the frozen base.
#[derive(Clone, Debug)]
pub struct Graph {
    vertex_dict: Dict,
    label_dict: Dict,
    out: std::sync::Arc<Csr>,
    inn: std::sync::Arc<Csr>,
    /// Applied-but-not-compacted updates; `None` for a compact graph, in
    /// which case every accessor takes the overlay-free fast path (one
    /// predictable branch on a pointer-sized field — boxed so the hot
    /// check loads one word, not an inline two-hashmap struct).
    overlay: Option<Box<DeltaOverlay>>,
    /// Live edge count — `out.num_edges()` for a compact graph, adjusted
    /// per actual insert/delete while an overlay is active.
    num_edges: usize,
    /// Content version: bumped by every [`apply_update`](Self::apply_update)
    /// that changed something; *not* bumped by [`compact`](Self::compact)
    /// (compaction is a representation change, so content-keyed caches
    /// survive it).
    epoch: u64,
    schema: Schema,
    label_histogram: Vec<usize>,
    /// Per label, the number of vertices with at least one *out*-edge
    /// carrying it — derived from the CSR incident-label masks at freeze
    /// and on snapshot load (never persisted), consumed by the
    /// expansion-region estimate.
    label_vertex_counts: Vec<usize>,
    /// The in-direction mirror of `label_vertex_counts`: per label, the
    /// number of vertices with at least one *in*-edge carrying it. With
    /// the histogram it gives the SPARQL planner a label's average
    /// fan-in (`histogram[l] / label_in_vertex_counts[l]`); derived and
    /// maintained exactly like its out-direction twin.
    label_in_vertex_counts: Vec<usize>,
    /// Vertices with a non-empty out-adjacency (non-sinks) — the baseline
    /// the expansion-selectivity test compares the expandable region
    /// against (KGs are full of sink literals that no constraint could
    /// ever expand, so `|V|` would be the wrong denominator).
    non_sink_vertices: usize,
}

impl Graph {
    /// Reassembles a graph from already-validated parts (snapshot
    /// decoding); the builder path stays the only public way to construct
    /// one. Derived arrays (per-vertex label masks inside the CSRs, the
    /// per-label vertex counts here) are recomputed, not trusted from the
    /// input.
    pub(crate) fn from_parts(
        mut vertex_dict: Dict,
        mut label_dict: Dict,
        out: Csr,
        inn: Csr,
        schema: Schema,
        label_histogram: Vec<usize>,
    ) -> Graph {
        // Every construction funnel (build, compact, snapshot load) yields
        // a compact graph; freezing here gives it empty dict tails, so
        // subsequent clones copy only update-interned names.
        vertex_dict.freeze();
        label_dict.freeze();
        let vertices_per_label = |masks: &[LabelSet]| {
            let mut counts = vec![0usize; label_dict.len()];
            for l in masks.iter().flat_map(|mask| mask.iter()) {
                counts[l.index()] += 1;
            }
            counts
        };
        let label_vertex_counts = vertices_per_label(out.label_masks());
        let label_in_vertex_counts = vertices_per_label(inn.label_masks());
        let non_sink_vertices = out.label_masks().iter().filter(|m| !m.is_empty()).count();
        let num_edges = out.num_edges();
        Graph {
            vertex_dict,
            label_dict,
            out: std::sync::Arc::new(out),
            inn: std::sync::Arc::new(inn),
            overlay: None,
            num_edges,
            epoch: 0,
            schema,
            label_histogram,
            label_vertex_counts,
            label_in_vertex_counts,
            non_sink_vertices,
        }
    }

    /// The out-edge CSR (snapshot encoding; the caller must have
    /// compacted first — see `snapshot::write_graph_sections`).
    pub(crate) fn out_csr(&self) -> &Csr {
        debug_assert!(self.overlay.is_none(), "raw CSR access on a live graph");
        &self.out
    }

    /// The in-edge CSR (snapshot encoding).
    pub(crate) fn in_csr(&self) -> &Csr {
        debug_assert!(self.overlay.is_none(), "raw CSR access on a live graph");
        &self.inn
    }

    /// The vertex dictionary (snapshot encoding).
    pub(crate) fn vertex_dict(&self) -> &Dict {
        &self.vertex_dict
    }

    /// The label dictionary (snapshot encoding).
    pub(crate) fn label_dict(&self) -> &Dict {
        &self.label_dict
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertex_dict.len()
    }

    /// Number of edges `|E|` (merged view while an overlay is active).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of distinct edge labels `|𝓛|`.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.label_dict.len()
    }

    /// Graph density `D = |E| / |V|` (0 for the empty graph).
    pub fn density(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// The full label alphabet as a [`LabelSet`].
    pub fn all_labels(&self) -> LabelSet {
        LabelSet::all(self.num_labels())
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Out-edges of `v` as `(label, target)` pairs sorted by label.
    ///
    /// Like every adjacency accessor, the overlay-free fast path is a
    /// single predictable branch; the live-graph arm is outlined and
    /// `#[cold]` so compact-graph callers keep their tight pre-dynamic
    /// codegen.
    #[inline(always)]
    pub fn out_neighbors(&self, v: VertexId) -> &[LabeledTarget] {
        if self.overlay.is_none() {
            return self.out.neighbors(v);
        }
        self.out_neighbors_live(v)
    }

    #[cold]
    fn out_neighbors_live(&self, v: VertexId) -> &[LabeledTarget] {
        self.overlay.as_ref().expect("live path").out_slice(v, &self.out)
    }

    /// In-edges of `v` as `(label, source)` pairs sorted by label.
    #[inline(always)]
    pub fn in_neighbors(&self, v: VertexId) -> &[LabeledTarget] {
        if self.overlay.is_none() {
            return self.inn.neighbors(v);
        }
        self.in_neighbors_live(v)
    }

    #[cold]
    fn in_neighbors_live(&self, v: VertexId) -> &[LabeledTarget] {
        self.overlay.as_ref().expect("live path").in_slice(v, &self.inn)
    }

    #[cold]
    fn out_view_live(&self, v: VertexId) -> (&[LabeledTarget], LabelSet) {
        self.overlay.as_ref().expect("live path").out_view(v, &self.out)
    }

    #[cold]
    fn in_view_live(&self, v: VertexId) -> (&[LabeledTarget], LabelSet) {
        self.overlay.as_ref().expect("live path").in_view(v, &self.inn)
    }

    /// The out-expansion of `v` under `constraint` — the flat-slice view
    /// the search hot loops consume (see [`Csr::expansion`]). With
    /// `selective = true` the incident-label mask can skip the whole
    /// vertex; with `false` the mask is never even loaded, so broad-`L`
    /// searches pay nothing for the machinery. Search algorithms compute
    /// `selective` once per query via
    /// [`expansion_selective`](Self::expansion_selective) instead of a
    /// mask cache miss on every expanded vertex of a search that could
    /// never skip anything.
    #[inline(always)]
    pub fn out_expansion(
        &self,
        v: VertexId,
        constraint: LabelSet,
        selective: bool,
    ) -> Expansion<'_> {
        if self.overlay.is_none() {
            return self.out.expansion(v, constraint, selective);
        }
        let (slice, mask) = self.out_view_live(v);
        if selective && mask.intersection(constraint).is_empty() {
            Expansion { edges: &[], degree: slice.len() }
        } else {
            Expansion { edges: slice, degree: slice.len() }
        }
    }

    /// The in-expansion of `v` under `constraint` — the reverse-direction
    /// mirror of [`out_expansion`](Self::out_expansion), consumed by
    /// UIS's backward frontier. Same contract:
    /// `selective` lets the in-incident-label mask skip the whole vertex
    /// (with `degree` still exact for skipped-edge accounting), and the
    /// overlay-merged view is presented when delta edits are live.
    #[inline(always)]
    pub fn in_expansion(
        &self,
        v: VertexId,
        constraint: LabelSet,
        selective: bool,
    ) -> Expansion<'_> {
        if self.overlay.is_none() {
            return self.inn.expansion(v, constraint, selective);
        }
        let (slice, mask) = self.in_view_live(v);
        if selective && mask.intersection(constraint).is_empty() {
            Expansion { edges: &[], degree: slice.len() }
        } else {
            Expansion { edges: slice, degree: slice.len() }
        }
    }

    /// Upper bound on the number of vertices a search can *expand* under
    /// `constraint`: Σ over `l ∈ L` of
    /// [`label_vertex_counts`](Self::label_vertex_counts)`[l]`, capped at
    /// `|V|`. O(|L|), no per-vertex work — the estimate behind
    /// [`expansion_selective`](Self::expansion_selective).
    pub fn expandable_region(&self, constraint: LabelSet) -> usize {
        constraint
            .iter()
            .map(|l| self.label_vertex_counts.get(l.index()).copied().unwrap_or(0))
            .sum::<usize>()
            .min(self.num_vertices())
    }

    /// Whether `constraint` is selective enough that mask-guided
    /// expansion (whole-vertex skips) is expected to pay for its extra
    /// per-vertex mask load: either the
    /// [`expandable_region`](Self::expandable_region) covers at most half
    /// of the *non-sink* vertices — the only ones a search can expand —
    /// or `L` uses at most a quarter of the alphabet.
    pub fn expansion_selective(&self, constraint: LabelSet) -> bool {
        if self.non_sink_vertices == 0 {
            return false;
        }
        let expandable = self.expandable_region(constraint).min(self.non_sink_vertices);
        2 * expandable <= self.non_sink_vertices || 4 * constraint.len() <= self.num_labels()
    }

    /// Out-edges of `v` grouped into `(label, run)` pairs (no constraint)
    /// — lets per-label work be hoisted out of the per-edge loop, e.g. by
    /// the local-index BFS.
    #[inline]
    pub fn out_label_runs(&self, v: VertexId) -> PerLabelRuns<'_> {
        if self.overlay.is_none() {
            return self.out.label_runs(v);
        }
        PerLabelRuns::over(self.out_neighbors_live(v))
    }

    /// The union of the labels on `v`'s out-edges, in one load.
    #[inline(always)]
    pub fn out_label_mask(&self, v: VertexId) -> LabelSet {
        if self.overlay.is_none() {
            return self.out.label_mask(v);
        }
        self.out_view_live(v).1
    }

    /// The union of the labels on `v`'s in-edges, in one load.
    #[inline(always)]
    pub fn in_label_mask(&self, v: VertexId) -> LabelSet {
        if self.overlay.is_none() {
            return self.inn.label_mask(v);
        }
        self.in_view_live(v).1
    }

    /// Out-edges of `v` with label `l`.
    #[inline]
    pub fn out_neighbors_with_label(&self, v: VertexId, l: LabelId) -> &[LabeledTarget] {
        if self.overlay.is_none() {
            return self.out.neighbors_with_label(v, l);
        }
        let (slice, mask) = self.out_view_live(v);
        if mask.contains(l) {
            label_run_in(slice, l)
        } else {
            &[]
        }
    }

    /// In-edges of `v` with label `l`.
    #[inline]
    pub fn in_neighbors_with_label(&self, v: VertexId, l: LabelId) -> &[LabeledTarget] {
        if self.overlay.is_none() {
            return self.inn.neighbors_with_label(v, l);
        }
        let (slice, mask) = self.in_view_live(v);
        if mask.contains(l) {
            label_run_in(slice, l)
        } else {
            &[]
        }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        if self.overlay.is_none() {
            return self.out.degree(v);
        }
        self.out_neighbors_live(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        if self.overlay.is_none() {
            return self.inn.degree(v);
        }
        self.in_neighbors_live(v).len()
    }

    /// Total degree (in + out) of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Whether the concrete edge `(s, l, t)` exists: one binary search
    /// on the `(label, vertex)`-sorted adjacency of whichever endpoint
    /// has the shorter one (`s`'s out-edges or `t`'s in-edges), so a
    /// probe against a hub costs O(log d) of the *other* side's degree.
    /// Merged view while an overlay is active.
    pub fn has_edge(&self, s: VertexId, l: LabelId, t: VertexId) -> bool {
        let (out, inn) = (self.out_neighbors(s), self.in_neighbors(t));
        if out.len() <= inn.len() {
            slice_has_edge(out, l, t)
        } else {
            slice_has_edge(inn, l, s)
        }
    }

    /// Iterates every edge of the graph in source order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices().flat_map(move |v| {
            self.out_neighbors(v).iter().map(move |t| Edge::new(v, t.label, t.vertex))
        })
    }

    /// The RDFS schema layer `LS`.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Per-label edge counts, indexed by label id — computed once when the
    /// graph freezes and persisted in binary snapshots, so selectivity
    /// estimation (the SPARQL planner, UIS's candidate count) never
    /// rescans the edge list.
    pub fn label_histogram(&self) -> &[usize] {
        &self.label_histogram
    }

    /// Per-label count of vertices with at least one out-edge carrying
    /// that label, indexed by label id — derived from the incident-label
    /// masks when the graph freezes (or a snapshot loads). Summed over a
    /// query's label constraint `L`, it upper-bounds the number of
    /// vertices a search can *expand* under `L`, which is a sharper
    /// selectivity signal than `|L| / |𝓛|`.
    pub fn label_vertex_counts(&self) -> &[usize] {
        &self.label_vertex_counts
    }

    /// Per-label count of vertices with at least one *in*-edge carrying
    /// that label — the mirror of
    /// [`label_vertex_counts`](Self::label_vertex_counts). A label's
    /// average fan-out is `label_histogram[l] / label_vertex_counts[l]`
    /// and its average fan-in `label_histogram[l] /
    /// label_in_vertex_counts[l]`: what the SPARQL planner charges a
    /// pattern it enters through an already-bound variable.
    pub fn label_in_vertex_counts(&self) -> &[usize] {
        &self.label_in_vertex_counts
    }

    /// Resolves a vertex name to its id.
    pub fn vertex_id(&self, name: &str) -> Option<VertexId> {
        self.vertex_dict.get(name).map(VertexId)
    }

    /// Resolves a label (predicate) name to its id.
    pub fn label_id(&self, name: &str) -> Option<LabelId> {
        self.label_dict.get(name).map(|id| LabelId(id as u16))
    }

    /// The name of vertex `v`.
    pub fn vertex_name(&self, v: VertexId) -> &str {
        self.vertex_dict.name(v.0)
    }

    /// The name of label `l`.
    pub fn label_name(&self, l: LabelId) -> &str {
        self.label_dict.name(l.0 as u32)
    }

    /// Builds a label set from predicate names; unknown names are skipped.
    pub fn label_set(&self, names: &[&str]) -> LabelSet {
        names.iter().filter_map(|n| self.label_id(n)).collect()
    }

    /// Validates that `v` is a vertex of this graph.
    pub fn check_vertex(&self, v: VertexId) -> Result<()> {
        if v.index() < self.num_vertices() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange { id: v.0, num_vertices: self.num_vertices() })
        }
    }

    /// Validates that `l` is a label of this graph.
    pub fn check_label(&self, l: LabelId) -> Result<()> {
        if l.index() < self.num_labels() {
            Ok(())
        } else {
            Err(GraphError::LabelOutOfRange { id: l.0, num_labels: self.num_labels() })
        }
    }

    /// Computes the graph's [`GraphFingerprint`] in one pass over the
    /// edges. Vertex/label *names* are not hashed: the fingerprint is a
    /// structural identity for index compatibility, and every structure
    /// derived from the graph operates on dense ids, not names.
    pub fn fingerprint(&self) -> GraphFingerprint {
        use crate::fxhash::FxHasher;
        use std::hash::Hasher;
        // Order-independent: hash each edge separately and combine with a
        // commutative fold (wrapping add), so logically equal graphs built
        // in different triple orders fingerprint identically.
        let mut edge_hash = 0u64;
        for e in self.edges() {
            let mut h = FxHasher::default();
            h.write_u32(e.src.0);
            h.write_u16(e.label.0);
            h.write_u32(e.dst.0);
            edge_hash = edge_hash.wrapping_add(h.finish());
        }
        GraphFingerprint {
            num_vertices: self.num_vertices(),
            num_edges: self.num_edges(),
            num_labels: self.num_labels(),
            edge_hash,
        }
    }

    /// Approximate total heap footprint in bytes (adjacency + dictionaries
    /// + schema), used for the index/graph size columns in the evaluation.
    pub fn heap_bytes(&self) -> usize {
        self.out.heap_bytes()
            + self.inn.heap_bytes()
            + self.vertex_dict.heap_bytes()
            + self.label_dict.heap_bytes()
            + self.schema.heap_bytes()
            + self.label_histogram.capacity() * std::mem::size_of::<usize>()
            + self.label_vertex_counts.capacity() * std::mem::size_of::<usize>()
            + self.label_in_vertex_counts.capacity() * std::mem::size_of::<usize>()
            + self.overlay.as_deref().map_or(0, DeltaOverlay::heap_bytes)
    }

    /// Serializes the graph back to triples (test/io helper).
    pub fn to_triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.edges().map(move |e| {
            Triple::new(self.vertex_name(e.src), self.label_name(e.label), self.vertex_name(e.dst))
        })
    }
}

/// Dynamic updates: overlay application, compaction, epoch.
impl Graph {
    /// The graph's content epoch: `0` at freeze (or snapshot load),
    /// bumped by every [`apply_update`](Self::apply_update) that changed
    /// something. Caches keyed on graph content (compiled constraint
    /// plans, `SCck` memos, materialized `V(S,G)` sets) record the epoch
    /// they were computed at and invalidate on mismatch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Raises the content epoch to at least `at_least` (no-op when the
    /// epoch is already past it).
    ///
    /// The serving hot-reload path needs this: a graph restored from a
    /// snapshot starts at epoch `0`, and swapping it in for a graph whose
    /// epoch is *also* `0` (or higher) would let epoch-stamped caches
    /// (compiled constraint plans, `SCck` memos, materialized `V(S,G)`
    /// sets) bound to the **old** content pass their staleness check
    /// against the **new** content. Callers replacing one graph with
    /// another wholesale must advance the replacement's epoch strictly
    /// past the replaced graph's — see
    /// `LscrEngine::reload_from_snapshot` in `kgreach`.
    pub fn advance_epoch_to(&mut self, at_least: u64) {
        self.epoch = self.epoch.max(at_least);
    }

    /// Whether updates are layered over the base CSR (i.e. the graph is
    /// live, not compact).
    pub fn has_overlay(&self) -> bool {
        self.overlay.is_some()
    }

    /// Delta counters of the active overlay, or `None` for a compact
    /// graph — the input to compaction policies.
    pub fn delta_stats(&self) -> Option<DeltaStats> {
        self.overlay.as_deref().map(|ov| ov.stats(self.num_vertices()))
    }

    /// Applies an [`UpdateBatch`] in op order, layering the changes over
    /// the base CSR (see the [`delta`][crate::delta] module docs).
    ///
    /// * Inserting an existing edge / deleting an absent edge is a no-op
    ///   (counted in the summary); deletes never intern names.
    /// * Inserted subject/predicate/object names join the dictionaries;
    ///   ids are stable — no existing id ever changes or disappears.
    /// * The RDFS schema layer follows `rdf:type` /
    ///   `rdfs:subClassOf` edge changes (class registrations are
    ///   monotone: deleting the last subclass edge keeps the class
    ///   known, with an empty instance list once its `rdf:type` edges go).
    /// * All derived statistics (label histogram, per-label vertex
    ///   counts, non-sink count) are maintained exactly.
    ///
    /// Errors with [`GraphError::TooManyLabels`] — *before mutating
    /// anything* — if the batch would intern labels past [`MAX_LABELS`].
    /// The epoch is bumped iff the summary reports a change.
    pub fn apply_update(&mut self, batch: &UpdateBatch) -> Result<UpdateSummary> {
        // Pre-validate label capacity so a failed batch leaves the graph
        // untouched.
        let mut new_labels: Vec<&str> = batch
            .ops()
            .iter()
            .filter_map(|op| match op {
                UpdateOp::Insert(t) if self.label_dict.get(&t.predicate).is_none() => {
                    Some(t.predicate.as_str())
                }
                _ => None,
            })
            .collect();
        new_labels.sort_unstable();
        new_labels.dedup();
        if self.label_dict.len() + new_labels.len() > MAX_LABELS {
            return Err(GraphError::TooManyLabels {
                requested: self.label_dict.len() + new_labels.len(),
                max: MAX_LABELS,
            });
        }

        let vertices_before = self.vertex_dict.len();
        let labels_before = self.label_dict.len();
        let had_overlay = self.overlay.is_some();
        if !had_overlay {
            self.overlay = Some(Box::new(DeltaOverlay::new(self.out.num_vertices())));
        }
        let mut summary = UpdateSummary::default();
        let mut touched = fx_set_with_capacity::<VertexId>(batch.len());

        for op in batch.ops() {
            match op {
                UpdateOp::Insert(t) => {
                    let s = VertexId(self.vertex_dict.intern(&t.subject));
                    let p = self.intern_update_label(&t.predicate);
                    let o = VertexId(self.vertex_dict.intern(&t.object));
                    let target = LabeledTarget { label: p, vertex: o };
                    let change = self
                        .overlay
                        .as_mut()
                        .expect("overlay installed above")
                        .insert_edge(&self.out, &self.inn, s, target);
                    match change {
                        Some(masks) => {
                            self.label_histogram[p.index()] += 1;
                            self.num_edges += 1;
                            self.note_mask_change(masks);
                            summary.edges_inserted += 1;
                            touched.insert(s);
                            if self.schema.type_label == Some(p) {
                                self.schema.add_instance(o, s);
                            }
                            if self.schema.subclass_label == Some(p) {
                                self.schema.add_class(s);
                                self.schema.add_class(o);
                            }
                        }
                        None => summary.noop_inserts += 1,
                    }
                }
                UpdateOp::Delete(t) => {
                    let ids = (
                        self.vertex_dict.get(&t.subject),
                        self.label_dict.get(&t.predicate),
                        self.vertex_dict.get(&t.object),
                    );
                    let (Some(s), Some(p), Some(o)) = ids else {
                        summary.noop_deletes += 1;
                        continue;
                    };
                    let (s, p, o) = (VertexId(s), LabelId(p as u16), VertexId(o));
                    let target = LabeledTarget { label: p, vertex: o };
                    let change = self
                        .overlay
                        .as_mut()
                        .expect("overlay installed above")
                        .delete_edge(&self.out, &self.inn, s, target);
                    match change {
                        Some(masks) => {
                            self.label_histogram[p.index()] -= 1;
                            self.num_edges -= 1;
                            self.note_mask_change(masks);
                            summary.edges_deleted += 1;
                            touched.insert(s);
                            if self.schema.type_label == Some(p) {
                                self.schema.remove_instance(o, s);
                            }
                        }
                        None => summary.noop_deletes += 1,
                    }
                }
            }
        }

        summary.vertices_added = self.vertex_dict.len() - vertices_before;
        summary.labels_added = self.label_dict.len() - labels_before;
        summary.touched_sources = touched.into_iter().collect();
        summary.touched_sources.sort_unstable();
        if summary.changed() {
            self.epoch += 1;
        } else if !had_overlay {
            self.overlay = None; // an all-no-op batch leaves the graph compact
        }
        Ok(summary)
    }

    /// Re-freezes the overlay into a clean CSR pair: the merged adjacency
    /// is rebuilt through the constructor [`GraphBuilder::build`] ends in
    /// (`Csr::from_key_sorted` + the `from_parts` derivation), and
    /// the overlay is dropped. Ids, dictionaries, schema, statistics and
    /// the [`epoch`](Self::epoch) are all preserved — compaction changes
    /// the representation, never the content. No-op on a compact graph.
    pub fn compact(&mut self) {
        if self.overlay.is_none() {
            return;
        }
        let n = self.num_vertices();
        let mut edges: Vec<Edge> = Vec::with_capacity(self.num_edges);
        for raw in 0..n as u32 {
            let v = VertexId(raw);
            for t in self.out_neighbors(v) {
                edges.push(Edge::new(v, t.label, t.vertex));
            }
        }
        // The merged-view walk yields edges in (src, label, dst) order, so
        // both CSRs go through the staging-free sorted-slice constructor
        // (one in-place re-key for the in-direction).
        let out =
            Csr::from_key_sorted(n, edges.len(), edges.iter().map(|e| (e.src, e.label, e.dst)));
        edges.sort_unstable_by_key(|e| (e.dst, e.label, e.src));
        let inn =
            Csr::from_key_sorted(n, edges.len(), edges.iter().map(|e| (e.dst, e.label, e.src)));
        let epoch = self.epoch;
        *self = Graph::from_parts(
            std::mem::take(&mut self.vertex_dict),
            std::mem::take(&mut self.label_dict),
            out,
            inn,
            std::mem::take(&mut self.schema),
            std::mem::take(&mut self.label_histogram),
        );
        self.epoch = epoch;
    }

    /// A compacted clone — the content-identical, overlay-free form used
    /// by the snapshot encoder; cheap no-op clone semantics do not apply
    /// (callers on the read path should check [`has_overlay`](Self::has_overlay)
    /// first).
    pub fn compacted(&self) -> Graph {
        let mut c = self.clone();
        c.compact();
        c
    }

    /// Interns a predicate for an insert, extending every label-indexed
    /// derived array and wiring freshly seen RDFS vocabulary names into
    /// the schema slots.
    fn intern_update_label(&mut self, name: &str) -> LabelId {
        if let Some(id) = self.label_dict.get(name) {
            return LabelId(id as u16);
        }
        let id = self.label_dict.intern(name);
        debug_assert!(id <= u16::MAX as u32, "label id overflows u16");
        self.label_histogram.push(0);
        self.label_vertex_counts.push(0);
        self.label_in_vertex_counts.push(0);
        let l = LabelId(id as u16);
        if vocab::is_type(name) {
            self.schema.type_label.get_or_insert(l);
        } else if vocab::is_subclass_of(name) {
            self.schema.subclass_label.get_or_insert(l);
        } else if vocab::is_domain(name) {
            self.schema.domain_label.get_or_insert(l);
        } else if vocab::is_range(name) {
            self.schema.range_label.get_or_insert(l);
        }
        l
    }

    /// Folds the mask transitions of one edge change into the
    /// mask-derived statistics (`label_vertex_counts`,
    /// `label_in_vertex_counts`, `non_sink_vertices`).
    fn note_mask_change(&mut self, masks: MaskChange) {
        fn fold(counts: &mut [usize], (old, new): (LabelSet, LabelSet)) {
            for l in new.difference(old).iter() {
                counts[l.index()] += 1;
            }
            for l in old.difference(new).iter() {
                counts[l.index()] -= 1;
            }
        }
        fold(&mut self.label_vertex_counts, masks.out);
        fold(&mut self.label_in_vertex_counts, masks.inn);
        let (old, new) = masks.out;
        match (old.is_empty(), new.is_empty()) {
            (true, false) => self.non_sink_vertices += 1,
            (false, true) => self.non_sink_vertices -= 1,
            _ => {}
        }
    }
}

/// Accumulates a stream of intern and edge events and freezes it into a
/// [`Graph`].
///
/// Names are interned on arrival, straight into the dictionaries the
/// final graph keeps, so no string-level triple is ever buffered; id
/// assignment is first-seen order, so equal event streams yield equal ids.
/// Edges are staged as 12-byte [`Edge`] records and deduplicated
/// (identical `(s,p,o)` triples are stored once). Whenever the unsorted
/// tail of the staging buffer reaches `chunk_edges` the buffer is sorted
/// and deduplicated in place, so at any instant it holds at most
/// `|E_dedup| + chunk_edges` records however many duplicates arrive.
///
/// The chunk size bounds the construction transient and nothing else:
/// the same event stream produces the same graph — same ids, same
/// [`GraphFingerprint`], byte-identical canonical snapshot — for every
/// chunk size.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    vertex_dict: Dict,
    label_dict: Dict,
    /// `edges[..sorted_len]` is sorted + deduplicated; the tail is the
    /// not-yet-compacted arrivals, never longer than `chunk_edges`.
    edges: Vec<Edge>,
    sorted_len: usize,
    chunk_edges: usize,
    peak_buffer_bytes: usize,
}

/// Default compaction chunk: 1 Mi edges ≈ 12 MiB of unsorted tail.
const DEFAULT_CHUNK_EDGES: usize = 1 << 20;

impl Default for GraphBuilder {
    fn default() -> Self {
        GraphBuilder::with_chunk_edges(DEFAULT_CHUNK_EDGES)
    }
}

impl GraphBuilder {
    /// Creates an empty builder with the default chunk size.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Creates a builder with capacity hints.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        GraphBuilder {
            vertex_dict: Dict::with_capacity(vertices),
            label_dict: Dict::with_capacity(32),
            edges: Vec::with_capacity(edges),
            ..GraphBuilder::default()
        }
    }

    /// Creates a builder that compacts its edge buffer whenever the
    /// unsorted tail reaches `chunk_edges` (clamped to ≥ 1).
    pub fn with_chunk_edges(chunk_edges: usize) -> Self {
        GraphBuilder {
            vertex_dict: Dict::default(),
            label_dict: Dict::default(),
            edges: Vec::new(),
            sorted_len: 0,
            chunk_edges: chunk_edges.max(1),
            peak_buffer_bytes: 0,
        }
    }

    /// Interns a vertex name, returning its id.
    pub fn intern_vertex(&mut self, name: &str) -> VertexId {
        VertexId(self.vertex_dict.intern(name))
    }

    /// Interns a label name, returning its id.
    pub fn intern_label(&mut self, name: &str) -> LabelId {
        let id = self.label_dict.intern(name);
        debug_assert!(id <= u16::MAX as u32, "label id overflows u16");
        LabelId(id as u16)
    }

    /// Adds a string-level triple as an edge.
    pub fn add_triple(&mut self, subject: &str, predicate: &str, object: &str) {
        let s = self.intern_vertex(subject);
        let p = self.intern_label(predicate);
        let o = self.intern_vertex(object);
        self.add_edge(s, p, o);
    }

    /// Adds a [`Triple`].
    pub fn add(&mut self, t: &Triple) {
        self.add_triple(&t.subject, &t.predicate, &t.object);
    }

    /// Adds an edge between already-interned ids.
    pub fn add_edge(&mut self, src: VertexId, label: LabelId, dst: VertexId) {
        self.edges.push(Edge::new(src, label, dst));
        if self.edges.len() - self.sorted_len >= self.chunk_edges {
            self.compact_buffer();
        }
    }

    /// Sorts and deduplicates the whole buffer, emptying the tail.
    fn compact_buffer(&mut self) {
        self.peak_buffer_bytes = self.peak_buffer_bytes();
        // The sorted prefix makes this a near-linear pattern-defeating
        // sort; dedup then folds the tail's repeats into the prefix.
        self.edges.sort_unstable();
        self.edges.dedup();
        self.sorted_len = self.edges.len();
    }

    /// Number of edges buffered so far (the unsorted tail not yet
    /// deduplicated).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of vertices interned so far.
    pub fn num_vertices(&self) -> usize {
        self.vertex_dict.len()
    }

    /// High-water mark of the edge buffer in bytes — the construction
    /// transient the chunk size bounds (dictionaries and CSRs are part of
    /// the final graph, not transients). At most
    /// `12 × (|E_dedup| + chunk_edges)` plus `Vec` growth slack.
    pub fn peak_buffer_bytes(&self) -> usize {
        self.peak_buffer_bytes.max(self.edges.capacity() * std::mem::size_of::<Edge>())
    }

    /// Freezes the builder into an immutable [`Graph`]: sorts and
    /// deduplicates the edge list, builds both CSRs through the
    /// sorted-slice constructor, and derives the schema layer and label
    /// histogram.
    ///
    /// Returns [`GraphError::TooManyLabels`] if more than
    /// [`MAX_LABELS`] distinct predicates were interned.
    pub fn build(self) -> Result<Graph> {
        let GraphBuilder { vertex_dict, label_dict, mut edges, .. } = self;
        if label_dict.len() > MAX_LABELS {
            return Err(GraphError::TooManyLabels { requested: label_dict.len(), max: MAX_LABELS });
        }
        // Global sort + dedup: the CSR constructor takes key-sorted input,
        // and dedup keeps |E| honest for the evaluation metrics.
        edges.sort_unstable();
        edges.dedup();

        let n = vertex_dict.len();
        let num_edges = edges.len();
        // `Edge`'s lexicographic (src, label, dst) order is exactly the
        // out-CSR's key order, so the sorted list feeds the copy-free
        // constructor directly.
        let out = Csr::from_key_sorted(n, num_edges, edges.iter().map(|e| (e.src, e.label, e.dst)));

        // Derive the RDFS schema layer from the frozen edges (while they are
        // still in src-major order, keeping instance-list order stable).
        let mut schema = Schema::default();
        for (id, name) in label_dict.iter() {
            let l = LabelId(id as u16);
            if vocab::is_type(name) {
                schema.type_label = Some(l);
            } else if vocab::is_subclass_of(name) {
                schema.subclass_label = Some(l);
            } else if vocab::is_domain(name) {
                schema.domain_label = Some(l);
            } else if vocab::is_range(name) {
                schema.range_label = Some(l);
            }
        }
        if let Some(tl) = schema.type_label {
            for e in &edges {
                if e.label == tl {
                    schema.add_instance(e.dst, e.src);
                }
            }
        }
        if let Some(sc) = schema.subclass_label {
            for e in &edges {
                if e.label == sc {
                    schema.add_class(e.src);
                    schema.add_class(e.dst);
                }
            }
        }

        let mut label_histogram = vec![0usize; label_dict.len()];
        for e in &edges {
            label_histogram[e.label.index()] += 1;
        }

        // Re-key the same allocation dst-major for the in-CSR instead of
        // staging a second per-edge buffer; the edge list is consumed anyway.
        edges.sort_unstable_by_key(|e| (e.dst, e.label, e.src));
        let inn = Csr::from_key_sorted(n, num_edges, edges.iter().map(|e| (e.dst, e.label, e.src)));
        drop(edges);

        Ok(Graph::from_parts(vertex_dict, label_dict, out, inn, schema, label_histogram))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 3(a) running-example graph `G0` (edges reconstructed from
    /// the paper's worked CMS examples; see `kgreach::fixtures::figure3`).
    pub(crate) fn figure3_graph() -> Graph {
        let mut b = GraphBuilder::new();
        for (s, p, o) in [
            ("v0", "friendOf", "v1"),
            ("v0", "likes", "v2"),
            ("v0", "advisorOf", "v2"),
            ("v1", "friendOf", "v3"),
            ("v2", "friendOf", "v3"),
            ("v2", "follows", "v4"),
            ("v3", "likes", "v4"),
            ("v4", "hates", "v1"),
        ] {
            b.add_triple(s, p, o);
        }
        b.build().unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = figure3_graph();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.num_labels(), 5);
        assert!((g.density() - 8.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn name_resolution_roundtrip() {
        let g = figure3_graph();
        let v3 = g.vertex_id("v3").unwrap();
        assert_eq!(g.vertex_name(v3), "v3");
        let likes = g.label_id("likes").unwrap();
        assert_eq!(g.label_name(likes), "likes");
        assert_eq!(g.vertex_id("nope"), None);
        assert_eq!(g.label_id("nope"), None);
    }

    #[test]
    fn adjacency_both_directions() {
        let g = figure3_graph();
        let v0 = g.vertex_id("v0").unwrap();
        let v1 = g.vertex_id("v1").unwrap();
        let v3 = g.vertex_id("v3").unwrap();
        let friend = g.label_id("friendOf").unwrap();
        assert!(g.has_edge(v0, friend, v1));
        assert!(!g.has_edge(v1, friend, v0));
        // v3's in-edges: friendOf from v1 and v2
        let ins: Vec<_> = g.in_neighbors_with_label(v3, friend).iter().map(|t| t.vertex).collect();
        assert_eq!(ins.len(), 2);
        assert_eq!(g.in_degree(v3), 2);
        assert_eq!(g.out_degree(v0), 3);
        assert_eq!(g.degree(v0), 3);
    }

    #[test]
    fn edges_iterator_covers_all() {
        let g = figure3_graph();
        assert_eq!(g.edges().count(), 8);
        let triples: Vec<_> = g.to_triples().collect();
        assert_eq!(triples.len(), 8);
    }

    #[test]
    fn duplicate_triples_are_deduped() {
        let mut b = GraphBuilder::new();
        b.add_triple("a", "p", "b");
        b.add_triple("a", "p", "b");
        assert_eq!(b.num_edges(), 2);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn chunk_size_never_changes_the_graph() {
        // One event stream through both regimes of the builder: chunks
        // small enough to compact mid-stream, and the default, which
        // sorts only at `build`.
        fn feed(b: &mut GraphBuilder) {
            let mut peak = 0;
            let mut grown = |b: &GraphBuilder| {
                assert!(b.peak_buffer_bytes() >= peak, "peak_buffer_bytes went down");
                peak = b.peak_buffer_bytes();
            };
            let p = b.intern_label("p");
            let a = b.intern_vertex("a");
            b.add_triple("x", "q", "y");
            grown(b);
            let v = b.intern_vertex("b");
            b.add_edge(a, p, v);
            grown(b);
            b.add_edge(v, p, a); // chunk 3 compacts here
            grown(b);
            b.add_edge(v, p, a); // duplicate straddling that chunk boundary
            grown(b);
            b.add_triple("a", "q", "b");
            grown(b);
            b.add_triple("x", "q", "y"); // duplicate of an edge in the sorted prefix
            grown(b);
            b.add_triple("a", "q", "b");
            grown(b);
            b.add_triple("y", "q", "x"); // left in the tail for `build`
            grown(b);
            assert!(peak > 0);
        }
        let frozen = [
            GraphBuilder::with_chunk_edges(1),
            GraphBuilder::with_chunk_edges(3),
            GraphBuilder::with_capacity(8, 8),
            GraphBuilder::new(),
        ]
        .map(|mut b| {
            feed(&mut b);
            let g = b.build().unwrap();
            let mut bytes = Vec::new();
            crate::snapshot::write_graph_snapshot(&g, &mut bytes).unwrap();
            (g.fingerprint(), bytes)
        });
        assert_eq!(frozen[0].0.num_edges, 5);
        for other in &frozen[1..] {
            assert_eq!(other, &frozen[0]);
        }
    }

    #[test]
    fn too_many_labels_rejected() {
        let mut b = GraphBuilder::new();
        for i in 0..65 {
            b.add_triple("a", &format!("p{i}"), "b");
        }
        match b.build() {
            Err(GraphError::TooManyLabels { requested, max }) => {
                assert_eq!(requested, 65);
                assert_eq!(max, MAX_LABELS);
            }
            other => panic!("expected TooManyLabels, got {other:?}"),
        }
    }

    #[test]
    fn schema_extraction() {
        let mut b = GraphBuilder::new();
        b.add_triple("Walker", "rdf:type", "eg:Researcher");
        b.add_triple("Taylor", "rdf:type", "eg:Researcher");
        b.add_triple("eg:Researcher", "rdfs:subClassOf", "eg:Person");
        b.add_triple("Walker", "eg:workWith", "Taylor");
        let g = b.build().unwrap();
        let schema = g.schema();
        assert!(schema.type_label.is_some());
        assert!(schema.subclass_label.is_some());
        let researcher = g.vertex_id("eg:Researcher").unwrap();
        let person = g.vertex_id("eg:Person").unwrap();
        assert!(schema.is_class(researcher));
        assert!(schema.is_class(person));
        assert_eq!(schema.instances_of(researcher).len(), 2);
        assert!(schema.vocabulary_labels().len() >= 2);
    }

    #[test]
    fn check_bounds() {
        let g = figure3_graph();
        assert!(g.check_vertex(VertexId(0)).is_ok());
        assert!(g.check_vertex(VertexId(99)).is_err());
        assert!(g.check_label(LabelId(0)).is_ok());
        assert!(g.check_label(LabelId(99)).is_err());
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.density(), 0.0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn label_set_helper() {
        let g = figure3_graph();
        let ls = g.label_set(&["likes", "follows", "missing"]);
        assert_eq!(ls.len(), 2);
        assert!(ls.contains(g.label_id("likes").unwrap()));
    }

    #[test]
    fn label_histogram_counts_edges_per_label() {
        let g = figure3_graph();
        let hist = g.label_histogram();
        assert_eq!(hist.len(), g.num_labels());
        assert_eq!(hist.iter().sum::<usize>(), g.num_edges());
        let friend = g.label_id("friendOf").unwrap();
        assert_eq!(hist[friend.index()], 3);
    }

    #[test]
    fn heap_bytes_positive() {
        let g = figure3_graph();
        assert!(g.heap_bytes() > 0);
    }

    #[test]
    fn label_masks_and_vertex_counts() {
        let g = figure3_graph();
        let v0 = g.vertex_id("v0").unwrap();
        assert_eq!(g.out_label_mask(v0), g.label_set(&["friendOf", "likes", "advisorOf"]));
        assert_eq!(g.in_label_mask(v0), crate::LabelSet::EMPTY);
        // friendOf is on the out-edges of v0, v1 and v2.
        let friend = g.label_id("friendOf").unwrap();
        assert_eq!(g.label_vertex_counts()[friend.index()], 3);
        // ... and on the in-edges of v1 and v3 (v3 twice, counted once).
        assert_eq!(g.label_in_vertex_counts()[friend.index()], 2);
        // Each count is bounded by the histogram (a vertex counts once per
        // label however many such edges it has).
        for (c, h) in g.label_vertex_counts().iter().zip(g.label_histogram()) {
            assert!(c <= h);
        }
        // expandable_region sums the counts, capped at |V|.
        let friend_only = g.label_set(&["friendOf"]);
        assert_eq!(g.expandable_region(friend_only), 3);
        assert_eq!(g.expandable_region(crate::LabelSet::EMPTY), 0);
        assert!(g.expandable_region(g.all_labels()) <= g.num_vertices());
        // friendOf reaches only 3 of 4 non-sink vertices... selective
        // decisions stay consistent with the region estimate.
        assert!(g.expansion_selective(crate::LabelSet::EMPTY));
    }

    #[test]
    fn fingerprint_is_structural_identity() {
        let a = figure3_graph();
        let fp = a.fingerprint();
        assert_eq!(fp.num_vertices, 5);
        assert_eq!(fp.num_edges, 8);
        assert_eq!(fp.num_labels, 5);
        // Deterministic and insertion-order independent.
        assert_eq!(fp, figure3_graph().fingerprint());
        let mut b = GraphBuilder::new();
        for (s, p, o) in [
            // Same triples as figure3_graph, reversed insertion order —
            // names intern to different ids, but the dedup'd edge multiset
            // over *those* ids is what the structural hash covers, so only
            // counts are asserted to match here; the same-order rebuild
            // above asserts full equality.
            ("v4", "hates", "v1"),
            ("v3", "likes", "v4"),
        ] {
            b.add_triple(s, p, o);
        }
        let other = b.build().unwrap().fingerprint();
        assert_ne!(fp, other);
        // Display carries all four components.
        let text = fp.to_string();
        assert!(text.contains("|V|=5") && text.contains("hash="));
    }

    /// Rebuilds a graph from another graph's merged triple view — the
    /// reference a live graph must stay equivalent to.
    fn rebuilt(g: &Graph) -> Graph {
        let mut b = GraphBuilder::new();
        for t in g.to_triples() {
            b.add(&t);
        }
        b.build().unwrap()
    }

    /// Asserts that the live graph and a from-scratch rebuild of its
    /// triples agree on every per-vertex view (by name, since ids can
    /// differ) and on all derived statistics.
    fn assert_equivalent(live: &Graph, reference: &Graph) {
        assert_eq!(live.num_edges(), reference.num_edges());
        let mut live_triples: Vec<(String, String, String)> =
            live.to_triples().map(|t| (t.subject, t.predicate, t.object)).collect();
        let mut ref_triples: Vec<(String, String, String)> =
            reference.to_triples().map(|t| (t.subject, t.predicate, t.object)).collect();
        live_triples.sort();
        ref_triples.sort();
        assert_eq!(live_triples, ref_triples);
        // Mask-derived statistics must be maintained exactly.
        for (id, name) in (0..live.num_labels() as u16).map(|i| (i, live.label_name(LabelId(i)))) {
            let l = LabelId(id);
            let (hist, counts, in_counts) = (
                live.label_histogram()[l.index()],
                live.label_vertex_counts()[l.index()],
                live.label_in_vertex_counts()[l.index()],
            );
            match reference.label_id(name) {
                Some(rl) => {
                    assert_eq!(hist, reference.label_histogram()[rl.index()], "hist[{name}]");
                    assert_eq!(
                        counts,
                        reference.label_vertex_counts()[rl.index()],
                        "vertex_counts[{name}]"
                    );
                    assert_eq!(
                        in_counts,
                        reference.label_in_vertex_counts()[rl.index()],
                        "in_vertex_counts[{name}]"
                    );
                }
                None => {
                    assert_eq!(hist, 0, "label {name} has no edges in the reference");
                    assert_eq!((counts, in_counts), (0, 0));
                }
            }
        }
        // Per-vertex adjacency views agree by name.
        for v in live.vertices() {
            let name = live.vertex_name(v).to_owned();
            // Adjacency slices sort by *label id*, and ids intern in
            // different orders in the two graphs — compare as sets of
            // name pairs.
            let mut out_live: Vec<(String, String)> = live
                .out_neighbors(v)
                .iter()
                .map(|t| (live.label_name(t.label).into(), live.vertex_name(t.vertex).into()))
                .collect();
            let mut out_ref: Vec<(String, String)> = match reference.vertex_id(&name) {
                Some(rv) => reference
                    .out_neighbors(rv)
                    .iter()
                    .map(|t| {
                        (
                            reference.label_name(t.label).into(),
                            reference.vertex_name(t.vertex).into(),
                        )
                    })
                    .collect(),
                None => Vec::new(),
            };
            out_live.sort();
            out_ref.sort();
            assert_eq!(out_live, out_ref, "out({name})");
            assert_eq!(live.out_degree(v), out_live.len());
            assert_eq!(live.out_label_mask(v).len(), {
                let mut ls: Vec<&String> = out_live.iter().map(|(l, _)| l).collect();
                ls.sort();
                ls.dedup();
                ls.len()
            });
        }
    }

    #[test]
    fn apply_update_inserts_deletes_and_noops() {
        let mut g = figure3_graph();
        let fp_before = g.fingerprint();
        assert_eq!(g.epoch(), 0);
        let mut batch = UpdateBatch::new();
        batch
            .insert("v0", "likes", "v4") // new edge between old vertices
            .insert("v0", "likes", "v2") // already present → no-op
            .delete("v4", "hates", "v1") // present → deleted
            .delete("v4", "hates", "v2") // absent → no-op
            .delete("ghost", "hates", "v1"); // unknown name → no-op, not interned
        let s = g.apply_update(&batch).unwrap();
        assert_eq!(s.edges_inserted, 1);
        assert_eq!(s.edges_deleted, 1);
        assert_eq!(s.noop_inserts, 1);
        assert_eq!(s.noop_deletes, 2);
        assert_eq!(s.vertices_added, 0, "deletes must not intern names");
        assert!(s.changed());
        assert_eq!(g.epoch(), 1);
        assert!(g.has_overlay());
        assert_eq!(g.vertex_id("ghost"), None);
        assert_ne!(g.fingerprint(), fp_before);
        let v0 = g.vertex_id("v0").unwrap();
        let v4 = g.vertex_id("v4").unwrap();
        let likes = g.label_id("likes").unwrap();
        assert!(g.has_edge(v0, likes, v4));
        assert_eq!(g.out_degree(v4), 0, "v4's only out-edge was deleted");
        assert!(g.out_label_mask(v4).is_empty());
        assert_equivalent(&g, &rebuilt(&g));
        // touched_sources: v0 (insert) and v4 (delete), deduped + sorted.
        assert_eq!(s.touched_sources, vec![v0, v4]);
    }

    #[test]
    fn has_edge_searches_the_merged_view() {
        // A hub with enough same-label edges that the probe is a real
        // binary search, not a one-element slice.
        let mut b = GraphBuilder::new();
        for i in 0..40 {
            b.add_triple("hub", "p", &format!("t{i}"));
            b.add_triple("hub", "q", &format!("t{i}"));
        }
        let mut g = b.build().unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert("hub", "p", "fresh").delete("hub", "p", "t7");
        g.apply_update(&batch).unwrap();
        assert!(g.has_overlay());
        let id = |n: &str| g.vertex_id(n).unwrap();
        let (p, q) = (g.label_id("p").unwrap(), g.label_id("q").unwrap());
        assert!(g.has_edge(id("hub"), p, id("fresh")), "added edge");
        assert!(!g.has_edge(id("hub"), p, id("t7")), "removed edge");
        assert!(g.has_edge(id("hub"), q, id("t7")), "same endpoints, other label");
        assert!(!g.has_edge(id("hub"), q, id("fresh")));
        assert!(!g.has_edge(id("t7"), p, id("hub")), "direction matters");
        // Every edge of the merged view is found from either side, on
        // the live graph and after compaction.
        for live in [g.clone(), g.compacted()] {
            for e in live.edges() {
                assert!(live.has_edge(e.src, e.label, e.dst));
                assert!(!live.has_edge(e.dst, e.label, e.src));
            }
        }
    }

    #[test]
    fn apply_update_interns_new_vertices_and_labels() {
        let mut g = figure3_graph();
        let mut batch = UpdateBatch::new();
        // A vertex interned by this very batch is used again as a source
        // in the same batch.
        batch.insert("v4", "mentors", "newbie").insert("newbie", "mentors", "v0");
        let s = g.apply_update(&batch).unwrap();
        assert_eq!(s.vertices_added, 1);
        assert_eq!(s.labels_added, 1);
        assert_eq!(s.edges_inserted, 2);
        let newbie = g.vertex_id("newbie").unwrap();
        let mentors = g.label_id("mentors").unwrap();
        assert_eq!(g.out_degree(newbie), 1);
        assert_eq!(g.in_degree(newbie), 1);
        assert_eq!(g.label_histogram()[mentors.index()], 2);
        assert_eq!(g.label_vertex_counts()[mentors.index()], 2);
        assert!(g.has_edge(newbie, mentors, g.vertex_id("v0").unwrap()));
        assert_equivalent(&g, &rebuilt(&g));
        // Per-label and expansion views work on the new vertex.
        assert_eq!(g.out_neighbors_with_label(newbie, mentors).len(), 1);
        assert_eq!(g.out_expansion(newbie, LabelSet::singleton(mentors), true).edges.len(), 1);
    }

    #[test]
    fn reinsert_after_delete_roundtrips() {
        let mut g = figure3_graph();
        let fp = g.fingerprint();
        let mut del = UpdateBatch::new();
        del.delete("v0", "friendOf", "v1");
        let mut ins = UpdateBatch::new();
        ins.insert("v0", "friendOf", "v1");
        g.apply_update(&del).unwrap();
        assert_eq!(g.num_edges(), 7);
        g.apply_update(&ins).unwrap();
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.fingerprint(), fp, "delete + re-insert restores the edge multiset");
        assert_eq!(g.epoch(), 2, "both batches changed content");
        // Same within one batch, in both orders.
        let mut both = UpdateBatch::new();
        both.delete("v0", "friendOf", "v1").insert("v0", "friendOf", "v1");
        g.apply_update(&both).unwrap();
        assert_eq!(g.fingerprint(), fp);
        assert_equivalent(&g, &rebuilt(&g));
    }

    #[test]
    fn noop_batch_keeps_graph_compact_and_epoch() {
        let mut g = figure3_graph();
        let mut batch = UpdateBatch::new();
        batch.insert("v0", "likes", "v2").delete("nope", "x", "y");
        let s = g.apply_update(&batch).unwrap();
        assert!(!s.changed());
        assert_eq!(g.epoch(), 0, "no-op batches must not invalidate caches");
        assert!(!g.has_overlay(), "no-op batch on a compact graph stays compact");
        assert!(g.delta_stats().is_none());
        assert!(g.apply_update(&UpdateBatch::new()).is_ok());
    }

    #[test]
    fn advance_epoch_is_monotone() {
        let mut g = figure3_graph();
        assert_eq!(g.epoch(), 0);
        g.advance_epoch_to(3);
        assert_eq!(g.epoch(), 3);
        g.advance_epoch_to(1); // never moves backwards
        assert_eq!(g.epoch(), 3);
        let fp = g.fingerprint();
        g.advance_epoch_to(4);
        assert_eq!(g.fingerprint(), fp, "epoch is not content");
        let mut batch = UpdateBatch::new();
        batch.insert("v4", "likes", "v0");
        g.apply_update(&batch).unwrap();
        assert_eq!(g.epoch(), 5, "updates keep bumping from the advanced epoch");
    }

    #[test]
    fn compact_preserves_content_and_epoch() {
        let mut g = figure3_graph();
        let mut batch = UpdateBatch::new();
        batch.insert("v4", "likes", "v0").delete("v0", "likes", "v2").insert("x", "likes", "y");
        g.apply_update(&batch).unwrap();
        let fp = g.fingerprint();
        let stats = g.delta_stats().unwrap();
        assert_eq!(stats.inserted_edges, 2);
        assert_eq!(stats.deleted_edges, 1);
        assert_eq!(stats.added_vertices, 2);
        assert!(stats.delta_fraction(g.num_edges()) > 0.0);
        let live_view = rebuilt(&g);
        g.compact();
        assert!(!g.has_overlay());
        assert_eq!(g.epoch(), 1, "compaction is not a content change");
        assert_eq!(g.fingerprint(), fp, "ids and edges survive compaction");
        assert_equivalent(&g, &live_view);
        g.compact(); // idempotent
        assert_eq!(g.fingerprint(), fp);
    }

    #[test]
    fn delta_counters_track_net_drift_not_churn() {
        // Regression: churn that returns the graph to its base content
        // must not creep toward the compaction threshold — insert+delete
        // of the same overlay edge (and delete+re-insert of a base edge)
        // cancel in the drift counters instead of accumulating.
        let mut g = figure3_graph();
        for round in 0..40 {
            let mut batch = UpdateBatch::new();
            batch.insert("v4", "likes", "v0"); // overlay-only edge appears…
            g.apply_update(&batch).unwrap();
            let mut batch = UpdateBatch::new();
            batch.delete("v4", "likes", "v0"); // …and disappears
            batch.delete("v0", "friendOf", "v1"); // base edge retracted…
            g.apply_update(&batch).unwrap();
            let mut batch = UpdateBatch::new();
            batch.insert("v0", "friendOf", "v1"); // …and re-asserted
            g.apply_update(&batch).unwrap();
            let stats = g.delta_stats().unwrap();
            assert_eq!(stats.inserted_edges, 0, "round {round}");
            assert_eq!(stats.deleted_edges, 0, "round {round}");
            assert!(stats.delta_fraction(g.num_edges()) < 1e-9, "round {round}");
        }
        assert_eq!(g.fingerprint(), figure3_graph().fingerprint());
        // patched_vertices counts the union across directions: the churn
        // touched out-patches {v4, v0} and in-patches {v0, v1} → 3.
        assert_eq!(g.delta_stats().unwrap().patched_vertices, 3);
    }

    #[test]
    fn update_batch_label_overflow_rejected_before_mutation() {
        let mut g = figure3_graph();
        let mut batch = UpdateBatch::new();
        batch.insert("v0", "likes", "v1"); // would be a real change…
        for i in 0..MAX_LABELS {
            batch.insert("a", &format!("overflow{i}"), "b");
        }
        let fp = g.fingerprint();
        match g.apply_update(&batch) {
            Err(GraphError::TooManyLabels { .. }) => {}
            other => panic!("expected TooManyLabels, got {other:?}"),
        }
        assert_eq!(g.fingerprint(), fp, "failed batch must leave the graph untouched");
        assert_eq!(g.epoch(), 0);
        assert!(!g.has_overlay());
        assert_eq!(g.vertex_id("a"), None);
    }

    #[test]
    fn schema_follows_type_edge_updates() {
        let mut b = GraphBuilder::new();
        b.add_triple("alice", "rdf:type", "Person");
        b.add_triple("bob", "rdf:type", "Person");
        let mut g = b.build().unwrap();
        let person = g.vertex_id("Person").unwrap();
        assert_eq!(g.schema().instances_of(person).len(), 2);
        let mut batch = UpdateBatch::new();
        batch.delete("alice", "rdf:type", "Person").insert("carol", "rdf:type", "Person");
        g.apply_update(&batch).unwrap();
        let instances: Vec<&str> =
            g.schema().instances_of(person).iter().map(|&v| g.vertex_name(v)).collect();
        assert_eq!(instances, vec!["bob", "carol"]);
        // A fresh rdf:type label interned by an update wires the schema.
        let mut g2 = figure3_graph();
        assert!(g2.schema().type_label.is_none());
        let mut batch = UpdateBatch::new();
        batch.insert("v0", "rdf:type", "Thing");
        g2.apply_update(&batch).unwrap();
        assert!(g2.schema().type_label.is_some());
        assert_eq!(g2.schema().instances_of(g2.vertex_id("Thing").unwrap()).len(), 1);
    }

    #[test]
    fn random_update_sequences_match_rebuild() {
        // Deterministic pseudo-random walk over a small name universe:
        // every prefix of the script must keep the live graph equivalent
        // to a from-scratch rebuild of its triples.
        let mut g = figure3_graph();
        let names = ["v0", "v1", "v2", "v3", "v4", "n0", "n1", "n2"];
        let labels = ["friendOf", "likes", "advisorOf", "follows", "hates", "p0", "p1"];
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..40 {
            let mut batch = UpdateBatch::new();
            for _ in 0..(next() % 4 + 1) {
                let s = names[(next() % names.len() as u64) as usize];
                let p = labels[(next() % labels.len() as u64) as usize];
                let o = names[(next() % names.len() as u64) as usize];
                if next() % 3 == 0 {
                    batch.delete(s, p, o);
                } else {
                    batch.insert(s, p, o);
                }
            }
            g.apply_update(&batch).unwrap();
            assert_equivalent(&g, &rebuilt(&g));
            if round % 13 == 12 {
                let fp = g.fingerprint();
                g.compact();
                assert_eq!(g.fingerprint(), fp, "round {round}");
            }
        }
    }

    #[test]
    fn fingerprint_detects_single_edge_change() {
        let base = figure3_graph();
        let mut b = GraphBuilder::new();
        for t in base.to_triples() {
            b.add(&t);
        }
        b.add_triple("v0", "likes", "v4"); // one extra edge
        let changed = b.build().unwrap();
        assert_ne!(base.fingerprint(), changed.fingerprint());
    }
}
