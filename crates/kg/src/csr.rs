//! Compressed sparse row (CSR) adjacency storage with incident-label masks.
//!
//! Every search algorithm in the paper is dominated by the inner loop
//! "for each edge `(u, l, v)` with `l ∈ L` incident to `u`". CSR stores all
//! edges in two flat arrays (offsets + targets), so that loop is a
//! contiguous slice scan with no pointer chasing. We keep one CSR for
//! out-edges and, because the SPARQL evaluator also matches patterns by
//! object, one for in-edges.
//!
//! # Hot-path layout: label runs and incident-label masks
//!
//! Within each vertex the targets are sorted by `(label, vertex)`, so the
//! edges carrying one label form a contiguous **run**: a single label's
//! edges are one binary search away
//! ([`neighbors_with_label`](Csr::neighbors_with_label), what the SPARQL
//! evaluator matches patterns with) and index construction walks the runs
//! with the label hoisted out of the per-edge loop
//! ([`label_runs`](Csr::label_runs)).
//!
//! Label-constrained search uses one derived array on top (the standard
//! lever in the reachability-indexing literature — BitPath's label-order
//! bitmaps, the Zhang/Bonifati/Özsu survey): a per-vertex
//! **incident-label mask** (`LabelSet` of the labels on the vertex's
//! edges) lets [`expansion`](Csr::expansion) skip a whole vertex in one
//! `u64` AND when none of its edges can match the constraint — the
//! dominant case under selective constraints. A vertex that cannot be
//! skipped comes back as its whole adjacency slice and the caller's inline
//! per-edge label test filters: a flat scan beats any per-label search on
//! the short slices of scale-free graphs.
//!
//! The masks are derived from the targets, never persisted: snapshot
//! decoding rebuilds them (in the crate-internal `Csr::from_parts`) with
//! one pass over the already-validated adjacency (cheaper than the
//! checksum pass that precedes it), so the snapshot format needs no bump
//! and cannot carry a mask that disagrees with the edges.

use crate::ids::{LabelId, VertexId};
use crate::labelset::LabelSet;

/// A `(label, neighbor)` pair stored in the adjacency arrays.
///
/// 8 bytes with the padding; two fit in a 16-byte load.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct LabeledTarget {
    /// Edge label.
    pub label: LabelId,
    /// Neighboring vertex (target for out-edges, source for in-edges).
    pub vertex: VertexId,
}

/// Compressed sparse row adjacency: `offsets[v]..offsets[v+1]` indexes the
/// slice of `targets` holding vertex `v`'s incident edges. `masks[v]` is
/// the union of the labels on that slice (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<LabeledTarget>,
    masks: Vec<LabelSet>,
}

impl Csr {
    /// Builds a CSR from an unsorted edge list of
    /// `(key_vertex, label, other_vertex)` triples by counting-sort
    /// placement plus a per-vertex `(label, vertex)` sort — the reference
    /// [`from_key_sorted`](Self::from_key_sorted) is tested against, and a
    /// way for unit tests to state fixtures in any order.
    #[cfg(test)]
    fn build(
        num_vertices: usize,
        edges: impl Iterator<Item = (VertexId, LabelId, VertexId)>,
    ) -> Self {
        let mut counts = vec![0u32; num_vertices + 1];
        let mut buf: Vec<(VertexId, LabeledTarget)> = Vec::with_capacity(edges.size_hint().0);
        for (k, l, v) in edges {
            counts[k.index() + 1] += 1;
            buf.push((k, LabeledTarget { label: l, vertex: v }));
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![LabeledTarget { label: LabelId(0), vertex: VertexId(0) }; buf.len()];
        let mut masks = vec![LabelSet::EMPTY; num_vertices];
        for &(k, t) in &buf {
            let pos = cursor[k.index()] as usize;
            targets[pos] = t;
            cursor[k.index()] += 1;
            masks[k.index()].insert(t.label);
        }
        drop(buf);
        // Sort each vertex's slice by (label, vertex) for determinism and
        // label-run contiguity; skip slices that are already sorted.
        for v in 0..num_vertices {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            let slice = &mut targets[lo..hi];
            if slice.windows(2).any(|w| (w[0].label, w[0].vertex) > (w[1].label, w[1].vertex)) {
                slice.sort_unstable_by_key(|t| (t.label, t.vertex));
            }
        }
        Csr { offsets, targets, masks }
    }

    /// Builds a CSR from an edge list already sorted by
    /// `(key_vertex, label, other_vertex)` — the one production
    /// constructor. Sorted input makes counting-sort placement
    /// unnecessary: the offsets come from one counting pass and the target
    /// array is filled by one sequential append, so nothing is staged
    /// per edge (a 16 B/edge transient that matters at multi-million-edge
    /// scale). Per-vertex `(label, vertex)` runs are sorted by
    /// construction, so no per-vertex sort runs either.
    pub(crate) fn from_key_sorted(
        num_vertices: usize,
        num_edges: usize,
        edges: impl Iterator<Item = (VertexId, LabelId, VertexId)> + Clone,
    ) -> Self {
        let mut offsets = vec![0u32; num_vertices + 1];
        for (k, _, _) in edges.clone() {
            offsets[k.index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut targets = Vec::with_capacity(num_edges);
        let mut masks = vec![LabelSet::EMPTY; num_vertices];
        #[cfg(debug_assertions)]
        let mut prev: Option<(VertexId, LabelId, VertexId)> = None;
        for (k, l, v) in edges {
            #[cfg(debug_assertions)]
            {
                debug_assert!(prev <= Some((k, l, v)), "edges not sorted by (key, label, other)");
                prev = Some((k, l, v));
            }
            targets.push(LabeledTarget { label: l, vertex: v });
            masks[k.index()].insert(l);
        }
        debug_assert_eq!(targets.len(), num_edges);
        Csr { offsets, targets, masks }
    }

    /// Reassembles a CSR from its raw arrays (snapshot decoding). The
    /// caller is responsible for having validated the offsets/targets
    /// invariants (monotone offsets, ids in range, per-vertex label
    /// ordering); the derived incident-label masks are recomputed here, so
    /// they can never disagree with the stored adjacency.
    pub(crate) fn from_parts(offsets: Vec<u32>, targets: Vec<LabeledTarget>) -> Csr {
        let num_vertices = offsets.len().saturating_sub(1);
        let mut masks = vec![LabelSet::EMPTY; num_vertices];
        for v in 0..num_vertices {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            for t in &targets[lo..hi] {
                masks[v].insert(t.label);
            }
        }
        Csr { offsets, targets, masks }
    }

    /// The raw offset array, `|V| + 1` entries (snapshot encoding).
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw target array, `|E|` entries (snapshot encoding).
    pub(crate) fn targets(&self) -> &[LabeledTarget] {
        &self.targets
    }

    /// The incident edges of `v` as a contiguous slice.
    #[inline(always)]
    pub fn neighbors(&self, v: VertexId) -> &[LabeledTarget] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// The union of the labels on `v`'s incident edges, in one load.
    #[inline(always)]
    pub fn label_mask(&self, v: VertexId) -> LabelSet {
        self.masks[v.index()]
    }

    /// The per-vertex incident-label masks (derived array; see module
    /// docs).
    pub(crate) fn label_masks(&self) -> &[LabelSet] {
        &self.masks
    }

    /// The expansion view of `v` under `constraint` — the shape the
    /// search hot loops consume. Not an iterator: it returns one plain
    /// slice so the caller's loop stays a flat, LLVM-friendly scan
    /// (measured: routing the same slice through a stateful run iterator
    /// cost UIS\*'s broad-`L` searches ~50%).
    ///
    /// * `selective` and `mask ∩ L = ∅` — the whole vertex is skipped:
    ///   `edges` is empty while `degree` still reports the adjacency
    ///   size, so skipped-edge accounting stays exact;
    /// * otherwise `edges` is the full adjacency slice and the caller's
    ///   per-edge label test filters (callers pass `selective = false`
    ///   for broad constraints to not even pay the mask load — see
    ///   `Graph::expansion_selective`).
    #[inline(always)]
    pub fn expansion(&self, v: VertexId, constraint: LabelSet, selective: bool) -> Expansion<'_> {
        let slice = self.neighbors(v);
        if selective && self.masks[v.index()].intersection(constraint).is_empty() {
            Expansion { edges: &[], degree: slice.len() }
        } else {
            Expansion { edges: slice, degree: slice.len() }
        }
    }

    /// The incident edges of `v` grouped into per-label runs, without a
    /// constraint — a linear grouping pass used by index construction,
    /// which wants the label hoisted out of the per-edge loop.
    #[inline]
    pub fn label_runs(&self, v: VertexId) -> PerLabelRuns<'_> {
        PerLabelRuns { slice: self.neighbors(v) }
    }

    /// The incident edges of `v` with label `l` (binary search on the
    /// label-sorted slice). The incident-label mask short-circuits misses
    /// without touching the target array.
    pub fn neighbors_with_label(&self, v: VertexId, l: LabelId) -> &[LabeledTarget] {
        if !self.masks[v.index()].contains(l) {
            return &[];
        }
        label_run_in(self.neighbors(v), l)
    }

    /// Degree of `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Total number of stored edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Number of vertices the CSR is indexed over.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.targets.capacity() * std::mem::size_of::<LabeledTarget>()
            + self.masks.capacity() * std::mem::size_of::<LabelSet>()
    }
}

/// The contiguous run of label `l` inside a `(label, vertex)`-sorted
/// adjacency slice (binary search) — shared by the CSR lookup path and
/// the delta overlay's patched adjacencies.
#[inline]
pub(crate) fn label_run_in(slice: &[LabeledTarget], l: LabelId) -> &[LabeledTarget] {
    let lo = slice.partition_point(|t| t.label < l);
    let hi = lo + slice[lo..].partition_point(|t| t.label <= l);
    &slice[lo..hi]
}

/// Whether a `(label, vertex)`-sorted adjacency slice holds the edge
/// `(l, v)`: one binary search on the composite key, O(log d). The only
/// edge-existence search in the tree — `Graph::has_edge` (and through it
/// the SPARQL evaluator's bound–bound probe) and the delta overlay's
/// base lookup both come here.
#[inline]
pub(crate) fn slice_has_edge(slice: &[LabeledTarget], l: LabelId, v: VertexId) -> bool {
    slice.binary_search_by_key(&(l, v), |t| (t.label, t.vertex)).is_ok()
}

/// One vertex's adjacency as the search hot loops consume it; created by
/// [`Csr::expansion`]. `edges` is either the full adjacency slice (the
/// caller's per-edge label test filters) or empty when the incident-label
/// mask proved nothing can match; `degree` always reports the full
/// adjacency size for skipped-edge accounting.
#[derive(Debug)]
pub struct Expansion<'a> {
    /// The candidate edges (full slice, or empty on a whole-vertex skip).
    pub edges: &'a [LabeledTarget],
    /// The vertex's full degree in this direction.
    pub degree: usize,
}

/// Iterator over all label runs of one vertex's adjacency (no
/// constraint); created by [`Csr::label_runs`]. Yields `(label, run)`
/// pairs in ascending label order by linear grouping — no searches.
#[derive(Debug)]
pub struct PerLabelRuns<'a> {
    slice: &'a [LabeledTarget],
}

impl<'a> PerLabelRuns<'a> {
    /// Groups an arbitrary `(label, vertex)`-sorted slice — a CSR slice
    /// or a delta-overlay patched adjacency.
    #[inline]
    pub(crate) fn over(slice: &'a [LabeledTarget]) -> PerLabelRuns<'a> {
        PerLabelRuns { slice }
    }
}

impl<'a> Iterator for PerLabelRuns<'a> {
    type Item = (LabelId, &'a [LabeledTarget]);

    #[inline]
    fn next(&mut self) -> Option<(LabelId, &'a [LabeledTarget])> {
        let first = self.slice.first()?;
        let label = first.label;
        let len = self.slice.iter().position(|t| t.label != label).unwrap_or(self.slice.len());
        let (run, rest) = self.slice.split_at(len);
        self.slice = rest;
        Some((label, run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // edges keyed by source: 0-(1)->1, 0-(0)->2, 1-(1)->2, 3 isolated
        let edges = vec![
            (VertexId(0), LabelId(1), VertexId(1)),
            (VertexId(0), LabelId(0), VertexId(2)),
            (VertexId(1), LabelId(1), VertexId(2)),
        ];
        Csr::build(4, edges.into_iter())
    }

    fn ls(ids: &[u16]) -> LabelSet {
        ids.iter().map(|&i| LabelId(i)).collect()
    }

    #[test]
    fn neighbors_sorted_by_label() {
        let csr = sample();
        let n: Vec<_> =
            csr.neighbors(VertexId(0)).iter().map(|t| (t.label.0, t.vertex.0)).collect();
        assert_eq!(n, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn isolated_vertex_has_no_neighbors() {
        let csr = sample();
        assert!(csr.neighbors(VertexId(3)).is_empty());
        assert_eq!(csr.degree(VertexId(3)), 0);
        assert!(csr.label_mask(VertexId(3)).is_empty());
    }

    #[test]
    fn degrees_and_counts() {
        let csr = sample();
        assert_eq!(csr.degree(VertexId(0)), 2);
        assert_eq!(csr.degree(VertexId(1)), 1);
        assert_eq!(csr.num_edges(), 3);
        assert_eq!(csr.num_vertices(), 4);
    }

    #[test]
    fn neighbors_with_label_filters() {
        let csr = sample();
        let n: Vec<_> =
            csr.neighbors_with_label(VertexId(0), LabelId(1)).iter().map(|t| t.vertex.0).collect();
        assert_eq!(n, vec![1]);
        assert!(csr.neighbors_with_label(VertexId(0), LabelId(9)).is_empty());
    }

    #[test]
    fn label_masks_cover_incident_labels() {
        let csr = sample();
        assert_eq!(csr.label_mask(VertexId(0)), ls(&[0, 1]));
        assert_eq!(csr.label_mask(VertexId(1)), ls(&[1]));
        assert_eq!(csr.label_mask(VertexId(2)), LabelSet::EMPTY);
    }

    #[test]
    fn per_label_runs_group_contiguously() {
        let edges = vec![
            (VertexId(0), LabelId(2), VertexId(1)),
            (VertexId(0), LabelId(0), VertexId(3)),
            (VertexId(0), LabelId(2), VertexId(2)),
            (VertexId(0), LabelId(0), VertexId(1)),
        ];
        let csr = Csr::build(4, edges.into_iter());
        let runs: Vec<(u16, usize)> =
            csr.label_runs(VertexId(0)).map(|(l, r)| (l.0, r.len())).collect();
        assert_eq!(runs, vec![(0, 2), (2, 2)]);
        assert_eq!(csr.label_runs(VertexId(1)).count(), 0);
    }

    #[test]
    fn parallel_and_multi_label_edges() {
        // Two parallel edges with different labels plus a duplicate edge.
        let edges = vec![
            (VertexId(0), LabelId(2), VertexId(1)),
            (VertexId(0), LabelId(1), VertexId(1)),
            (VertexId(0), LabelId(1), VertexId(1)),
        ];
        let csr = Csr::build(2, edges.into_iter());
        assert_eq!(csr.degree(VertexId(0)), 3);
        assert_eq!(csr.neighbors_with_label(VertexId(0), LabelId(1)).len(), 2);
        assert_eq!(csr.label_mask(VertexId(0)), ls(&[1, 2]));
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::build(0, std::iter::empty());
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_edges(), 0);
    }

    #[test]
    fn from_key_sorted_matches_build() {
        // Same edge multiset, one pre-sorted and one shuffled: both
        // constructors must produce identical arrays.
        let mut edges = Vec::new();
        for i in 0..200u32 {
            edges.push((VertexId(i % 10), LabelId((i % 5) as u16), VertexId((i * 7) % 40)));
        }
        let built = Csr::build(40, edges.iter().copied());
        edges.sort_unstable();
        let sorted = Csr::from_key_sorted(40, edges.len(), edges.iter().copied());
        assert_eq!(sorted.offsets, built.offsets);
        assert_eq!(sorted.targets, built.targets);
        assert_eq!(sorted.label_masks(), built.label_masks());
    }

    #[test]
    fn from_parts_recomputes_masks() {
        let built = sample();
        let rebuilt = Csr::from_parts(built.offsets.clone(), built.targets.clone());
        assert_eq!(rebuilt.label_masks(), built.label_masks());
    }

    #[test]
    fn heap_bytes_scales_with_edges() {
        let csr = sample();
        assert!(csr.heap_bytes() >= 3 * std::mem::size_of::<LabeledTarget>());
    }
}
