//! Dynamic updates: [`UpdateBatch`] edit scripts and the `DeltaOverlay`
//! that layers them over the immutable CSR.
//!
//! Knowledge graphs describe the real world, and the real world moves:
//! entities appear, relationships form and dissolve. The frozen
//! [`Graph`](crate::Graph) is built for query throughput — dense ids,
//! label-sorted CSR runs, derived mask statistics — and none of that
//! survives in-place edits. Rather than rebuilding on every change (the
//! gap between research indexes and deployed systems named by the
//! reachability-indexing survey), updates are applied as a **delta
//! overlay**:
//!
//! * the base CSR pair stays untouched;
//! * every vertex whose adjacency changed gets a *patched adjacency* — a
//!   private, fully merged copy of its edge slice, sorted by
//!   `(label, vertex)` exactly like a CSR slice, with its own
//!   incident-label mask;
//! * untouched vertices (the overwhelming majority under realistic
//!   deltas) keep reading straight from the base CSR.
//!
//! Because a patched vertex exposes the same *flat slice + mask* shape as
//! a frozen one, the whole traversal surface — `Graph::expansion` and
//! `Graph::neighbors` in either [`Dir`], per-label runs and
//! binary search, mask statistics — works
//! identically over a live graph; search algorithms cannot tell the
//! difference. Once the delta grows past a threshold,
//! [`Graph::compact`](crate::Graph::compact) re-freezes the merged view
//! into a clean CSR (ids are stable across compaction).
//!
//! ```
//! use kgreach_graph::{GraphBuilder, UpdateBatch};
//!
//! let mut b = GraphBuilder::new();
//! b.add_triple("alice", "knows", "bob");
//! let mut g = b.build().unwrap();
//!
//! let mut batch = UpdateBatch::new();
//! batch.insert("bob", "knows", "carol"); // new vertex, interned on apply
//! batch.delete("alice", "knows", "bob");
//! let summary = g.apply_update(&batch).unwrap();
//! assert_eq!(summary.edges_inserted, 1);
//! assert_eq!(summary.edges_deleted, 1);
//! assert_eq!(g.num_edges(), 1);
//! assert!(g.has_edge(
//!     g.vertex_id("bob").unwrap(),
//!     g.label_id("knows").unwrap(),
//!     g.vertex_id("carol").unwrap(),
//! ));
//! ```

use crate::csr::{slice_has_edge, Csr, LabeledTarget};
use crate::fxhash::FxHashMap;
use crate::ids::{Dir, VertexId};
use crate::labelset::LabelSet;
use crate::triples::Triple;

/// One edit in an [`UpdateBatch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert the edge described by the triple; subject/predicate/object
    /// names that are not yet interned join the dictionaries. Inserting
    /// an edge that already exists is a no-op (graphs store each
    /// `(s, p, o)` once, matching the builder's dedup).
    Insert(Triple),
    /// Delete the edge described by the triple. Deleting an edge that is
    /// not present — including names never interned — is a no-op; names
    /// are *not* interned by deletes.
    Delete(Triple),
}

/// An ordered script of edge insertions and deletions, applied atomically
/// by [`Graph::apply_update`](crate::Graph::apply_update).
///
/// Ops apply in order, so a batch may delete an edge it inserted (or
/// re-insert one it deleted) and the last op wins.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Appends an edge insertion.
    pub fn insert(&mut self, subject: &str, predicate: &str, object: &str) -> &mut Self {
        self.ops.push(UpdateOp::Insert(Triple::new(subject, predicate, object)));
        self
    }

    /// Appends an edge deletion.
    pub fn delete(&mut self, subject: &str, predicate: &str, object: &str) -> &mut Self {
        self.ops.push(UpdateOp::Delete(Triple::new(subject, predicate, object)));
        self
    }

    /// Appends an already-built op.
    pub fn push(&mut self, op: UpdateOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl FromIterator<UpdateOp> for UpdateBatch {
    fn from_iter<T: IntoIterator<Item = UpdateOp>>(iter: T) -> Self {
        UpdateBatch { ops: iter.into_iter().collect() }
    }
}

/// What one [`UpdateBatch`] actually changed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct UpdateSummary {
    /// Edges that did not exist and now do.
    pub edges_inserted: usize,
    /// Edges that existed and no longer do.
    pub edges_deleted: usize,
    /// Vertex names interned by this batch.
    pub vertices_added: usize,
    /// Label names interned by this batch.
    pub labels_added: usize,
    /// Inserts of already-present edges (no-ops).
    pub noop_inserts: usize,
    /// Deletes of absent edges (no-ops).
    pub noop_deletes: usize,
    /// Deduplicated sources of every inserted or deleted edge — the
    /// vertices whose *out*-adjacency changed. `LocalIndex::patched`
    /// repairs exactly the partitions owning these vertices, because a
    /// landmark's local BFS only ever traverses out-edges of its own
    /// members.
    pub touched_sources: Vec<VertexId>,
}

impl UpdateSummary {
    /// Whether the batch changed the graph at all.
    pub fn changed(&self) -> bool {
        self.edges_inserted + self.edges_deleted + self.vertices_added + self.labels_added > 0
    }
}

/// The merged adjacency of one patched vertex: a full copy of its edge
/// slice with the batch's edits applied, sorted by `(label, vertex)` like
/// any CSR slice, plus the matching incident-label mask.
#[derive(Clone, Debug, Default)]
pub(crate) struct PatchedAdjacency {
    pub(crate) edges: Vec<LabeledTarget>,
    pub(crate) mask: LabelSet,
}

impl PatchedAdjacency {
    fn from_base(base: &Csr, v: VertexId) -> PatchedAdjacency {
        if v.index() < base.num_vertices() {
            PatchedAdjacency { edges: base.neighbors(v).to_vec(), mask: base.label_mask(v) }
        } else {
            PatchedAdjacency::default()
        }
    }

    /// Inserts `t` at its sorted position; returns `false` if present.
    fn insert(&mut self, t: LabeledTarget) -> bool {
        match self.edges.binary_search_by_key(&(t.label, t.vertex), |e| (e.label, e.vertex)) {
            Ok(_) => false,
            Err(pos) => {
                self.edges.insert(pos, t);
                self.mask.insert(t.label);
                true
            }
        }
    }

    /// Removes `t` if present; returns `false` if absent.
    fn remove(&mut self, t: LabeledTarget) -> bool {
        match self.edges.binary_search_by_key(&(t.label, t.vertex), |e| (e.label, e.vertex)) {
            Ok(pos) => {
                self.edges.remove(pos);
                if !self.edges.iter().any(|e| e.label == t.label) {
                    self.mask.remove(t.label);
                }
                true
            }
            Err(_) => false,
        }
    }
}

/// The incident-label mask transitions `(old, new)` one edge change
/// caused, per [`Dir`]: the source's out-mask and the target's in-mask.
/// The graph folds them into its per-label vertex counts.
pub(crate) type MaskChange = [(LabelSet, LabelSet); 2];

/// The delta layered over one frozen CSR pair: per-vertex patched
/// adjacencies in both directions, plus the counters the compaction
/// policy reads. See the [module docs](self).
#[derive(Clone, Debug)]
pub(crate) struct DeltaOverlay {
    /// Patched adjacencies per [`Dir`], keyed by raw vertex id.
    patches: [FxHashMap<u32, PatchedAdjacency>; 2],
    /// `|V|` of the base CSR (vertices at or past this id are new).
    base_vertices: usize,
    /// Net edges present in the merged view but not in the base.
    inserted: usize,
    /// Net base edges absent from the merged view.
    deleted: usize,
}

impl DeltaOverlay {
    pub(crate) fn new(base_vertices: usize) -> DeltaOverlay {
        DeltaOverlay { patches: Default::default(), base_vertices, inserted: 0, deleted: 0 }
    }

    /// `(slice, mask)` of `v` in direction `dir`, merged view over `base`,
    /// the frozen CSR of that direction.
    #[inline]
    pub(crate) fn view<'a>(
        &'a self,
        dir: Dir,
        v: VertexId,
        base: &'a Csr,
    ) -> (&'a [LabeledTarget], LabelSet) {
        match self.patches[dir].get(&v.0) {
            Some(p) => (&p.edges, p.mask),
            None if v.index() < base.num_vertices() => (base.neighbors(v), base.label_mask(v)),
            None => (&[], LabelSet::EMPTY),
        }
    }

    /// Applies one edge insertion (`insert`) or deletion to the patches of
    /// both directions: `t` joins or leaves `src`'s out-adjacency, and its
    /// mirror `(label, src)` the target's in-adjacency. Returns the mask
    /// transitions if the edge was actually new or present.
    pub(crate) fn change_edge(
        &mut self,
        base: &[std::sync::Arc<Csr>; 2],
        src: VertexId,
        t: LabeledTarget,
        insert: bool,
    ) -> Option<MaskChange> {
        let ends = [(src, t), (t.vertex, LabeledTarget { label: t.label, vertex: src })];
        let mut change = [(LabelSet::EMPTY, LabelSet::EMPTY); 2];
        for dir in Dir::BOTH {
            let (v, t) = ends[dir];
            let patch = self.patches[dir]
                .entry(v.0)
                .or_insert_with(|| PatchedAdjacency::from_base(&base[dir], v));
            let old_mask = patch.mask;
            let changed = if insert { patch.insert(t) } else { patch.remove(t) };
            if !changed {
                debug_assert!(dir == Dir::Out, "out/in patches disagree on edge presence");
                return None;
            }
            change[dir] = (old_mask, patch.mask);
        }
        // Net drift: each change is counted against the frozen base (not
        // the merged view), so re-asserting a deleted base edge cancels
        // its delete and removing an overlay-only insert cancels the
        // insert. Churn that returns to base content cannot creep toward
        // the compaction threshold.
        let out = &base[Dir::Out];
        let in_base = src.index() < out.num_vertices()
            && slice_has_edge(out.neighbors(src), t.label, t.vertex);
        match (insert, in_base) {
            (true, true) => self.deleted -= 1,
            (true, false) => self.inserted += 1,
            (false, true) => self.deleted += 1,
            (false, false) => self.inserted -= 1,
        }
        Some(change)
    }

    /// Summary counters for the compaction policy.
    pub(crate) fn stats(&self, num_vertices: usize) -> DeltaStats {
        // Union of the two patch-key sets: a vertex counts once however
        // many directions touch it.
        let [out, inn] = &self.patches;
        let patched_vertices = out.len() + inn.keys().filter(|v| !out.contains_key(v)).count();
        DeltaStats {
            patched_vertices,
            added_vertices: num_vertices.saturating_sub(self.base_vertices),
            inserted_edges: self.inserted,
            deleted_edges: self.deleted,
        }
    }

    /// Approximate heap footprint in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        let per_patch = |m: &FxHashMap<u32, PatchedAdjacency>| {
            m.values()
                .map(|p| {
                    p.edges.capacity() * std::mem::size_of::<LabeledTarget>()
                        + std::mem::size_of::<(u32, PatchedAdjacency)>()
                })
                .sum::<usize>()
        };
        self.patches.iter().map(per_patch).sum()
    }
}

/// How far a live graph has drifted from its frozen base — the signal the
/// compaction threshold consumes (a big delta means the overlay's read
/// tax and a stale index partition).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DeltaStats {
    /// Vertices whose adjacency is patched (either direction).
    pub patched_vertices: usize,
    /// Vertices interned after the base froze.
    pub added_vertices: usize,
    /// Edges present in the merged view but not in the base (net: an
    /// insert canceled by a later delete does not count).
    pub inserted_edges: usize,
    /// Base edges absent from the merged view (net: a delete canceled by
    /// a later re-insert does not count).
    pub deleted_edges: usize,
}

impl DeltaStats {
    /// Changed edges as a fraction of the graph's current edge count —
    /// `(inserted + deleted) / max(1, |E|)`. The standard compaction
    /// trigger input.
    pub fn delta_fraction(&self, num_edges: usize) -> f64 {
        (self.inserted_edges + self.deleted_edges) as f64 / num_edges.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LabelId;

    fn lt(label: u16, vertex: u32) -> LabeledTarget {
        LabeledTarget { label: LabelId(label), vertex: VertexId(vertex) }
    }

    #[test]
    fn patched_adjacency_stays_sorted_and_masked() {
        let mut p = PatchedAdjacency::default();
        assert!(p.insert(lt(2, 5)));
        assert!(p.insert(lt(0, 9)));
        assert!(p.insert(lt(2, 1)));
        assert!(!p.insert(lt(2, 5)), "duplicate insert is rejected");
        let order: Vec<(u16, u32)> = p.edges.iter().map(|e| (e.label.0, e.vertex.0)).collect();
        assert_eq!(order, vec![(0, 9), (2, 1), (2, 5)]);
        assert!(p.mask.contains(LabelId(0)) && p.mask.contains(LabelId(2)));
        assert!(p.remove(lt(2, 5)));
        assert!(p.mask.contains(LabelId(2)), "other label-2 edge keeps the mask bit");
        assert!(p.remove(lt(2, 1)));
        assert!(!p.mask.contains(LabelId(2)), "last label-2 edge clears the mask bit");
        assert!(!p.remove(lt(2, 1)), "double delete is rejected");
    }

    #[test]
    fn batch_builder_collects_ops() {
        let mut b = UpdateBatch::new();
        assert!(b.is_empty());
        b.insert("a", "p", "b").delete("a", "q", "c");
        assert_eq!(b.len(), 2);
        assert!(matches!(b.ops()[0], UpdateOp::Insert(_)));
        assert!(matches!(b.ops()[1], UpdateOp::Delete(_)));
        let collected: UpdateBatch = b.ops().iter().cloned().collect();
        assert_eq!(collected, b);
    }

    #[test]
    fn delta_stats_fraction() {
        let s = DeltaStats {
            patched_vertices: 3,
            added_vertices: 1,
            inserted_edges: 2,
            deleted_edges: 1,
            ..Default::default()
        };
        assert!((s.delta_fraction(100) - 0.03).abs() < 1e-12);
        assert!(s.delta_fraction(0) > 0.0, "empty graph does not divide by zero");
    }
}
