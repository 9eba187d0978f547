//! Compact integer identifiers for vertices and edge labels.
//!
//! The paper's algorithms are all index-based: `close` surjections, CSR
//! adjacency, partition attributes `AF`, and local-index entries are arrays
//! keyed by vertex. Using 32-bit newtypes halves memory traffic compared to
//! `usize` on 64-bit targets and prevents accidentally mixing vertex ids,
//! label ids and raw indices.

use std::fmt;

/// Identifier of a vertex in a [`Graph`](crate::Graph).
///
/// Vertex ids are dense: a graph with `n` vertices uses ids `0..n`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(pub u32);

/// Identifier of an edge label (predicate) in a [`Graph`](crate::Graph).
///
/// Label ids are dense: a graph with `t` labels uses ids `0..t`. The
/// label-constraint machinery ([`LabelSet`](crate::LabelSet)) supports at
/// most [`MAX_LABELS`][crate::MAX_LABELS] distinct labels.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LabelId(pub u16);

impl VertexId {
    /// Returns the id as a `usize`, for indexing into per-vertex arrays.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `VertexId` from an array index.
    ///
    /// # Panics
    /// Panics if `i` does not fit in `u32`.
    #[inline(always)]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "vertex index overflows u32");
        VertexId(i as u32)
    }
}

impl LabelId {
    /// Returns the id as a `usize`, for indexing into per-label arrays.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `LabelId` from an array index.
    ///
    /// # Panics
    /// Panics (debug) if `i` does not fit in `u16`.
    #[inline(always)]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u16::MAX as usize, "label index overflows u16");
        LabelId(i as u16)
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<u32> for VertexId {
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

impl From<u16> for LabelId {
    fn from(l: u16) -> Self {
        LabelId(l)
    }
}

/// A direction along a vertex's edges: its out-edges, where each
/// [`LabeledTarget`](crate::LabeledTarget)'s `vertex` is the edge's
/// target, or its in-edges, where it is the edge's source.
///
/// Every adjacency accessor of [`Graph`](crate::Graph) takes one, and a
/// per-direction pair `[T; 2]` is indexed by it. The search kernels pass a
/// constant into `#[inline(always)]` accessors, so the choice folds away
/// at compile time.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Dir {
    /// Edges leaving the vertex.
    Out,
    /// Edges entering the vertex.
    In,
}

impl Dir {
    /// Both directions, in the order of a per-direction pair.
    pub const BOTH: [Dir; 2] = [Dir::Out, Dir::In];
}

impl<T> std::ops::Index<Dir> for [T; 2] {
    type Output = T;

    #[inline(always)]
    fn index(&self, dir: Dir) -> &T {
        &self[dir as usize]
    }
}

impl<T> std::ops::IndexMut<Dir> for [T; 2] {
    #[inline(always)]
    fn index_mut(&mut self, dir: Dir) -> &mut T {
        &mut self[dir as usize]
    }
}

/// A directed labeled edge `(source, label, target)`, the paper's
/// `e = (s, l, t)`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    /// Source vertex (`rdfs:domain` side).
    pub src: VertexId,
    /// Edge label (`λ(e)`).
    pub label: LabelId,
    /// Target vertex (`rdfs:range` side).
    pub dst: VertexId,
}

impl Edge {
    /// Creates a new edge.
    #[inline]
    pub fn new(src: VertexId, label: LabelId, dst: VertexId) -> Self {
        Edge { src, label, dst }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId::from_index(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v, VertexId(42));
        assert_eq!(format!("{v}"), "v42");
        assert_eq!(format!("{v:?}"), "v42");
    }

    #[test]
    fn label_id_roundtrip() {
        let l = LabelId::from_index(7);
        assert_eq!(l.index(), 7);
        assert_eq!(l, LabelId(7));
        assert_eq!(format!("{l}"), "l7");
    }

    #[test]
    fn edge_ordering_is_lexicographic() {
        let a = Edge::new(VertexId(0), LabelId(1), VertexId(2));
        let b = Edge::new(VertexId(0), LabelId(2), VertexId(0));
        assert!(a < b);
    }

    #[test]
    fn ids_are_compact() {
        assert_eq!(std::mem::size_of::<VertexId>(), 4);
        assert_eq!(std::mem::size_of::<LabelId>(), 2);
        assert_eq!(std::mem::size_of::<Edge>(), 12);
    }

    #[test]
    fn a_pair_is_indexed_by_direction() {
        let mut pair = ["out", "in"];
        assert_eq!(Dir::BOTH.map(|dir| pair[dir]), pair);
        pair[Dir::In] = "into";
        assert_eq!(pair, ["out", "into"]);
    }

    #[test]
    fn conversions() {
        assert_eq!(VertexId::from(9u32), VertexId(9));
        assert_eq!(LabelId::from(3u16), LabelId(3));
    }
}
