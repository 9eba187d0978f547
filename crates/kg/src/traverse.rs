//! Reusable traversal primitives: plain and label-constrained BFS.
//!
//! These are the "uninformed search" building blocks of paper §3 — LCR
//! reachability by BFS with the label constraint pruning the frontier — plus
//! an epoch-versioned visited mask that lets thousands of queries share one
//! allocation with O(1) reset.
//!
//! ```
//! use kgreach_graph::{traverse, GraphBuilder};
//!
//! let mut b = GraphBuilder::new();
//! b.add_triple("a", "knows", "b");
//! b.add_triple("b", "hates", "c");
//! let g = b.build().unwrap();
//! let (a, c) = (g.vertex_id("a").unwrap(), g.vertex_id("c").unwrap());
//! assert!(traverse::lcr_reachable(&g, a, c, g.all_labels()));
//! assert!(!traverse::lcr_reachable(&g, a, c, g.label_set(&["knows"])));
//! ```

use crate::graph::Graph;
use crate::ids::VertexId;
use crate::labelset::LabelSet;
use std::collections::VecDeque;

/// A per-vertex visited mask with O(1) whole-mask reset.
///
/// Each slot stores the epoch at which it was last marked; a slot is "set"
/// iff its stamp equals the current epoch. Bumping the epoch clears the
/// mask without touching memory.
#[derive(Clone, Debug)]
pub struct EpochMask {
    stamps: Vec<u32>,
    epoch: u32,
}

impl EpochMask {
    /// Creates a mask over `n` slots, all clear.
    pub fn new(n: usize) -> Self {
        EpochMask { stamps: vec![0; n], epoch: 1 }
    }

    /// Clears the whole mask in O(1).
    pub fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wraparound: fall back to a real clear.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Whether slot `v` is set.
    #[inline(always)]
    pub fn contains(&self, v: VertexId) -> bool {
        self.stamps[v.index()] == self.epoch
    }

    /// Sets slot `v`; returns `true` if it was previously clear.
    #[inline(always)]
    pub fn insert(&mut self, v: VertexId) -> bool {
        let slot = &mut self.stamps[v.index()];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether the mask has zero slots.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }
}

/// Plain forward BFS: all vertices reachable from `s` (including `s`).
pub fn reachable_set(g: &Graph, s: VertexId) -> Vec<VertexId> {
    let mut mask = EpochMask::new(g.num_vertices());
    let mut queue = VecDeque::new();
    let mut out = Vec::new();
    mask.insert(s);
    queue.push_back(s);
    out.push(s);
    while let Some(u) = queue.pop_front() {
        for t in g.out_neighbors(u) {
            if mask.insert(t.vertex) {
                queue.push_back(t.vertex);
                out.push(t.vertex);
            }
        }
    }
    out
}

/// Label-constrained BFS reachability: does `s ⇝ t` hold using only edges
/// labeled within `constraint`? This is the classic online LCR check
/// (paper §3, `O(|V| + |E|)`) — a reference implementation that depends
/// on nothing but the adjacency slices.
pub fn lcr_reachable(g: &Graph, s: VertexId, t: VertexId, constraint: LabelSet) -> bool {
    if s == t {
        return true;
    }
    let mut mask = EpochMask::new(g.num_vertices());
    let mut queue = VecDeque::new();
    mask.insert(s);
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        for e in g.out_neighbors(u) {
            if constraint.contains(e.label) && mask.insert(e.vertex) {
                if e.vertex == t {
                    return true;
                }
                queue.push_back(e.vertex);
            }
        }
    }
    false
}

/// BFS from `s` that stops after `max_expansions` vertex dequeues; returns
/// every vertex *discovered* up to that point (dequeued or frontier).
/// This is the reading of §6.1.1's "stop [the BFS] after `log|V|`
/// iterations" that makes target filtering meaningful on shallow KGs: the
/// near set is the first `log|V|` expansions, not `log|V|` whole rounds.
pub fn bfs_first_expansions(g: &Graph, s: VertexId, max_expansions: usize) -> Vec<VertexId> {
    let mut mask = EpochMask::new(g.num_vertices());
    let mut queue = VecDeque::from([s]);
    let mut visited = vec![s];
    mask.insert(s);
    let mut expansions = 0usize;
    while let Some(u) = queue.pop_front() {
        if expansions >= max_expansions {
            break;
        }
        expansions += 1;
        for e in g.out_neighbors(u) {
            if mask.insert(e.vertex) {
                visited.push(e.vertex);
                queue.push_back(e.vertex);
            }
        }
    }
    visited
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ids::LabelId;

    fn chain_graph() -> Graph {
        // a -p-> b -q-> c -p-> d
        let mut b = GraphBuilder::new();
        b.add_triple("a", "p", "b");
        b.add_triple("b", "q", "c");
        b.add_triple("c", "p", "d");
        b.build().unwrap()
    }

    #[test]
    fn epoch_mask_reset_is_cheap() {
        let mut m = EpochMask::new(3);
        assert!(m.insert(VertexId(1)));
        assert!(!m.insert(VertexId(1)));
        assert!(m.contains(VertexId(1)));
        m.reset();
        assert!(!m.contains(VertexId(1)));
        assert!(m.insert(VertexId(1)));
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn epoch_mask_survives_many_resets() {
        let mut m = EpochMask::new(1);
        for _ in 0..1000 {
            m.reset();
            assert!(m.insert(VertexId(0)));
        }
    }

    #[test]
    fn reachable_set_covers_chain() {
        let g = chain_graph();
        let a = g.vertex_id("a").unwrap();
        let set = reachable_set(&g, a);
        assert_eq!(set.len(), 4);
        let d = g.vertex_id("d").unwrap();
        assert_eq!(reachable_set(&g, d), vec![d]);
    }

    #[test]
    fn lcr_respects_label_constraint() {
        let g = chain_graph();
        let a = g.vertex_id("a").unwrap();
        let c = g.vertex_id("c").unwrap();
        let d = g.vertex_id("d").unwrap();
        let p = g.label_id("p").unwrap();
        let q = g.label_id("q").unwrap();
        let pq: LabelSet = [p, q].into_iter().collect();
        let only_p = LabelSet::singleton(p);
        assert!(lcr_reachable(&g, a, d, pq));
        assert!(!lcr_reachable(&g, a, c, only_p));
        assert!(lcr_reachable(&g, c, d, only_p));
        assert!(lcr_reachable(&g, a, a, LabelSet::EMPTY)); // trivial
    }

    #[test]
    fn expansion_bounded_bfs() {
        let g = chain_graph();
        let a = g.vertex_id("a").unwrap();
        // 0 expansions: only the source discovered.
        assert_eq!(bfs_first_expansions(&g, a, 0).len(), 1);
        // 1 expansion: a dequeued, b discovered.
        assert_eq!(bfs_first_expansions(&g, a, 1).len(), 2);
        // Unlimited: whole chain.
        assert_eq!(bfs_first_expansions(&g, a, 100).len(), 4);
    }

    #[test]
    fn lcr_handles_cycles() {
        let mut b = GraphBuilder::new();
        b.add_triple("x", "p", "y");
        b.add_triple("y", "p", "x");
        b.add_triple("y", "q", "z");
        let g = b.build().unwrap();
        let x = g.vertex_id("x").unwrap();
        let z = g.vertex_id("z").unwrap();
        let p = g.label_id("p").unwrap();
        assert!(!lcr_reachable(&g, x, z, LabelSet::singleton(p)));
        assert!(lcr_reachable(&g, x, z, g.all_labels()));
    }

    #[test]
    fn label_id_sanity() {
        let g = chain_graph();
        assert_eq!(g.label_id("p"), Some(LabelId(0)));
    }
}
