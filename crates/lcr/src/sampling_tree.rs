//! Sampling-tree index in the spirit of Jin et al. \[6\] — the Figure 5
//! comparator.
//!
//! \[6\] reduces full-TC space with a spanning tree (or forest) plus a
//! *partial* transitive closure: pairs whose minimal label sets are already
//! witnessed by the unique tree path are not stored; everything else goes
//! into the partial TC. Queries consult the tree path first, then the
//! partial closure.
//!
//! The paper's Figure 5 plots this method's *indexing time*: roughly linear
//! in density `D = |E|/|V|` at fixed `|V|`, and strongly super-linear in
//! `|V|` at fixed density — which is exactly what per-source CMS
//! computation over the whole graph produces. This implementation
//! reproduces that cost shape faithfully (the tree only discounts storage,
//! not computation — as in \[6\], where indexing cost is dominated by the
//! generalized transitive-closure computation).

use crate::budget::{Budget, BudgetExceeded};
use crate::tc::cms_from;
use kgreach_graph::{Cms, Graph, LabelSet, VertexId};
use std::collections::VecDeque;
use std::time::Duration;

/// The spanning forest: per-vertex parent edge (root = self).
#[derive(Clone, Debug)]
pub(crate) struct SpanningForest {
    parent: Vec<VertexId>,
    parent_label: Vec<LabelSet>, // singleton set of the tree edge's label
}

impl SpanningForest {
    /// Builds a BFS spanning forest (roots in vertex-id order).
    pub(crate) fn build(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut parent: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        let mut parent_label = vec![LabelSet::EMPTY; n];
        let mut visited = vec![false; n];
        for root in g.vertices() {
            if visited[root.index()] {
                continue;
            }
            visited[root.index()] = true;
            let mut queue = VecDeque::from([root]);
            while let Some(u) = queue.pop_front() {
                for e in g.out_neighbors(u) {
                    let w = e.vertex;
                    if !visited[w.index()] {
                        visited[w.index()] = true;
                        parent[w.index()] = u;
                        parent_label[w.index()] = LabelSet::singleton(e.label);
                        queue.push_back(w);
                    }
                }
            }
        }
        SpanningForest { parent, parent_label }
    }

    /// The label set of the unique tree path `s → t`, if `t` is a tree
    /// descendant-by-parent-chain target of `s` (i.e. `s` is an ancestor
    /// of `t`).
    pub(crate) fn tree_path_labels(&self, s: VertexId, t: VertexId) -> Option<LabelSet> {
        let mut cur = t;
        let mut labels = LabelSet::EMPTY;
        while cur != s {
            let p = self.parent[cur.index()];
            if p == cur {
                return None; // reached a root without meeting s
            }
            labels = labels.union(self.parent_label[cur.index()]);
            cur = p;
        }
        Some(labels)
    }
}

/// The sampling-tree LCR index: spanning forest + partial CMS closure.
#[derive(Clone, Debug)]
pub struct SamplingTreeIndex {
    forest: SpanningForest,
    /// Non-tree CMS entries: `rows[u]` sorted by target.
    rows: Vec<Vec<(VertexId, Cms)>>,
    /// Wall-clock build time (the Figure 5 measurement).
    pub build_time: Duration,
    /// Pairs stored in the partial closure.
    pub stored_pairs: usize,
    /// Pairs answered by the tree alone (not stored).
    pub tree_covered_pairs: usize,
}

impl SamplingTreeIndex {
    /// Builds the index within `budget`.
    pub fn build(g: &Graph, mut budget: Budget) -> Result<Self, BudgetExceeded> {
        let forest = SpanningForest::build(g);
        let mut rows = Vec::with_capacity(g.num_vertices());
        let mut stored_pairs = 0usize;
        let mut tree_covered = 0usize;
        for s in g.vertices() {
            let cms_map = cms_from(g, s, &mut budget)?;
            let mut row: Vec<(VertexId, Cms)> = Vec::new();
            for (t, cms) in cms_map {
                // Skip pairs fully witnessed by the tree path: the CMS must
                // be exactly the tree path's label set (a strictly smaller
                // minimal set would be lost if we relied on the tree).
                if let Some(tree_labels) = forest.tree_path_labels(s, t) {
                    if cms.len() == 1 && cms.iter().next() == Some(tree_labels) {
                        tree_covered += 1;
                        continue;
                    }
                }
                stored_pairs += 1;
                row.push((t, cms));
            }
            row.sort_unstable_by_key(|(v, _)| *v);
            rows.push(row);
        }
        Ok(SamplingTreeIndex {
            forest,
            rows,
            build_time: budget.elapsed(),
            stored_pairs,
            tree_covered_pairs: tree_covered,
        })
    }

    /// Answers `s ⇝_L t`.
    pub fn reaches(&self, s: VertexId, t: VertexId, l: LabelSet) -> bool {
        if s == t {
            return true;
        }
        // Partial closure first (it stores every pair the tree does not
        // fully witness), then the tree path.
        let row = &self.rows[s.index()];
        if let Ok(i) = row.binary_search_by_key(&t, |(v, _)| *v) {
            if row[i].1.covers(l) {
                return true;
            }
            // Stored CMS is complete for this pair; tree cannot add more.
            return false;
        }
        match self.forest.tree_path_labels(s, t) {
            Some(labels) => labels.is_subset_of(l),
            None => false,
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        let rows: usize = self
            .rows
            .iter()
            .flat_map(|r| r.iter())
            .map(|(_, c)| std::mem::size_of::<(VertexId, Cms)>() + c.heap_bytes())
            .sum();
        rows + self.forest.parent.len() * (4 + 8 + 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgreach_graph::traverse::lcr_reachable;
    use kgreach_graph::GraphBuilder;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(n: usize, m: usize, labels: usize, seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.intern_vertex(&format!("n{i}"));
        }
        for _ in 0..m {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            let l = rng.gen_range(0..labels);
            b.add_triple(&format!("n{s}"), &format!("l{l}"), &format!("n{t}"));
        }
        b.build().unwrap()
    }

    #[test]
    fn forest_paths() {
        let mut b = GraphBuilder::new();
        b.add_triple("r", "a", "x");
        b.add_triple("x", "b", "y");
        b.add_triple("r", "c", "z");
        let g = b.build().unwrap();
        let f = SpanningForest::build(&g);
        let r = g.vertex_id("r").unwrap();
        let y = g.vertex_id("y").unwrap();
        let z = g.vertex_id("z").unwrap();
        assert_eq!(f.tree_path_labels(r, y), Some(g.label_set(&["a", "b"])));
        assert_eq!(f.tree_path_labels(r, z), Some(g.label_set(&["c"])));
        assert_eq!(f.tree_path_labels(y, z), None);
    }

    #[test]
    fn agrees_with_online_search_on_random_graphs() {
        for seed in 0..5 {
            let g = random_graph(30, 80, 4, seed);
            let idx = SamplingTreeIndex::build(&g, Budget::unlimited()).unwrap();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xdead);
            for _ in 0..200 {
                let s = VertexId(rng.gen_range(0..30));
                let t = VertexId(rng.gen_range(0..30));
                let l = LabelSet::from_bits(rng.gen_range(0..16));
                assert_eq!(
                    idx.reaches(s, t, l),
                    lcr_reachable(&g, s, t, l),
                    "seed {seed}: ({s},{t},{l:?})"
                );
            }
        }
    }

    #[test]
    fn tree_compression_saves_entries() {
        // A pure path graph: every reachable pair is witnessed by the tree.
        let mut b = GraphBuilder::new();
        for i in 0..10 {
            b.add_triple(&format!("n{i}"), "p", &format!("n{}", i + 1));
        }
        let g = b.build().unwrap();
        let idx = SamplingTreeIndex::build(&g, Budget::unlimited()).unwrap();
        assert_eq!(idx.stored_pairs, 0);
        assert!(idx.tree_covered_pairs > 0);
        let n0 = g.vertex_id("n0").unwrap();
        let n10 = g.vertex_id("n10").unwrap();
        assert!(idx.reaches(n0, n10, g.label_set(&["p"])));
        assert!(!idx.reaches(n10, n0, g.all_labels()));
    }

    #[test]
    fn budget_respected() {
        let g = random_graph(60, 240, 6, 1);
        let r = SamplingTreeIndex::build(&g, Budget::with_limit(Duration::ZERO));
        assert!(r.is_err());
    }

    #[test]
    fn heap_bytes_positive() {
        let g = random_graph(20, 50, 3, 2);
        let idx = SamplingTreeIndex::build(&g, Budget::unlimited()).unwrap();
        assert!(idx.heap_bytes() > 0);
    }
}
