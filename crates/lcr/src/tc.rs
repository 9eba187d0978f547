//! Full CMS transitive closure — the `O(|V|²·2^|𝓛|)`-space strawman.
//!
//! Precomputes, for every vertex pair `(u, v)`, the collection of minimal
//! sufficient path label sets `M(u, v)` (the paper's CMS), answering LCR
//! queries in `O(|M|)`. This is the structure whose space/time blow-up
//! motivates every indexing paper in the lineage (\[6\], \[19\], \[25\]) — it is
//! implemented here both as the ground-truth oracle for index tests and as
//! the worst-case comparator.

use crate::budget::{Budget, BudgetExceeded};
use kgreach_graph::fxhash::FxHashMap;
use kgreach_graph::{Cms, Graph, LabelSet, VertexId};
use std::collections::VecDeque;
use std::time::Duration;

/// Single-source CMS: minimal sufficient label sets from `s` to every
/// reachable vertex. The work queue carries `(vertex, label set)` pairs;
/// a pair expands only when its set is not already covered (exactly the
/// `Insert` discipline of Algorithm 3's `LocalFullIndex`, applied to the
/// whole graph).
pub(crate) fn cms_from(
    g: &Graph,
    s: VertexId,
    budget: &mut Budget,
) -> Result<FxHashMap<VertexId, Cms>, BudgetExceeded> {
    let mut out: FxHashMap<VertexId, Cms> = FxHashMap::default();
    let mut queue: VecDeque<(VertexId, LabelSet)> = VecDeque::from([(s, LabelSet::EMPTY)]);
    while let Some((v, l)) = queue.pop_front() {
        budget.tick(|| format!("cms_from({s}), queue {}", queue.len()))?;
        let fresh = if v == s && l.is_empty() { true } else { out.entry(v).or_default().insert(l) };
        if !fresh {
            continue;
        }
        for e in g.out_neighbors(v) {
            queue.push_back((e.vertex, l.with(e.label)));
        }
    }
    Ok(out)
}

/// The precomputed full transitive closure with CMS values.
#[derive(Clone, Debug)]
pub struct FullTransitiveClosure {
    /// `rows[u]` = sorted `(v, M(u,v))` pairs.
    rows: Vec<Vec<(VertexId, Cms)>>,
    /// Build time.
    pub build_time: Duration,
}

impl FullTransitiveClosure {
    /// Builds the closure within `budget`.
    pub fn build(g: &Graph, mut budget: Budget) -> Result<Self, BudgetExceeded> {
        let mut rows = Vec::with_capacity(g.num_vertices());
        for s in g.vertices() {
            let map = cms_from(g, s, &mut budget)?;
            let mut row: Vec<(VertexId, Cms)> = map.into_iter().collect();
            row.sort_unstable_by_key(|(v, _)| *v);
            rows.push(row);
        }
        Ok(FullTransitiveClosure { rows, build_time: budget.elapsed() })
    }

    /// Answers `s ⇝_L t` from the closure (reflexive pairs are true).
    pub fn reaches(&self, s: VertexId, t: VertexId, l: LabelSet) -> bool {
        if s == t {
            return true;
        }
        let row = &self.rows[s.index()];
        match row.binary_search_by_key(&t, |(v, _)| *v) {
            Ok(i) => row[i].1.covers(l),
            Err(_) => false,
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|r| r.iter())
            .map(|(_, c)| std::mem::size_of::<(VertexId, Cms)>() + c.heap_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgreach_graph::traverse::lcr_reachable;
    use kgreach_graph::GraphBuilder;

    impl FullTransitiveClosure {
        /// The CMS `M(s, t)`, if `t` is reachable from `s`.
        fn cms(&self, s: VertexId, t: VertexId) -> Option<&Cms> {
            let row = &self.rows[s.index()];
            row.binary_search_by_key(&t, |(v, _)| *v).ok().map(|i| &row[i].1)
        }
    }

    fn sample() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_triple("a", "p", "b");
        b.add_triple("b", "q", "c");
        b.add_triple("a", "r", "c");
        b.add_triple("c", "p", "a"); // cycle
        b.build().unwrap()
    }

    #[test]
    fn closure_matches_online_search_exhaustively() {
        let g = sample();
        let tc = FullTransitiveClosure::build(&g, Budget::unlimited()).unwrap();
        // Every (s, t, L) over the full power set of 3 labels.
        for s in g.vertices() {
            for t in g.vertices() {
                for bits in 0u64..8 {
                    let l = LabelSet::from_bits(bits);
                    assert_eq!(tc.reaches(s, t, l), lcr_reachable(&g, s, t, l), "({s},{t},{l:?})");
                }
            }
        }
    }

    #[test]
    fn cms_minimality() {
        let g = sample();
        let tc = FullTransitiveClosure::build(&g, Budget::unlimited()).unwrap();
        let a = g.vertex_id("a").unwrap();
        let c = g.vertex_id("c").unwrap();
        let cms = tc.cms(a, c).unwrap();
        // Paths a→c: {r} and {p, q}; both minimal.
        assert_eq!(cms.len(), 2);
        assert!(cms.is_antichain());
        assert!(cms.covers(g.label_set(&["r"])));
        assert!(cms.covers(g.label_set(&["p", "q"])));
        assert!(!cms.covers(g.label_set(&["p"])));
    }

    #[test]
    fn unreachable_pairs_absent() {
        let mut b = GraphBuilder::new();
        b.add_triple("x", "p", "y");
        b.intern_vertex("z");
        let g = b.build().unwrap();
        let tc = FullTransitiveClosure::build(&g, Budget::unlimited()).unwrap();
        let x = g.vertex_id("x").unwrap();
        let z = g.vertex_id("z").unwrap();
        assert!(tc.cms(x, z).is_none());
        assert!(!tc.reaches(x, z, g.all_labels()));
        assert!(tc.reaches(z, z, LabelSet::EMPTY)); // reflexive
    }

    #[test]
    fn budget_aborts_build() {
        // A dense-ish graph with an impossible budget.
        let mut b = GraphBuilder::new();
        for i in 0..40 {
            for j in 0..40 {
                if i != j {
                    b.add_triple(&format!("n{i}"), &format!("l{}", (i + j) % 8), &format!("n{j}"));
                }
            }
        }
        let g = b.build().unwrap();
        let r = FullTransitiveClosure::build(&g, Budget::with_limit(Duration::ZERO));
        assert!(r.is_err());
    }

    #[test]
    fn pair_count_and_bytes() {
        let g = sample();
        let tc = FullTransitiveClosure::build(&g, Budget::unlimited()).unwrap();
        assert!(tc.rows.iter().map(Vec::len).sum::<usize>() >= 6);
        assert!(tc.heap_bytes() > 0);
    }
}
