//! Traditional landmark indexing in the spirit of Valstar et al. \[19\] —
//! the Table 2 comparator.
//!
//! The state-of-the-art LCR index the paper argues against scaling to KGs:
//!
//! * choose `k = 1250 + √|V|` landmarks **by highest degree** (contrast
//!   with the local index's schema-guided selection);
//! * for each landmark, precompute the CMS to *every* vertex it reaches —
//!   over the whole graph, not a partition (this is the unbounded part:
//!   `O((|V|log|V| + |E| + 2^|𝓛|k + b(|V|-k)) · |V| · 2^|𝓛|)` per the
//!   paper's §3.2 discussion);
//! * for each non-landmark vertex, store up to `b = 20` CMS entries toward
//!   the nearest landmarks, used to shortcut into landmark entries;
//! * queries: if `s` is a landmark, answer from its entry; otherwise try
//!   the `b` shortcut entries, falling back to online BFS that jumps
//!   through landmark entries.
//!
//! Builds accept a [`Budget`]; the Table 2 experiment shows this index
//! blowing its budget on everything beyond the smallest dataset, exactly
//! as the paper reports (their 8-hour cap, our scaled cap).

use crate::budget::{Budget, BudgetExceeded};
use crate::tc::cms_from;
use kgreach_graph::fxhash::FxHashMap;
use kgreach_graph::traverse::EpochMask;
use kgreach_graph::{Cms, Dir, Graph, LabelSet, VertexId};
use std::collections::VecDeque;
use std::time::Duration;

/// Default `k` from \[19\]'s experimental settings: `1250 + √|V|`.
pub fn default_num_landmarks(num_vertices: usize) -> usize {
    (1250 + (num_vertices as f64).sqrt() as usize).min(num_vertices)
}

/// Default `b` from \[19\]: 20 shortcut entries per non-landmark vertex.
pub(crate) const DEFAULT_B: usize = 20;

/// Configuration for [`LandmarkIndex::build`].
#[derive(Clone, Debug)]
pub struct LandmarkConfig {
    /// Number of landmarks; `None` → `1250 + √|V|`.
    pub num_landmarks: Option<usize>,
    /// Shortcut entries per non-landmark vertex.
    pub b: usize,
}

impl Default for LandmarkConfig {
    fn default() -> Self {
        LandmarkConfig { num_landmarks: None, b: DEFAULT_B }
    }
}

/// The traditional (whole-graph) landmark index.
#[derive(Clone, Debug)]
pub struct LandmarkIndex {
    /// Landmark ordinal per vertex (`u32::MAX` = not a landmark).
    landmark_ordinal: Vec<u32>,
    landmarks: Vec<VertexId>,
    /// Full CMS rows per landmark, sorted by target.
    rows: Vec<Vec<(VertexId, Cms)>>,
    /// Up to `b` `(landmark vertex, CMS to it)` shortcuts per non-landmark.
    shortcuts: Vec<Vec<(VertexId, Cms)>>,
    /// Wall-clock build time (Table 2 "Traditional IT").
    pub build_time: Duration,
}

impl LandmarkIndex {
    /// Builds the index within `budget`.
    pub fn build(
        g: &Graph,
        config: &LandmarkConfig,
        mut budget: Budget,
    ) -> Result<Self, BudgetExceeded> {
        let n = g.num_vertices();
        let k = config.num_landmarks.unwrap_or_else(|| default_num_landmarks(n)).min(n);

        // Highest-degree landmark selection (the strategy §5.1.2 criticizes
        // for KGs, kept faithful to [19]).
        let mut by_degree: Vec<VertexId> = g.vertices().collect();
        by_degree.sort_unstable_by_key(|&v| {
            std::cmp::Reverse(g.degree(Dir::Out, v) + g.degree(Dir::In, v))
        });
        let landmarks: Vec<VertexId> = by_degree[..k].to_vec();
        let mut landmark_ordinal = vec![u32::MAX; n];
        for (i, &v) in landmarks.iter().enumerate() {
            landmark_ordinal[v.index()] = i as u32;
        }

        // Full-graph CMS per landmark — the unbounded precomputation.
        let mut rows = Vec::with_capacity(k);
        for &lm in &landmarks {
            let map = cms_from(g, lm, &mut budget)?;
            let mut row: Vec<(VertexId, Cms)> = map.into_iter().collect();
            row.sort_unstable_by_key(|(v, _)| *v);
            rows.push(row);
        }

        // b shortcut entries per non-landmark: CMS to the first b distinct
        // landmarks discovered by a bounded CMS BFS.
        let mut shortcuts = vec![Vec::new(); n];
        for v in g.vertices() {
            if landmark_ordinal[v.index()] != u32::MAX {
                continue;
            }
            budget.check(|| format!("shortcuts for {v}"))?;
            shortcuts[v.index()] =
                shortcut_entries(g, v, &landmark_ordinal, config.b, &mut budget)?;
        }

        Ok(LandmarkIndex {
            landmark_ordinal,
            landmarks,
            rows,
            shortcuts,
            build_time: budget.elapsed(),
        })
    }

    /// Number of landmarks.
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    /// Whether `v` is a landmark.
    pub fn is_landmark(&self, v: VertexId) -> bool {
        self.landmark_ordinal[v.index()] != u32::MAX
    }

    /// Answers `s ⇝_L t` exactly: landmark entries answer directly;
    /// non-landmarks run an online BFS that shortcuts through landmark
    /// rows (and never expands a landmark's edges).
    pub fn reaches(&self, g: &Graph, s: VertexId, t: VertexId, l: LabelSet) -> bool {
        if s == t {
            return true;
        }
        if let Some(row) = self.row_of(s) {
            return Self::row_covers(row, t, l);
        }
        // Try the b shortcuts: s ⇝ lm ⇝ t with both sides covered.
        for (lm, cms) in &self.shortcuts[s.index()] {
            if cms.covers(l) {
                if *lm == t {
                    return true;
                }
                if let Some(row) = self.row_of(*lm) {
                    if Self::row_covers(row, t, l) {
                        return true;
                    }
                }
            }
        }
        // Fallback: label-constrained BFS; landmark hits consult rows
        // instead of expanding.
        let mut mask = EpochMask::new(g.num_vertices());
        mask.insert(s);
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for e in g.out_neighbors(u) {
                if !l.contains(e.label) || !mask.insert(e.vertex) {
                    continue;
                }
                let w = e.vertex;
                if w == t {
                    return true;
                }
                if let Some(row) = self.row_of(w) {
                    if Self::row_covers(row, t, l) {
                        return true;
                    }
                    // Landmark row is complete for w: no need to expand w.
                    continue;
                }
                queue.push_back(w);
            }
        }
        false
    }

    fn row_of(&self, v: VertexId) -> Option<&[(VertexId, Cms)]> {
        let ord = self.landmark_ordinal[v.index()];
        (ord != u32::MAX).then(|| self.rows[ord as usize].as_slice())
    }

    fn row_covers(row: &[(VertexId, Cms)], t: VertexId, l: LabelSet) -> bool {
        match row.binary_search_by_key(&t, |(v, _)| *v) {
            Ok(i) => row[i].1.covers(l),
            Err(_) => false,
        }
    }

    /// Approximate heap footprint in bytes (Table 2 "Traditional IS").
    pub fn heap_bytes(&self) -> usize {
        let rows: usize = self
            .rows
            .iter()
            .flat_map(|r| r.iter())
            .map(|(_, c)| std::mem::size_of::<(VertexId, Cms)>() + c.heap_bytes())
            .sum();
        let shortcuts: usize = self
            .shortcuts
            .iter()
            .flat_map(|r| r.iter())
            .map(|(_, c)| std::mem::size_of::<(VertexId, Cms)>() + c.heap_bytes())
            .sum();
        rows + shortcuts + self.landmark_ordinal.len() * 4
    }
}

/// CMS BFS from `v` that stops expanding at landmarks and keeps entries
/// for the first `b` distinct landmarks found.
fn shortcut_entries(
    g: &Graph,
    v: VertexId,
    landmark_ordinal: &[u32],
    b: usize,
    budget: &mut Budget,
) -> Result<Vec<(VertexId, Cms)>, BudgetExceeded> {
    let mut found: FxHashMap<VertexId, Cms> = FxHashMap::default();
    let mut visited_cms: FxHashMap<VertexId, Cms> = FxHashMap::default();
    let mut queue: VecDeque<(VertexId, LabelSet)> = VecDeque::from([(v, LabelSet::EMPTY)]);
    while let Some((u, l)) = queue.pop_front() {
        budget.tick(|| format!("shortcut bfs from {v}"))?;
        let fresh =
            if u == v && l.is_empty() { true } else { visited_cms.entry(u).or_default().insert(l) };
        if !fresh {
            continue;
        }
        if u != v && landmark_ordinal[u.index()] != u32::MAX {
            found.entry(u).or_default().insert(l);
            if found.len() >= b {
                // Keep refining already-found landmarks but stop once the
                // queue drains naturally; b distinct landmarks suffice.
                break;
            }
            continue; // don't expand past a landmark
        }
        for e in g.out_neighbors(u) {
            queue.push_back((e.vertex, l.with(e.label)));
        }
    }
    let mut out: Vec<(VertexId, Cms)> = found.into_iter().collect();
    out.sort_unstable_by_key(|(v, _)| *v);
    out.truncate(b);
    Ok(out)
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
    fn default_parameters_match_paper() {
        assert_eq!(default_num_landmarks(1_000_000), 2250);
        assert_eq!(DEFAULT_B, 20);
        // Small graphs clamp k to |V|.
        assert_eq!(default_num_landmarks(10), 10);
    }

    #[test]
    fn exact_answers_on_random_graphs() {
        for seed in 0..4 {
            let g = random_graph(25, 70, 4, seed);
            let idx = LandmarkIndex::build(
                &g,
                &LandmarkConfig { num_landmarks: Some(5), b: 3 },
                Budget::unlimited(),
            )
            .unwrap();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xbeef);
            for _ in 0..300 {
                let s = VertexId(rng.gen_range(0..25));
                let t = VertexId(rng.gen_range(0..25));
                let l = LabelSet::from_bits(rng.gen_range(0..16));
                assert_eq!(
                    idx.reaches(&g, s, t, l),
                    lcr_reachable(&g, s, t, l),
                    "seed {seed}: ({s},{t},{l:?})"
                );
            }
        }
    }

    #[test]
    fn landmarks_are_highest_degree() {
        let mut b = GraphBuilder::new();
        for i in 0..10 {
            b.add_triple("hub", "p", &format!("leaf{i}"));
        }
        let g = b.build().unwrap();
        let idx = LandmarkIndex::build(
            &g,
            &LandmarkConfig { num_landmarks: Some(1), b: 2 },
            Budget::unlimited(),
        )
        .unwrap();
        assert!(idx.is_landmark(g.vertex_id("hub").unwrap()));
        assert_eq!(idx.num_landmarks(), 1);
    }

    #[test]
    fn landmark_source_answers_from_row() {
        let mut b = GraphBuilder::new();
        b.add_triple("hub", "p", "a");
        b.add_triple("a", "q", "t");
        b.add_triple("hub", "r", "b");
        let g = b.build().unwrap();
        let idx = LandmarkIndex::build(
            &g,
            &LandmarkConfig { num_landmarks: Some(1), b: 2 },
            Budget::unlimited(),
        )
        .unwrap();
        let hub = g.vertex_id("hub").unwrap();
        let t = g.vertex_id("t").unwrap();
        assert!(idx.reaches(&g, hub, t, g.label_set(&["p", "q"])));
        assert!(!idx.reaches(&g, hub, t, g.label_set(&["p", "r"])));
    }

    #[test]
    fn budget_enforced() {
        let g = random_graph(60, 300, 6, 3);
        let r = LandmarkIndex::build(
            &g,
            &LandmarkConfig::default(),
            Budget::with_limit(Duration::ZERO),
        );
        assert!(r.is_err());
    }

    #[test]
    fn bytes_positive() {
        let g = random_graph(20, 60, 3, 5);
        let idx = LandmarkIndex::build(
            &g,
            &LandmarkConfig { num_landmarks: Some(4), b: 2 },
            Budget::unlimited(),
        )
        .unwrap();
        assert!(idx.heap_bytes() > 0);
        assert!(idx.build_time >= Duration::ZERO);
    }
}
