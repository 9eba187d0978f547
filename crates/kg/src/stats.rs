//! Graph statistics for dataset tables and scale-free sanity checks.
//!
//! The paper characterizes KGs as scale-free networks (§2) and reports
//! dataset sizes (Table 2) and densities (`D = |E|/|V|`, Figure 5).
//! [`GraphStats`] computes those figures plus degree-distribution summaries
//! used by tests to validate the synthetic generators.
//!
//! ```
//! use kgreach_graph::{GraphBuilder, GraphStats};
//!
//! let mut b = GraphBuilder::new();
//! b.add_triple("hub", "p", "x");
//! b.add_triple("hub", "q", "y");
//! let g = b.build().unwrap();
//! let stats = GraphStats::compute(&g);
//! assert_eq!(stats.max_out_degree, 2);
//! assert_eq!(stats.label_histogram.len(), g.num_labels());
//! ```

use crate::graph::Graph;
use crate::ids::Dir;
use std::fmt;

/// Summary statistics of a [`Graph`].
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// `|V|`.
    pub num_vertices: usize,
    /// `|E|`.
    pub num_edges: usize,
    /// `|𝓛|`.
    pub num_labels: usize,
    /// `|E| / |V|`.
    pub density: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Mean total degree.
    pub avg_degree: f64,
    /// Per-label edge counts, indexed by label id.
    pub label_histogram: Vec<usize>,
    /// Number of vertices with zero in- and out-degree.
    pub isolated_vertices: usize,
}

impl GraphStats {
    /// Computes statistics for `g` in one pass over vertices and edges.
    pub fn compute(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut max_out = 0usize;
        let mut max_in = 0usize;
        let mut isolated = 0usize;
        let mut label_histogram = vec![0usize; g.num_labels()];
        for v in g.vertices() {
            let [out, inn] = Dir::BOTH.map(|dir| g.degree(dir, v));
            max_out = max_out.max(out);
            max_in = max_in.max(inn);
            if out == 0 && inn == 0 {
                isolated += 1;
            }
            for e in g.out_neighbors(v) {
                label_histogram[e.label.index()] += 1;
            }
        }
        GraphStats {
            num_vertices: n,
            num_edges: g.num_edges(),
            num_labels: g.num_labels(),
            density: g.density(),
            max_out_degree: max_out,
            max_in_degree: max_in,
            avg_degree: if n == 0 { 0.0 } else { 2.0 * g.num_edges() as f64 / n as f64 },
            label_histogram,
            isolated_vertices: isolated,
        }
    }

    /// Ratio of the maximum total degree to the average degree — a crude
    /// scale-freeness signal ("the relative commonness of vertices with a
    /// degree greatly exceeds the average", paper §2). Returns 0 when the
    /// graph has no edges.
    pub fn hub_dominance(&self) -> f64 {
        if self.avg_degree == 0.0 {
            0.0
        } else {
            self.max_out_degree.max(self.max_in_degree) as f64 / self.avg_degree
        }
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "|V|={} |E|={} |L|={} D={:.2} max_out={} max_in={} avg_deg={:.2} isolated={}",
            self.num_vertices,
            self.num_edges,
            self.num_labels,
            self.density,
            self.max_out_degree,
            self.max_in_degree,
            self.avg_degree,
            self.isolated_vertices
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn star_graph(leaves: usize) -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..leaves {
            b.add_triple("hub", "p", &format!("leaf{i}"));
        }
        b.build().unwrap()
    }

    #[test]
    fn star_stats() {
        let g = star_graph(5);
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 6);
        assert_eq!(s.num_edges, 5);
        assert_eq!(s.max_out_degree, 5);
        assert_eq!(s.max_in_degree, 1);
        assert_eq!(s.isolated_vertices, 0);
        assert_eq!(s.label_histogram, vec![5]);
        assert!((s.avg_degree - 10.0 / 6.0).abs() < 1e-9);
        assert!(s.hub_dominance() > 1.0);
    }

    #[test]
    fn empty_graph_stats() {
        let g = GraphBuilder::new().build().unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.hub_dominance(), 0.0);
    }

    #[test]
    fn isolated_vertices_counted() {
        let mut b = GraphBuilder::new();
        b.add_triple("a", "p", "b");
        b.intern_vertex("ghost");
        let g = b.build().unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.isolated_vertices, 1);
    }

    #[test]
    fn display_is_compact() {
        let s = GraphStats::compute(&star_graph(2));
        let text = s.to_string();
        assert!(text.contains("|V|=3"));
        assert!(text.contains("|E|=2"));
    }

    #[test]
    fn multi_label_histogram() {
        let mut b = GraphBuilder::new();
        b.add_triple("a", "p", "b");
        b.add_triple("a", "q", "b");
        b.add_triple("b", "q", "c");
        let g = b.build().unwrap();
        let s = GraphStats::compute(&g);
        let p = g.label_id("p").unwrap().index();
        let q = g.label_id("q").unwrap().index();
        assert_eq!(s.label_histogram[p], 1);
        assert_eq!(s.label_histogram[q], 2);
    }
}
