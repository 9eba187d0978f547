//! # kgreach-datagen — synthetic workloads for the LSCR evaluation
//!
//! The paper evaluates on LUBM \[4\] (synthetic, generated) and YAGO \[18\]
//! (real, ~4M vertices). Neither artifact can ship with this repository,
//! so this crate rebuilds the *workload generators* in their place:
//!
//! * [`lubm`] — a university-ontology generator emitting exactly the
//!   predicate vocabulary of the paper's S1–S5 constraints, with entity
//!   ratios tuned to reproduce their selectivities (≈1‰, ≈50%, ≈120×,
//!   ≈1×, =1);
//! * [`yago`] — a scale-free, Zipf-labeled, class-taxonomized KG standing
//!   in for YAGO in the Figure 15 experiments;
//! * [`constraints`] — Table 3's S1–S5 plus the §6.2 random-constraint
//!   generator with `|V(S,G)|`-magnitude targeting;
//! * [`queries`] — the §6.1.1 evaluation-query protocol (stratified label
//!   sizes, BFS-distance filtering, UIS difficulty filtering, false-type
//!   balancing);
//! * [`updates`] — dynamic-graph edit streams: a held-out edge fraction
//!   replayed as insert/delete/churn batches whose final state equals
//!   the original triple set (the differential-testing invariant);
//! * [`funnel`] — deterministic wide-source/narrow-target fixtures (and
//!   their mirrors) targeting the meet-in-the-middle and negative-
//!   termination paths of the query kernels.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Version stamp of the generators' output. Bump whenever any generator
/// changes the graph it emits for a fixed config: on-disk snapshot caches
/// of generated graphs (the bench harness memoization, the CI cache) are
/// keyed by this constant, so stale snapshots invalidate instead of
/// silently benchmarking yesterday's generator.
pub const DATAGEN_VERSION: u32 = 1;

pub mod constraints;
pub mod funnel;
pub mod lubm;
pub mod queries;
pub mod updates;
pub mod yago;

/// The `k` most frequent predicates of `g` (by edge count, ties broken
/// toward the higher label id) as a [`kgreach_graph::LabelSet`] — the
/// label-selective `L` of the `-narrowL` benchmark workloads and of the
/// regression tests that track them. Living here keeps the bench harness
/// and the test suite pinned to one definition of "narrow".
pub fn top_label_set(g: &kgreach_graph::Graph, k: usize) -> kgreach_graph::LabelSet {
    let mut by_count: Vec<(usize, usize)> =
        g.label_histogram().iter().copied().enumerate().map(|(i, n)| (n, i)).collect();
    by_count.sort_unstable_by(|a, b| b.cmp(a));
    by_count.iter().take(k).map(|&(_, i)| kgreach_graph::LabelId(i as u16)).collect()
}

pub use constraints::{all_lubm_constraints, random_constraint_with_magnitude};
pub use funnel::FunnelConfig;
pub use lubm::LubmConfig;
pub use queries::{FalseKind, GeneratedQuery, QueryGenConfig, Workload};
pub use updates::{update_workload, UpdateWorkload, UpdateWorkloadConfig};
pub use yago::YagoConfig;
