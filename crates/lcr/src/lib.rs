//! # kgreach-lcr — label-constrained reachability baselines
//!
//! The LCR methods the paper positions LSCR against (§3.2), rebuilt from
//! scratch so the evaluation's comparators exist:
//!
//! * [`tc`] — the full CMS transitive closure (`O(|V|²·2^|𝓛|)` space
//!   strawman, and the ground-truth oracle for the index tests);
//! * [`sampling_tree`] — spanning tree + partial closure in the spirit of
//!   \[6\]; its indexing-time growth regenerates **Figure 5**;
//! * [`landmark`] — whole-graph landmark indexing in the spirit of Valstar
//!   et al. \[19\] (`k = 1250+√|V|` highest-degree landmarks, `b = 20`
//!   shortcut entries); its budget blow-ups regenerate **Table 2**'s
//!   "Traditional" columns;
//! * [`budget`] — the wall-clock indexing caps (the paper's 8-hour rule).
//!
//! All index builders are budgeted and all query paths are exact; every
//! structure is cross-validated against online search
//! (`kgreach_graph::traverse::lcr_reachable`) in its tests.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod landmark;
pub mod sampling_tree;
pub mod tc;

pub use budget::{Budget, BudgetExceeded};
pub use landmark::{LandmarkConfig, LandmarkIndex};
pub use sampling_tree::SamplingTreeIndex;
pub use tc::FullTransitiveClosure;
