//! # kgreach-graph — knowledge-graph substrate
//!
//! The storage and traversal layer beneath the `kgreach` LSCR query engine:
//!
//! * [`Graph`] / [`GraphBuilder`] — an edge-labeled knowledge graph
//!   `G = (V, E, 𝓛, LS)` with interned dictionaries, CSR adjacency in
//!   both directions, and an RDFS [`Schema`] layer;
//! * [`delta`] — dynamic updates: [`UpdateBatch`] edit scripts applied as
//!   a [`DeltaOverlay`] over the frozen CSR, with epoch-based cache
//!   invalidation and [`Graph::compact`] re-freezing;
//! * [`LabelSet`] / [`Cms`] — label-constraint bitsets and collections of
//!   minimal sufficient label sets (the paper's CMS, Definition 2.3) with
//!   the antichain `Insert` of Algorithm 3;
//! * [`traverse`] — plain and label-constrained BFS plus the epoch-versioned
//!   visited masks shared by all query algorithms;
//! * [`scc`] — iterative Tarjan decomposition (used by LCR baselines);
//! * [`triples`] / [`io`] — an N-Triples-like text format for datasets;
//! * [`snapshot`] — versioned, checksummed binary snapshots for
//!   restart-without-rebuild persistence;
//! * [`wal`] — a write-ahead update log: sequence-numbered, checksum-chained
//!   [`UpdateBatch`] records with configurable fsync policy, replayed over
//!   the last snapshot on crash recovery;
//! * [`stats`] — dataset summary statistics;
//! * [`fxhash`] — a vendored fast hasher (dependency policy: no external
//!   hashing crates).
//!
//! ## Quick start
//!
//! ```
//! use kgreach_graph::{GraphBuilder, LabelSet, traverse};
//!
//! let mut b = GraphBuilder::new();
//! b.add_triple("alice", "knows", "bob");
//! b.add_triple("bob", "worksWith", "carol");
//! let g = b.build().unwrap();
//!
//! let alice = g.vertex_id("alice").unwrap();
//! let carol = g.vertex_id("carol").unwrap();
//! assert!(traverse::lcr_reachable(&g, alice, carol, g.all_labels()));
//!
//! let knows_only = g.label_set(&["knows"]);
//! assert!(!traverse::lcr_reachable(&g, alice, carol, knows_only));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csr;
pub mod delta;
pub mod dict;
pub mod error;
pub mod fxhash;
pub mod ids;
pub mod io;
pub mod labelset;
pub mod scc;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod traverse;
pub mod triples;
pub mod wal;

mod graph;

pub use csr::{Expansion, LabeledTarget, PerLabelRuns};
pub use delta::{DeltaOverlay, DeltaStats, UpdateBatch, UpdateOp, UpdateSummary};
pub use error::{GraphError, Result};
pub use graph::{Graph, GraphBuilder, GraphFingerprint};
pub use ids::{Edge, LabelId, VertexId};
pub use labelset::{Cms, LabelSet, MAX_LABELS};
pub use schema::Schema;
pub use stats::GraphStats;
pub use triples::Triple;
pub use wal::{FsyncPolicy, Wal, WalAppend, WalReplay};
