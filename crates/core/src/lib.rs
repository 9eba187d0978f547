//! # kgreach — LSCR reachability queries on knowledge graphs
//!
//! A from-scratch implementation of *"Reachability Queries with Label and
//! Substructure Constraints on Knowledge Graphs"* (Wan & Wang;
//! arXiv:2007.11881, ICDE'23 extended abstract): given a knowledge graph
//! `G`, an **LSCR query** `Q = (s, t, L, S)` asks whether some path from
//! `s` to `t` uses only edge labels in `L` *and* passes through a vertex
//! satisfying the substructure constraint `S`.
//!
//! Three solutions, as in the paper:
//!
//! | Algorithm | Module | Idea |
//! |-----------|--------|------|
//! | **UIS** | [`uis`] | uninformed stack search + per-vertex `SCck`, works on any edge-labeled graph |
//! | **UIS\*** | [`uis_star`] | materialize `V(S,G)` via a SPARQL engine, chain label-constrained searches over one global stack |
//! | **INS** | [`ins`] | informed search: priority heap/queue guided by a [`local_index::LocalIndex`] of schema-selected landmarks |
//!
//! Supporting machinery: the three-state [`CloseMap`] surjection
//! ([`close`]), substructure constraints compiled to SPARQL plans
//! ([`constraint`]), landmark partitioning ([`partition`]), the local index
//! ([`local_index`]), INS's priority structures ([`priority`]), and a
//! brute-force [`oracle`].
//!
//! Serving is split into an owned, `Send + Sync` [`LscrEngine`] (graph,
//! shared index, constraint-plan cache — every entry point takes `&self`)
//! and per-thread [`Session`]s owning the mutable search scratch, so many
//! threads answer queries against one engine with no locking on the hot
//! path. A [`CompiledLscrQuery`] ([`LscrEngine::compile`]) amortizes
//! compilation and `V(S,G)` materialization across repeated executions
//! ([`LscrEngine::answer_compiled`]), [`QueryOptions`] selects
//! witnesses/stats/budgets per execution, and [`Algorithm::Auto`] lets
//! the engine pick UIS/UIS\*/INS adaptively.
//!
//! ## Quick start
//!
//! ```
//! use kgreach::{Algorithm, LscrEngine, LscrQuery, SubstructureConstraint};
//! use kgreach_graph::GraphBuilder;
//!
//! // A tiny financial KG: transfers carry month labels, plus one marriage.
//! let mut b = GraphBuilder::new();
//! b.add_triple("suspectC", "apr2019", "mule1");
//! b.add_triple("mule1", "apr2019", "suspectP");
//! b.add_triple("mule1", "marriedTo", "amy");
//!
//! // The engine owns the graph; reach it through `engine.graph()`.
//! let engine = LscrEngine::new(b.build().unwrap());
//! let g = engine.graph();
//!
//! // Is there an April-2019 transfer chain C → P through Amy's spouse?
//! let q = LscrQuery::new(
//!     g.vertex_id("suspectC").unwrap(),
//!     g.vertex_id("suspectP").unwrap(),
//!     g.label_set(&["apr2019"]),
//!     SubstructureConstraint::parse(
//!         "SELECT ?x WHERE { ?x <marriedTo> <amy> . }").unwrap(),
//! );
//! // One-shot: let the engine pick the algorithm (UIS).
//! assert!(engine.answer(&q, Algorithm::Auto).unwrap().answer);
//!
//! // Hot loop: a per-thread session reuses one scratch set.
//! let mut session = engine.session();
//! for _ in 0..3 {
//!     assert!(session.answer(&q, Algorithm::Uis).unwrap().answer);
//! }
//!
//! // Repeated query: compile once, reuse the compiled constraint and
//! // the materialized V(S,G).
//! let compiled = engine.compile(&q).unwrap();
//! let opts = kgreach::QueryOptions::default().with_witness(true);
//! let out = engine.answer_compiled(&compiled, Algorithm::UisStar, &opts).unwrap();
//! assert_eq!(out.witness.unwrap().via, g.vertex_id("mule1").unwrap());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod close;
pub mod constraint;
pub mod durable;
pub mod engine;
pub mod fixtures;
pub mod ins;
mod kernel;
pub mod local_index;
pub mod oracle;
pub mod partition;
pub mod priority;
pub mod query;
pub mod session;
pub mod uis;
pub mod uis_star;
pub mod witness;

pub use close::{CloseMap, CloseState};
pub use constraint::{CompiledConstraint, ConstraintBuilder, ScckCache, SubstructureConstraint};
pub use durable::{
    CheckpointReport, DurableEngine, DurableOutcome, DurableRecovery, DurableStats, RecoveryReport,
    WalConfig,
};
pub use engine::{
    Algorithm, EngineInfo, IndexMaintenance, LscrEngine, UpdateOutcome, DELTA_COMPACT_THRESHOLD,
};
pub use local_index::{IndexBuildStats, LandmarkEntry, LocalIndex, LocalIndexConfig};
pub use partition::{
    default_num_landmarks, select_landmarks, select_landmarks_by_degree, Partition,
};
pub use query::{
    CompiledLscrQuery, LscrQuery, QueryError, QueryOptions, QueryOutcome, SearchStats, VsgOrder,
};
pub use session::{SearchScratch, Session};
pub use witness::{find_witness, Witness};

// Re-export the substrate types callers need to assemble queries.
pub use kgreach_graph::{
    FsyncPolicy, Graph, GraphBuilder, GraphError, GraphFingerprint, LabelId, LabelSet, UpdateBatch,
    UpdateOp, UpdateSummary, VertexId,
};
