//! # kgreach-sparql — a minimal SPARQL BGP engine
//!
//! The paper expresses substructure constraints as SPARQL queries
//! (`SELECT ?x WHERE { … }`, Table 3) and obtains the satisfying-vertex set
//! `V(S,G)` by "implementing SPARQL engines" (§4). This crate is that
//! substrate: a lexer/parser for the SELECT-BGP fragment, a planner that
//! resolves names to dense ids and orders joins, and a backtracking
//! evaluator with the two entry points the LSCR algorithms need —
//! [`eval::satisfies`] (the paper's `SCck`) and [`eval::select_distinct`]
//! (the paper's `V(S,G)`).
//!
//! The paper's engine (\[20\]) is approximate with exactness parameters; ours
//! is exact by construction: `V(S,G)` and `SCck` are complete BGP
//! evaluations, so no answer depends on an exactness parameter.
//!
//! ```
//! use kgreach_graph::GraphBuilder;
//! use kgreach_sparql::{parse, Plan, eval};
//!
//! let mut b = GraphBuilder::new();
//! b.add_triple("walker", "worksWith", "taylor");
//! b.add_triple("walker", "rdf:type", "Researcher");
//! let g = b.build().unwrap();
//!
//! let q = parse("SELECT ?x WHERE { ?x <rdf:type> <Researcher> . }").unwrap();
//! let plan = Plan::compile(&g, &q).unwrap();
//! let matches = eval::select_distinct(&g, &plan);
//! assert_eq!(matches.len(), 1);
//! assert_eq!(g.vertex_name(matches[0]), "walker");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod ast;
mod error;
pub mod eval;
mod lexer;
mod parser;
mod plan;

pub use ast::{SelectQuery, Term, TriplePattern};
pub use error::{Result, SparqlError};
pub use parser::parse;
pub use plan::{NodeRef, Plan, PredRef, ResolvedPattern};
