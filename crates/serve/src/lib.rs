//! Network serving for the LSCR engine: `kg-serve` and its building
//! blocks.
//!
//! The core crate ([`kgreach`]) answers LSCR queries in-process; this crate
//! puts that engine behind a wire. The design target is the ROADMAP's
//! "production-scale serving" posture under this workspace's offline
//! discipline — **no external HTTP, JSON or async crates**. Everything is
//! hand-rolled on `std`: blocking TCP, an auditable HTTP/1.1 subset, a
//! strict little JSON codec, and plain threads.
//!
//! Layering, bottom to top:
//!
//! - [`json`] — parse/serialize the wire's JSON (RFC 8259 subset,
//!   depth-capped).
//! - [`http`] — HTTP/1.1 framing with byte caps and read timeouts.
//! - [`protocol`] — request/response schemas, name↔id translation and
//!   the typed error envelope (spec: `docs/PROTOCOL.md`).
//! - [`metrics`] — lock-free counters/histograms behind `GET /metrics`.
//! - [`batch`] — admission and the search slots.
//! - [`server`] — the accept loop, dispatch and graceful shutdown.
//! - [`client`] — a minimal keep-alive client for tests, the example and
//!   `kg-loadgen`.
//!
//! Spinning up a server in-process:
//!
//! ```
//! use kgreach::fixtures::figure3;
//! use kgreach::LscrEngine;
//! use kgreach_serve::{serve, HttpClient, ServerConfig};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(LscrEngine::new(figure3()));
//! let server = serve(engine, ServerConfig::default()).unwrap();
//! let mut client = HttpClient::connect(server.addr()).unwrap();
//! let resp = client
//!     .post_json(
//!         "/query",
//!         r#"{"source":"v0","target":"v4","labels":["likes","follows"],
//!             "constraint":"SELECT ?x WHERE { ?x <friendOf> <v3> . <v3> <likes> ?y . }"}"#,
//!     )
//!     .unwrap();
//! assert_eq!(resp.status, 200);
//! assert!(resp.body.contains("\"answer\":true"));
//! server.shutdown();
//! ```

pub mod batch;
pub mod cli;
pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use batch::{BatchConfig, Batcher};
pub use client::{HttpClient, HttpResponse};
pub use http::{HttpError, HttpLimits, Request, Response};
pub use json::{Json, JsonError};
pub use metrics::{LatencyHistogram, ServerMetrics};
pub use protocol::{ApiError, QueryRequest};
pub use server::{serve, serve_gated, ServerConfig, ServerHandle};
