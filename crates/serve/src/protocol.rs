//! The wire protocol: JSON request/response shapes and the typed error
//! envelope.
//!
//! This module is pure translation — names to ids on the way in, ids to
//! names on the way out. The wire speaks vertex and label *names*
//! (strings), never internal `VertexId`/`LabelId` values: ids are dense
//! per-graph handles that change across snapshot reloads, so exposing
//! them would make every client snapshot-coupled. The full schema is
//! documented in `docs/PROTOCOL.md`; conformance is enforced by the
//! loopback suite in `tests/serving.rs`.

use crate::json::Json;
use kgreach::{
    Algorithm, EngineInfo, Graph, IndexMaintenance, LabelSet, LscrQuery, QueryError, QueryOptions,
    QueryOutcome, SubstructureConstraint, UpdateBatch, UpdateOutcome, Witness,
};
use std::time::Duration;

/// A typed wire error: the `{"error":{"code","message"}}` envelope plus
/// the HTTP status it rides on.
#[derive(Debug, Clone)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable code (see `docs/PROTOCOL.md`).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl ApiError {
    /// Creates an error.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError { status, code, message: message.into() }
    }

    /// `400 bad_json`: the body is not valid JSON.
    pub fn bad_json(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "bad_json", message)
    }

    /// `400 invalid_request`: valid JSON, wrong shape.
    pub fn invalid(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "invalid_request", message)
    }

    /// The JSON error envelope.
    pub fn envelope(&self) -> Json {
        Json::Obj(vec![(
            "error".into(),
            Json::Obj(vec![
                ("code".into(), Json::str(self.code)),
                ("message".into(), Json::str(&self.message)),
            ]),
        )])
    }
}

impl From<QueryError> for ApiError {
    fn from(e: QueryError) -> Self {
        use kgreach::GraphError;
        match &e {
            // Storage-side failures (WAL append/checkpoint I/O, log
            // corruption) are the server's fault, not the request's.
            QueryError::Graph(
                GraphError::Io(_)
                | GraphError::WalBadMagic
                | GraphError::WalVersion { .. }
                | GraphError::WalCorrupt { .. },
            ) => ApiError::new(500, "storage", e.to_string()),
            // The protocol layer resolves names itself, so a graph-level
            // failure here means ids went stale mid-flight or the request
            // referenced structure the graph lacks.
            QueryError::Graph(_) => ApiError::new(422, "graph_error", e.to_string()),
            QueryError::Sparql(_) => ApiError::new(422, "bad_constraint", e.to_string()),
            _ => ApiError::new(500, "internal", e.to_string()),
        }
    }
}

/// One parsed `/query` request (also the element shape of
/// `/query_batch`).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Source vertex name.
    pub source: String,
    /// Target vertex name.
    pub target: String,
    /// Allowed edge-label names; `None` means all labels.
    pub labels: Option<Vec<String>>,
    /// SPARQL text of the substructure constraint.
    pub constraint: String,
    /// Requested algorithm (defaults to `Auto`, which serves UIS).
    pub algorithm: Algorithm,
    /// Whether to reconstruct a witness path for true answers.
    pub witness: bool,
    /// Client-requested step budget (edges scanned), capped server-side.
    pub step_budget: Option<u64>,
    /// Client-requested timeout in milliseconds, capped server-side.
    pub timeout_ms: Option<u64>,
}

/// Parses `"uis" | "uis*" | "ins" | "oracle" | "auto"`
/// (case-insensitive; `uis_star` is accepted for `uis*`).
pub fn parse_algorithm(s: &str) -> Option<Algorithm> {
    match s.to_ascii_lowercase().as_str() {
        "uis" => Some(Algorithm::Uis),
        "uis*" | "uis_star" | "uisstar" => Some(Algorithm::UisStar),
        "ins" => Some(Algorithm::Ins),
        "oracle" => Some(Algorithm::Oracle),
        "auto" => Some(Algorithm::Auto),
        _ => None,
    }
}

fn field_str(v: &Json, key: &str) -> Result<String, ApiError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ApiError::invalid(format!("missing or non-string field '{key}'")))
}

fn field_u64(v: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j.as_u64().map(Some).ok_or_else(|| {
            ApiError::invalid(format!("field '{key}' must be a non-negative integer"))
        }),
    }
}

impl QueryRequest {
    /// Parses one query object from decoded JSON.
    pub fn parse(v: &Json) -> Result<QueryRequest, ApiError> {
        if !matches!(v, Json::Obj(_)) {
            return Err(ApiError::invalid("query must be a JSON object"));
        }
        let labels = match v.get("labels") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(items)) => {
                let mut names = Vec::with_capacity(items.len());
                for item in items {
                    names.push(
                        item.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| ApiError::invalid("'labels' must hold strings"))?,
                    );
                }
                Some(names)
            }
            Some(_) => return Err(ApiError::invalid("'labels' must be an array or null")),
        };
        let algorithm = match v.get("algorithm") {
            None | Some(Json::Null) => Algorithm::Auto,
            Some(j) => {
                let name =
                    j.as_str().ok_or_else(|| ApiError::invalid("'algorithm' must be a string"))?;
                parse_algorithm(name).ok_or_else(|| {
                    ApiError::invalid(format!(
                        "unknown algorithm '{name}' (expected uis, uis*, ins, oracle or auto)"
                    ))
                })?
            }
        };
        let witness = match v.get("witness") {
            None | Some(Json::Null) => false,
            Some(j) => {
                j.as_bool().ok_or_else(|| ApiError::invalid("'witness' must be a boolean"))?
            }
        };
        Ok(QueryRequest {
            source: field_str(v, "source")?,
            target: field_str(v, "target")?,
            labels,
            constraint: field_str(v, "constraint")?,
            algorithm,
            witness,
            step_budget: field_u64(v, "step_budget")?,
            timeout_ms: field_u64(v, "timeout_ms")?,
        })
    }

    /// Resolves names against `g` and assembles the engine-level query.
    ///
    /// Unknown vertex/label names are `404 unknown_vertex` /
    /// `422 unknown_label`: a vertex that is not in the graph makes the
    /// *addressed resource* missing, while an unknown label is a
    /// constraint that nothing could ever satisfy.
    pub fn resolve(&self, g: &Graph) -> Result<LscrQuery, ApiError> {
        let vertex = |name: &str| {
            g.vertex_id(name).ok_or_else(|| {
                ApiError::new(404, "unknown_vertex", format!("vertex '{name}' is not in the graph"))
            })
        };
        let source = vertex(&self.source)?;
        let target = vertex(&self.target)?;
        let label_constraint = match &self.labels {
            None => LabelSet::all(g.num_labels()),
            Some(names) => {
                let mut set = LabelSet::default();
                for name in names {
                    let id = g.label_id(name).ok_or_else(|| {
                        ApiError::new(
                            422,
                            "unknown_label",
                            format!("label '{name}' is not in the graph"),
                        )
                    })?;
                    set.insert(id);
                }
                set
            }
        };
        let constraint = SubstructureConstraint::parse(&self.constraint)
            .map_err(|e| ApiError::new(422, "bad_constraint", e.to_string()))?;
        Ok(LscrQuery::new(source, target, label_constraint, constraint))
    }

    /// Derives the effective [`QueryOptions`], clamping the client's
    /// budgets to the server's ceilings (admission control: a client may
    /// ask for *less* work than the server allows, never more).
    pub fn options(
        &self,
        max_step_budget: Option<u64>,
        max_timeout: Option<Duration>,
    ) -> QueryOptions {
        let mut opts = QueryOptions::default().with_witness(self.witness);
        let budget = match (self.step_budget, max_step_budget) {
            (Some(c), Some(s)) => Some(c.min(s)),
            (c, s) => c.or(s),
        };
        if let Some(b) = budget {
            opts = opts.with_step_budget(b);
        }
        let timeout = match (self.timeout_ms.map(Duration::from_millis), max_timeout) {
            (Some(c), Some(s)) => Some(c.min(s)),
            (c, s) => c.or(s),
        };
        if let Some(t) = timeout {
            opts = opts.with_timeout(t);
        }
        opts
    }
}

fn witness_json(g: &Graph, w: &Witness) -> Json {
    let path = w
        .path
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("src".into(), Json::str(g.vertex_name(e.src))),
                ("label".into(), Json::str(g.label_name(e.label))),
                ("dst".into(), Json::str(g.vertex_name(e.dst))),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("via".into(), Json::str(g.vertex_name(w.via))),
        ("path".into(), Json::Arr(path)),
    ])
}

/// Renders one answered query as its wire response object.
pub fn render_outcome(g: &Graph, out: &QueryOutcome) -> Json {
    let stats = Json::Obj(vec![
        ("passed_vertices".into(), Json::usize(out.stats.passed_vertices)),
        ("scck_calls".into(), Json::usize(out.stats.scck_calls)),
        ("scck_cache_hits".into(), Json::usize(out.stats.scck_cache_hits)),
        ("edges_scanned".into(), Json::usize(out.stats.edges_scanned)),
        ("edges_skipped".into(), Json::usize(out.stats.edges_skipped)),
        ("pushes".into(), Json::usize(out.stats.pushes)),
        ("lcs_invocations".into(), Json::usize(out.stats.lcs_invocations)),
        ("vsg_size".into(), out.stats.vsg_size.map_or(Json::Null, Json::usize)),
        ("index_hits".into(), Json::usize(out.stats.index_hits)),
        ("backward_edges_scanned".into(), Json::usize(out.stats.backward_edges_scanned)),
        ("negative_terminations".into(), Json::usize(out.stats.negative_terminations)),
    ]);
    Json::Obj(vec![
        ("answer".into(), Json::Bool(out.answer)),
        ("interrupted".into(), Json::Bool(out.interrupted)),
        ("elapsed_ns".into(), Json::u64(out.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64)),
        ("algorithm".into(), out.stats.algorithm.map_or(Json::Null, |a| Json::str(a.name()))),
        ("stats".into(), stats),
        ("witness".into(), out.witness.as_ref().map_or(Json::Null, |w| witness_json(g, w))),
    ])
}

/// Parses a `/update` body into an [`UpdateBatch`].
///
/// Shape: `{"ops": [{"op": "insert"|"delete", "subject": s, "predicate":
/// p, "object": o}, …]}`.
pub fn parse_update(v: &Json) -> Result<UpdateBatch, ApiError> {
    let ops = v
        .get("ops")
        .and_then(Json::as_array)
        .ok_or_else(|| ApiError::invalid("missing or non-array field 'ops'"))?;
    let mut batch = UpdateBatch::new();
    for (i, op) in ops.iter().enumerate() {
        let kind = field_str(op, "op").map_err(|_| {
            ApiError::invalid(format!("ops[{i}]: missing or non-string field 'op'"))
        })?;
        let subject = field_str(op, "subject")?;
        let predicate = field_str(op, "predicate")?;
        let object = field_str(op, "object")?;
        match kind.as_str() {
            "insert" => batch.insert(&subject, &predicate, &object),
            "delete" => batch.delete(&subject, &predicate, &object),
            other => {
                return Err(ApiError::invalid(format!(
                    "ops[{i}]: unknown op '{other}' (expected insert or delete)"
                )));
            }
        };
    }
    Ok(batch)
}

/// Renders a `/update` response. `seq`/`durable` report durability: on a
/// durable server `seq` is the write-ahead-log sequence number (absent
/// for all-no-op batches, which are not logged) and `durable` says the
/// record had been fsynced when the response was built; a server running
/// without a data directory reports `durable: false, seq: null`.
pub fn render_update(out: &UpdateOutcome, seq: Option<u64>, durable: bool) -> Json {
    let (index, repaired) = match &out.index {
        IndexMaintenance::NotBuilt => ("not_built", None),
        IndexMaintenance::Patched { partitions_repaired } => {
            ("patched", Some(*partitions_repaired))
        }
        IndexMaintenance::Rebuilt => ("rebuilt", None),
        _ => ("unknown", None),
    };
    Json::Obj(vec![
        ("epoch".into(), Json::u64(out.epoch)),
        ("edges_inserted".into(), Json::usize(out.summary.edges_inserted)),
        ("edges_deleted".into(), Json::usize(out.summary.edges_deleted)),
        ("vertices_added".into(), Json::usize(out.summary.vertices_added)),
        ("labels_added".into(), Json::usize(out.summary.labels_added)),
        ("noop_inserts".into(), Json::usize(out.summary.noop_inserts)),
        ("noop_deletes".into(), Json::usize(out.summary.noop_deletes)),
        ("index".into(), Json::str(index)),
        ("partitions_repaired".into(), repaired.map_or(Json::Null, Json::usize)),
        ("compacted".into(), Json::Bool(out.compacted)),
        ("durable".into(), Json::Bool(durable)),
        ("seq".into(), seq.map_or(Json::Null, Json::u64)),
    ])
}

/// Renders the `/healthz` body while the server is still replaying its
/// write-ahead log (served with `503` so load balancers hold traffic).
pub fn render_health_recovering() -> Json {
    Json::Obj(vec![("status".into(), Json::str("recovering"))])
}

/// Renders the `/healthz` body from the engine's state summary.
pub fn render_health(info: &EngineInfo) -> Json {
    Json::Obj(vec![
        ("status".into(), Json::str("ok")),
        ("vertices".into(), Json::usize(info.num_vertices)),
        ("edges".into(), Json::usize(info.num_edges)),
        ("labels".into(), Json::usize(info.num_labels)),
        ("epoch".into(), Json::u64(info.epoch)),
        ("overlay".into(), Json::Bool(info.has_overlay)),
        ("index_built".into(), Json::Bool(info.index_built)),
        ("cached_plans".into(), Json::usize(info.cached_plans)),
        ("graph_heap_bytes".into(), Json::usize(info.graph_heap_bytes)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgreach::fixtures::figure3;
    use kgreach::LscrEngine;

    fn parse_json(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn query_request_round_trips_through_the_engine() {
        let g = figure3();
        let req = QueryRequest::parse(&parse_json(
            r#"{"source":"v0","target":"v4","labels":["likes","follows"],
                "constraint":"SELECT ?x WHERE { ?x <friendOf> <v3> . <v3> <likes> ?y . }",
                "algorithm":"uis*","witness":true}"#,
        ))
        .unwrap();
        assert_eq!(req.algorithm, Algorithm::UisStar);
        let q = req.resolve(&g).unwrap();
        let engine = LscrEngine::new(g);
        let opts = req.options(None, None);
        let out = engine.answer_with_options(&q, req.algorithm, &opts).unwrap();
        assert!(out.answer);
        let rendered = render_outcome(&engine.graph(), &out).to_string();
        assert!(rendered.contains("\"answer\":true"));
        assert!(rendered.contains("\"via\":\"v2\""), "witness via wrong: {rendered}");
    }

    #[test]
    fn missing_fields_and_unknown_names_are_typed_errors() {
        let g = figure3();
        let e =
            QueryRequest::parse(&parse_json(r#"{"target":"v4","constraint":"x"}"#)).unwrap_err();
        assert_eq!((e.status, e.code), (400, "invalid_request"));

        let ok = |src: &str, tgt: &str, labels: &str| {
            QueryRequest::parse(&parse_json(&format!(
                r#"{{"source":"{src}","target":"{tgt}","labels":{labels},
                    "constraint":"SELECT ?x WHERE {{ ?x <likes> <v4> . }}"}}"#
            )))
            .unwrap()
            .resolve(&g)
        };
        let e = ok("nope", "v4", "null").unwrap_err();
        assert_eq!((e.status, e.code), (404, "unknown_vertex"));
        let e = ok("v0", "v4", r#"["sings"]"#).unwrap_err();
        assert_eq!((e.status, e.code), (422, "unknown_label"));

        let bad = QueryRequest::parse(&parse_json(
            r#"{"source":"v0","target":"v4","constraint":"SELECT nonsense"}"#,
        ))
        .unwrap();
        let e = bad.resolve(&g).unwrap_err();
        assert_eq!((e.status, e.code), (422, "bad_constraint"));
        assert!(e.envelope().to_string().starts_with("{\"error\":{\"code\":\"bad_constraint\""));
    }

    #[test]
    fn options_clamp_client_budgets_to_server_ceilings() {
        let req = QueryRequest {
            source: "a".into(),
            target: "b".into(),
            labels: None,
            constraint: String::new(),
            algorithm: Algorithm::Auto,
            witness: false,
            step_budget: Some(10_000),
            timeout_ms: Some(60_000),
        };
        let opts = req.options(Some(1_000), Some(Duration::from_millis(100)));
        assert_eq!(opts.step_budget, Some(1_000), "server ceiling wins");
        assert_eq!(opts.timeout, Some(Duration::from_millis(100)));
        let opts = req.options(Some(1_000_000), None);
        assert_eq!(opts.step_budget, Some(10_000), "client may ask for less");
        assert_eq!(opts.timeout, Some(Duration::from_secs(60)));
    }

    #[test]
    fn update_batch_parses_and_renders() {
        let batch = parse_update(&parse_json(
            r#"{"ops":[{"op":"insert","subject":"a","predicate":"p","object":"b"},
                       {"op":"delete","subject":"a","predicate":"p","object":"c"}]}"#,
        ))
        .unwrap();
        assert_eq!(batch.len(), 2);
        let e = parse_update(&parse_json(
            r#"{"ops":[{"op":"upsert","subject":"a","predicate":"p","object":"b"}]}"#,
        ))
        .unwrap_err();
        assert!(e.message.contains("unknown op"), "{}", e.message);

        let engine = LscrEngine::new(figure3());
        let out = engine.apply_update(&batch).unwrap();
        let body = render_update(&out, Some(1), true).to_string();
        assert!(body.contains("\"epoch\":1"), "{body}");
        assert!(body.contains("\"edges_inserted\":1"), "{body}");
        assert!(body.contains("\"durable\":true"), "{body}");
        assert!(body.contains("\"seq\":1"), "{body}");
        let body = render_update(&out, None, false).to_string();
        assert!(body.contains("\"durable\":false"), "{body}");
        assert!(body.contains("\"seq\":null"), "{body}");
    }

    #[test]
    fn health_reflects_engine_info() {
        let engine = LscrEngine::new(figure3());
        let body = render_health(&engine.info()).to_string();
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"vertices\":5"));
        assert!(body.contains("\"epoch\":0"));
    }
}
