//! The wire protocol: JSON request/response shapes and the typed error
//! envelope.
//!
//! This module is pure translation — names to ids on the way in, ids to
//! names on the way out, written straight into the response text
//! ([`outcome_text`]). The wire speaks vertex and label *names*
//! (strings), never internal `VertexId`/`LabelId` values: ids are dense
//! per-graph handles that change across snapshot reloads, so exposing
//! them would make every client snapshot-coupled. The full schema is
//! documented in `docs/PROTOCOL.md`; conformance is enforced by the
//! loopback suite in `tests/serving.rs`.

use crate::json::{write_escaped, write_number, Json};
use kgreach::{
    Algorithm, EngineInfo, Graph, LabelSet, LscrQuery, QueryError, QueryOptions, QueryOutcome,
    SubstructureConstraint, UpdateBatch, UpdateOutcome, VertexId, Witness,
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
    pub(crate) fn bad_json(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "bad_json", message)
    }

    /// `400 invalid_request`: valid JSON, wrong shape.
    pub(crate) fn invalid(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "invalid_request", message)
    }

    /// The JSON error envelope, as response text.
    pub(crate) fn envelope(&self) -> String {
        let mut out = String::with_capacity(48 + self.code.len() + self.message.len());
        out.push_str("{\"error\":{\"code\":");
        write_escaped(self.code, &mut out);
        out.push_str(",\"message\":");
        write_escaped(&self.message, &mut out);
        out.push_str("}}");
        out
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
            // The protocol layer resolves names itself, on the graph the
            // query is answered on, so a graph-level failure here means
            // the request referenced structure the graph lacks.
            QueryError::Graph(_) => ApiError::new(422, "graph_error", e.to_string()),
            QueryError::Sparql(_) => ApiError::new(422, "bad_constraint", e.to_string()),
            // Only a compiled query held across a reload can raise it, and
            // the server compiles every query for the graph it answers on.
            QueryError::IdSpaceMismatch => ApiError::new(500, "internal", e.to_string()),
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
    const NAMES: [(&str, Algorithm); 7] = [
        ("uis", Algorithm::Uis),
        ("uis*", Algorithm::UisStar),
        ("uis_star", Algorithm::UisStar),
        ("uisstar", Algorithm::UisStar),
        ("ins", Algorithm::Ins),
        ("oracle", Algorithm::Oracle),
        ("auto", Algorithm::Auto),
    ];
    NAMES.iter().find(|(name, _)| name.eq_ignore_ascii_case(s)).map(|&(_, algorithm)| algorithm)
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

    /// Resolves names against `g` and assembles the engine-level query:
    /// [`resolve_names`](Self::resolve_names), then the constraint parsed
    /// (`422 bad_constraint`). The server does not parse here: it hands
    /// the constraint text, with [`resolve_names`](Self::resolve_names)
    /// as the resolver, to `LscrEngine::compile_text`, which pins `g`
    /// and parses the text only when no cached plan has it as its key.
    /// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
    pub fn resolve(&self, g: &Graph) -> Result<LscrQuery, ApiError> {
        let (source, target, label_constraint) = self.resolve_names(g)?;
        let constraint = SubstructureConstraint::parse(&self.constraint)
            .map_err(|e| ApiError::new(422, "bad_constraint", e.to_string()))?;
        Ok(LscrQuery::new(source, target, label_constraint, constraint))
    }

    /// The source, target and label set, resolved against `g`.
    ///
    /// Unknown vertex/label names are `404 unknown_vertex` /
    /// `422 unknown_label`: a vertex that is not in the graph makes the
    /// *addressed resource* missing, while an unknown label is a
    /// constraint that nothing could ever satisfy.
    pub fn resolve_names(&self, g: &Graph) -> Result<(VertexId, VertexId, LabelSet), ApiError> {
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
        Ok((source, target, label_constraint))
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

/// The capacity [`outcome_text`] starts from. A response without a
/// witness fits — 288 bytes of keys and punctuation, and twelve numbers of
/// at most 16 digits each — so writing one allocates once.
const OUTCOME_CAPACITY: usize = 512;

/// Writes one answered query as its wire response text: the object
/// [`render_outcome`] returns, with the same keys in the same order and
/// the same number formatting as [`Json`]'s serializer. This is the text
/// `/query` sends.
pub fn outcome_text(g: &Graph, out: &QueryOutcome) -> String {
    let mut text = String::with_capacity(OUTCOME_CAPACITY);
    let t = &mut text;
    let bool_text = |b: bool| if b { "true" } else { "false" };
    t.push_str("{\"answer\":");
    t.push_str(bool_text(out.answer));
    t.push_str(",\"interrupted\":");
    t.push_str(bool_text(out.interrupted));
    t.push_str(",\"elapsed_ns\":");
    write_number(out.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64 as f64, t);
    t.push_str(",\"algorithm\":");
    match out.stats.algorithm {
        Some(a) => write_escaped(a.name(), t),
        None => t.push_str("null"),
    }
    let s = &out.stats;
    let stats = [
        ("passed_vertices", Some(s.passed_vertices)),
        ("scck_calls", Some(s.scck_calls)),
        ("scck_cache_hits", Some(s.scck_cache_hits)),
        ("edges_scanned", Some(s.edges_scanned)),
        ("edges_skipped", Some(s.edges_skipped)),
        ("pushes", Some(s.pushes)),
        ("lcs_invocations", Some(s.lcs_invocations)),
        ("vsg_size", s.vsg_size),
        ("index_hits", Some(s.index_hits)),
        ("backward_edges_scanned", Some(s.backward_edges_scanned)),
        ("negative_terminations", Some(s.negative_terminations)),
    ];
    t.push_str(",\"stats\":{");
    for (i, (key, value)) in stats.into_iter().enumerate() {
        if i > 0 {
            t.push(',');
        }
        t.push('"');
        t.push_str(key);
        t.push_str("\":");
        match value {
            Some(n) => write_number(n as f64, t),
            None => t.push_str("null"),
        }
    }
    t.push_str("},\"witness\":");
    match &out.witness {
        Some(w) => write_witness(g, w, t),
        None => t.push_str("null"),
    }
    t.push('}');
    text
}

fn write_witness(g: &Graph, w: &Witness, t: &mut String) {
    t.push_str("{\"via\":");
    write_escaped(g.vertex_name(w.via), t);
    t.push_str(",\"path\":[");
    for (i, e) in w.path.iter().enumerate() {
        if i > 0 {
            t.push(',');
        }
        t.push_str("{\"src\":");
        write_escaped(g.vertex_name(e.src), t);
        t.push_str(",\"label\":");
        write_escaped(g.label_name(e.label), t);
        t.push_str(",\"dst\":");
        write_escaped(g.vertex_name(e.dst), t);
        t.push('}');
    }
    t.push_str("]}");
}

/// One answered query as its wire response object: [`outcome_text`]
/// parsed back into a tree. The server sends the text and builds no tree.
/// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
pub fn render_outcome(g: &Graph, out: &QueryOutcome) -> Json {
    Json::parse(&outcome_text(g, out)).expect("outcome_text writes valid JSON")
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
    Json::Obj(vec![
        ("epoch".into(), Json::u64(out.epoch)),
        ("edges_inserted".into(), Json::usize(out.summary.edges_inserted)),
        ("edges_deleted".into(), Json::usize(out.summary.edges_deleted)),
        ("vertices_added".into(), Json::usize(out.summary.vertices_added)),
        ("labels_added".into(), Json::usize(out.summary.labels_added)),
        ("noop_inserts".into(), Json::usize(out.summary.noop_inserts)),
        ("noop_deletes".into(), Json::usize(out.summary.noop_deletes)),
        ("compacted".into(), Json::Bool(out.compacted)),
        ("durable".into(), Json::Bool(durable)),
        ("seq".into(), seq.map_or(Json::Null, Json::u64)),
    ])
}

/// Renders the `/healthz` body from the engine's state summary.
pub(crate) fn render_health(info: &EngineInfo) -> Json {
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
        let q = engine.compile(&q).unwrap();
        let out = engine.session().answer_compiled(&engine.graph(), &q, req.algorithm, &opts);
        let out = out.unwrap();
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
        assert!(e.envelope().starts_with("{\"error\":{\"code\":\"bad_constraint\""));
        let e = ApiError::new(404, "unknown_vertex", "vertex 'a\"b\\c' is not in the graph");
        let reread = Json::parse(&e.envelope()).unwrap();
        let message = reread.get("error").and_then(|e| e.get("message")).and_then(Json::as_str);
        assert_eq!(message, Some(e.message.as_str()));
    }

    #[test]
    fn algorithm_names_match_without_regard_to_case() {
        for (name, algorithm) in [
            ("UIS", Algorithm::Uis),
            ("Uis*", Algorithm::UisStar),
            ("UIS_STAR", Algorithm::UisStar),
            ("uisStar", Algorithm::UisStar),
            ("iNs", Algorithm::Ins),
            ("Oracle", Algorithm::Oracle),
            ("AUTO", Algorithm::Auto),
        ] {
            assert_eq!(parse_algorithm(name), Some(algorithm), "{name}");
        }
        for bogus in ["", "uis**", "in", "autos", "ÜIS"] {
            assert_eq!(parse_algorithm(bogus), None, "{bogus}");
        }
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
