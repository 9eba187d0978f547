//! The one file through which the benchmark touches the product.
//!
//! Every other module of `kgbench` names product items only as
//! `api::…`, so a change to the product's public surface shows up here
//! and nowhere else. The entry points are the narrowest ones that exist
//! today: [`load_engine`] is `LscrEngine::from_snapshot_file`, queries go
//! through `Session::answer_with_options`, the traced run calls
//! `compile` → `plan_algorithm` → a kernel's `answer_with` one by one,
//! serving is `serve` + `HttpClient`, updates are
//! `DurableEngine::{open, apply_update}`.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;

pub use kgreach::{
    Algorithm, CompiledLscrQuery, DurableEngine, DurableOutcome, IndexMaintenance, LocalIndex,
    LocalIndexConfig, LscrEngine, LscrQuery, QueryOptions, QueryOutcome, SearchScratch,
    SearchStats, Session, SubstructureConstraint, UpdateOutcome,
};
pub use kgreach_graph::{Edge, Graph, LabelId, LabelSet, UpdateBatch, UpdateSummary, VertexId};
pub use kgreach_serve::{
    BatchConfig, Batcher, HttpClient, HttpLimits, Json, QueryRequest, ServerHandle, ServerMetrics,
};
pub use kgreach_sparql::{Plan, SelectQuery};
pub use kgreach_sync::alloc::CountingAlloc;
pub use kgreach_sync::{Arc, OnceLock};

/// What any product call can fail with, flattened to text: the benchmark
/// only ever reports a failure, it never handles one.
pub type Failure = String;

fn fail(e: impl std::fmt::Display) -> Failure {
    e.to_string()
}

/// The generators' output version; cache keys embed it.
pub const DATAGEN_VERSION: u32 = kgreach_datagen::DATAGEN_VERSION;
/// Plans the engine's cache retains (`PLAN_CACHE_CAP` is private to
/// `core::engine`; its doc comment states the number).
pub const PLAN_CACHE_CAP: usize = 4096;

// ---------------------------------------------------------------- datagen

/// LUBM replica sized by vertices, built in memory, with the local index
/// at default density.
pub fn generate_lubm_by_vertices(vertices: usize, seed: u64) -> Result<LscrEngine, Failure> {
    let config = kgreach_datagen::LubmConfig::sized(vertices, seed);
    let graph = kgreach_datagen::lubm::generate(&config).map_err(fail)?;
    let engine = LscrEngine::new(graph);
    engine.local_index();
    Ok(engine)
}

/// LUBM replica sized by edges, built through `StreamingGraphBuilder`,
/// with a `landmarks`-landmark local index.
pub fn generate_lubm_by_edges(
    edges: usize,
    seed: u64,
    landmarks: usize,
) -> Result<LscrEngine, Failure> {
    let config = kgreach_datagen::LubmConfig::sized_edges(edges, seed);
    let graph = kgreach_datagen::lubm::generate_streaming(&config, 1 << 20).map_err(fail)?;
    let engine = LscrEngine::with_index_config(graph, index_config(landmarks, 1));
    engine.local_index();
    Ok(engine)
}

/// The paper's S1–S5.
pub fn lubm_constraints() -> Vec<(&'static str, SubstructureConstraint)> {
    kgreach_datagen::all_lubm_constraints()
}

/// The `k` most frequent labels — the "narrow" `L` under which a search
/// costs about a microsecond.
pub fn top_label_set(g: &Graph, k: usize) -> LabelSet {
    kgreach_datagen::top_label_set(g, k)
}

/// A constraint of `?x`-incident patterns. `out` patterns are
/// `?x <label> <object>`, `inn` patterns `<subject> <label> ?x`.
pub fn build_constraint(
    out: &[(&str, &str)],
    inn: &[(&str, &str)],
) -> Result<SubstructureConstraint, Failure> {
    let mut b = kgreach::ConstraintBuilder::new();
    for (label, object) in out {
        b = b.x_to(label, object);
    }
    for (subject, label) in inn {
        b = b.to_x(subject, label);
    }
    b.build().map_err(fail)
}

// ------------------------------------------------------------------- kg

/// `snapshot::load_graph_snapshot`.
pub fn load_graph_snapshot(path: &Path) -> Result<Graph, Failure> {
    kgreach_graph::snapshot::load_graph_snapshot(path).map_err(fail)
}

/// `snapshot::save_graph_snapshot`.
pub fn save_graph_snapshot(g: &Graph, path: &Path) -> Result<(), Failure> {
    kgreach_graph::snapshot::save_graph_snapshot(g, path).map_err(fail)
}

/// `io::save_graph`: the text-triple form of a graph.
pub fn save_graph_text(g: &Graph, path: &Path) -> Result<(), Failure> {
    kgreach_graph::io::save_graph(g, path).map_err(fail)
}

/// `io::load_graph_streaming`: parse text triples and build.
pub fn load_graph_text(path: &Path) -> Result<Graph, Failure> {
    kgreach_graph::io::load_graph_streaming(path).map_err(fail)
}

/// `Graph::apply_update` on a private graph.
pub fn graph_apply(g: &mut Graph, batch: &UpdateBatch) -> Result<UpdateSummary, Failure> {
    g.apply_update(batch).map_err(fail)
}

/// One edit as `("+" | "-", (subject, predicate, object))`.
pub fn op_parts(op: &kgreach_graph::UpdateOp) -> (&'static str, (&str, &str, &str)) {
    let (sign, t) = match op {
        kgreach_graph::UpdateOp::Insert(t) => ("+", t),
        kgreach_graph::UpdateOp::Delete(t) => ("-", t),
    };
    (sign, (&t.subject, &t.predicate, &t.object))
}

/// `Graph::compacted`: the overlay re-frozen into clean CSRs.
pub fn compacted(g: &Graph) -> Graph {
    g.compacted()
}

/// A write-ahead log under the given fsync policy (`always` or `off`).
pub struct Wal(kgreach_graph::Wal);

impl Wal {
    /// `Wal::create`.
    pub fn create(path: &Path, fsync_always: bool) -> Result<Wal, Failure> {
        let policy = if fsync_always {
            kgreach_graph::FsyncPolicy::Always
        } else {
            kgreach_graph::FsyncPolicy::Off
        };
        kgreach_graph::Wal::create(path, 0, policy).map(Wal).map_err(fail)
    }

    /// `Wal::append`.
    pub fn append(&mut self, batch: &UpdateBatch) -> Result<(), Failure> {
        self.0.append(batch).map(drop).map_err(fail)
    }

    /// Bytes of records written, header excluded.
    pub fn record_bytes(&self) -> u64 {
        self.0.len_bytes() - kgreach_graph::wal::WAL_HEADER_BYTES
    }

    /// `Wal::open`: scan, verify and decode every record; returns how
    /// many there were.
    pub fn replay(path: &Path) -> Result<usize, Failure> {
        let (_, replay) =
            kgreach_graph::Wal::open(path, kgreach_graph::FsyncPolicy::Off).map_err(fail)?;
        Ok(replay.records.len())
    }
}

// --------------------------------------------------------------- sparql

/// `sparql::parse`.
pub fn sparql_parse(text: &str) -> Result<SelectQuery, Failure> {
    kgreach_sparql::parse(text).map_err(fail)
}

/// `Plan::compile`.
pub fn sparql_plan(g: &Graph, query: &SelectQuery) -> Result<Plan, Failure> {
    Plan::compile(g, query).map_err(fail)
}

/// `eval::satisfies`: the paper's `SCck(v, S)`.
#[inline]
pub fn sparql_satisfies(g: &Graph, plan: &Plan, v: VertexId) -> bool {
    kgreach_sparql::eval::satisfies(g, plan, v)
}

/// `eval::select_distinct`: the paper's `V(S,G)`.
pub fn sparql_select(g: &Graph, plan: &Plan) -> Vec<VertexId> {
    kgreach_sparql::eval::select_distinct(g, plan)
}

// ----------------------------------------------------------------- core

/// `SubstructureConstraint::parse`.
pub fn parse_constraint(text: &str) -> Result<SubstructureConstraint, Failure> {
    SubstructureConstraint::parse(text).map_err(fail)
}

/// `SubstructureConstraint::from_query`: the half of
/// [`parse_constraint`] that is not [`sparql_parse`].
pub fn constraint_from_query(query: SelectQuery) -> Result<SubstructureConstraint, Failure> {
    SubstructureConstraint::from_query(query).map_err(fail)
}

/// `LscrEngine::new` + `set_local_index`: an in-memory engine over an
/// existing graph and its index.
pub fn engine_from_parts(graph: Graph, index: LocalIndex) -> Result<LscrEngine, Failure> {
    let engine = LscrEngine::new(graph);
    engine.set_local_index(index).map_err(fail)?;
    Ok(engine)
}

/// `LscrEngine::from_snapshot_file`.
pub fn load_engine(path: &Path) -> Result<LscrEngine, Failure> {
    LscrEngine::from_snapshot_file(path).map_err(fail)
}

/// `LscrEngine::save_snapshot_file`.
pub fn save_engine(engine: &LscrEngine, path: &Path) -> Result<(), Failure> {
    engine.save_snapshot_file(path).map_err(fail)
}

/// `LscrQuery::new`.
pub fn query(
    source: VertexId,
    target: VertexId,
    labels: LabelSet,
    constraint: SubstructureConstraint,
) -> LscrQuery {
    LscrQuery::new(source, target, labels, constraint)
}

/// The end-to-end query path: `Session::answer_with_options` with
/// `Algorithm::Auto` and default options.
#[inline]
pub fn answer(session: &mut Session<'_>, q: &LscrQuery) -> Result<QueryOutcome, Failure> {
    session.answer_with_options(q, Algorithm::Auto, &QueryOptions::default()).map_err(fail)
}

/// `LscrEngine::compile`: validation plus the plan cache.
#[inline]
pub fn compile(engine: &LscrEngine, q: &LscrQuery) -> Result<CompiledLscrQuery, Failure> {
    engine.compile(q).map_err(fail)
}

/// `LscrEngine::plan_algorithm` with the hint a session would pass.
#[inline]
pub fn plan(engine: &LscrEngine, q: &CompiledLscrQuery) -> Algorithm {
    engine.plan_algorithm(q, q.constraint.vsg_len_if_materialized())
}

/// One of the three kernels' `answer_with`, by name.
#[inline]
pub fn kernel(
    algorithm: Algorithm,
    g: &Graph,
    index: &LocalIndex,
    q: &CompiledLscrQuery,
    scratch: &mut SearchScratch,
) -> QueryOutcome {
    let opts = QueryOptions::default();
    match algorithm {
        Algorithm::Uis => kgreach::uis::answer_with(g, q, scratch, &opts),
        Algorithm::UisStar => kgreach::uis_star::answer_with(g, q, scratch, &opts),
        Algorithm::Ins => kgreach::ins::answer_with(g, q, index, scratch, &opts),
        other => unreachable!("{other} is not a kernel"),
    }
}

/// `SubstructureConstraint::compile`, shareable between queries.
pub fn compile_constraint(
    c: &SubstructureConstraint,
    g: &Graph,
) -> Result<Arc<kgreach::CompiledConstraint>, Failure> {
    c.compile(g).map(Arc::new).map_err(fail)
}

/// A compiled query over an already-compiled constraint.
pub fn compiled_query(
    source: VertexId,
    target: VertexId,
    labels: LabelSet,
    constraint: &Arc<kgreach::CompiledConstraint>,
) -> CompiledLscrQuery {
    CompiledLscrQuery {
        source,
        target,
        label_constraint: labels,
        constraint: Arc::clone(constraint),
    }
}

/// `oracle::answer`: the brute-force reference the sampler's ground
/// truth is cross-checked against.
pub fn oracle(g: &Graph, q: &CompiledLscrQuery) -> bool {
    kgreach::oracle::answer(g, q).answer
}

/// `find_witness`.
pub fn find_witness(g: &Graph, q: &CompiledLscrQuery) -> bool {
    kgreach::find_witness(g, q).is_some()
}

/// An index configuration with `landmarks` landmarks built on `threads`
/// threads; everything else default.
pub fn index_config(landmarks: usize, threads: usize) -> LocalIndexConfig {
    LocalIndexConfig {
        num_landmarks: Some(landmarks),
        build_threads: threads,
        ..LocalIndexConfig::default()
    }
}

/// `LocalIndex::build`.
pub fn build_index(g: &Graph, config: &LocalIndexConfig) -> LocalIndex {
    LocalIndex::build(g, config)
}

/// `LocalIndex::save_file`.
pub fn save_index(index: &LocalIndex, path: &Path) -> Result<(), Failure> {
    index.save_file(path).map_err(fail)
}

/// `LocalIndex::load_file`.
pub fn load_index(path: &Path) -> Result<LocalIndex, Failure> {
    LocalIndex::load_file(path).map_err(fail)
}

/// `LocalIndex::patched` under the default staleness budget; `None` when
/// the batch is past it and the engine would rebuild.
pub fn patch_index(index: &LocalIndex, g: &Graph, touched: &[VertexId]) -> Option<LocalIndex> {
    index.patched(g, touched, LocalIndexConfig::default().staleness_budget).map(|(i, _)| i)
}

/// `LscrEngine::apply_update`.
pub fn engine_apply(engine: &LscrEngine, batch: &UpdateBatch) -> Result<UpdateOutcome, Failure> {
    engine.apply_update(batch).map_err(fail)
}

/// `DurableEngine::open` with `FsyncPolicy::Off` on a directory that
/// already holds a checkpoint (the initialiser is never run).
pub fn open_durable(dir: &Path) -> Result<DurableEngine, Failure> {
    open_durable_or_init(dir, || {
        Err(kgreach_graph::GraphError::Io("data directory holds no checkpoint".into()).into())
    })
}

/// `DurableEngine::open` with `FsyncPolicy::Off`; `engine` becomes
/// checkpoint 0 of an empty directory.
pub fn init_durable(dir: &Path, engine: LscrEngine) -> Result<DurableEngine, Failure> {
    open_durable_or_init(dir, || Ok(engine))
}

fn open_durable_or_init(
    dir: &Path,
    init: impl FnOnce() -> Result<LscrEngine, kgreach::QueryError>,
) -> Result<DurableEngine, Failure> {
    // The sandbox disk is not a device worth timing: fsync is off, and
    // said so wherever an update number is printed.
    let config = kgreach::WalConfig { fsync: kgreach::FsyncPolicy::Off, ..Default::default() };
    DurableEngine::open(dir, config, init).map(|(d, _)| d).map_err(fail)
}

/// `DurableEngine::apply_update`.
#[inline]
pub fn durable_apply(d: &DurableEngine, batch: &UpdateBatch) -> Result<DurableOutcome, Failure> {
    d.apply_update(batch).map_err(fail)
}

/// `DurableEngine::checkpoint`; whether one was written.
pub fn durable_checkpoint(d: &DurableEngine) -> Result<bool, Failure> {
    d.checkpoint().map(|r| r.is_some()).map_err(fail)
}

// ---------------------------------------------------------------- serve

/// `serve(engine, ServerConfig::default())` on an ephemeral port.
pub fn serve(engine: Arc<LscrEngine>) -> Result<ServerHandle, Failure> {
    kgreach_serve::serve(engine, kgreach_serve::ServerConfig::default()).map_err(fail)
}

/// `HttpClient::connect`: one keep-alive connection.
pub fn connect(server: &ServerHandle) -> Result<HttpClient, Failure> {
    HttpClient::connect(server.addr()).map_err(fail)
}

/// `HttpClient::connect` to any address.
pub fn connect_to(addr: std::net::SocketAddr) -> Result<HttpClient, Failure> {
    HttpClient::connect(addr).map_err(fail)
}

/// `HttpClient::send_raw`: bytes out, nothing read.
pub fn send_raw(client: &mut HttpClient, bytes: &[u8]) -> Result<(), Failure> {
    client.send_raw(bytes).map_err(fail)
}

/// `HttpClient::read_response`: the status and the body text.
pub fn read_response(client: &mut HttpClient) -> Result<(u16, String), Failure> {
    client.read_response().map(|r| (r.status, r.body)).map_err(fail)
}

/// A batch as a `POST /update` body.
pub fn update_body(batch: &UpdateBatch) -> Json {
    let ops = batch
        .ops()
        .iter()
        .map(|op| {
            let (sign, (s, p, o)) = op_parts(op);
            Json::Obj(vec![
                ("op".into(), Json::str(if sign == "+" { "insert" } else { "delete" })),
                ("subject".into(), Json::str(s)),
                ("predicate".into(), Json::str(p)),
                ("object".into(), Json::str(o)),
            ])
        })
        .collect();
    Json::Obj(vec![("ops".into(), Json::Arr(ops))])
}

/// `POST path` with a JSON body; the status and the body text.
#[inline]
pub fn post(client: &mut HttpClient, path: &str, body: &str) -> Result<(u16, String), Failure> {
    client.post_json(path, body).map(|r| (r.status, r.body)).map_err(fail)
}

/// `http::apply_read_timeout`: what the server does to a connection it
/// accepts (read timeout, `TCP_NODELAY`).
pub fn prepare_accepted(stream: &TcpStream) -> Result<(), Failure> {
    kgreach_serve::http::apply_read_timeout(stream, &HttpLimits::default()).map_err(fail)
}

/// `http::read_request` under default limits; the request body.
pub fn http_read_request(reader: &mut BufReader<TcpStream>) -> Result<Vec<u8>, Failure> {
    kgreach_serve::http::read_request(reader, &HttpLimits::default())
        .map(|r| r.body)
        .map_err(|e| e.message())
}

/// `http::write_response` of a `200` JSON response.
pub fn http_write_response(stream: &mut TcpStream, body: String) -> Result<(), Failure> {
    kgreach_serve::http::write_response(stream, &kgreach_serve::Response::json(200, body))
        .map_err(fail)
}

/// `Json::parse`.
pub fn json_parse(text: &str) -> Result<Json, Failure> {
    Json::parse(text).map_err(fail)
}

/// `QueryRequest::parse`.
pub fn protocol_parse(v: &Json) -> Result<QueryRequest, Failure> {
    QueryRequest::parse(v).map_err(|e| e.message)
}

/// `QueryRequest::resolve`.
pub fn protocol_resolve(req: &QueryRequest, g: &Graph) -> Result<LscrQuery, Failure> {
    req.resolve(g).map_err(|e| e.message)
}

/// `protocol::render_outcome`.
pub fn protocol_render(g: &Graph, out: &QueryOutcome) -> Json {
    kgreach_serve::protocol::render_outcome(g, out)
}

/// `Batcher::start` under the default `BatchConfig`.
pub fn start_batcher(engine: Arc<LscrEngine>) -> Arc<Batcher> {
    Batcher::start(engine, Arc::new(ServerMetrics::new()), BatchConfig::default())
}

/// `Batcher::submit` then `recv`: one query through the admission queue
/// and a worker, one in flight.
pub fn batch_roundtrip(batcher: &Batcher, req: QueryRequest) -> Result<Json, Failure> {
    let rx = batcher.submit(req).map_err(|e| e.message)?;
    rx.recv().map_err(fail)?.map_err(|e| e.message)
}

/// `ServerMetrics::render` for a non-durable server.
pub fn render_metrics(server: &ServerHandle) -> String {
    server.metrics().render(&server.engine().info(), None)
}

/// The server counters the benchmark reads after a run.
#[derive(Clone, Copy, Debug)]
pub struct ServerCounters {
    /// Answer windows the workers opened.
    pub batch_windows: u64,
    /// Queries answered inside them.
    pub batched_queries: u64,
    /// Requests shed for any reason.
    pub shed: u64,
}

/// Reads [`ServerCounters`].
pub fn server_counters(server: &ServerHandle) -> ServerCounters {
    let m = server.metrics();
    ServerCounters {
        batch_windows: m.batch_windows_total.get(),
        batched_queries: m.batched_queries_total.get(),
        shed: m.shed_queue_full_total.get()
            + m.shed_draining_total.get()
            + m.shed_connections_total.get(),
    }
}
