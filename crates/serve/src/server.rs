//! The serving front door: TCP accept loop, per-connection threads and
//! endpoint dispatch.
//!
//! The threading model is deliberately boring: one acceptor thread and
//! one blocking thread per live connection (capped by
//! [`ServerConfig::max_connections`]; excess connections get an immediate
//! `503` and are closed). A connection thread reads a request, answers it
//! and writes the response: a `/query` runs resolve → search → render
//! right there whenever one of the [`BatchConfig::workers`] search slots
//! is free, and waits on the shared pool from [`batch`](crate::batch)
//! only when they are all taken; the members of a `/query_batch` always
//! fan out over that pool. A slow search pins its connection thread for
//! its own request and no longer — the thread was blocked on the pool's
//! reply for exactly as long before — and a slow *client* holds no slot:
//! the slot is released before the response is written.
//!
//! Endpoints (full schemas in `docs/PROTOCOL.md`):
//!
//! | Route | Purpose |
//! |---|---|
//! | `POST /query` | Answer one LSCR query |
//! | `POST /query_batch` | Answer many queries in one request |
//! | `POST /update` | Apply an insert/delete batch |
//! | `POST /snapshot/reload` | Hot-swap the served state from a snapshot file |
//! | `GET /healthz` | Liveness + served-state summary |
//! | `GET /metrics` | Text-exposition counters and histograms |

use crate::batch::{BatchConfig, Batcher};
use crate::http::{
    apply_read_timeout, read_request, write_response, HttpError, HttpLimits, Request, Response,
};
use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol::{
    parse_update, render_health, render_health_recovering, render_update, ApiError, QueryRequest,
};
use kgreach::{DurableEngine, GraphError, LscrEngine, QueryError};
use kgreach_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use kgreach_sync::thread::JoinHandle;
use kgreach_sync::{Arc, Mutex};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Instant;

/// Everything tunable about one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (tests).
    pub addr: String,
    /// Worker-pool and admission tuning.
    pub batch: BatchConfig,
    /// Per-request HTTP byte caps and read timeout.
    pub http: HttpLimits,
    /// Live connections beyond this are answered `503` and closed.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batch: BatchConfig::default(),
            http: HttpLimits::default(),
            max_connections: 256,
        }
    }
}

struct Shared {
    engine: Arc<LscrEngine>,
    metrics: Arc<ServerMetrics>,
    batcher: Arc<Batcher>,
    limits: HttpLimits,
    shutdown: AtomicBool,
    live_connections: AtomicUsize,
    /// `false` while startup recovery replays the write-ahead log: the
    /// socket is bound (so orchestration can watch `/healthz` flip), but
    /// data endpoints answer `503 recovering` until the replay finishes.
    ready: AtomicBool,
    /// Durability wrapper, installed by [`ServerHandle::install_durable`]
    /// once recovery completes; `None` on a non-durable server.
    durable: Mutex<Option<Arc<DurableEngine>>>,
}

impl Shared {
    fn durable(&self) -> Option<Arc<DurableEngine>> {
        self.durable.lock().expect("durable handle lock").clone()
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

/// Binds `config.addr` and starts serving `engine`, immediately ready.
pub fn serve(engine: Arc<LscrEngine>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    serve_inner(engine, config, true)
}

/// Binds `config.addr` but starts **not ready**: data endpoints answer
/// `503 recovering` (and `/healthz` reports `"recovering"`) until
/// [`ServerHandle::install_durable`] is called. This is the durable
/// startup path — bind early, replay the write-ahead log, then open the
/// doors.
pub fn serve_gated(engine: Arc<LscrEngine>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    serve_inner(engine, config, false)
}

fn serve_inner(
    engine: Arc<LscrEngine>,
    config: ServerConfig,
    ready: bool,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let metrics = Arc::new(ServerMetrics::new());
    let batcher = Batcher::start(Arc::clone(&engine), Arc::clone(&metrics), config.batch.clone());
    let shared = Arc::new(Shared {
        engine,
        metrics,
        batcher,
        limits: config.http,
        shutdown: AtomicBool::new(false),
        live_connections: AtomicUsize::new(0),
        ready: AtomicBool::new(ready),
        durable: Mutex::new(None),
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        let max_connections = config.max_connections;
        kgreach_sync::thread::Builder::new().name("kg-acceptor".into()).spawn(move || {
            for stream in listener.incoming() {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                shared.metrics.connections_total.add(1);
                // relaxed: live_connections is an approximate admission
                // cap, not a publication flag — no data is transferred
                // through it, and a momentarily stale count only admits
                // (or sheds) one connection early, which the cap's
                // semantics tolerate.
                if shared.live_connections.load(Ordering::Relaxed) >= max_connections {
                    shared.metrics.shed_connections_total.add(1);
                    let err = ApiError::new(503, "overloaded", "connection limit reached");
                    let mut resp = Response::json(err.status, err.envelope().to_string());
                    resp.retry_after = Some(1);
                    resp.close = true;
                    let mut stream = stream;
                    let _ = write_response(&mut stream, &resp);
                    continue;
                }
                // relaxed: see the cap check above.
                shared.live_connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(&shared);
                let _ =
                    kgreach_sync::thread::Builder::new().name("kg-conn".into()).spawn(move || {
                        handle_connection(stream, &shared);
                        // relaxed: see the cap check above.
                        shared.live_connections.fetch_sub(1, Ordering::Relaxed);
                    });
            }
        })?
    };
    Ok(ServerHandle { addr, shared, acceptor: Some(acceptor) })
}

impl ServerHandle {
    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served engine.
    pub fn engine(&self) -> &Arc<LscrEngine> {
        &self.shared.engine
    }

    /// The live metrics.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.shared.metrics
    }

    /// Whether data endpoints are open (recovery finished).
    pub fn ready(&self) -> bool {
        self.shared.ready.load(Ordering::Acquire)
    }

    /// Installs the durability wrapper — every subsequent `/update` is
    /// write-ahead logged through it — and opens the data endpoints.
    /// Call once, after `kgreach::DurableRecovery::replay` finishes.
    pub fn install_durable(&self, durable: Arc<DurableEngine>) {
        *self.shared.durable.lock().expect("durable handle lock") = Some(durable);
        self.shared.ready.store(true, Ordering::Release);
    }

    /// Stops accepting connections, answers every admitted query, and
    /// joins the acceptor and worker pool. Connections blocked mid-read
    /// see `503 draining` on their next request and are closed.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock `accept` with a no-op connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.shared.batcher.shutdown();
        // Durable servers leave a clean data directory behind: flush any
        // unsynced log records, then checkpoint so the next start
        // recovers without replay.
        if let Some(durable) = self.shared.durable() {
            if let Err(e) = durable.shutdown() {
                eprintln!("kg-serve: shutdown flush/checkpoint failed: {e}");
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    if apply_read_timeout(&stream, &shared.limits).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    loop {
        match read_request(&mut reader, &shared.limits) {
            Ok(req) => {
                let keep_alive = req.keep_alive && !shared.shutdown.load(Ordering::Acquire);
                let mut resp = dispatch(&req, shared);
                resp.close = resp.close || !keep_alive;
                shared.metrics.record_status(resp.status);
                if write_response(&mut stream, &resp).is_err() || resp.close {
                    return;
                }
            }
            Err(e) => {
                if let Some(status) = e.status() {
                    shared.metrics.requests_other.add(1);
                    shared.metrics.record_status(status);
                    let code = match &e {
                        HttpError::BodyTooLarge { .. } => "body_too_large",
                        HttpError::HeadTooLarge => "headers_too_large",
                        HttpError::UnsupportedTransferEncoding => "unsupported",
                        HttpError::Timeout => "timeout",
                        _ => "bad_request",
                    };
                    let err = ApiError::new(status, code, e.message());
                    let mut resp = Response::json(status, err.envelope().to_string());
                    resp.close = true;
                    let _ = write_response(&mut stream, &resp);
                }
                return;
            }
        }
    }
}

fn error_response(err: &ApiError) -> Response {
    let mut resp = Response::json(err.status, err.envelope().to_string());
    if matches!(err.status, 429 | 503) {
        resp.retry_after = Some(1);
    }
    resp
}

fn parse_body(req: &Request) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::bad_json("request body is not UTF-8"))?;
    Json::parse(text).map_err(|e| ApiError::bad_json(e.to_string()))
}

fn dispatch(req: &Request, shared: &Shared) -> Response {
    let m = shared.metrics.as_ref();
    if !shared.ready.load(Ordering::Acquire) {
        match (req.method.as_str(), req.path.as_str()) {
            // `/metrics` stays live during replay so recovery progress is
            // observable; `/healthz` reports the recovering state with a
            // 503 so load balancers hold traffic.
            ("GET", "/metrics") => {}
            ("GET", "/healthz") => {
                m.requests_introspection.add(1);
                let mut resp = Response::json(503, render_health_recovering().to_string());
                resp.retry_after = Some(1);
                return resp;
            }
            ("POST", "/query" | "/query_batch" | "/update" | "/snapshot/reload") => {
                m.requests_other.add(1);
                return error_response(&ApiError::new(
                    503,
                    "recovering",
                    "server is replaying its write-ahead log; retry shortly",
                ));
            }
            _ => {} // 404/405 handling below is accurate even mid-recovery
        }
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") => {
            m.requests_query.add(1);
            let start = Instant::now();
            let resp = match handle_query(req, shared) {
                Ok(body) => Response::json(200, body.to_string()),
                Err(e) => error_response(&e),
            };
            m.request_latency.record(start.elapsed());
            resp
        }
        ("POST", "/query_batch") => {
            m.requests_query_batch.add(1);
            let start = Instant::now();
            let resp = match handle_query_batch(req, shared) {
                Ok(body) => Response::json(200, body.to_string()),
                Err(e) => error_response(&e),
            };
            m.request_latency.record(start.elapsed());
            resp
        }
        ("POST", "/update") => {
            m.requests_update.add(1);
            let start = Instant::now();
            let resp = match handle_update(req, shared) {
                Ok(body) => Response::json(200, body.to_string()),
                Err(e) => error_response(&e),
            };
            m.update_latency.record(start.elapsed());
            resp
        }
        ("POST", "/snapshot/reload") => {
            m.requests_reload.add(1);
            match handle_reload(req, shared) {
                Ok(body) => Response::json(200, body.to_string()),
                Err(e) => error_response(&e),
            }
        }
        ("GET", "/healthz") => {
            m.requests_introspection.add(1);
            Response::json(200, render_health(&shared.engine.info()).to_string())
        }
        ("GET", "/metrics") => {
            m.requests_introspection.add(1);
            let durable_stats = shared.durable().map(|d| d.stats());
            Response::text(200, m.render(&shared.engine.info(), durable_stats.as_ref()))
        }
        (
            _,
            "/query" | "/query_batch" | "/update" | "/snapshot/reload" | "/healthz" | "/metrics",
        ) => {
            m.requests_other.add(1);
            error_response(&ApiError::new(
                405,
                "method_not_allowed",
                format!("{} does not accept {}", req.path, req.method),
            ))
        }
        _ => {
            m.requests_other.add(1);
            error_response(&ApiError::new(
                404,
                "not_found",
                format!("no such endpoint '{}'", req.path),
            ))
        }
    }
}

fn handle_query(req: &Request, shared: &Shared) -> Result<Json, ApiError> {
    let body = parse_body(req)?;
    let query = QueryRequest::parse(&body)?;
    // Answered right here when a search slot is free; through the queue
    // and the pool otherwise.
    shared.batcher.answer(query)
}

fn handle_query_batch(req: &Request, shared: &Shared) -> Result<Json, ApiError> {
    let body = parse_body(req)?;
    let items = body
        .get("queries")
        .and_then(Json::as_array)
        .ok_or_else(|| ApiError::invalid("missing or non-array field 'queries'"))?;
    let mut queries = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        queries.push(
            QueryRequest::parse(item)
                .map_err(|e| ApiError::invalid(format!("queries[{i}]: {}", e.message)))?,
        );
    }
    let receivers = shared.batcher.submit_many(queries)?;
    // Per-item failures (unknown vertex, …) are reported in-place so one
    // bad query does not void its batchmates' answers.
    let results = receivers
        .into_iter()
        .map(|rx| match rx.recv() {
            Ok(Ok(body)) => body,
            Ok(Err(e)) => e.envelope(),
            Err(_) => ApiError::new(500, "internal", "worker dropped the query").envelope(),
        })
        .collect();
    Ok(Json::Obj(vec![("results".into(), Json::Arr(results))]))
}

fn handle_update(req: &Request, shared: &Shared) -> Result<Json, ApiError> {
    let body = parse_body(req)?;
    let batch = parse_update(&body)?;
    // On a durable server the batch goes through the WAL: the response
    // is built only after the record is on disk (append-then-ack), so a
    // crash after the client reads it cannot lose the update.
    let rendered = match shared.durable() {
        Some(durable) => {
            let out = durable.apply_update(&batch)?;
            render_update(&out.outcome, out.seq, out.durable)
        }
        None => render_update(&shared.engine.apply_update(&batch)?, None, false),
    };
    shared.metrics.updates_total.add(1);
    Ok(rendered)
}

fn handle_reload(req: &Request, shared: &Shared) -> Result<Json, ApiError> {
    let body = parse_body(req)?;
    let path = body
        .get("path")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::invalid("missing or non-string field 'path'"))?;
    // On a durable server the reload goes through the checkpoint: a
    // restart recovers the reloaded graph, not the one it replaced.
    let epoch = std::fs::read(path)
        .map_err(|e| QueryError::from(GraphError::from(e)))
        .and_then(|bytes| match shared.durable() {
            Some(durable) => durable.reload_from_snapshot(&bytes),
            None => shared.engine.reload_from_snapshot(&bytes),
        })
        .map_err(|e| ApiError::new(422, "bad_snapshot", e.to_string()))?;
    shared.metrics.reloads_total.add(1);
    let info = shared.engine.info();
    Ok(Json::Obj(vec![
        ("epoch".into(), Json::u64(epoch)),
        ("vertices".into(), Json::usize(info.num_vertices)),
        ("edges".into(), Json::usize(info.num_edges)),
        ("labels".into(), Json::usize(info.num_labels)),
        ("index_built".into(), Json::Bool(info.index_built)),
    ]))
}
