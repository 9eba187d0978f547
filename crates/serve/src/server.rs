//! The serving front door: TCP accept loop, per-connection threads and
//! endpoint dispatch.
//!
//! The threading model is deliberately boring: one acceptor thread and
//! one blocking thread per live connection (capped by
//! [`ServerConfig::max_connections`]; excess connections get an immediate
//! `503` and are closed). A connection thread reads a request, answers it
//! and writes the response: a `/query` runs resolve → search → write
//! right there in one of the [`BatchConfig::workers`] search slots,
//! waiting for one first when they are all taken (see
//! [`batch`](crate::batch)); the members of a `/query_batch` run the same
//! way, one after another. A slow search pins its connection thread for
//! its own request and no longer, and a slow *client* holds no slot: the
//! slot is released before the response is written.
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
use kgreach_sync::{Arc, OnceLock};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Everything tunable about one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (tests).
    pub addr: String,
    /// Search-slot and admission tuning.
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
    /// Durability wrapper, set once by [`ServerHandle::install_durable`]
    /// when recovery completes; unset on a non-durable server.
    durable: OnceLock<Arc<DurableEngine>>,
}

/// One admitted connection's place under
/// [`ServerConfig::max_connections`], given back on drop: a connection
/// thread that unwinds, or one that never starts, cannot leak it.
struct ConnectionSlot(Arc<Shared>);

impl ConnectionSlot {
    fn take(shared: &Arc<Shared>) -> ConnectionSlot {
        // relaxed: see the cap check in the acceptor.
        shared.live_connections.fetch_add(1, Ordering::Relaxed);
        ConnectionSlot(Arc::clone(shared))
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        // relaxed: see the cap check in the acceptor.
        self.0.live_connections.fetch_sub(1, Ordering::Relaxed);
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
        durable: OnceLock::new(),
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
                    let mut resp = Response::json(err.status, err.envelope());
                    resp.retry_after = Some(1);
                    resp.close = true;
                    let mut stream = stream;
                    let _ = write_response(&mut stream, &resp);
                    continue;
                }
                let slot = ConnectionSlot::take(&shared);
                let _ = kgreach_sync::thread::Builder::new()
                    .name("kg-conn".into())
                    .spawn(move || handle_connection(stream, &slot.0));
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
    /// Call once, after `kgreach::DurableRecovery::replay` finishes; a
    /// second wrapper is ignored.
    pub fn install_durable(&self, durable: Arc<DurableEngine>) {
        self.shared.durable.get_or_init(|| durable);
        self.shared.ready.store(true, Ordering::Release);
    }

    /// Stops accepting connections, joins the acceptor, and waits until
    /// no search runs and no query waits for a slot. Connections blocked
    /// mid-read see `503 draining` on their next request and are closed.
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
        if let Some(durable) = self.shared.durable.get() {
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
                // Unwind safety: a panic below may poison a lock it held.
                // The engine's and the batcher's accessors recover theirs,
                // and a poisoned durability lock refuses every later write
                // with `500 storage` until a restart. The engine swaps its
                // served state only after the work that could panic is
                // done, so no later request reads a half-applied update or
                // reload.
                let mut resp = catch_unwind(AssertUnwindSafe(|| dispatch(&req, shared)))
                    .unwrap_or_else(|_| {
                        shared.metrics.panics_total.add(1);
                        let err = ApiError::new(
                            500,
                            "internal",
                            "the request panicked; see the server log",
                        );
                        let mut resp = error_response(&err);
                        resp.close = true;
                        resp
                    });
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
                    let mut resp = Response::json(status, err.envelope());
                    resp.close = true;
                    let _ = write_response(&mut stream, &resp);
                }
                return;
            }
        }
    }
}

fn error_response(err: &ApiError) -> Response {
    let mut resp = Response::json(err.status, err.envelope());
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
                Ok(body) => Response::json(200, body),
                Err(e) => error_response(&e),
            };
            m.request_latency.record(start.elapsed());
            resp
        }
        ("POST", "/query_batch") => {
            m.requests_query_batch.add(1);
            let start = Instant::now();
            let resp = match handle_query_batch(req, shared) {
                Ok(body) => Response::json(200, body),
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
            let durable_stats = shared.durable.get().map(|d| d.stats());
            Response::text(200, m.render(&shared.engine.info(), durable_stats.as_ref()))
        }
        #[cfg(test)]
        ("POST", "/test/panic") => panic!("seeded panic on a connection thread"),
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

fn handle_query(req: &Request, shared: &Shared) -> Result<String, ApiError> {
    let body = parse_body(req)?;
    let query = QueryRequest::parse(&body)?;
    // Answered right here, after waiting for a search slot if none is free.
    shared.batcher.answer(query)
}

fn handle_query_batch(req: &Request, shared: &Shared) -> Result<String, ApiError> {
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
    // Per-item failures (unknown vertex, …) are reported in-place so one
    // bad query does not void its batchmates' answers.
    let results: Vec<String> = shared
        .batcher
        .answer_many(&queries)?
        .into_iter()
        .map(|result| result.unwrap_or_else(|e| e.envelope()))
        .collect();
    Ok(format!("{{\"results\":[{}]}}", results.join(",")))
}

fn handle_update(req: &Request, shared: &Shared) -> Result<Json, ApiError> {
    let body = parse_body(req)?;
    let batch = parse_update(&body)?;
    // On a durable server the batch goes through the WAL: the response
    // is built only after the record is on disk (append-then-ack), so a
    // crash after the client reads it cannot lose the update.
    let rendered = match shared.durable.get() {
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
    // Only a regular file has an end to read to: `/dev/zero` would be read
    // until allocation fails, and a FIFO would block this thread for good.
    // A path that cannot be inspected fails in the read below.
    if std::fs::metadata(path).is_ok_and(|meta| !meta.is_file()) {
        return Err(ApiError::new(422, "bad_snapshot", format!("'{path}' is not a regular file")));
    }
    // On a durable server the reload goes through the checkpoint: a
    // restart recovers the reloaded graph, not the one it replaced.
    let epoch = std::fs::read(path)
        .map_err(|e| QueryError::from(GraphError::from(e)))
        .and_then(|bytes| match shared.durable.get() {
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
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use kgreach::fixtures::figure3;
    use std::time::Duration;

    #[test]
    fn a_panicking_request_costs_one_500_and_gives_its_connection_back() {
        let engine = Arc::new(LscrEngine::new(figure3()));
        let server = serve(engine, ServerConfig::default()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let resp = client.post_json("/test/panic", "{}").unwrap();
        assert_eq!(resp.status, 500, "{}", resp.body);
        assert!(resp.body.contains("\"internal\""), "{}", resp.body);
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(server.metrics().panics_total.get(), 1);
        let live = &server.shared.live_connections;
        let deadline = Instant::now() + Duration::from_secs(10);
        // The panicking thread closed its connection and gave its place
        // under `max_connections` back. relaxed: the gauge is polled
        // until it settles; no data rides on it.
        while live.load(Ordering::Relaxed) > 0 {
            assert!(Instant::now() < deadline, "the panicked connection leaked its slot");
            std::thread::yield_now();
        }
        let mut client = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        server.shutdown();
    }
}
