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
//! Every endpoint is one row of the `ROUTES` table below: its method,
//! path, `kg_requests_total` series, latency histogram and handler. The
//! schemas are in `docs/PROTOCOL.md`, whose endpoint table a test holds to
//! `ROUTES`. Every error envelope leaves through one function, `refusal`.

use crate::batch::{BatchConfig, Batcher};
use crate::http::{
    apply_read_timeout, read_request, write_response, HttpError, HttpLimits, Request, Response,
};
use crate::json::Json;
use crate::metrics::{endpoint, LatencyHistogram, ServerMetrics};
use crate::protocol::{parse_update, render_health, render_update, ApiError, QueryRequest};
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
    /// Started by [`serve_gated`]: until `durable` is set, startup
    /// recovery is replaying the write-ahead log. The socket is bound (so
    /// orchestration can watch `/healthz` flip), but data endpoints answer
    /// `503 recovering`.
    gated: bool,
    /// Durability wrapper, set once by [`ServerHandle::install_durable`]
    /// when recovery completes; unset on a non-durable server.
    durable: OnceLock<Arc<DurableEngine>>,
}

impl Shared {
    /// Whether data endpoints are open (recovery finished, or none ran).
    fn ready(&self) -> bool {
        !self.gated || self.durable.get().is_some()
    }
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
    serve_inner(engine, config, false)
}

/// Binds `config.addr` but starts **not ready**: data endpoints answer
/// `503 recovering` (and `/healthz` reports `"recovering"`) until
/// [`ServerHandle::install_durable`] is called. This is the durable
/// startup path — bind early, replay the write-ahead log, then open the
/// doors.
pub fn serve_gated(engine: Arc<LscrEngine>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    serve_inner(engine, config, true)
}

fn serve_inner(
    engine: Arc<LscrEngine>,
    config: ServerConfig,
    gated: bool,
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
        gated,
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
                let Ok(mut stream) = stream else { continue };
                shared.metrics.connections_total.add(1);
                // relaxed: live_connections is an approximate admission
                // cap, not a publication flag — no data is transferred
                // through it, and a momentarily stale count only admits
                // (or sheds) one connection early, which the cap's
                // semantics tolerate.
                if shared.live_connections.load(Ordering::Relaxed) >= max_connections {
                    shared.metrics.shed_connections_total.add(1);
                    let err = ApiError::new(503, "overloaded", "connection limit reached");
                    let _ = write_response(&mut stream, &refusal(&err, true));
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
        self.shared.ready()
    }

    /// Installs the durability wrapper — every subsequent `/update` is
    /// write-ahead logged through it — and opens the data endpoints.
    /// Call once, after `kgreach::DurableRecovery::replay` finishes; a
    /// second wrapper is ignored.
    pub fn install_durable(&self, durable: Arc<DurableEngine>) {
        self.shared.durable.get_or_init(|| durable);
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
        // Unwind safety: a panic while a request is read or answered may
        // poison a lock it held. The engine's and the batcher's accessors
        // recover theirs, and a poisoned durability lock refuses every
        // later write with `500 storage` until a restart. The engine swaps
        // its served state only after the work that could panic is done,
        // so no later request reads a half-applied update or reload. The
        // connection, whose framing the panic may have cut, is closed.
        let resp = match catch_unwind(AssertUnwindSafe(|| answer_next(&mut reader, shared))) {
            Ok(Some(resp)) => resp,
            Ok(None) => return,
            Err(_) => {
                shared.metrics.panics_total.add(1);
                let err =
                    ApiError::new(500, "internal", "the request panicked; see the server log");
                refusal(&err, true)
            }
        };
        shared.metrics.record_status(resp.status);
        if write_response(&mut stream, &resp).is_err() || resp.close {
            return;
        }
    }
}

/// Reads the connection's next request and answers it, or refuses one
/// that cannot be read; `None` when the peer is gone and nothing is sent.
fn answer_next(reader: &mut BufReader<TcpStream>, shared: &Shared) -> Option<Response> {
    let e = match read_request(reader, &shared.limits) {
        Ok(req) => {
            let mut resp = dispatch(&req, shared);
            resp.close |= !req.keep_alive || shared.shutdown.load(Ordering::Acquire);
            return Some(resp);
        }
        Err(e) => e,
    };
    let (status, code) = match e {
        HttpError::ConnectionClosed | HttpError::Io(_) => return None,
        HttpError::BadRequest(_) => (400, "bad_request"),
        HttpError::BodyTooLarge { .. } => (413, "body_too_large"),
        HttpError::HeadTooLarge => (431, "headers_too_large"),
        HttpError::UnsupportedTransferEncoding => (501, "unsupported"),
        HttpError::Timeout => (408, "timeout"),
    };
    shared.metrics.requests[OTHER].add(1);
    Some(refusal(&ApiError::new(status, code, e.message()), true))
}

/// The one way an error envelope goes out: `err`'s status and envelope,
/// `Retry-After: 1` when it is a `429` or a `503`, and `close` to end the
/// connection after it.
fn refusal(err: &ApiError, close: bool) -> Response {
    let retry_after = matches!(err.status, 429 | 503).then_some(1);
    Response { retry_after, close, ..Response::json(err.status, err.envelope()) }
}

/// What a request that answers no route counts under.
const OTHER: usize = endpoint("other");
/// The series of the endpoints that stay open while a gated server
/// recovers: `/metrics`, so that recovery can be watched, and `/healthz`,
/// which says it is recovering.
const INTROSPECTION: usize = endpoint("introspection");

/// How an endpoint answers a request.
type Handler = fn(&Request, &Shared) -> Result<Response, ApiError>;
/// The histogram an endpoint's latency goes to, if any.
type Latency = fn(&ServerMetrics) -> Option<&LatencyHistogram>;
/// One endpoint: the one method it takes, its path, its series of
/// `kg_requests_total` (an index into `ENDPOINTS`), its latency histogram
/// and its handler.
type Route = (&'static str, &'static str, usize, Latency, Handler);

/// Every endpoint the server answers.
static ROUTES: [Route; 6] = [
    ("POST", "/query", endpoint("query"), |m| Some(&m.request_latency), query),
    ("POST", "/query_batch", endpoint("query_batch"), |m| Some(&m.request_latency), query_batch),
    ("POST", "/update", endpoint("update"), |m| Some(&m.update_latency), update),
    ("POST", "/snapshot/reload", endpoint("snapshot_reload"), |_| None, reload),
    ("GET", "/healthz", INTROSPECTION, |_| None, health),
    ("GET", "/metrics", INTROSPECTION, |_| None, metrics),
];

/// The refusal of a data request while a gated server recovers.
fn recovering() -> ApiError {
    ApiError::new(503, "recovering", "server is replaying its write-ahead log; retry shortly")
}

fn dispatch(req: &Request, shared: &Shared) -> Response {
    #[cfg(test)]
    if req.path == "/test/panic" {
        panic!("seeded panic on a connection thread");
    }
    let m = shared.metrics.as_ref();
    let Some(&(method, _, series, latency, handler)) =
        ROUTES.iter().find(|route| route.1 == req.path)
    else {
        m.requests[OTHER].add(1);
        let err = ApiError::new(404, "not_found", format!("no such endpoint '{}'", req.path));
        return refusal(&err, false);
    };
    if method != req.method {
        m.requests[OTHER].add(1);
        let message = format!("{} does not accept {}", req.path, req.method);
        let err = ApiError::new(405, "method_not_allowed", message);
        return Response { allow: Some(method), ..refusal(&err, false) };
    }
    if series != INTROSPECTION && !shared.ready() {
        m.requests[OTHER].add(1);
        return refusal(&recovering(), false);
    }
    m.requests[series].add(1);
    let start = Instant::now();
    let resp = handler(req, shared).unwrap_or_else(|err| refusal(&err, false));
    if let Some(latency) = latency(m) {
        latency.record(start.elapsed());
    }
    resp
}

fn parse_body(req: &Request) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::bad_json("request body is not UTF-8"))?;
    Json::parse(text).map_err(|e| ApiError::bad_json(e.to_string()))
}

fn query(req: &Request, shared: &Shared) -> Result<Response, ApiError> {
    let body = parse_body(req)?;
    let query = QueryRequest::parse(&body)?;
    // Answered right here, after waiting for a search slot if none is free.
    Ok(Response::json(200, shared.batcher.answer(query)?))
}

fn query_batch(req: &Request, shared: &Shared) -> Result<Response, ApiError> {
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
    Ok(Response::json(200, format!("{{\"results\":[{}]}}", results.join(","))))
}

fn update(req: &Request, shared: &Shared) -> Result<Response, ApiError> {
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
    Ok(Response::json(200, rendered.to_string()))
}

fn reload(req: &Request, shared: &Shared) -> Result<Response, ApiError> {
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
    let body = Json::Obj(vec![
        ("epoch".into(), Json::u64(epoch)),
        ("vertices".into(), Json::usize(info.num_vertices)),
        ("edges".into(), Json::usize(info.num_edges)),
        ("labels".into(), Json::usize(info.num_labels)),
    ]);
    Ok(Response::json(200, body.to_string()))
}

/// While a gated server recovers, its health is the `503` a data request
/// gets, with a body that says so, and load balancers hold traffic.
fn health(_: &Request, shared: &Shared) -> Result<Response, ApiError> {
    if !shared.ready() {
        let body = br#"{"status":"recovering"}"#.to_vec();
        return Ok(Response { body, ..refusal(&recovering(), false) });
    }
    Ok(Response::json(200, render_health(&shared.engine.info()).to_string()))
}

fn metrics(_: &Request, shared: &Shared) -> Result<Response, ApiError> {
    let durable_stats = shared.durable.get().map(|d| d.stats());
    let text = shared.metrics.render(&shared.engine.info(), durable_stats.as_ref());
    Ok(Response::text(200, text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use kgreach::fixtures::figure3;
    use std::io::{BufRead, Read, Write};
    use std::time::Duration;

    /// Sends `request` on a new connection to `addr` and returns the
    /// response as the server sent it: the head, each line checked to end
    /// in CRLF and written with LF, then `Content-Length` bytes of body
    /// and a newline. Empty when the server closed without answering.
    fn exchange(addr: SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(request).unwrap();
        let mut reader = BufReader::new(stream);
        let mut head = String::new();
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 {
            let text = line.strip_suffix("\r\n").expect("every head line ends in CRLF");
            head.push_str(text);
            head.push('\n');
            if text.is_empty() {
                break;
            }
            line.clear();
        }
        let length = head.lines().find_map(|l| l.strip_prefix("Content-Length: "));
        let mut body = vec![0; length.map_or(0, |n| n.parse().unwrap())];
        reader.read_exact(&mut body).unwrap();
        if head.is_empty() {
            return head;
        }
        head + std::str::from_utf8(&body).unwrap() + "\n"
    }

    /// `raw` with the digits after each of `"elapsed_ns":` and
    /// `"graph_heap_bytes":` masked, and its `Content-Length` too if any
    /// were: those vary with the clock and the build.
    fn mask(raw: &str) -> String {
        let mut out = raw.to_owned();
        let mut masked = false;
        for key in ["\"elapsed_ns\":", "\"graph_heap_bytes\":"] {
            let mut from = 0;
            while let Some(at) = out[from..].find(key) {
                let start = from + at + key.len();
                let digits = out[start..].bytes().take_while(u8::is_ascii_digit).count();
                out.replace_range(start..start + digits, "<masked>");
                from = start;
                masked = true;
            }
        }
        if masked {
            let at = out.find("Content-Length: ").unwrap() + "Content-Length: ".len();
            let digits = out[at..].bytes().take_while(u8::is_ascii_digit).count();
            out.replace_range(at..at + digits, "<masked>");
        }
        out
    }

    /// A request with a `Content-Length` body.
    fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
        format!(
            "{method} {path} HTTP/1.1\r\nHost: kg\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// One fixed script of requests, each on its own connection, against a
    /// server with small limits, one with no connection to spare and one
    /// still recovering: every response, byte for byte, against
    /// `tests/fixtures/wire.golden`.
    #[test]
    fn wire_transcript_matches_golden() {
        let query = concat!(
            r#"{"source":"v0","target":"v4","labels":["likes","follows"],"#,
            r#""constraint":"SELECT ?x WHERE { ?x <friendOf> <v3> . <v3> <likes> ?y . }"}"#
        );
        let unknown = query.replace("\"v0\"", "\"nobody\"");
        let batch = format!("{{\"queries\":[{query},{unknown}]}}");
        let update =
            r#"{"ops":[{"op":"insert","subject":"v4","predicate":"likes","object":"v0"}]}"#;
        let pad = format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "x".repeat(600));
        let limits = HttpLimits {
            max_head_bytes: 512,
            max_body_bytes: 1024,
            read_timeout: Duration::from_millis(300),
        };
        let config = ServerConfig { http: limits, ..ServerConfig::default() };
        let engine = || Arc::new(LscrEngine::new(figure3()));
        let open = serve(engine(), config.clone()).unwrap();
        let capped =
            serve(engine(), ServerConfig { max_connections: 0, ..config.clone() }).unwrap();
        let gated = serve_gated(engine(), config).unwrap();
        let script: Vec<(&str, &ServerHandle, Vec<u8>)> = vec![
            ("query", &open, request("POST", "/query", query)),
            ("query_batch, one unknown vertex", &open, request("POST", "/query_batch", &batch)),
            ("update", &open, request("POST", "/update", update)),
            ("healthz", &open, request("GET", "/healthz", "")),
            ("404", &open, request("GET", "/nowhere", "")),
            ("405 on a POST route", &open, request("GET", "/query", "")),
            ("405 on a GET route", &open, request("POST", "/healthz", "{}")),
            ("400 bad JSON", &open, request("POST", "/query", "{\"source\":")),
            ("400 invalid request", &open, request("POST", "/query", "{}")),
            ("400 bad request line", &open, b"BROKEN\r\n\r\n".to_vec()),
            (
                "413",
                &open,
                b"POST /query HTTP/1.1\r\nHost: kg\r\nContent-Length: 4096\r\n\r\n".to_vec(),
            ),
            ("431", &open, pad.into_bytes()),
            (
                "501",
                &open,
                b"POST /query HTTP/1.1\r\nHost: kg\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            ),
            ("408", &open, b"GET /healthz HTTP/1.1\r\nHost: kg\r\n".to_vec()),
            (
                "422 reload of a missing file",
                &open,
                request("POST", "/snapshot/reload", r#"{"path":"missing.snapshot"}"#),
            ),
            ("500", &open, request("POST", "/test/panic", "{}")),
            ("503 at the connection cap", &capped, request("GET", "/healthz", "")),
            ("503 query while recovering", &gated, request("POST", "/query", query)),
            ("503 healthz while recovering", &gated, request("GET", "/healthz", "")),
        ];
        let mut transcript = String::new();
        for (name, server, bytes) in &script {
            transcript.push_str(&format!("=== {name}\n"));
            transcript.push_str(&mask(&exchange(server.addr(), bytes)));
        }
        for server in [open, capped, gated] {
            server.shutdown();
        }
        let golden = include_str!("../tests/fixtures/wire.golden");
        if transcript != golden {
            let line = transcript.lines().zip(golden.lines()).position(|(a, b)| a != b);
            panic!("the transcript differs from the golden at line {line:?}:\n{transcript}");
        }
    }

    #[test]
    fn a_405_names_the_method_its_path_takes() {
        let engine = Arc::new(LscrEngine::new(figure3()));
        let server = serve(engine, ServerConfig::default()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for (method, path, allow) in [("GET", "/query", "POST"), ("POST", "/healthz", "GET")] {
            let resp = client.request(method, path, None).unwrap();
            assert_eq!(resp.status, 405, "{method} {path}: {}", resp.body);
            assert_eq!(resp.header("allow"), Some(allow), "{method} {path}");
        }
        server.shutdown();
    }

    /// The endpoint table of `docs/PROTOCOL.md` lists every route's method
    /// and path, and nothing else.
    #[test]
    fn protocol_table_matches_routes() {
        let doc = include_str!("../../../docs/PROTOCOL.md");
        let documented: std::collections::BTreeSet<(&str, &str)> = doc
            .split("## Endpoints")
            .nth(1)
            .expect("PROTOCOL.md has the endpoint section")
            .lines()
            .skip_while(|l| !l.starts_with("| Route |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|row| {
                let route = row.split('|').nth(1).unwrap().trim().trim_matches('`');
                route.split_once(' ').expect("a route is a method and a path")
            })
            .collect();
        let routed: std::collections::BTreeSet<_> = ROUTES.iter().map(|r| (r.0, r.1)).collect();
        let undocumented: Vec<_> = routed.difference(&documented).collect();
        let unrouted: Vec<_> = documented.difference(&routed).collect();
        assert!(
            undocumented.is_empty() && unrouted.is_empty(),
            "routed but not in PROTOCOL.md: {undocumented:?}; \
             in PROTOCOL.md but not routed: {unrouted:?}"
        );
    }

    #[test]
    fn a_panic_while_a_request_is_read_costs_one_500() {
        let engine = Arc::new(LscrEngine::new(figure3()));
        let server = serve(engine, ServerConfig::default()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        client.send_raw(b"PANIC / HTTP/1.1\r\nHost: kg\r\n\r\n").unwrap();
        let resp = client.read_response().unwrap();
        assert_eq!(resp.status, 500, "{}", resp.body);
        assert!(resp.body.contains("\"internal\""), "{}", resp.body);
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(server.metrics().panics_total.get(), 1);
        let mut client = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        server.shutdown();
    }

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
