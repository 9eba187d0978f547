//! End-to-end serving tests over real loopback sockets.
//!
//! Five batteries, mirroring the serving layer's promises:
//!
//! 1. **Differential** (a slice of the matrix): answers served over
//!    `/query` and `/query_batch` must equal the oracle's on S1–S3
//!    workloads across UIS, UIS\*, INS and Auto — including witness paths,
//!    which are deterministic and must round-trip name-for-name.
//! 2. **Fault injection**: malformed request lines, bad JSON, wrong
//!    shapes, oversized bodies, truncated bodies, chunked encoding and
//!    unknown routes each map to their documented typed error — never a
//!    hang, never a torn response, and the server keeps serving afterward.
//! 3. **Reload-during-query**: hammering queries while the served
//!    snapshot is hot-swapped stays correct (same-content swap) and
//!    stays *typed* (content-changing swap, shrinking swap), with the
//!    epoch advancing and the server answering throughout.
//! 4. **Overload**: more connections than search slots wait for one on
//!    their own threads; past the admission high water the server sheds
//!    with `429` + `Retry-After`, and shutdown drains admitted work with
//!    `503`.
//! 5. **The served path's shortcuts**: a canonical constraint text with a
//!    cached plan is answered without a parse and any other spelling
//!    after one, errors keep their order and texts, and the response
//!    text is byte for byte what the tree renderer it replaced wrote.

use kgreach::{
    Algorithm, LscrEngine, LscrQuery, QueryOptions, QueryOutcome, SubstructureConstraint, Witness,
};
use kgreach_datagen::constraints::{s1, s3};
use kgreach_graph::{Graph, VertexId};
use kgreach_integration::matrix::{
    lubm_draws, s1_s3, wire_body, workload, Form, Matrix, Run, ALGORITHMS,
};
use kgreach_integration::{answer, s1_s5_wire_bodies, small_lubm};
use kgreach_serve::{serve, BatchConfig, HttpClient, HttpLimits, Json, QueryRequest, ServerConfig};
use kgreach_sync::atomic::{AtomicBool, Ordering};
use kgreach_sync::Arc;
use std::path::Path;
use std::time::Duration;

#[test]
fn wire_answers_match_in_process_answers_on_s1_s3() {
    let m = Matrix::of(small_lubm(77));
    m.engine.local_index(); // INS needs it; build once up front
    let queries = s1_s3(&m.graph, 5, |i| 0x5E4E + i);
    let runs = Run::each(&ALGORITHMS, &QueryOptions::default().with_witness(true), false);
    // Witness paths are deterministic: the wire must carry exactly the
    // in-process path, translated to names and back.
    let mut witnesses = [Vec::new(), Vec::new()];
    m.run(&queries, &runs, &[Form::Engine, Form::Wire, Form::WireBatch], |case, out| {
        if case.form != Form::WireBatch {
            witnesses[usize::from(case.form == Form::Wire)].push(out.witness.clone());
        }
    });
    assert_eq!(witnesses[0].len(), 3 * 10 * 4, "expected a full matrix");
    assert_eq!(witnesses[0], witnesses[1], "witness paths diverged on the wire");
}

#[test]
fn batch_requests_honor_server_budget_ceilings() {
    // End-to-end mirror of protocol.rs's
    // `options_clamp_client_budgets_to_server_ceilings`, through
    // `/query_batch`: a batched client asking for an enormous step budget
    // must still be clamped to the server's `max_step_budget` ceiling —
    // the batch path funnels through the same admission clamp as
    // `/query`, and a truncated search comes back `interrupted`, never as
    // a definitive answer.
    let g = small_lubm(77);
    let engine = Arc::new(LscrEngine::new(g));
    engine.local_index();
    let graph = engine.graph();
    let queries = workload(&graph, &s1(), 2, 0x5E4E, 80_000);
    let true_queries: Vec<&LscrQuery> =
        queries.iter().filter(|(_, e)| *e).map(|(q, _)| q).collect();
    let budget = QueryOptions::default().with_step_budget(9_999_999_999);
    let items: Vec<String> =
        true_queries.iter().map(|q| wire_body(&graph, q, Algorithm::Auto, &budget)).collect();
    let batch_body = format!("{{\"queries\":[{}]}}", items.join(","));

    // Server with a zero step-budget ceiling: every search is truncated
    // before its first edge scan, whatever the client asked for.
    let strict = ServerConfig {
        batch: BatchConfig { max_step_budget: Some(0), ..Default::default() },
        ..Default::default()
    };
    let server = serve(Arc::clone(&engine), strict).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let resp = client.post_json("/query_batch", &batch_body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let body = resp.json().unwrap();
    let results = body.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), true_queries.len());
    for r in results {
        assert_eq!(
            r.get("interrupted").and_then(Json::as_bool),
            Some(true),
            "server ceiling must clamp the batched client budget: {r}"
        );
        assert_eq!(
            r.get("answer").and_then(Json::as_bool),
            Some(false),
            "a truncated search must not claim a definitive answer: {r}"
        );
    }
    // The singleton path clamps identically.
    let one = client.post_json("/query", &items[0]).unwrap();
    assert_eq!(one.status, 200, "{}", one.body);
    assert_eq!(one.json().unwrap().get("interrupted").and_then(Json::as_bool), Some(true));
    server.shutdown();

    // Control: under the default (generous) ceiling the same batch, same
    // client budget, returns the truth uninterrupted — it was the server
    // ceiling doing the truncating above, not the client value.
    let server = serve(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let resp = client.post_json("/query_batch", &batch_body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let body = resp.json().unwrap();
    for r in body.get("results").and_then(Json::as_array).unwrap() {
        assert_eq!(r.get("answer").and_then(Json::as_bool), Some(true), "{r}");
        assert_eq!(r.get("interrupted").and_then(Json::as_bool), Some(false), "{r}");
    }
    server.shutdown();
}

#[test]
fn malformed_requests_get_typed_errors_and_the_server_keeps_serving() {
    let engine = Arc::new(LscrEngine::new(small_lubm(7)));
    let config = ServerConfig {
        http: HttpLimits {
            max_body_bytes: 4096,
            read_timeout: Duration::from_millis(300),
            ..Default::default()
        },
        ..Default::default()
    };
    let server = serve(engine, config).unwrap();
    let addr = server.addr();
    let expect_code = |resp: &kgreach_serve::HttpResponse, status: u16, code: &str| {
        assert_eq!(resp.status, status, "{}", resp.body);
        let body = resp.json().unwrap_or(Json::Null);
        assert_eq!(
            body.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
            Some(code),
            "{}",
            resp.body
        );
    };

    // Garbage request line → 400, connection closed.
    let mut c = HttpClient::connect(addr).unwrap();
    c.send_raw(b"GARBAGE\r\n\r\n").unwrap();
    expect_code(&c.read_response().unwrap(), 400, "bad_request");

    // A Content-Length that is not all digits, or a repeat that disagrees
    // with the first, leaves the body's end unknown → 400, connection
    // closed (RFC 9112 §6.3). No body follows, so none is left unread.
    // Whitespace around the value is space and tab only: a vertical tab
    // or an ideographic space is part of the value, so not a digit.
    for head in [
        "Content-Length: +0",
        "Content-Length: 0\r\nContent-Length: 5",
        "Content-Length: 2\x0b",
        "Content-Length:\u{3000}2",
    ] {
        let mut c = HttpClient::connect(addr).unwrap();
        c.send_raw(format!("POST /query HTTP/1.1\r\n{head}\r\n\r\n").as_bytes()).unwrap();
        let resp = c.read_response().unwrap();
        expect_code(&resp, 400, "bad_request");
        assert_eq!(resp.header("connection"), Some("close"), "{head}");
        assert!(c.read_response().is_err(), "{head}: the connection stayed open");
    }
    // A header name is a token (RFC 9110 §5.6.2). An obs-fold line starts
    // with SP or HT (RFC 9112 §5.2); it is refused, not read as a header
    // named " X-Folded" and ignored, since a proxy that unfolds it would
    // honour it (` Transfer-Encoding: chunked`).
    for head in [" X-Folded: 1", "\tX: 1", "Content Length: 2", ": x", "X@Y: 1"] {
        let mut c = HttpClient::connect(addr).unwrap();
        c.send_raw(format!("GET /healthz HTTP/1.1\r\nHost: a\r\n{head}\r\n\r\n").as_bytes())
            .unwrap();
        let resp = c.read_response().unwrap();
        expect_code(&resp, 400, "bad_request");
        assert_eq!(resp.header("connection"), Some("close"), "{head:?}");
        assert!(c.read_response().is_err(), "{head:?}: the connection stayed open");
    }
    // An identical repeat frames the body: the connection survives.
    let mut c = HttpClient::connect(addr).unwrap();
    c.send_raw(b"POST /query HTTP/1.1\r\nContent-Length: 8\r\nContent-Length: 8\r\n\r\nnot json")
        .unwrap();
    expect_code(&c.read_response().unwrap(), 400, "bad_json");
    assert_eq!(c.get("/healthz").unwrap().status, 200);

    // Declared body over the cap → 413 without reading it.
    let mut c = HttpClient::connect(addr).unwrap();
    c.send_raw(b"POST /query HTTP/1.1\r\nContent-Length: 999999\r\n\r\n").unwrap();
    expect_code(&c.read_response().unwrap(), 413, "body_too_large");

    // Truncated body (partial read) → 408 after the read timeout.
    let mut c = HttpClient::connect(addr).unwrap();
    c.send_raw(b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"so").unwrap();
    expect_code(&c.read_response().unwrap(), 408, "timeout");

    // Chunked transfer encoding → 501.
    let mut c = HttpClient::connect(addr).unwrap();
    c.send_raw(b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap();
    expect_code(&c.read_response().unwrap(), 501, "unsupported");

    // Oversized header block → 431.
    let mut c = HttpClient::connect(addr).unwrap();
    c.send_raw(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let filler = format!("X-Filler: {}\r\n", "y".repeat(8000));
    c.send_raw(filler.as_bytes()).unwrap();
    c.send_raw(filler.as_bytes()).unwrap();
    c.send_raw(filler.as_bytes()).unwrap();
    expect_code(&c.read_response().unwrap(), 431, "headers_too_large");

    // Protocol-level errors on one keep-alive connection: the connection
    // survives 4xx responses that kept HTTP framing intact.
    let mut c = HttpClient::connect(addr).unwrap();
    expect_code(&c.post_json("/query", "not json").unwrap(), 400, "bad_json");
    expect_code(&c.post_json("/query", "{\"target\":\"x\"}").unwrap(), 400, "invalid_request");
    expect_code(
        &c.post_json(
            "/query",
            r#"{"source":"a","target":"b","constraint":"x","algorithm":"bogus"}"#,
        )
        .unwrap(),
        400,
        "invalid_request",
    );
    expect_code(
        &c.post_json(
            "/query",
            r#"{"source":"no-such-vertex","target":"also-missing",
                "constraint":"SELECT ?x WHERE { ?x <rdf:type> <ub:Course> . }"}"#,
        )
        .unwrap(),
        404,
        "unknown_vertex",
    );
    expect_code(&c.get("/nope").unwrap(), 404, "not_found");
    expect_code(&c.request("GET", "/query", None).unwrap(), 405, "method_not_allowed");
    expect_code(&c.post_json("/update", r#"{"ops":"no"}"#).unwrap(), 400, "invalid_request");
    expect_code(
        &c.post_json("/snapshot/reload", r#"{"path":"/no/such/file"}"#).unwrap(),
        422,
        "bad_snapshot",
    );

    // `Expect: 100-continue` gets the interim response before the final.
    let mut c = HttpClient::connect(addr).unwrap();
    let body = r#"{"bad":"shape"}"#;
    c.send_raw(
        format!(
            "POST /query HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    let interim = c.read_response().unwrap();
    assert_eq!(interim.status, 100);
    c.send_raw(body.as_bytes()).unwrap();
    expect_code(&c.read_response().unwrap(), 400, "invalid_request");

    // After all of the above, the server still answers cleanly.
    let mut c = HttpClient::connect(addr).unwrap();
    assert_eq!(c.get("/healthz").unwrap().status, 200);
    let metrics = c.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("kg_responses_total{class=\"4xx\"}"));
    server.shutdown();
}

/// `wire` sent on a fresh connection to `addr`: `prefix` at once, then
/// `dribbled` one byte every 200 ms until the server closes. Returns
/// everything the server wrote back, and how long after the first byte
/// it closed.
fn dribble(addr: std::net::SocketAddr, prefix: &[u8], dribbled: &[u8]) -> (String, Duration) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let closed = AtomicBool::new(false);
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            writer.write_all(prefix).unwrap();
            for byte in dribbled {
                if closed.load(Ordering::Acquire) || writer.write_all(&[*byte]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        });
        let mut reply = Vec::new();
        let _ = stream.read_to_end(&mut reply);
        let elapsed = started.elapsed();
        closed.store(true, Ordering::Release);
        (String::from_utf8_lossy(&reply).into_owned(), elapsed)
    })
}

/// A request must arrive whole within the read timeout of its first
/// byte. A client that sends a head, or a body, one byte every 200 ms
/// (each byte well inside the timeout) gets `408 timeout` and then EOF,
/// instead of holding its connection thread for as long as it keeps
/// sending.
#[test]
fn a_dribbled_request_times_out_a_read_timeout_after_its_first_byte() {
    let engine = Arc::new(LscrEngine::new(small_lubm(7)));
    let config = ServerConfig {
        http: HttpLimits { read_timeout: Duration::from_secs(1), ..Default::default() },
        ..Default::default()
    };
    let server = serve(engine, config).unwrap();
    let head = format!("GET /healthz HTTP/1.1\r\nHost: kg\r\nX-Pad: {}\r\n\r\n", "y".repeat(40));
    let body = format!("{{\"path\":\"{}\"}}", "z".repeat(40));
    let body_head =
        format!("POST /snapshot/reload HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len());
    for (prefix, dribbled) in [("", head.as_str()), (body_head.as_str(), body.as_str())] {
        let (reply, elapsed) = dribble(server.addr(), prefix.as_bytes(), dribbled.as_bytes());
        assert!(reply.starts_with("HTTP/1.1 408 "), "{prefix:?}: {reply}");
        assert!(reply.contains("\"timeout\""), "{prefix:?}: {reply}");
        assert!(elapsed < Duration::from_secs(3), "{prefix:?}: closed after {elapsed:?}");
    }
    // The connection threads went back to serving.
    let mut c = HttpClient::connect(server.addr()).unwrap();
    assert_eq!(c.get("/healthz").unwrap().status, 200);
    server.shutdown();
}

/// A reload reads regular files only: a path with no end, such as
/// `/dev/zero`, is refused before it is opened, and the served graph is
/// left as it was.
#[cfg(target_os = "linux")]
#[test]
fn reloading_a_path_that_is_not_a_regular_file_is_refused_at_once() {
    let engine = Arc::new(LscrEngine::new(small_lubm(7)));
    let server = serve(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut c = HttpClient::connect(server.addr()).unwrap();
    let epoch = engine.graph_epoch();
    let started = std::time::Instant::now();
    let resp = c.post_json("/snapshot/reload", r#"{"path":"/dev/zero"}"#).unwrap();
    assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("\"bad_snapshot\""), "{}", resp.body);
    assert!(resp.body.contains("not a regular file"), "{}", resp.body);
    assert_eq!(engine.graph_epoch(), epoch, "a refused reload changed the served graph");
    server.shutdown();
}

/// Hot-swaps the served snapshot for the one at `path`, which must succeed.
fn reload(admin: &mut HttpClient, path: &Path) {
    let body = format!("{{\"path\":{}}}", Json::str(path.display().to_string()));
    let resp = admin.post_json("/snapshot/reload", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
}

#[test]
fn hot_reload_under_concurrent_query_load_stays_correct() {
    let g = small_lubm(42);
    let engine = Arc::new(LscrEngine::new(g));
    engine.local_index();
    let graph = engine.graph();

    // A same-content snapshot: swapping it in must never change any
    // answer, no matter when the swap lands relative to in-flight
    // queries.
    let dir = std::env::temp_dir().join(format!("kgreach-serving-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let same = dir.join("same.kgsnap");
    engine.save_snapshot_file(&same).unwrap();
    // A content-changing snapshot (different seed → different edges).
    let other = dir.join("other.kgsnap");
    LscrEngine::new(small_lubm(43)).save_snapshot_file(&other).unwrap();

    let server = serve(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let addr = server.addr();

    let queries = workload(&graph, &s3(), 4, 0x5E4E + 2, 80_000); // S3: the heaviest
    let auto = |q| wire_body(&graph, q, Algorithm::Auto, &QueryOptions::default());
    let bodies: Vec<(String, bool)> = queries.iter().map(|(q, e)| (auto(q), *e)).collect();

    // Phase 1: hammer queries while same-content reloads land. Every
    // single answer must stay correct.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut client = HttpClient::connect(addr).unwrap();
                // relaxed: a pure stop flag — thread::scope joins provide
                // the synchronization; the flag only needs to become
                // visible eventually.
                while !stop.load(Ordering::Relaxed) {
                    for (body, expected) in &bodies {
                        let resp = client.post_json("/query", body).unwrap();
                        assert_eq!(resp.status, 200, "{}", resp.body);
                        let answer = resp.json().unwrap().get("answer").and_then(Json::as_bool);
                        assert_eq!(answer, Some(*expected), "answer flipped during reload");
                    }
                }
            });
        }
        let mut admin = HttpClient::connect(addr).unwrap();
        for _ in 0..10 {
            reload(&mut admin, &same);
            std::thread::sleep(Duration::from_millis(5));
        }
        // relaxed: stop flag, see above.
        stop.store(true, Ordering::Relaxed);
    });
    let epoch_after_same = engine.graph_epoch();
    assert!(epoch_after_same >= 10, "every reload advances the epoch");

    // Phase 2: swap to different content; queries keep getting typed
    // responses (200 or a typed 4xx if a vertex name vanished), and the
    // served state visibly changed.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut client = HttpClient::connect(addr).unwrap();
                // relaxed: stop flag, see above.
                while !stop.load(Ordering::Relaxed) {
                    for (body, _) in &bodies {
                        let resp = client.post_json("/query", body).unwrap();
                        assert!(
                            resp.status == 200 || resp.status == 404 || resp.status == 422,
                            "untyped response during content swap: {} {}",
                            resp.status,
                            resp.body
                        );
                    }
                }
            });
        }
        let mut admin = HttpClient::connect(addr).unwrap();
        reload(&mut admin, &other);
        // relaxed: stop flag, see above.
        stop.store(true, Ordering::Relaxed);
    });
    assert!(engine.graph_epoch() > epoch_after_same);
    assert_ne!(engine.graph().fingerprint(), graph.fingerprint(), "content must have swapped");

    // Phase 3: swap back to the original content; the full differential
    // must hold again — stale plans/caches would surface here.
    let mut admin = HttpClient::connect(addr).unwrap();
    reload(&mut admin, &same);
    let mut client = HttpClient::connect(addr).unwrap();
    for (body, expected) in &bodies {
        let resp = client.post_json("/query", body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let answer = resp.json().unwrap().get("answer").and_then(Json::as_bool);
        assert_eq!(answer, Some(*expected), "wrong answer after reload round-trip");
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A reload to a graph with *fewer* vertices racing in-flight queries:
/// a query resolved and compiled against the large graph carries vertex
/// ids the small one does not have. Each query reads only the graph it
/// pinned, so it is answered there or fails there with a typed `404` or
/// `422`; a panic (`500 internal`) or a give-up (`503`) fails this test.
#[test]
fn shrinking_reload_under_query_load_never_loses_a_worker() {
    // Large enough that a local-index build takes milliseconds.
    let lubm = kgreach_datagen::LubmConfig::sized(12_000, 42);
    let engine = Arc::new(LscrEngine::new(kgreach_datagen::lubm::generate(&lubm).unwrap()));
    let graph = engine.graph();

    let dir = std::env::temp_dir().join(format!("kgreach-serving-shrink-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Saved without a local index: after every reload of `big` the first
    // INS query builds one, and a reload arriving meanwhile lands while
    // the build runs — between that query's pin and the end of its
    // search.
    let big = dir.join("big.kgsnap");
    engine.save_snapshot_file(&big).unwrap();
    let tiny = dir.join("tiny.kgsnap");
    let mut b = kgreach_graph::GraphBuilder::new();
    b.add_triple("a", "p", "b");
    LscrEngine::new(b.build().unwrap()).save_snapshot_file(&tiny).unwrap();

    let config = ServerConfig {
        batch: BatchConfig { workers: 1, ..BatchConfig::default() },
        ..ServerConfig::default()
    };
    let server = serve(Arc::clone(&engine), config).unwrap();
    let addr = server.addr();

    // Endpoints from the top of the id range, so every id is out of range
    // in the two-vertex graph; S1 keeps each search short.
    let n = graph.num_vertices() as u32;
    let (ins, uis_star, auto) = (Algorithm::Ins, Algorithm::UisStar, Algorithm::Auto);
    let bodies: Vec<String> = (1..=8)
        .flat_map(|i| [ins, uis_star, ins, auto].map(|alg| (i, alg)))
        .map(|(i, alg)| {
            let q = LscrQuery::new(VertexId(n - i), VertexId(n - 8 - i), graph.all_labels(), s1());
            wire_body(&graph, &q, alg, &QueryOptions::default())
        })
        .collect();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut client = HttpClient::connect(addr).unwrap();
                // relaxed: a pure stop flag — thread::scope joins provide
                // the synchronization.
                while !stop.load(Ordering::Relaxed) {
                    for body in &bodies {
                        let resp = client.post_json("/query", body).unwrap();
                        assert!(
                            matches!(resp.status, 200 | 404 | 422),
                            "untyped response while the graph shrinks: {} {}",
                            resp.status,
                            resp.body
                        );
                    }
                }
            });
        }
        let mut admin = HttpClient::connect(addr).unwrap();
        for i in 0..60 {
            reload(&mut admin, if i % 2 == 0 { &tiny } else { &big });
            std::thread::sleep(Duration::from_millis(2));
        }
        // relaxed: stop flag, see above.
        stop.store(true, Ordering::Relaxed);
    });

    // The large graph is back (60 reloads, the last one `big`), and the
    // one search slot is free to answer.
    assert_eq!(engine.graph().fingerprint(), graph.fingerprint());
    let mut client = HttpClient::connect(addr).unwrap();
    for body in &bodies {
        let resp = client.post_json("/query", body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `/query` is answered on the connection thread that read it: with a
/// free search slot nothing is ever queued, and every counter still
/// moves once per query.
#[test]
fn sequential_queries_on_one_connection_never_touch_the_queue() {
    let engine = Arc::new(LscrEngine::new(small_lubm(7)));
    let g = engine.graph();
    let config = ServerConfig {
        batch: BatchConfig { workers: 2, ..BatchConfig::default() },
        ..ServerConfig::default()
    };
    let server = serve(Arc::clone(&engine), config).unwrap();
    let metrics = Arc::clone(server.metrics());
    let vertex = g.vertex_name(VertexId(0)).to_owned();
    let body = Json::Obj(vec![
        ("source".into(), Json::str(&vertex)),
        ("target".into(), Json::str(&vertex)),
        ("constraint".into(), Json::str("SELECT ?x WHERE { ?x <rdf:type> <ub:Course> . }")),
    ])
    .to_string();
    let mut c = HttpClient::connect(server.addr()).unwrap();
    for i in 0..20 {
        let resp = c.post_json("/query", &body).unwrap();
        assert_eq!(resp.status, 200, "query {i}: {}", resp.body);
        assert_eq!(metrics.queue_depth.get(), 0, "query {i} was queued");
    }
    assert_eq!(metrics.queries_total.get(), 20);
    assert_eq!(metrics.batch_windows_total.get(), 20);
    assert_eq!(metrics.batched_queries_total.get(), 20);
    assert_eq!(metrics.query_latency.count(), 20);
    let exposition = c.get("/metrics").unwrap().body;
    for line in ["kg_queue_depth 0\n", "kg_panics_total 0\n", "kg_batched_queries_total 20\n"] {
        assert!(exposition.contains(line), "missing {line:?}:\n{exposition}");
    }
    server.shutdown();
}

/// Constraint text outside ASCII — here a variable sent as JSON `\u`
/// escapes, so the bytes on the wire are pure ASCII — is answered, not
/// panicked on.
#[test]
fn non_ascii_constraint_text_is_answered() {
    let engine = Arc::new(LscrEngine::new(small_lubm(7)));
    let server = serve(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let vertex = Json::str(engine.graph().vertex_name(VertexId(0)));
    let constraint = r#""SELECT ?\u00e9 WHERE { ?\u00e9 <rdf:type> <ub:Course> . }""#;
    let body = format!(r#"{{"source":{vertex},"target":{vertex},"constraint":{constraint}}}"#);
    let mut c = HttpClient::connect(server.addr()).unwrap();
    let resp = c.post_json("/query", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(c.get("/metrics").unwrap().body.contains("kg_panics_total 0\n"));
    server.shutdown();
}

/// The head scan consumes exactly the head however the request is
/// fragmented: a request cut inside its `\r\n\r\n` and again inside its
/// body, then two whole requests in one segment, each get their answer.
#[test]
fn requests_split_or_joined_on_the_wire_are_framed_correctly() {
    let engine = Arc::new(LscrEngine::new(small_lubm(7)));
    let server = serve(engine, ServerConfig::default()).unwrap();
    let mut c = HttpClient::connect(server.addr()).unwrap();
    let body = r#"{"bad":"shape"}"#;
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: kg-serve\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let head_end = request.find("\r\n\r\n").unwrap();
    // Three fragments: …`\r\n\r` | `\n{"bad"` | `:"shape"}`. The pauses let
    // the server's read return after each one.
    let cuts = [0, head_end + 3, head_end + 4 + 6, request.len()];
    for w in cuts.windows(2) {
        c.send_raw(&request.as_bytes()[w[0]..w[1]]).unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let resp = c.read_response().unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("\"invalid_request\""), "{}", resp.body);

    // Two requests in one segment on the same connection: the first
    // head scan must leave the second request in the buffer untouched.
    c.send_raw(format!("{request}GET /healthz HTTP/1.1\n\n").as_bytes()).unwrap();
    let resp = c.read_response().unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    let resp = c.read_response().unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"status\""), "{}", resp.body);
    server.shutdown();
}

/// More connections than search slots: on a one-slot server, four
/// connections each send 50 closed-loop `/query` requests mixing S1 and
/// S3. A request that finds the slot taken waits for it on its own
/// connection thread — the server starts no other — and every answer
/// equals the in-process one. A `/query_batch` then answers its members
/// in input order, a bad member's error in place.
#[test]
fn queries_past_the_free_slots_wait_on_their_own_threads() {
    let engine = Arc::new(LscrEngine::new(small_lubm(77)));
    let graph = engine.graph();
    let config = ServerConfig {
        batch: BatchConfig { workers: 1, ..BatchConfig::default() },
        ..ServerConfig::default()
    };
    let server = serve(Arc::clone(&engine), config).unwrap();
    let (addr, metrics) = (server.addr(), Arc::clone(server.metrics()));
    let s1_queries = workload(&graph, &s1(), 3, 0x5E4E, 80_000);
    let s3_queries = workload(&graph, &s3(), 3, 0x5E4E + 2, 80_000);
    let cases: Vec<(String, bool)> = s1_queries
        .iter()
        .zip(&s3_queries)
        .flat_map(|(a, b)| [a, b])
        .map(|(q, _)| {
            let in_process = answer(&engine, q, Algorithm::Auto).unwrap().answer;
            (wire_body(&graph, q, Algorithm::Auto, &QueryOptions::default()), in_process)
        })
        .collect();

    const CONNECTIONS: usize = 4;
    const PER_CONNECTION: usize = 50;
    std::thread::scope(|scope| {
        for c in 0..CONNECTIONS {
            let cases = &cases;
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for (body, expected) in cases.iter().cycle().skip(c).take(PER_CONNECTION) {
                    let resp = client.post_json("/query", body).unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    let answer = resp.json().unwrap().get("answer").and_then(Json::as_bool);
                    assert_eq!(answer, Some(*expected), "wire and in-process answers differ");
                }
            });
        }
    });
    let sent = (CONNECTIONS * PER_CONNECTION) as u64;
    assert_eq!(metrics.queue_depth.get(), 0);
    assert_eq!(metrics.batched_queries_total.get(), sent);
    #[cfg(target_os = "linux")]
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let comm = std::fs::read_to_string(task.unwrap().path().join("comm")).unwrap_or_default();
        assert!(!comm.starts_with("kg-worker"), "a worker thread is running: {comm}");
    }

    // Member 2 names an unknown vertex: its error comes back in place,
    // and its batchmates' answers — true and false alternating — keep
    // their input order.
    let (trues, falses): (Vec<_>, Vec<_>) = cases.iter().partition(|(_, e)| *e);
    let picked = [trues[0], falses[0], trues[1], falses[1]];
    let unknown = Json::Obj(vec![
        ("source".into(), Json::str("no-such-vertex")),
        ("target".into(), Json::str("no-such-vertex")),
        ("constraint".into(), Json::str("SELECT ?x WHERE { ?x <rdf:type> <ub:Course> . }")),
    ])
    .to_string();
    let mut members: Vec<&str> = picked.iter().map(|(body, _)| body.as_str()).collect();
    members.insert(2, &unknown);
    let mut client = HttpClient::connect(addr).unwrap();
    let resp = client
        .post_json("/query_batch", &format!("{{\"queries\":[{}]}}", members.join(",")))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let body = resp.json().unwrap();
    let results = body.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), 5);
    let code = results[2].get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
    assert_eq!(code, Some("unknown_vertex"), "{}", results[2]);
    let answers: Vec<_> =
        [0, 1, 3, 4].iter().map(|&i| results[i].get("answer").and_then(Json::as_bool)).collect();
    let expected: Vec<_> = picked.iter().map(|(_, e)| Some(*e)).collect();
    assert_eq!(answers, expected, "batch answers out of input order");
    assert_eq!(metrics.batched_queries_total.get(), sent + 5);
    assert_eq!(metrics.queue_depth.get(), 0);
    server.shutdown();
}

#[test]
fn overload_sheds_with_retry_after_and_drains_on_shutdown() {
    let engine = Arc::new(LscrEngine::new(small_lubm(7)));
    // Zero workers: admitted queries wait for a slot forever, so the
    // depth is fully deterministic.
    let config = ServerConfig {
        batch: BatchConfig { workers: 0, queue_high_water: 2, ..Default::default() },
        ..Default::default()
    };
    let server = serve(Arc::clone(&engine), config).unwrap();
    let addr = server.addr();
    let g = engine.graph();
    let body = {
        let some_vertex = g.vertex_name(VertexId(0)).to_owned();
        Json::Obj(vec![
            ("source".into(), Json::str(&some_vertex)),
            ("target".into(), Json::str(&some_vertex)),
            ("constraint".into(), Json::str("SELECT ?x WHERE { ?x <rdf:type> <ub:Course> . }")),
        ])
        .to_string()
    };

    let metrics = Arc::clone(server.metrics());
    std::thread::scope(|scope| {
        // Two queries wait at the high water and block.
        let blocked: Vec<_> = (0..2)
            .map(|_| {
                let body = &body;
                scope.spawn(move || {
                    let mut c = HttpClient::connect(addr).unwrap();
                    c.post_json("/query", body).unwrap()
                })
            })
            .collect();
        while metrics.queue_depth.get() < 2 {
            std::thread::sleep(Duration::from_millis(2));
        }

        // The next query is shed with 429 + Retry-After.
        let mut c = HttpClient::connect(addr).unwrap();
        let resp = c.post_json("/query", &body).unwrap();
        assert_eq!(resp.status, 429, "{}", resp.body);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(
            resp.json().unwrap().get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
            Some("overloaded")
        );

        // A batch larger than the high water could not fit an empty
        // queue either: refused for good, with no invitation to retry.
        let resp = c
            .post_json("/query_batch", &format!("{{\"queries\":[{body},{body},{body}]}}"))
            .unwrap();
        assert_eq!(resp.status, 413, "{}", resp.body);
        assert_eq!(resp.header("retry-after"), None);
        assert!(resp.body.contains("\"batch_too_large\""), "{}", resp.body);

        // Shutdown drains the admitted-but-unanswered queries with 503.
        server.shutdown();
        for h in blocked {
            let resp = h.join().unwrap();
            assert_eq!(resp.status, 503, "{}", resp.body);
            assert_eq!(
                resp.json()
                    .unwrap()
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some("draining")
            );
        }
    });
    assert_eq!(metrics.shed_queue_full_total.get(), 1);
    assert_eq!(metrics.shed_draining_total.get(), 2);
}

#[test]
fn durable_server_gates_readiness_and_survives_restart() {
    use kgreach::{DurableEngine, FsyncPolicy, WalConfig};
    use kgreach_serve::serve_gated;

    let dir = std::env::temp_dir().join(format!("kgserve-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_config = WalConfig { fsync: FsyncPolicy::Batch, ..Default::default() };

    // Phase 1: bind before replay. Data endpoints shed with a typed 503,
    // /healthz reports "recovering", /metrics stays observable.
    let recovery =
        DurableEngine::recover(&dir, wal_config.clone(), || Ok(LscrEngine::new(small_lubm(3))))
            .unwrap();
    let server = serve_gated(recovery.engine(), ServerConfig::default()).unwrap();
    let addr = server.addr();
    assert!(!server.ready());
    let mut c = HttpClient::connect(addr).unwrap();
    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 503, "{}", health.body);
    assert!(health.body.contains("\"recovering\""), "{}", health.body);
    assert_eq!(health.header("retry-after"), Some("1"));
    let shed = c.post_json("/update", r#"{"ops":[]}"#).unwrap();
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert_eq!(
        shed.json().unwrap().get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("recovering")
    );
    assert_eq!(c.get("/metrics").unwrap().status, 200);

    // Phase 2: replay finishes, the wrapper is installed, doors open.
    let (durable, report) = recovery.replay().unwrap();
    assert_eq!(report.replayed, 0);
    server.install_durable(Arc::new(durable));
    assert!(server.ready());
    assert_eq!(c.get("/healthz").unwrap().status, 200);

    // A durable update acknowledges with its log sequence number; the
    // batch fsync policy means `durable` flips true only on sync points,
    // so just check the field is present and boolean.
    let resp = c
        .post_json(
            "/update",
            r#"{"ops":[{"op":"insert","subject":"d-s","predicate":"d-p","object":"d-o"}]}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let body = resp.json().unwrap();
    assert_eq!(body.get("seq").and_then(Json::as_u64), Some(1), "{}", resp.body);
    assert!(matches!(body.get("durable"), Some(Json::Bool(_))), "{}", resp.body);

    // A no-op re-insert is acknowledged without consuming a sequence.
    let resp = c
        .post_json(
            "/update",
            r#"{"ops":[{"op":"insert","subject":"d-s","predicate":"d-p","object":"d-o"}]}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let body = resp.json().unwrap();
    assert!(matches!(body.get("seq"), Some(Json::Null)), "{}", resp.body);
    assert_eq!(body.get("durable"), Some(&Json::Bool(true)), "{}", resp.body);

    // The WAL counters surface on /metrics only for durable servers.
    let metrics = c.get("/metrics").unwrap();
    assert!(metrics.body.contains("kg_wal_appends_total 1"), "{}", metrics.body);
    assert!(metrics.body.contains("kg_wal_last_seq 1"), "{}", metrics.body);
    assert!(metrics.body.contains("kg_checkpoints_total 0"), "{}", metrics.body);

    // Graceful shutdown flushes and checkpoints; the next start replays
    // nothing but still serves the update.
    drop(c);
    server.shutdown();
    let (durable, report) = DurableEngine::open(&dir, wal_config, || {
        panic!("init must not rerun on a populated data dir")
    })
    .unwrap();
    assert_eq!(report.replayed, 0, "clean shutdown left nothing to replay");
    assert_eq!(report.checkpoint_seq, 1);
    assert!(durable.engine().graph().vertex_id("d-s").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

/// Each S1–S5 constraint sent in its canonical spelling and respelled
/// with newlines and tabs between its terms answers as the engine does in
/// process. A warm canonical text is answered without a parse; every
/// respelled request costs exactly one, and shares the canonical plan.
#[test]
fn respelled_constraints_answer_alike_and_only_they_are_parsed() {
    let (g, bodies) = s1_s5_wire_bodies();
    let engine = Arc::new(LscrEngine::new(g));
    let graph = engine.graph();
    let cases: Vec<(String, String, bool)> = bodies
        .iter()
        .map(|(_, body)| {
            let req = QueryRequest::parse(&Json::parse(body).unwrap()).unwrap();
            let q = req.resolve(&graph).unwrap();
            let canonical = q.constraint.sparql_text();
            let spelled = canonical.replace(' ', "\n\t");
            assert_ne!(spelled, canonical);
            assert_eq!(SubstructureConstraint::parse(&spelled).unwrap(), q.constraint);
            let respelled =
                body.replace(&Json::str(canonical).to_string(), &Json::str(spelled).to_string());
            assert_ne!(&respelled, body);
            // In process first: this warms the plan cache with all five.
            let expected = answer(&engine, &q, Algorithm::Auto).unwrap().answer;
            (body.clone(), respelled, expected)
        })
        .collect();
    assert_eq!(engine.cached_plans(), 5);

    let server = serve(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let parses = || server.metrics().constraint_parses_total.get();
    let mut c = HttpClient::connect(server.addr()).unwrap();
    let mut answer = |body: &str| {
        let resp = c.post_json("/query", body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        resp.json().unwrap().get("answer").and_then(Json::as_bool)
    };
    for round in 0..2u64 {
        for (i, (canonical, respelled, expected)) in cases.iter().enumerate() {
            let before = parses();
            assert_eq!(answer(canonical), Some(*expected), "{canonical}");
            assert_eq!(
                parses(),
                before,
                "round {round}, S{}: a warm canonical text was parsed",
                i + 1
            );
            assert_eq!(answer(respelled), Some(*expected), "{respelled}");
            assert_eq!(parses(), before + 1, "round {round}, S{}: one parse per respelling", i + 1);
        }
    }
    assert_eq!(parses(), 10);
    assert_eq!(engine.cached_plans(), 5, "a respelling shares its canonical plan");
    let exposition = c.get("/metrics").unwrap().body;
    assert!(exposition.contains("kg_constraint_parses_total 10\n"), "{exposition}");
    server.shutdown();
}

/// Errors keep their order and texts now that the constraint is parsed
/// after the names resolve, inside the plan lookup: an unknown vertex
/// outranks an unparseable constraint, and so does an unknown label; a bad
/// constraint alone is `422 bad_constraint` with the parser's message.
/// Batch members report the same envelopes in place.
#[test]
fn resolution_errors_keep_their_order_and_messages() {
    let engine = Arc::new(LscrEngine::new(small_lubm(7)));
    let g = engine.graph();
    let vertex = g.vertex_name(VertexId(0)).to_owned();
    let bad = "SELECT nonsense";
    let parse_error = SubstructureConstraint::parse(bad).unwrap_err().to_string();
    let body = |source: &str, label: &str, constraint: &str| {
        Json::Obj(vec![
            ("source".into(), Json::str(source)),
            ("target".into(), Json::str(&vertex)),
            ("labels".into(), Json::Arr(vec![Json::str(label)])),
            ("constraint".into(), Json::str(constraint)),
        ])
        .to_string()
    };
    let cases = [
        (body("nope", "rdf:type", bad), 404, "unknown_vertex", "vertex 'nope' is not in the graph"),
        (body(&vertex, "sings", bad), 422, "unknown_label", "label 'sings' is not in the graph"),
        (body(&vertex, "rdf:type", bad), 422, "bad_constraint", parse_error.as_str()),
    ];
    let server = serve(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut c = HttpClient::connect(server.addr()).unwrap();
    let envelope = |j: &Json| {
        let e = j.get("error").unwrap();
        let field = |k| e.get(k).and_then(Json::as_str).unwrap().to_owned();
        (field("code"), field("message"))
    };
    for (body, status, code, message) in &cases {
        let resp = c.post_json("/query", body).unwrap();
        assert_eq!(resp.status, *status, "{}", resp.body);
        assert_eq!(envelope(&resp.json().unwrap()), (code.to_string(), message.to_string()));
    }
    let members: Vec<&str> = cases.iter().map(|(body, ..)| body.as_str()).collect();
    let resp =
        c.post_json("/query_batch", &format!("{{\"queries\":[{}]}}", members.join(","))).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let results = resp.json().unwrap();
    let results = results.get("results").and_then(Json::as_array).unwrap();
    for (result, (_, _, code, message)) in results.iter().zip(&cases) {
        assert_eq!(envelope(result), (code.to_string(), message.to_string()));
    }
    assert_eq!(server.metrics().constraint_parses_total.get(), 0, "failed parses are errors");
    server.shutdown();
}

/// The tree-building renderer the served path replaced, kept as the
/// reference the written response text must match byte for byte.
fn reference_render(g: &Graph, out: &QueryOutcome) -> Json {
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
    let witness = |w: &Witness| {
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
    };
    Json::Obj(vec![
        ("answer".into(), Json::Bool(out.answer)),
        ("interrupted".into(), Json::Bool(out.interrupted)),
        ("elapsed_ns".into(), Json::u64(out.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64)),
        ("algorithm".into(), out.stats.algorithm.map_or(Json::Null, |a| Json::str(a.name()))),
        ("stats".into(), stats),
        ("witness".into(), out.witness.as_ref().map_or(Json::Null, witness)),
    ])
}

/// `text` with every `elapsed_ns` value replaced by `0`.
fn mask_elapsed(text: &str) -> String {
    const KEY: &str = "\"elapsed_ns\":";
    let (mut out, mut rest) = (String::with_capacity(text.len()), text);
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        out.push('0');
        rest = rest[at + KEY.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Served response bodies are byte for byte what the replaced tree
/// renderer wrote for the same outcome (`elapsed_ns` masked): the S1–S5
/// narrow bodies, true answers with witnesses under every algorithm a
/// client can force, `vsg_size` null and set, false answers, interrupted
/// answers, and a `/query_batch` whose middle member fails in place.
#[test]
fn written_responses_match_the_tree_renderer_byte_for_byte() {
    let (g, bodies) = s1_s5_wire_bodies();
    let engine = Arc::new(LscrEngine::new(g));
    let graph = engine.graph();
    let oracle = |q: &LscrQuery| answer(&engine, q, Algorithm::Oracle).unwrap().answer;
    let draws = lubm_draws(&graph, 200, 11);
    let (trues, falses): (Vec<&LscrQuery>, Vec<&LscrQuery>) = draws.iter().partition(|q| oracle(q));
    assert!(trues.len() >= 5 && falses.len() >= 5, "{} true, {} false", trues.len(), falses.len());

    // (body, query, algorithm, options) — what is sent, and what the
    // engine is asked in process for the reference.
    let mut cases: Vec<(String, LscrQuery, Algorithm, QueryOptions)> = Vec::new();
    for (_, body) in &bodies {
        let q = QueryRequest::parse(&Json::parse(body).unwrap()).unwrap().resolve(&graph).unwrap();
        cases.push((body.clone(), q, Algorithm::Auto, QueryOptions::default()));
    }
    let witness = QueryOptions::default().with_witness(true);
    let forced = [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Oracle];
    for q in &trues[..5] {
        for alg in forced.into_iter().chain([Algorithm::Auto]) {
            cases.push((wire_body(&graph, q, alg, &witness), (*q).clone(), alg, witness.clone()));
        }
        let zero = QueryOptions::default().with_step_budget(0);
        cases.push((
            wire_body(&graph, q, Algorithm::Auto, &zero),
            (*q).clone(),
            Algorithm::Auto,
            zero,
        ));
    }
    for q in &falses[..5] {
        let opts = QueryOptions::default();
        cases.push((
            wire_body(&graph, q, Algorithm::Auto, &opts),
            (*q).clone(),
            Algorithm::Auto,
            opts,
        ));
    }

    let server = serve(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut c = HttpClient::connect(server.addr()).unwrap();
    let mut post = |path: &str, body: &str| {
        let resp = c.post_json(path, body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        resp.body
    };
    let reference = |(_, q, alg, opts): &(String, LscrQuery, Algorithm, QueryOptions)| {
        let compiled = engine.compile(q).unwrap();
        reference_render(
            &graph,
            &engine.session().answer_compiled(&graph, &compiled, *alg, opts).unwrap(),
        )
    };
    // Two warm passes fill every memo a case touches, so from here on a
    // served and an in-process answer count the same cache hits.
    for _ in 0..2 {
        for case in &cases {
            post("/query", &case.0);
            reference(case);
        }
    }
    let mut served = Vec::new();
    for case in &cases {
        let text = post("/query", &case.0);
        assert_eq!(mask_elapsed(&text), mask_elapsed(&reference(case).to_string()), "{}", case.0);
        served.push(text);
    }
    let seen = |needle: &str| served.iter().filter(|t| t.contains(needle)).count();
    for needle in
        ["\"witness\":{\"via\"", "\"interrupted\":true", "\"vsg_size\":null", "\"answer\":false"]
    {
        assert!(seen(needle) > 0, "no served case carries {needle}");
    }
    assert!(seen("\"vsg_size\":null") < served.len(), "no served case sets vsg_size");
    for alg in ["\"UIS\"", "\"UIS*\"", "\"INS\"", "\"oracle\""] {
        assert!(seen(&format!("\"algorithm\":{alg}")) > 0, "no served case ran {alg}");
    }

    // A batch whose middle member fails: the failure's envelope sits in
    // place between its batchmates' answers.
    let unknown = Json::Obj(vec![
        ("source".into(), Json::str("no-such-vertex")),
        ("target".into(), Json::str("no-such-vertex")),
        ("constraint".into(), Json::str("SELECT ?x WHERE { ?x <rdf:type> <ub:Course> . }")),
    ])
    .to_string();
    let (first, last) = (&cases[5], &cases[cases.len() - 1]);
    let members = [first.0.as_str(), unknown.as_str(), last.0.as_str()];
    let text = post("/query_batch", &format!("{{\"queries\":[{}]}}", members.join(",")));
    let envelope = Json::Obj(vec![(
        "error".into(),
        Json::Obj(vec![
            ("code".into(), Json::str("unknown_vertex")),
            ("message".into(), Json::str("vertex 'no-such-vertex' is not in the graph")),
        ]),
    )]);
    let results = Json::Arr(vec![reference(first), envelope, reference(last)]);
    let expected = Json::Obj(vec![("results".into(), results)]).to_string();
    assert_eq!(mask_elapsed(&text), mask_elapsed(&expected));
    server.shutdown();
}
