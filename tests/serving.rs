//! End-to-end serving tests over real loopback sockets.
//!
//! Four batteries, mirroring the serving layer's promises:
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
//!    epoch advancing and every worker surviving.
//! 4. **Overload**: past the admission high water the server sheds with
//!    `429` + `Retry-After`, and shutdown drains admitted work with
//!    `503`.

use kgreach::{Algorithm, LscrEngine, LscrQuery, QueryOptions};
use kgreach_datagen::constraints::{s1, s3};
use kgreach_graph::VertexId;
use kgreach_integration::matrix::{s1_s3, wire_body, workload, Form, Matrix, Run, ALGORITHMS};
use kgreach_integration::small_lubm;
use kgreach_serve::{serve, BatchConfig, HttpClient, HttpLimits, Json, ServerConfig};
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
/// a query resolved or compiled against the large graph carries vertex
/// ids the small one does not have. The rebind inside the engine must
/// surface that as a typed error the batcher retries on — a panic there
/// kills the worker thread (`500 worker dropped the query`, and with it
/// every later query of a one-worker server).
#[test]
fn shrinking_reload_under_query_load_never_loses_a_worker() {
    // Large enough that a local-index build takes milliseconds.
    let lubm = kgreach_datagen::LubmConfig::sized(12_000, 42);
    let engine = Arc::new(LscrEngine::new(kgreach_datagen::lubm::generate(&lubm).unwrap()));
    let graph = engine.graph();

    let dir = std::env::temp_dir().join(format!("kgreach-serving-shrink-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Saved without a local index: after every reload of `big` the first
    // INS query builds one, and a reload arriving meanwhile queues on
    // the engine's update lock and lands the moment the build ends —
    // between that query's compile and its search, every time.
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
                            matches!(resp.status, 200 | 404 | 422 | 503),
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
    // one worker is still there to answer.
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

#[test]
fn overload_sheds_with_retry_after_and_drains_on_shutdown() {
    let engine = Arc::new(LscrEngine::new(small_lubm(7)));
    // Zero workers: admitted queries sit in the queue forever, so the
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
        // Two queries fill the queue to its high water and block.
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
