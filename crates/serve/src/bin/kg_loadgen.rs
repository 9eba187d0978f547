//! `kg-loadgen` — drive load at a `kg-serve` instance and record serving
//! benchmarks.
//!
//! By default the generator is self-contained: it builds a LUBM replica,
//! spins up an in-process server on an ephemeral port, and drives
//! ground-truth-checked query load at it over real sockets (so the
//! measured path includes framing, admission and the search slots —
//! only true network latency is absent). Point `--addr` at an external
//! `kg-serve` started with the *same* generator flags to measure over a
//! real link.
//!
//! Every (constraint × concurrency) combination produces one result row;
//! with `--out` (default `bench-results/BENCH_serving.json`) the rows are
//! written in the workspace bench JSON shape validated by
//! `check_bench_json`. Any wire error or ground-truth mismatch fails the
//! run — the load generator doubles as an end-to-end correctness check —
//! and so does a `/metrics` scrape, taken once after the load, that does
//! not read `kg_panics_total 0`, or whose `kg_constraint_parses_total`
//! exceeds distinct constraints × the highest concurrency (the bodies
//! carry canonical constraint text, so warm requests must not parse it).
//!
//! Flags: `--universities`, `--departments`, `--seed` (dataset);
//! `--queries N` per combination; `--concurrency "2,8"`; `--rate QPS`
//! for open-loop pacing (default closed-loop); `--algorithm
//! uis|uis*|ins|auto`; `--batch N` to add `/query_batch` rows with
//! windows of `N`; `--addr HOST:PORT` for an external server; `--out
//! PATH` (empty to skip writing). An unknown flag or a malformed value
//! exits with status 2, naming the flag, before anything runs or is
//! written.
//!
//! Back-pressure: a `429`/`503` answer is not a failure — the request is
//! retried with capped exponential backoff (honoring the server's
//! `Retry-After` hint, with deterministic jitter to avoid thundering
//! herds), and only a request still shed after [`MAX_RETRIES`] attempts
//! counts in the `shed` column. Retries get their own column so sustained
//! overload is visible even when every query eventually lands.
//!
//! Chaos mode: `--update-stream N --addr HOST:PORT` switches from query
//! load to an acknowledged-update stream against a durable server —
//! each single-edge batch is resent through connection drops and
//! `recovering` windows until acknowledged, which makes it a harness for
//! crash-injection experiments (kill the server mid-stream, restart it,
//! and verify every acknowledged sequence number survived).

use kgreach::{Algorithm, Graph, LscrEngine, SubstructureConstraint};
use kgreach_datagen::constraints::{s1, s2, s3};
use kgreach_datagen::lubm::{self, LubmConfig};
use kgreach_datagen::queries::{generate_workload, QueryGenConfig};
use kgreach_graph::{fsio, GraphError};
use kgreach_serve::cli::{parses, Args, Flags};
use kgreach_serve::protocol::parse_algorithm;
use kgreach_serve::{serve, HttpClient, HttpResponse, Json, ServerConfig};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Attempts per query before a shed answer is recorded as `shed`.
const MAX_RETRIES: u32 = 5;
/// First backoff step; doubles per attempt.
const BASE_BACKOFF: Duration = Duration::from_millis(10);
/// Ceiling on any single backoff sleep, including `Retry-After` hints
/// (a load generator cannot honor multi-second hints literally).
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// One wire query with its ground truth.
#[derive(Clone)]
struct WireQuery {
    body: String,
    expected: bool,
}

/// Latency samples and error tallies from one thread.
#[derive(Default)]
struct ThreadResult {
    latencies_ns: Vec<u64>,
    wire_errors: usize,
    mismatches: usize,
    shed: usize,
    retries: usize,
}

/// xorshift64* step — deterministic jitter without an RNG dependency.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Backoff before retry number `attempt` (0-based): the server's
/// `Retry-After` hint when given, else `BASE_BACKOFF * 2^attempt`, capped
/// at `MAX_BACKOFF` and scaled by a jitter factor in `[0.5, 1.0]`.
fn backoff_delay(attempt: u32, resp: &HttpResponse, rng: &mut u64) -> Duration {
    let hinted = resp
        .header("retry-after")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_secs);
    let exponential = BASE_BACKOFF.saturating_mul(1u32 << attempt.min(16));
    let jitter = 0.5 + (next_rand(rng) >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
    hinted.unwrap_or(exponential).min(MAX_BACKOFF).mul_f64(jitter)
}

fn build_wire_queries(
    g: &Graph,
    constraint: &SubstructureConstraint,
    per_side: usize,
    seed: u64,
    algorithm: &str,
) -> Vec<WireQuery> {
    let w = generate_workload(
        g,
        constraint,
        &QueryGenConfig {
            num_true: per_side,
            num_false: per_side,
            seed,
            max_attempts: per_side * 4_000,
            enforce_difficulty: true,
        },
    );
    let mut out = Vec::with_capacity(w.true_queries.len() + w.false_queries.len());
    for gq in w.true_queries.iter().chain(&w.false_queries) {
        let labels: Vec<Json> =
            gq.query.label_constraint.iter().map(|l| Json::str(g.label_name(l))).collect();
        let body = Json::Obj(vec![
            ("source".into(), Json::str(g.vertex_name(gq.query.source))),
            ("target".into(), Json::str(g.vertex_name(gq.query.target))),
            ("labels".into(), Json::Arr(labels)),
            ("constraint".into(), Json::str(gq.query.constraint.sparql_text())),
            ("algorithm".into(), Json::str(algorithm)),
        ]);
        out.push(WireQuery { body: body.to_string(), expected: gq.expected });
    }
    // Interleave true/false deterministically so every thread's slice
    // mixes both.
    out.sort_by_key(|q| q.body.len() % 7);
    out
}

/// Runs `queries` against `addr` on `concurrency` connections; `rate`
/// (whole-run QPS) > 0 switches from closed-loop to open-loop pacing.
fn run_combination(
    addr: std::net::SocketAddr,
    queries: &[WireQuery],
    concurrency: usize,
    rate: f64,
) -> (Vec<ThreadResult>, Duration) {
    let started = Instant::now();
    let results: Vec<ThreadResult> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(concurrency);
        for lane in 0..concurrency {
            let slice: Vec<&WireQuery> = queries.iter().skip(lane).step_by(concurrency).collect();
            handles.push(scope.spawn(move || {
                let mut r = ThreadResult::default();
                let mut client = match HttpClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => {
                        r.wire_errors = slice.len();
                        return r;
                    }
                };
                let lane_interval =
                    (rate > 0.0).then(|| Duration::from_secs_f64(concurrency as f64 / rate));
                let mut next_send = Instant::now();
                let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ ((lane as u64 + 1) << 32);
                for q in slice {
                    if let Some(interval) = lane_interval {
                        let now = Instant::now();
                        if next_send > now {
                            std::thread::sleep(next_send - now);
                        }
                        next_send += interval;
                    }
                    let mut attempt = 0u32;
                    loop {
                        // Time each attempt separately: a recorded latency
                        // never includes backoff sleeps.
                        let sent = Instant::now();
                        match client.post_json("/query", &q.body) {
                            Ok(resp) if resp.status == 200 => {
                                r.latencies_ns.push(
                                    sent.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                                );
                                let answer = resp
                                    .json()
                                    .ok()
                                    .and_then(|j| j.get("answer").and_then(Json::as_bool));
                                if answer != Some(q.expected) {
                                    r.mismatches += 1;
                                }
                                break;
                            }
                            Ok(resp) if resp.status == 429 || resp.status == 503 => {
                                if attempt >= MAX_RETRIES {
                                    r.shed += 1;
                                    break;
                                }
                                std::thread::sleep(backoff_delay(attempt, &resp, &mut rng));
                                r.retries += 1;
                                attempt += 1;
                            }
                            Ok(_) => {
                                r.wire_errors += 1;
                                break;
                            }
                            Err(_) => {
                                r.wire_errors += 1;
                                // The connection may be gone; reconnect.
                                if let Ok(c) = HttpClient::connect(addr) {
                                    client = c;
                                }
                                break;
                            }
                        }
                    }
                }
                r
            }));
        }
        handles.into_iter().map(|h| h.join().expect("load thread")).collect()
    });
    (results, started.elapsed())
}

/// Runs the `/query_batch` variant: windows of `batch` queries per
/// request on one connection.
fn run_batched(
    addr: std::net::SocketAddr,
    queries: &[WireQuery],
    batch: usize,
) -> (Vec<ThreadResult>, Duration) {
    let started = Instant::now();
    let mut r = ThreadResult::default();
    let mut client = HttpClient::connect(addr).expect("connect");
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    for chunk in queries.chunks(batch) {
        let body = format!(
            "{{\"queries\":[{}]}}",
            chunk.iter().map(|q| q.body.as_str()).collect::<Vec<_>>().join(",")
        );
        let mut attempt = 0u32;
        loop {
            let sent = Instant::now();
            match client.post_json("/query_batch", &body) {
                Ok(resp) if resp.status == 200 => {
                    let per_query =
                        (sent.elapsed().as_nanos() / chunk.len() as u128).min(u128::from(u64::MAX));
                    let results = resp.json().ok().and_then(|j| {
                        j.get("results").and_then(|r| r.as_array().map(|a| a.to_vec()))
                    });
                    match results {
                        Some(items) if items.len() == chunk.len() => {
                            for (item, q) in items.iter().zip(chunk) {
                                r.latencies_ns.push(per_query as u64);
                                if item.get("answer").and_then(Json::as_bool) != Some(q.expected) {
                                    r.mismatches += 1;
                                }
                            }
                        }
                        _ => r.wire_errors += chunk.len(),
                    }
                    break;
                }
                Ok(resp) if resp.status == 429 || resp.status == 503 => {
                    if attempt >= MAX_RETRIES {
                        r.shed += chunk.len();
                        break;
                    }
                    std::thread::sleep(backoff_delay(attempt, &resp, &mut rng));
                    r.retries += 1;
                    attempt += 1;
                }
                _ => {
                    r.wire_errors += chunk.len();
                    break;
                }
            }
        }
    }
    (vec![r], started.elapsed())
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn summarize(
    name: String,
    results: Vec<ThreadResult>,
    elapsed: Duration,
    rows: &mut Vec<Json>,
    total_mismatches: &mut usize,
    total_wire_errors: &mut usize,
) {
    let mut latencies: Vec<u64> = Vec::new();
    let (mut wire_errors, mut mismatches, mut shed, mut retries) = (0usize, 0usize, 0usize, 0usize);
    for r in results {
        latencies.extend(r.latencies_ns);
        wire_errors += r.wire_errors;
        mismatches += r.mismatches;
        shed += r.shed;
        retries += r.retries;
    }
    latencies.sort_unstable();
    let answered = latencies.len();
    let median = percentile(&latencies, 0.5);
    let p99 = percentile(&latencies, 0.99);
    let qps = answered as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "| {name} | {answered} | {:.1} | {:.1} | {:.1} | {qps:.0} | {wire_errors} | {mismatches} | {shed} | {retries} |",
        median as f64 / 1e3,
        percentile(&latencies, 0.95) as f64 / 1e3,
        p99 as f64 / 1e3,
    );
    *total_mismatches += mismatches;
    *total_wire_errors += wire_errors;
    if answered == 0 {
        return; // nothing to report; failure is tallied above
    }
    rows.push(Json::Obj(vec![
        ("name".into(), Json::str(&name)),
        ("median_ns".into(), Json::u64(median.max(1))),
        ("p95_ns".into(), Json::u64(percentile(&latencies, 0.95))),
        ("p99_ns".into(), Json::u64(p99)),
        ("throughput_qps".into(), Json::num(qps)),
        ("queries".into(), Json::usize(answered)),
        ("wire_errors".into(), Json::usize(wire_errors)),
        ("answer_mismatches".into(), Json::usize(mismatches)),
        ("shed".into(), Json::usize(shed)),
        ("retries".into(), Json::usize(retries)),
    ]));
}

/// Chaos mode: streams `count` acknowledged single-edge updates at a
/// (presumably durable) external server, riding through connection drops
/// and `recovering` windows. Each batch is resent until acknowledged —
/// at-least-once is safe because the server's no-op detection makes a
/// duplicate insert a `seq: null` acknowledgement. Prints one `ack` line
/// per update so a crash-injection harness can diff what was acknowledged
/// against what survived a restart. Returns the number acknowledged.
fn run_update_stream(addr: std::net::SocketAddr, count: usize, label: &str) -> usize {
    let mut client = HttpClient::connect(addr).ok();
    let mut acked = 0usize;
    let mut rng = 0xdead_beef_cafe_f00du64;
    'updates: for i in 0..count {
        let body = format!(
            "{{\"ops\":[{{\"op\":\"insert\",\"subject\":\"{label}-{i}\",\
             \"predicate\":\"next\",\"object\":\"{label}-{}\"}}]}}",
            i + 1
        );
        // Generous attempt budget: a restarting server can be gone for
        // seconds; chaos mode's whole point is to wait it out.
        for attempt in 0..200u32 {
            let Some(c) = client.as_mut() else {
                std::thread::sleep(Duration::from_millis(50));
                client = HttpClient::connect(addr).ok();
                continue;
            };
            match c.post_json("/update", &body) {
                Ok(resp) if resp.status == 200 => {
                    let j = resp.json().ok();
                    let seq = j.as_ref().and_then(|j| j.get("seq").and_then(Json::as_u64));
                    let durable = j
                        .as_ref()
                        .and_then(|j| j.get("durable").and_then(Json::as_bool))
                        .unwrap_or(false);
                    println!(
                        "ack {i} seq={} durable={durable}",
                        seq.map_or("null".into(), |s| s.to_string())
                    );
                    acked += 1;
                    continue 'updates;
                }
                Ok(resp) if resp.status == 429 || resp.status == 503 => {
                    std::thread::sleep(backoff_delay(attempt.min(MAX_RETRIES), &resp, &mut rng));
                }
                Ok(resp) => {
                    eprintln!("FAILED: update {i} answered {}: {}", resp.status, resp.body);
                    break 'updates;
                }
                Err(_) => {
                    client = None;
                }
            }
        }
        if acked <= i {
            eprintln!("FAILED: update {i} never acknowledged");
            break;
        }
    }
    acked
}

/// Every flag kg-loadgen reads, with the test its value must pass.
const FLAGS: &Flags = &[
    (&["out", "chaos-label"], |_| true),
    (&["addr"], parses::<std::net::SocketAddr>),
    (&["algorithm"], |v| parse_algorithm(v).is_some()),
    (&["concurrency"], |v| v.split(',').all(|n| parses::<usize>(n.trim()))),
    (&["update-stream", "universities", "departments", "queries", "batch"], parses::<usize>),
    (&["seed"], parses::<u64>),
    (&["rate"], parses::<f64>),
];

fn main() {
    let args = Args::parse(FLAGS);
    if let Some(count) = args.get_opt::<usize>("update-stream") {
        let Some(addr) = args.get_str("addr") else {
            eprintln!("error: --update-stream needs --addr HOST:PORT (an external server)");
            std::process::exit(2);
        };
        let addr = addr.parse().expect("--addr must be HOST:PORT");
        let label = args.get_str("chaos-label").unwrap_or("chaos").to_owned();
        let acked = run_update_stream(addr, count, &label);
        eprintln!("acknowledged {acked}/{count} updates");
        std::process::exit(if acked == count { 0 } else { 1 });
    }
    let universities = args.get("universities", 2usize);
    let departments = args.get("departments", 6usize);
    let seed = args.get("seed", 0xacade31au64);
    let per_side = args.get("queries", 100usize) / 2;
    let rate = args.get("rate", 0.0f64);
    let algorithm = args.get_str("algorithm").unwrap_or("auto").to_owned();
    let batch = args.get("batch", 16usize);
    let concurrency: Vec<usize> = args
        .get_str("concurrency")
        .unwrap_or("2,8")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let out_path = args.get_str("out").unwrap_or("bench-results/BENCH_serving.json").to_owned();

    eprintln!("generating LUBM ({universities} universities x {departments} departments) ...");
    let g = lubm::generate(&LubmConfig { universities, departments, seed }).expect("LUBM fits");
    eprintln!("dataset: {} vertices, {} edges", g.num_vertices(), g.num_edges());

    let constraints: Vec<(&str, SubstructureConstraint)> =
        vec![("S1", s1()), ("S2", s2()), ("S3", s3())];
    let mut workloads = Vec::new();
    for (name, c) in &constraints {
        let queries = build_wire_queries(&g, c, per_side, seed ^ 0x51ab, &algorithm);
        eprintln!("workload {name}: {} queries", queries.len());
        workloads.push((*name, queries));
    }

    // In-process server unless an external one was named. Under a forced
    // `--algorithm ins`, build the index up front so the measurements do
    // not pay the one-off build; no other algorithm reads it.
    let server = if args.get_str("addr").is_none() {
        let engine = Arc::new(LscrEngine::new(g));
        if parse_algorithm(&algorithm) == Some(Algorithm::Ins) {
            engine.local_index();
        }
        Some(serve(engine, ServerConfig::default()).expect("bind ephemeral port"))
    } else {
        None
    };
    let addr = match (args.get_str("addr"), &server) {
        (Some(a), _) => a.parse().expect("--addr must be HOST:PORT"),
        (None, Some(s)) => s.addr(),
        (None, None) => unreachable!(),
    };
    eprintln!(
        "driving load at {addr} (rate: {})\n",
        if rate > 0.0 { format!("{rate} qps open-loop") } else { "closed-loop".into() }
    );

    println!(
        "| combination | answered | p50 us | p95 us | p99 us | qps | wire_err | wrong | shed | retries |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let dataset = format!("lubm-u{universities}d{departments}");
    let mut rows = Vec::new();
    let (mut mismatches, mut wire_errors) = (0usize, 0usize);
    for (cname, queries) in &workloads {
        for &c in &concurrency {
            let (results, elapsed) = run_combination(addr, queries, c, rate);
            summarize(
                format!("serving/{dataset}/{cname}/c{c}"),
                results,
                elapsed,
                &mut rows,
                &mut mismatches,
                &mut wire_errors,
            );
        }
        if batch > 0 {
            let (results, elapsed) = run_batched(addr, queries, batch);
            summarize(
                format!("serving/{dataset}/{cname}/batch{batch}"),
                results,
                elapsed,
                &mut rows,
                &mut mismatches,
                &mut wire_errors,
            );
        }
    }

    // One scrape before shutdown, over the wire so it covers an external
    // server too: a panicking answer is a `500` the rows above already
    // count as a wire error, but the counter names the cause. Every body
    // carries its constraint's canonical text, so only a constraint's
    // first requests — at most one per connection racing to compile it —
    // may parse it; warm traffic must find the plan by text.
    let exposition =
        HttpClient::connect(addr).and_then(|mut c| c.get("/metrics")).map(|resp| resp.body);
    let exposition = exposition.unwrap_or_default();
    let counter = |name: &str| {
        exposition
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<u64>().ok())
    };
    let (panics, parses) = (counter("kg_panics_total"), counter("kg_constraint_parses_total"));
    let parse_bound = (constraints.len() * concurrency.iter().copied().max().unwrap_or(1)) as u64;

    if let Some(server) = server {
        let m = server.metrics();
        eprintln!(
            "\nserver counters: {} queries, {} search slots taken, \
             {} edges scanned, {} skipped",
            m.queries_total.get(),
            m.batched_queries_total.get(),
            m.edges_scanned_total.get(),
            m.edges_skipped_total.get(),
        );
        server.shutdown();
    }

    if !out_path.is_empty() && !rows.is_empty() {
        if let Some(dir) = std::path::Path::new(&out_path).parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        let lines: Vec<String> = rows.iter().map(|row| format!("  {row}")).collect();
        let body = format!("[\n{}\n]\n", lines.join(",\n"));
        fsio::install(out_path.as_ref(), |file| {
            Ok::<_, GraphError>(file.write_all(body.as_bytes())?)
        })
        .expect("write results");
        eprintln!("wrote {} rows to {out_path}", rows.len());
    }

    if mismatches > 0 || wire_errors > 0 {
        eprintln!("FAILED: {mismatches} ground-truth mismatches, {wire_errors} wire errors");
        std::process::exit(1);
    }
    if panics != Some(0) {
        eprintln!("FAILED: /metrics reports kg_panics_total {panics:?}, expected 0");
        std::process::exit(1);
    }
    if !parses.is_some_and(|n| n <= parse_bound) {
        eprintln!(
            "FAILED: /metrics reports kg_constraint_parses_total {parses:?}, expected at most \
             {parse_bound} (distinct constraints x highest concurrency)"
        );
        std::process::exit(1);
    }
}
