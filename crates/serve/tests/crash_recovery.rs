//! Crash-injection end-to-end test: `kill -9` a real `kg-serve` process
//! mid-update-stream, restart it on the same data directory, and verify
//! the durability contract:
//!
//! 1. every acknowledged update is present after recovery (no lost acks);
//! 2. no never-sent update materializes (no phantom records from the
//!    torn tail);
//! 3. the restarted server gates readiness while replaying and continues
//!    the log's sequence numbering where the crash left off;
//! 4. a graceful shutdown checkpoints, so the *next* start replays
//!    nothing;
//! 5. an acknowledged `/snapshot/reload` survives the crash too: the
//!    restart serves the reloaded graph plus the updates acknowledged
//!    after it, and nothing of the graph it replaced.
//!
//! The single sent-but-unacknowledged in-flight update at kill time is
//! exempt from 1 and 2 — it may legally land either way (the crash can
//! hit between WAL append and response write).

use kgreach_serve::{HttpClient, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `kg-serve --data-dir dir` on an ephemeral port and waits for
/// its listening line (printed *before* replay, so recovery progress is
/// observable over the socket).
fn spawn_server(dir: &Path) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kg-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            dir.to_str().expect("utf-8 temp path"),
            "--fsync",
            "always",
            "--universities",
            "1",
            "--departments",
            "1",
            "--workers",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn kg-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("kg-serve exited before announcing its address")
            .expect("read kg-serve stdout");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest.split_whitespace().next().expect("address token").parse().expect("addr");
        }
    };
    // Keep draining stdout on a background thread so the child never
    // blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    Server { child, addr }
}

/// Polls `/healthz` until it answers 200 (recovery finished).
fn wait_ready(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut c) = HttpClient::connect(addr) {
            match c.get("/healthz") {
                Ok(resp) if resp.status == 200 => return,
                Ok(resp) => assert_eq!(resp.status, 503, "unexpected healthz: {}", resp.body),
                Err(_) => {}
            }
        }
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn update_body(i: usize) -> String {
    format!(
        "{{\"ops\":[{{\"op\":\"insert\",\"subject\":\"crash-{i}\",\
         \"predicate\":\"next\",\"object\":\"crash-{}\"}}]}}",
        i + 1
    )
}

/// Replays `update_body(i)` as a probe: a `noop_inserts: 1` answer means
/// the edge survived, `edges_inserted: 1` means it was absent.
fn probe_present(client: &mut HttpClient, i: usize) -> bool {
    let resp = client.post_json("/update", &update_body(i)).expect("probe update");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let body = resp.json().expect("probe json");
    let noop = body.get("noop_inserts").and_then(Json::as_u64).unwrap_or(0);
    let inserted = body.get("edges_inserted").and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(noop + inserted, 1, "probe must either no-op or insert: {}", resp.body);
    noop == 1
}

/// Whether the served graph has a vertex called `name`: a query from it
/// answers `404 unknown_vertex` when it does not.
fn has_vertex(client: &mut HttpClient, name: &str) -> bool {
    let body = format!(
        "{{\"source\":\"{name}\",\"target\":\"{name}\",\"labels\":[],\
         \"constraint\":\"SELECT ?x WHERE {{ ?x <next> ?y . }}\"}}"
    );
    let resp = client.post_json("/query", &body).expect("query");
    assert!(matches!(resp.status, 200 | 404), "{}", resp.body);
    resp.status == 200
}

#[test]
fn kill_nine_after_reload_recovers_the_reloaded_graph() {
    let dir = std::env::temp_dir().join(format!("kgserve-reload-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = spawn_server(&dir);
    wait_ready(server.addr);
    let mut client = HttpClient::connect(server.addr).expect("connect");
    assert!(!probe_present(&mut client, 0), "an update before the reload");
    assert!(has_vertex(&mut client, "University0"));

    let mut b = kgreach::GraphBuilder::new();
    b.add_triple("reloaded-a", "next", "reloaded-b");
    let snapshot = dir.with_extension("kgsnap");
    kgreach::LscrEngine::new(b.build().unwrap()).save_snapshot_file(&snapshot).expect("save");
    let body = format!("{{\"path\":\"{}\"}}", snapshot.display());
    let resp = client.post_json("/snapshot/reload", &body).expect("reload");
    assert_eq!(resp.status, 200, "{}", resp.body);
    // One acknowledged update on top of the reloaded graph, then SIGKILL.
    assert!(!probe_present(&mut client, 100), "an update after the reload");
    drop(server);

    let server = spawn_server(&dir);
    wait_ready(server.addr);
    let mut client = HttpClient::connect(server.addr).expect("reconnect");
    for name in ["reloaded-a", "reloaded-b", "crash-100", "crash-101"] {
        assert!(has_vertex(&mut client, name), "{name} lost by the crash");
    }
    for name in ["University0", "crash-0", "crash-1"] {
        assert!(!has_vertex(&mut client, name), "{name} of the replaced graph came back");
    }
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&snapshot).ok();
}

#[test]
fn kill_nine_mid_update_stream_loses_no_acknowledged_update() {
    let dir = std::env::temp_dir().join(format!("kgserve-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut server = spawn_server(&dir);
    wait_ready(server.addr);

    // Stream acknowledged updates until the plug is pulled. The sender
    // records, per index, the sequence number the server acknowledged.
    let mut acked: Vec<(usize, u64)> = Vec::new();
    let mut sent = 0usize;
    let mut client = HttpClient::connect(server.addr).expect("connect");
    const KILL_AFTER: usize = 25;
    loop {
        let i = sent;
        sent += 1;
        match client.post_json("/update", &update_body(i)) {
            Ok(resp) if resp.status == 200 => {
                let body = resp.json().expect("ack json");
                assert_eq!(body.get("durable"), Some(&Json::Bool(true)), "{}", resp.body);
                let seq = body.get("seq").and_then(Json::as_u64).expect("fresh edge gets a seq");
                acked.push((i, seq));
            }
            Ok(resp) => panic!("update {i} answered {}: {}", resp.status, resp.body),
            Err(_) => break, // the kill landed mid-request
        }
        if acked.len() == KILL_AFTER {
            // SIGKILL: no drop handlers, no flush, no checkpoint.
            server.child.kill().expect("kill -9");
        }
    }
    assert!(acked.len() >= KILL_AFTER, "kill fired after {KILL_AFTER} acks");
    assert!(acked.windows(2).all(|w| w[0].1 < w[1].1), "acked seqs strictly increase");
    let max_acked_seq = acked.last().expect("acked something").1;
    let acked_idx: Vec<usize> = acked.iter().map(|&(i, _)| i).collect();
    // At most one update can be in flight (serial sender): the last sent.
    let in_flight = sent - 1;
    drop(server);

    // Restart on the same directory: recovery replays the log (tolerating
    // whatever torn tail the kill left) before the doors open.
    let server = spawn_server(&dir);
    wait_ready(server.addr);
    let mut client = HttpClient::connect(server.addr).expect("reconnect");

    // 1. Every acknowledged update survived.
    for &i in &acked_idx {
        assert!(probe_present(&mut client, i), "acknowledged update {i} lost by the crash");
    }
    // 2. Nothing beyond the in-flight frontier materialized.
    for i in (in_flight + 1)..(in_flight + 4) {
        assert!(!probe_present(&mut client, i), "phantom update {i} appeared");
    }
    // (The single in-flight update `in_flight` may have landed either way.)

    // 3. Sequence numbering continued past everything acknowledged: the
    //    probes above were no-ops for acked edges (unlogged) but real
    //    inserts for the phantom probes, so the latest seq moved on.
    let resp = client.post_json("/update", &update_body(sent + 10)).expect("fresh update");
    let body = resp.json().expect("json");
    let fresh_seq = body.get("seq").and_then(Json::as_u64).expect("fresh edge gets a seq");
    assert!(fresh_seq > max_acked_seq, "seq {fresh_seq} regressed below {max_acked_seq}");

    // Recovery surfaced its numbers on /metrics.
    let metrics = client.get("/metrics").expect("metrics");
    assert!(metrics.body.contains("kg_recovery_replayed_records"), "{}", metrics.body);

    // 4. Graceful shutdown (stdin protocol) flushes + checkpoints ...
    let mut server = server;
    server.child.stdin.as_mut().expect("piped stdin").write_all(b"shutdown\n").expect("request");
    let status = server.child.wait().expect("wait");
    assert!(status.success(), "graceful shutdown exits 0");

    // ... so the next start replays nothing and still has every edge.
    let server = spawn_server(&dir);
    wait_ready(server.addr);
    let mut client = HttpClient::connect(server.addr).expect("reconnect");
    let metrics = client.get("/metrics").expect("metrics");
    assert!(
        metrics.body.contains("kg_recovery_replayed_records 0"),
        "clean shutdown must leave nothing to replay:\n{}",
        metrics.body
    );
    for &i in &acked_idx {
        assert!(probe_present(&mut client, i), "update {i} lost across graceful restart");
    }
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
