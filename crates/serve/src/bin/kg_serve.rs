//! `kg-serve` — serve an LSCR engine over HTTP.
//!
//! ```text
//! kg-serve --snapshot engine.kgsnap --addr 127.0.0.1:7468
//! kg-serve --universities 2 --departments 6          # generated LUBM
//! kg-serve --data-dir /var/lib/kgreach --fsync always  # durable updates
//! ```
//!
//! Flags (all optional; see `docs/OPERATIONS.md` for tuning guidance):
//!
//! - `--addr HOST:PORT` — bind address (default `127.0.0.1:7468`).
//! - `--snapshot PATH` — serve the graph of an engine snapshot saved by
//!   `LscrEngine::save_snapshot_file`. A snapshot holds no index; a
//!   client that forces `"algorithm": "ins"` builds one on first use.
//!   Without it, a LUBM replica is generated from
//!   `--universities`/`--departments`/`--seed`.
//! - `--data-dir PATH` — durable mode: recover from the directory's
//!   checkpoint + write-ahead log at startup (the socket binds first and
//!   `/healthz` answers `503 recovering` until replay finishes), and
//!   write-ahead log every `/update` before acknowledging it. On a fresh
//!   directory the initial state comes from `--snapshot` or the LUBM
//!   generator, exactly as in non-durable mode.
//! - `--fsync always|batch|off` — WAL fsync policy (default `always`;
//!   durable mode only).
//! - `--wal-checkpoint-bytes N` — roll a checkpoint and truncate the log
//!   once it exceeds `N` bytes (default 64 MiB; durable mode only).
//! - `--workers N` (searches that may run at once, each on the
//!   connection thread that read its request), `--queue-high-water N`
//!   (threads waiting for a search slot before new queries are shed),
//!   `--max-connections N` — admission tuning.
//! - `--max-step-budget N`, `--max-timeout-ms N` — per-query work
//!   ceilings (`0` disables the ceiling).
//!
//! An unknown flag, a flag without a value, or a value that does not
//! parse exits with status 2, naming the flag, before anything is bound
//! or created.
//!
//! Writing `shutdown` on stdin triggers a graceful shutdown (drain, then
//! in durable mode flush + checkpoint). Any other termination is treated
//! as a crash — safe in durable mode, where recovery replays the log.

use kgreach::{DurableEngine, FsyncPolicy, LscrEngine, WalConfig};
use kgreach_datagen::lubm;
use kgreach_serve::cli::{parses, Args, Flags};
use kgreach_serve::{serve, serve_gated, BatchConfig, ServerConfig, ServerHandle};
use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

/// Every flag kg-serve reads, with the test its value must pass.
const FLAGS: &Flags = &[
    (&["addr", "snapshot", "data-dir"], |_| true),
    (&["fsync"], |v| FsyncPolicy::parse(v).is_some()),
    (&["wal-checkpoint-bytes", "max-step-budget", "max-timeout-ms", "seed"], parses::<u64>),
    (&["workers", "queue-high-water", "max-connections"], parses::<usize>),
    (&["universities", "departments"], parses::<usize>),
];

fn build_engine(args: &Args) -> LscrEngine {
    match args.get_str("snapshot") {
        Some(path) => {
            eprintln!("loading engine snapshot from {path} ...");
            or_exit(LscrEngine::from_snapshot_file(path), &format!("cannot load snapshot {path}"))
        }
        None => {
            let config = lubm::LubmConfig {
                universities: args.get("universities", 2),
                departments: args.get("departments", 6),
                seed: args.get("seed", 0xacade31au64),
            };
            eprintln!(
                "no --snapshot given; generating LUBM ({} universities x {} departments) ...",
                config.universities, config.departments
            );
            let g = lubm::generate(&config).expect("LUBM generation fits the label budget");
            LscrEngine::new(g)
        }
    }
}

fn main() {
    let args = Args::parse(FLAGS);
    let defaults = BatchConfig::default();
    let max_step_budget = match args.get("max-step-budget", defaults.max_step_budget.unwrap_or(0)) {
        0 => None,
        n => Some(n),
    };
    let max_timeout = match args
        .get("max-timeout-ms", defaults.max_timeout.map_or(0, |t| t.as_millis() as u64))
    {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let config = ServerConfig {
        addr: args.get_str("addr").unwrap_or("127.0.0.1:7468").to_owned(),
        batch: BatchConfig {
            workers: args.get("workers", defaults.workers),
            queue_high_water: args.get("queue-high-water", defaults.queue_high_water),
            max_step_budget,
            max_timeout,
        },
        http: Default::default(),
        max_connections: args.get("max-connections", ServerConfig::default().max_connections),
    };
    let workers = config.batch.workers;

    let server = match args.get_str("data-dir") {
        Some(dir) => {
            let dir = dir.to_owned();
            let wal_defaults = WalConfig::default();
            let fsync =
                args.get_str("fsync").and_then(FsyncPolicy::parse).unwrap_or(wal_defaults.fsync);
            let wal_config = WalConfig {
                fsync,
                checkpoint_bytes: args.get("wal-checkpoint-bytes", wal_defaults.checkpoint_bytes),
            };
            eprintln!("recovering durable state from {dir} (fsync={fsync}) ...");
            let recovery = DurableEngine::recover(&dir, wal_config, || Ok(build_engine(&args)));
            let recovery = or_exit(recovery, &format!("cannot recover from {dir}"));
            // Bind before replaying so orchestration can watch /healthz
            // flip from 503 "recovering" to 200.
            let server = or_exit(serve_gated(recovery.engine(), config), "cannot bind");
            announce(&server, workers);
            let replay_failed = "write-ahead log replay failed, so kg-serve refuses to serve \
                                 a prefix of the acknowledged updates";
            let (durable, report) = or_exit(recovery.replay(), replay_failed);
            eprintln!(
                "recovery complete: checkpoint seq {}, {} replayed, {} skipped, {} torn bytes \
                 truncated, {:.3}s",
                report.checkpoint_seq,
                report.replayed,
                report.skipped,
                report.truncated_bytes,
                report.elapsed.as_secs_f64(),
            );
            server.install_durable(Arc::new(durable));
            println!("ready (durable, fsync={fsync})");
            server
        }
        None => {
            let server = or_exit(serve(Arc::new(build_engine(&args)), config), "cannot bind");
            announce(&server, workers);
            server
        }
    };
    println!("try: curl -s http://{}/healthz", server.addr());

    // Serve until stdin says `shutdown` (graceful: drain + flush +
    // checkpoint) or the process is killed (treated as a crash; durable
    // mode recovers by replaying the log). EOF on stdin — e.g. running
    // daemonized with stdin from /dev/null — just parks forever.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "shutdown" => {
                eprintln!("shutdown requested; draining ...");
                server.shutdown();
                eprintln!("bye");
                return;
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    loop {
        std::thread::park();
    }
}

/// `result`'s value, or exit with status 1 after printing `what` and
/// the error.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1)
    })
}

fn announce(server: &ServerHandle, workers: usize) {
    let info = server.engine().info();
    println!(
        "kg-serve listening on http://{} ({} vertices, {} edges, {} labels, epoch {}, {} workers)",
        server.addr(),
        info.num_vertices,
        info.num_edges,
        info.num_labels,
        info.epoch,
        workers
    );
}
