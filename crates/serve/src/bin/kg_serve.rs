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
//! - `--snapshot PATH` — serve an engine snapshot (graph + index) saved
//!   by `LscrEngine::save_snapshot_file`. Without it, a LUBM replica is
//!   generated from `--universities`/`--departments`/`--seed`.
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
//! - `--build-index` — build the local index up front instead of lazily
//!   on the first INS query.
//! - `--workers N` (searches that may run at once, in place on
//!   connection threads and on the pool's N threads together),
//!   `--queue-high-water N`, `--max-connections N` — admission tuning.
//! - `--max-step-budget N`, `--max-timeout-ms N` — per-query work
//!   ceilings (`0` disables the ceiling).
//!
//! Writing `shutdown` on stdin triggers a graceful shutdown (drain, then
//! in durable mode flush + checkpoint). Any other termination is treated
//! as a crash — safe in durable mode, where recovery replays the log.

use kgreach::{DurableEngine, FsyncPolicy, LscrEngine, WalConfig};
use kgreach_datagen::lubm;
use kgreach_serve::cli::Args;
use kgreach_serve::{serve, serve_gated, BatchConfig, ServerConfig, ServerHandle};
use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

fn build_engine(args: &Args) -> LscrEngine {
    match args.get_str("snapshot") {
        Some(path) => {
            eprintln!("loading engine snapshot from {path} ...");
            match LscrEngine::from_snapshot_file(path) {
                Ok(engine) => engine,
                Err(e) => {
                    eprintln!("error: cannot load snapshot {path}: {e}");
                    std::process::exit(1);
                }
            }
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
    let args = Args::parse();
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
        max_connections: args.get("max-connections", 256),
    };
    let workers = config.batch.workers;

    let server = match args.get_str("data-dir") {
        Some(dir) => {
            let dir = dir.to_owned();
            let fsync_arg = args.get_str("fsync").unwrap_or("always").to_owned();
            let Some(fsync) = FsyncPolicy::parse(&fsync_arg) else {
                eprintln!("error: --fsync must be one of always|batch|off, got '{fsync_arg}'");
                std::process::exit(1);
            };
            let wal_config = WalConfig {
                fsync,
                checkpoint_bytes: args.get("wal-checkpoint-bytes", 64u64 << 20),
            };
            eprintln!("recovering durable state from {dir} (fsync={fsync}) ...");
            let recovery =
                match DurableEngine::recover(&dir, wal_config, || Ok(build_engine(&args))) {
                    Ok(recovery) => recovery,
                    Err(e) => {
                        eprintln!("error: cannot recover from {dir}: {e}");
                        std::process::exit(1);
                    }
                };
            // Bind before replaying so orchestration can watch /healthz
            // flip from 503 "recovering" to 200.
            let server = must_bind(serve_gated(recovery.engine(), config));
            announce(&server, workers);
            let (durable, report) = match recovery.replay() {
                Ok(done) => done,
                Err(e) => {
                    eprintln!("error: write-ahead log replay failed: {e}");
                    eprintln!("refusing to serve a prefix of the acknowledged updates");
                    std::process::exit(1);
                }
            };
            if args.has("build-index") {
                eprintln!("building local index ...");
                durable.engine().local_index();
            }
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
            let engine = build_engine(&args);
            if args.has("build-index") {
                eprintln!("building local index ...");
                engine.local_index();
            }
            let server = must_bind(serve(Arc::new(engine), config));
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

fn must_bind(result: std::io::Result<ServerHandle>) -> ServerHandle {
    match result {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            std::process::exit(1);
        }
    }
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
